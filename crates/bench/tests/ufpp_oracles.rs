//! The UFPP comparators of `sap_bench::oracles::ufpp`: the exact branch
//! and bound equals subset brute force, and the heuristic, greedy and
//! Bonsma-et-al.-style portfolio solvers return feasible solutions that
//! never beat it.

use sap_bench::oracles::ufpp::{
    combined::medium_framework, greedy_by_density, greedy_by_weight,
    round_lp_against_capacities, solve_exact, solve_ufpp_combined, solve_ufpp_heuristic,
    weighted_interval_scheduling, UfppParams,
};
use sap_core::{Instance, PathNetwork, Span, Task, TaskId, UfppSolution};
use sap_gen::Rng64;

/// A seeded xorshift stream.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// A random instance with capacities in `cap.0 .. cap.0 + cap.1` and
/// weights in `1 ..= max_weight`.
fn instance(seed: u64, m: usize, n: usize, cap: (u64, u64), max_weight: u64) -> Instance {
    let mut next = xorshift(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
    let caps: Vec<u64> = (0..m).map(|_| cap.0 + next() % cap.1).collect();
    let net = PathNetwork::new(caps).unwrap();
    let tasks: Vec<Task> = (0..n)
        .map(|_| {
            let lo = (next() % m as u64) as usize;
            let hi = (lo + 1 + (next() % (m as u64 - lo as u64)) as usize).min(m);
            let b = net.bottleneck(Span { lo, hi });
            Task::of(lo, hi, 1 + next() % b, 1 + next() % max_weight)
        })
        .collect();
    Instance::new(net, tasks).unwrap()
}

fn arb_instance(rng: &mut Rng64) -> Instance {
    let m = rng.gen_range(2usize..=6);
    let n = rng.gen_range(1usize..=12);
    let caps: Vec<u64> = (0..m).map(|_| rng.gen_range(4u64..=64)).collect();
    let net = PathNetwork::new(caps).unwrap();
    let tasks: Vec<Task> = (0..n)
        .map(|_| {
            let lo = rng.gen_range(0..m);
            let len = rng.gen_range(1..=m);
            let hi = (lo + len).min(m).max(lo + 1);
            let b = net.bottleneck(Span::new(lo, hi).unwrap());
            let d = rng.gen_range(1u64..=64);
            Task::of(lo, hi, d.min(b).max(1), rng.gen_range(0u64..30))
        })
        .collect();
    Instance::new(net, tasks).unwrap()
}

fn brute_force(inst: &Instance) -> u64 {
    let n = inst.num_tasks();
    assert!(n <= 20);
    let mut best = 0;
    for mask in 0u32..(1 << n) {
        let sel: Vec<TaskId> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
        if UfppSolution::new(sel.clone()).validate(inst).is_ok() {
            best = best.max(inst.total_weight(&sel));
        }
    }
    best
}

/// The exact B&B equals subset brute force on arbitrary instances.
#[test]
fn exact_matches_bruteforce_on_arbitrary_instances() {
    for case in 0..96 {
        let mut rng = Rng64::seed_from_u64(0x0f99_0001 ^ case);
        let inst = arb_instance(&mut rng);
        let sol = solve_exact(&inst, &inst.all_ids());
        sol.validate(&inst).unwrap();
        assert_eq!(sol.weight(&inst), brute_force(&inst), "case {case}");
    }
}

/// The exact B&B equals subset brute force on small-capacity instances,
/// zero weights included.
#[test]
fn exact_matches_bruteforce_on_small_capacities() {
    let mut next = xorshift(0xFACE);
    for case in 0..40 {
        let m = 2 + (next() % 6) as usize;
        let caps: Vec<u64> = (0..m).map(|_| 2 + next() % 12).collect();
        let net = PathNetwork::new(caps).unwrap();
        let mut tasks = Vec::new();
        for _ in 0..(1 + next() % 12) {
            let lo = (next() % m as u64) as usize;
            let hi = (lo + 1 + (next() % (m as u64 - lo as u64)) as usize).min(m);
            let b = net.bottleneck(Span { lo, hi });
            tasks.push(Task::of(lo, hi, 1 + next() % b, next() % 25));
        }
        let inst = Instance::new(net, tasks).unwrap();
        let sol = solve_exact(&inst, &inst.all_ids());
        sol.validate(&inst).unwrap();
        assert_eq!(sol.weight(&inst), brute_force(&inst), "case {case}");
    }
}

#[test]
fn exact_knapsack_special_case() {
    // All tasks share an edge — UFPP degenerates to knapsack.
    let net = PathNetwork::new(vec![10]).unwrap();
    let tasks = vec![Task::of(0, 1, 6, 60), Task::of(0, 1, 5, 50), Task::of(0, 1, 5, 50)];
    let inst = Instance::new(net, tasks).unwrap();
    assert_eq!(solve_exact(&inst, &inst.all_ids()).weight(&inst), 100);
}

#[test]
fn empty_inputs() {
    let net = PathNetwork::uniform(2, 4).unwrap();
    let inst = Instance::new(net, vec![]).unwrap();
    assert!(solve_exact(&inst, &[]).is_empty());
    assert!(weighted_interval_scheduling(&inst, &[]).is_empty());
    let inst = instance(0, 4, 5, (8, 56), 20);
    assert!(solve_ufpp_heuristic(&inst, &[]).is_empty());
    assert!(solve_ufpp_combined(&inst, &[], &UfppParams::default()).0.is_empty());
}

/// Greedy baselines always return feasible solutions not beating OPT.
#[test]
fn greedy_feasible_and_bounded() {
    for case in 0..96 {
        let mut rng = Rng64::seed_from_u64(0x0f99_0003 ^ case);
        let inst = arb_instance(&mut rng);
        let opt = brute_force(&inst);
        for sol in
            [greedy_by_weight(&inst, &inst.all_ids()), greedy_by_density(&inst, &inst.all_ids())]
        {
            sol.validate(&inst).unwrap();
            assert!(sol.weight(&inst) <= opt, "case {case}");
        }
    }
}

#[test]
fn greedy_solutions_are_feasible_and_maximal() {
    let net = PathNetwork::new(vec![5, 3, 5]).unwrap();
    let tasks = vec![
        Task::of(0, 3, 3, 10),
        Task::of(0, 1, 2, 2),
        Task::of(2, 3, 2, 2),
        Task::of(1, 2, 1, 1),
    ];
    let inst = Instance::new(net, tasks).unwrap();
    for sol in [greedy_by_weight(&inst, &inst.all_ids()), greedy_by_density(&inst, &inst.all_ids())]
    {
        sol.validate(&inst).unwrap();
        assert!(sol.tasks.contains(&0), "heaviest task always fits first");
    }
}

#[test]
fn weight_greedy_can_be_beaten_by_density() {
    // One heavy long task blocks two light short ones whose sum wins.
    let net = PathNetwork::uniform(4, 2).unwrap();
    let tasks = vec![
        Task::of(0, 4, 2, 5), // heavy blocker
        Task::of(0, 2, 2, 3),
        Task::of(2, 4, 2, 3),
    ];
    let inst = Instance::new(net, tasks).unwrap();
    assert_eq!(greedy_by_weight(&inst, &inst.all_ids()).weight(&inst), 5);
    assert_eq!(greedy_by_density(&inst, &inst.all_ids()).weight(&inst), 6);
}

#[test]
fn interval_scheduling_exact() {
    let net = PathNetwork::uniform(6, 10).unwrap();
    let tasks = vec![
        Task::of(0, 3, 1, 4),
        Task::of(2, 5, 1, 5),
        Task::of(3, 6, 1, 3),
        Task::of(0, 2, 1, 2),
    ];
    let inst = Instance::new(net, tasks).unwrap();
    let sol = weighted_interval_scheduling(&inst, &inst.all_ids());
    // Best: task 3 (w=2) + task 1 (w=5) = 7, vs task 0+2 = 7 — both
    // optimal; verify weight only.
    assert_eq!(inst.total_weight(&sol), 7);
}

/// Weighted interval scheduling returns pairwise-disjoint spans and is
/// optimal among such sets (checked by brute force over subsets).
#[test]
fn interval_scheduling_exactness() {
    for case in 0..96 {
        let mut rng = Rng64::seed_from_u64(0x0f99_0006 ^ case);
        let inst = arb_instance(&mut rng);
        let sol = weighted_interval_scheduling(&inst, &inst.all_ids());
        for (i, &a) in sol.iter().enumerate() {
            for &b in &sol[i + 1..] {
                assert!(!inst.span(a).overlaps(inst.span(b)), "case {case}");
            }
        }
        let n = inst.num_tasks();
        let mut best = 0u64;
        'mask: for mask in 0u32..(1 << n) {
            let sel: Vec<TaskId> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
            for (i, &a) in sel.iter().enumerate() {
                for &b in &sel[i + 1..] {
                    if inst.span(a).overlaps(inst.span(b)) {
                        continue 'mask;
                    }
                }
            }
            best = best.max(inst.total_weight(&sel));
        }
        assert_eq!(inst.total_weight(&sol), best, "case {case}");
    }
}

#[test]
fn heuristic_feasible_and_dominates_components() {
    for seed in 0..8 {
        let inst = instance(seed, 8, 30, (8, 56), 20);
        let ids = inst.all_ids();
        let best = solve_ufpp_heuristic(&inst, &ids);
        best.validate(&inst).unwrap();
        let lp = round_lp_against_capacities(&inst, &ids);
        lp.validate(&inst).unwrap();
        assert!(best.weight(&inst) >= lp.weight(&inst));
        assert!(best.weight(&inst) >= greedy_by_weight(&inst, &ids).weight(&inst));
    }
}

#[test]
fn heuristic_close_to_exact_on_small_instances() {
    for seed in 0..8 {
        let inst = instance(seed + 50, 5, 12, (8, 56), 20);
        let ids = inst.all_ids();
        let best = solve_ufpp_heuristic(&inst, &ids).weight(&inst);
        let opt = solve_exact(&inst, &ids).weight(&inst);
        assert!(best <= opt);
        assert!(2 * best >= opt, "seed {seed}: heuristic {best} vs opt {opt}");
    }
}

#[test]
fn combined_ufpp_is_feasible_and_reports_winner() {
    for seed in 0..8 {
        let inst = instance(seed, 8, 40, (32, 224), 30);
        let ids = inst.all_ids();
        let (sol, stats) = solve_ufpp_combined(&inst, &ids, &UfppParams::default());
        sol.validate(&inst).unwrap();
        let w = sol.weight(&inst);
        assert_eq!(w, stats.small_weight.max(stats.medium_weight).max(stats.large_weight));
        assert!(["small", "medium", "large"].contains(&stats.winner));
    }
}

#[test]
fn combined_ufpp_ratio_on_small_instances() {
    // Measured comparator: stays within a small constant of exact.
    for seed in 0..8 {
        let inst = instance(seed + 30, 5, 11, (32, 224), 30);
        let ids = inst.all_ids();
        let opt = solve_exact(&inst, &ids).weight(&inst);
        let (sol, _) = solve_ufpp_combined(&inst, &ids, &UfppParams::default());
        let w = sol.weight(&inst);
        assert!(w <= opt);
        assert!(8 * w >= opt, "seed {seed}: combined-UFPP {w} vs opt {opt}");
    }
}

#[test]
fn medium_framework_unions_are_feasible() {
    // The framework on its own, fed every ½-small task.
    for seed in 0..6 {
        let inst = instance(seed + 60, 10, 50, (32, 224), 30);
        let ids: Vec<TaskId> = inst
            .all_ids()
            .into_iter()
            .filter(|&j| 2 * inst.demand(j) <= inst.bottleneck(j))
            .collect();
        medium_framework(&inst, &ids, &UfppParams::default()).validate(&inst).unwrap();
    }
}
