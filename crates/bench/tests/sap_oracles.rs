//! The reference SAP solvers of `sap_bench::oracles`: the Lemma 13 DP
//! and the SAP-U column DP each agree with the search-based exact solver
//! of `sap_algs::exact`, so a bug in any one of them would have to be
//! mirrored in a completely different algorithm to go unnoticed.

use sap_algs::{solve_exact_sap, ExactConfig};
use sap_bench::oracles::{solve_lemma13_dp, solve_sapu_exact_dp, ufpp, Lemma13Config};
use sap_core::{Budget, Instance, PathNetwork, SapError, SapSolution, Span, Task, TaskId};
use sap_gen::{generate, DemandRegime, GenConfig, Rng64};

/// A seeded xorshift stream.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// The exact optimum's weight (unbudgeted).
fn opt(inst: &Instance, ids: &[TaskId]) -> u64 {
    solve_exact_sap(inst, ids, ExactConfig::default(), &Budget::unlimited())
        .unwrap()
        .optimal()
        .expect("budget")
        .weight(inst)
}

/// The same instance with every weight set to `w`: equal-weight optima
/// are common, so tie-breaking decides the placements.
fn equal_weights(base: &Instance, w: u64) -> Instance {
    let tasks: Vec<Task> = base
        .all_ids()
        .iter()
        .map(|&j| {
            let sp = base.span(j);
            Task::of(sp.lo, sp.hi, base.demand(j), w)
        })
        .collect();
    Instance::new(base.network().clone(), tasks).unwrap()
}

/// Unbudgeted Lemma 13 DP run.
fn dp(inst: &Instance, ids: &[TaskId], config: Lemma13Config) -> Option<SapSolution> {
    solve_lemma13_dp(inst, ids, config, &Budget::unlimited()).unwrap()
}

fn random_instance(seed: u64, m: usize, n: usize, delta_inv_max: u64) -> Instance {
    let mut next = xorshift(seed);
    let caps: Vec<u64> = (0..m).map(|_| 16 + next() % 48).collect();
    let net = PathNetwork::new(caps).unwrap();
    let tasks: Vec<Task> = (0..n)
        .map(|_| {
            let lo = (next() % m as u64) as usize;
            let hi = (lo + 1 + (next() % (m as u64 - lo as u64)) as usize).min(m);
            let b = net.bottleneck(Span { lo, hi });
            // δ-large-ish demands so crossing sets stay small.
            let d = (b / delta_inv_max + 1 + next() % b).min(b).max(1);
            Task::of(lo, hi, d, 1 + next() % 20)
        })
        .collect();
    Instance::new(net, tasks).unwrap()
}

fn random_sapu(seed: u64, m: usize, n: usize, k: u64) -> Instance {
    let mut next = xorshift(seed);
    let net = PathNetwork::uniform(m, k).unwrap();
    let tasks: Vec<Task> = (0..n)
        .map(|_| {
            let lo = (next() % m as u64) as usize;
            let hi = (lo + 1 + (next() % (m as u64 - lo as u64)) as usize).min(m);
            Task::of(lo, hi, 1 + next() % k, 1 + next() % 20)
        })
        .collect();
    Instance::new(net, tasks).unwrap()
}

#[test]
fn lemma13_placements_do_not_depend_on_map_order() {
    // Equal task weights make equal-weight optima common, so the final
    // `max_by_key` constantly breaks ties. The DP maps are BTreeMaps
    // precisely so those ties resolve the same way every run — with
    // HashMaps each run draws a fresh RandomState and repeated
    // in-process solves could return different (equally optimal)
    // placement sets.
    for seed in 0..6 {
        let inst = equal_weights(&random_instance(seed, 4, 8, 4), 7);
        let ids = inst.all_ids();
        let first = dp(&inst, &ids, Lemma13Config::default()).expect("budget");
        for round in 0..4 {
            let again = dp(&inst, &ids, Lemma13Config::default()).expect("budget");
            assert_eq!(first.placements, again.placements, "seed {seed} round {round}");
        }
    }
}

#[test]
fn lemma13_matches_search_exact() {
    for seed in 0..12 {
        let inst = random_instance(seed, 5, 9, 4);
        let ids = inst.all_ids();
        let sol = dp(&inst, &ids, Lemma13Config::default()).expect("budget");
        sol.validate(&inst).unwrap();
        assert_eq!(sol.weight(&inst), opt(&inst, &ids), "seed {seed}");
    }
}

#[test]
fn lemma13_on_knapsack_core() {
    let net = PathNetwork::new(vec![10]).unwrap();
    let tasks = vec![Task::of(0, 1, 6, 60), Task::of(0, 1, 5, 50), Task::of(0, 1, 5, 50)];
    let inst = Instance::new(net, tasks).unwrap();
    let sol = dp(&inst, &inst.all_ids(), Lemma13Config::default()).unwrap();
    assert_eq!(sol.weight(&inst), 100);
}

#[test]
fn lemma13_respects_height_interactions_across_edges() {
    // A task entering later must be placeable *under* an earlier one:
    // the subset-sum candidate heights make this possible.
    let net = PathNetwork::new(vec![8, 8, 8]).unwrap();
    let tasks = vec![
        Task::of(0, 3, 3, 10), // long
        Task::of(1, 3, 5, 10), // must sit above or below the long one
        Task::of(0, 1, 5, 10), // forces the long task up on edge 0
    ];
    let inst = Instance::new(net, tasks).unwrap();
    let sol = dp(&inst, &inst.all_ids(), Lemma13Config::default()).unwrap();
    // All three fit: task 2 at [0,5), task 0 at [5,8), task 1 at [0,5).
    assert_eq!(sol.weight(&inst), 30);
    assert_eq!(sol.len(), 3);
}

#[test]
fn lemma13_empty_and_budget() {
    let inst = random_instance(0, 3, 4, 4);
    assert!(dp(&inst, &[], Lemma13Config::default()).unwrap().is_empty());
    // A tiny state budget must be reported as exhaustion, not wrong
    // answers.
    let tight = Lemma13Config { max_states: 1, max_heights: 4096 };
    let r = dp(&inst, &inst.all_ids(), tight);
    assert!(r.is_none() || r.unwrap().validate(&inst).is_ok());
}

/// A work-unit limit only trips the DP and never steers it. The DP is a
/// single-meter core, so it meets the boundary exactly: under a limit of
/// its unlimited meter reading `U` it returns the unlimited result with
/// the same work profile, and under `U − 1` it trips.
#[test]
fn lemma13_work_limit_trips_but_never_steers() {
    let config = GenConfig { regime: DemandRegime::Mixed, ..GenConfig::mixed(6, 9) };
    for seed in 1..=3 {
        let inst = generate(&config, seed);
        let ids = inst.all_ids();
        let run = |b: &Budget| solve_lemma13_dp(&inst, &ids, Lemma13Config::default(), b);
        let unlimited = Budget::unlimited();
        let free = run(&unlimited).unwrap();
        let u = unlimited.consumed();
        assert!(u > 0, "seed {seed}: the DP metered nothing");
        let at_u = Budget::unlimited().with_work_units(u);
        assert_eq!(run(&at_u).unwrap(), free, "seed {seed}: limit U steered the result");
        assert_eq!(at_u.work_profile(), unlimited.work_profile(), "seed {seed}");
        let below = Budget::unlimited().with_work_units(u - 1);
        assert_eq!(run(&below), Err(SapError::BudgetExhausted), "seed {seed}: U − 1");
    }
}

#[test]
fn sapu_placements_do_not_depend_on_map_order() {
    // Equal weights force constant tie-breaking in the final state scan;
    // BTreeMap layers make every repeated solve return the same
    // placements (HashMap layers re-seed per map and could pick a
    // different equally-optimal state each run).
    for (seed, k) in [(1u64, 3u64), (2, 4), (3, 5)] {
        let inst = equal_weights(&random_sapu(seed, 4, 8, k), 5);
        let ids = inst.all_ids();
        let first = solve_sapu_exact_dp(&inst, &ids);
        for round in 0..4 {
            let again = solve_sapu_exact_dp(&inst, &ids);
            assert_eq!(first.placements, again.placements, "seed {seed} round {round}");
        }
    }
}

#[test]
fn sapu_matches_search_based_exact_solver() {
    for (seed, k) in [(1u64, 2u64), (2, 3), (3, 4), (4, 5), (5, 3), (6, 4)] {
        let inst = random_sapu(seed, 5, 10, k);
        let ids = inst.all_ids();
        let dp = solve_sapu_exact_dp(&inst, &ids);
        dp.validate(&inst).unwrap();
        assert_eq!(dp.weight(&inst), opt(&inst, &ids), "seed {seed}, K={k}");
    }
}

/// Uniform-capacity instances: the Chen et al. column DP agrees with the
/// search-based exact solver (two independent exact algorithms).
#[test]
fn sapu_dp_cross_validates_exact() {
    for case in 0..40 {
        let mut rng = Rng64::seed_from_u64(0xa195_0004 ^ case);
        let m = rng.gen_range(2usize..=5);
        let k = rng.gen_range(2u64..=5);
        let n = rng.gen_range(1usize..=9);
        let net = PathNetwork::uniform(m, k).unwrap();
        let tasks: Vec<Task> = (0..n)
            .map(|_| {
                let lo = rng.gen_range(0usize..5).min(m - 1);
                let len = rng.gen_range(1usize..=5);
                let hi = (lo + len).min(m).max(lo + 1);
                let d = rng.gen_range(1u64..=5);
                Task::of(lo, hi, d.min(k), rng.gen_range(1u64..=20))
            })
            .collect();
        let inst = Instance::new(net, tasks).unwrap();
        let ids = inst.all_ids();
        let dp = solve_sapu_exact_dp(&inst, &ids);
        dp.validate(&inst).unwrap();
        assert_eq!(dp.weight(&inst), opt(&inst, &ids), "case {case}");
    }
}

#[test]
fn sapu_unit_capacity_is_interval_scheduling() {
    let inst = random_sapu(7, 6, 12, 1);
    let ids = inst.all_ids();
    let dp = solve_sapu_exact_dp(&inst, &ids);
    let mwis = ufpp::weighted_interval_scheduling(&inst, &ids);
    assert_eq!(dp.weight(&inst), inst.total_weight(&mwis));
}

#[test]
fn sapu_rejects_nonuniform() {
    let net = PathNetwork::new(vec![2, 3]).unwrap();
    let inst = Instance::new(net, vec![Task::of(0, 1, 1, 1)]).unwrap();
    let result = std::panic::catch_unwind(|| solve_sapu_exact_dp(&inst, &[0]));
    assert!(result.is_err());
}

#[test]
fn sapu_empty_input() {
    let inst = random_sapu(8, 4, 0, 3);
    assert!(solve_sapu_exact_dp(&inst, &[]).is_empty());
}

#[test]
fn sapu_full_column_packing() {
    // Demands exactly fill the capacity: the DP must find the tight
    // packing.
    let net = PathNetwork::uniform(2, 4).unwrap();
    let tasks = vec![
        Task::of(0, 2, 2, 5),
        Task::of(0, 2, 1, 3),
        Task::of(0, 2, 1, 3),
        Task::of(0, 2, 2, 4),
    ];
    let inst = Instance::new(net, tasks).unwrap();
    let dp = solve_sapu_exact_dp(&inst, &inst.all_ids());
    assert_eq!(dp.weight(&inst), 11, "2+1+1 units: tasks 0,1,2");
}
