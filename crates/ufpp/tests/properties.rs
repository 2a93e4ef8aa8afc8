//! Seeded property tests for the UFPP algorithms (hermetic replacement
//! for the old proptest suite — same invariants, in-repo PRNG).
//!
//! Build with `--features proptest` to raise the iteration counts.

use lp_solver::SimplexOptions;
use sap_core::{Budget, Instance, PathNetwork, Span, Task, TaskId, UfppSolution};
use sap_gen::Rng64;

const CASES: u64 = if cfg!(feature = "proptest") { 512 } else { 96 };

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
    let mut best = 0;
    for mask in 0u32..(1 << n) {
        let sel: Vec<TaskId> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
        if UfppSolution::new(sel.clone()).validate(inst).is_ok() {
            best = best.max(inst.total_weight(&sel));
        }
    }
    best
}

/// The LP relaxation dominates the integral optimum.
#[test]
fn lp_dominates_integral() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0x0f99_0002 ^ case);
        let inst = arb_instance(&mut rng);
        let (_, lp) = ufpp::lp_upper_bound(&inst, &inst.all_ids());
        assert!(lp + 1e-6 >= brute_force(&inst) as f64, "case {case}");
    }
}

/// Algorithm Strip stays ½B-packable on banded instances and selects
/// only eligible tasks.
#[test]
fn strip_packability() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0x0f99_0004 ^ case);
        let inst = arb_instance(&mut rng);
        // Band the instance: B = min capacity (so all b(j) ∈ [B, 2B) is
        // not guaranteed — the packability invariant must hold anyway).
        let b = inst.network().min_capacity();
        let ids: Vec<TaskId> = inst
            .all_ids()
            .into_iter()
            .filter(|&j| 2 * inst.demand(j) <= b)
            .collect();
        let sol = ufpp::strip_local_ratio(&inst, &ids, b);
        sol.validate_packable(&inst, b / 2).unwrap();
    }
}

/// Rounded LP solutions respect their bound exactly.
#[test]
fn rounding_respects_bound() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0x0f99_0005 ^ case);
        let inst = arb_instance(&mut rng);
        let divisor = rng.gen_range(1u64..=4);
        let bound = (inst.network().min_capacity() / divisor).max(1);
        let r = ufpp::round_scaled_lp(
            &inst,
            &inst.all_ids(),
            bound,
            SimplexOptions::default(),
            &Budget::unlimited(),
        )
        .unwrap();
        r.solution.validate_packable(&inst, bound).unwrap();
        r.solution.validate(&inst).unwrap();
    }
}
