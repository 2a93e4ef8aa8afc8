//! Seeded property tests for the algorithm crate (hermetic replacement
//! for the old proptest suite): on arbitrary random instances every
//! algorithm must return a feasible solution that never beats the exact
//! optimum, and the combined algorithm must stay within its proved
//! factor of it.
//!
//! Build with `--features proptest` to raise the iteration counts.

use std::fmt::Debug;

use lp_solver::SimplexOptions;
use sap_algs::{
    baselines::greedy_sap_best, solve, solve_exact_sap, solve_lemma13_dp, try_solve_large,
    try_solve_medium_with_stats, try_solve_small, ExactConfig, Lemma13Config, MediumParams,
    SapParams, SmallAlgo,
};
use sap_core::{Budget, Instance, PathNetwork, SapError, SapResult, Span, Task, TaskId};
use sap_gen::{generate, DemandRegime, GenConfig, Rng64};

const CASES: u64 = if cfg!(feature = "proptest") { 192 } else { 40 };

/// The exact optimum's weight (unbudgeted).
fn opt(inst: &Instance, ids: &[TaskId]) -> u64 {
    solve_exact_sap(inst, ids, ExactConfig::default(), &Budget::unlimited())
        .unwrap()
        .optimal()
        .expect("budget")
        .weight(inst)
}

fn arb_instance(rng: &mut Rng64, max_tasks: usize) -> Instance {
    let m = rng.gen_range(2usize..=5);
    let n = rng.gen_range(1usize..=max_tasks);
    let caps: Vec<u64> = (0..m).map(|_| rng.gen_range(8u64..=64)).collect();
    let net = PathNetwork::new(caps).unwrap();
    let tasks: Vec<Task> = (0..n)
        .map(|_| {
            let lo = rng.gen_range(0..m);
            let len = rng.gen_range(1..=m);
            let hi = (lo + len).min(m).max(lo + 1);
            let b = net.bottleneck(Span::new(lo, hi).unwrap());
            let d = rng.gen_range(1u64..=64);
            Task::of(lo, hi, d.min(b).max(1), rng.gen_range(1u64..=25))
        })
        .collect();
    Instance::new(net, tasks).unwrap()
}

/// The combined algorithm: feasible, ≤ OPT, and ≥ OPT/10 (Theorem 4
/// with slack for the ε terms).
#[test]
fn combined_sandwiched_by_exact() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0xa195_0001 ^ case);
        let inst = arb_instance(&mut rng, 9);
        let ids = inst.all_ids();
        let opt = opt(&inst, &ids);
        let sol = solve(&inst, &ids, &SapParams::default());
        sol.validate(&inst).unwrap();
        let w = sol.weight(&inst);
        assert!(w <= opt, "case {case}");
        assert!(10 * w >= opt, "case {case}: combined {w} vs opt {opt}");
    }
}

/// Every per-regime algorithm is feasible on arbitrary inputs (their
/// ratio only holds on their regime, but feasibility must always).
#[test]
fn all_algorithms_always_feasible() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0xa195_0002 ^ case);
        let inst = arb_instance(&mut rng, 12);
        let ids = inst.all_ids();
        let unlimited = Budget::unlimited();
        for algo in [SmallAlgo::LpRounding, SmallAlgo::LocalRatio] {
            try_solve_small(&inst, &ids, algo, SimplexOptions::default(), 0, &unlimited)
                .unwrap()
                .solution
                .validate(&inst)
                .unwrap();
        }
        try_solve_medium_with_stats(&inst, &ids, MediumParams::default(), 0, &unlimited)
            .unwrap()
            .0
            .validate(&inst)
            .unwrap();
        if let Some(s) = try_solve_large(&inst, &ids, &unlimited).unwrap() {
            s.validate(&inst).unwrap();
        }
        greedy_sap_best(&inst, &ids).validate(&inst).unwrap();
    }
}

/// The exact solver is monotone: adding tasks never lowers OPT.
#[test]
fn exact_is_monotone_in_task_set() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0xa195_0003 ^ case);
        let inst = arb_instance(&mut rng, 8);
        let ids = inst.all_ids();
        let full = opt(&inst, &ids);
        let half: Vec<_> = ids.iter().copied().take(ids.len() / 2).collect();
        let sub = opt(&inst, &half);
        assert!(sub <= full, "case {case}");
    }
}

/// Uniform-capacity instances: the Chen et al. column DP agrees with
/// the search-based exact solver (two independent exact algorithms).
#[test]
fn sapu_dp_cross_validates_exact() {
    for case in 0..CASES {
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
        let dp = sap_algs::solve_sapu_exact_dp(&inst, &ids);
        dp.validate(&inst).unwrap();
        assert_eq!(dp.weight(&inst), opt(&inst, &ids), "case {case}");
    }
}

/// Checks one core's work-unit boundary and returns `(U, L*)`: `U` is
/// what the core meters under `Budget::unlimited()`, and `L*` the first
/// work-unit limit that does not trip. Every limit probed on the way must
/// either trip with `BudgetExhausted` or reproduce the unlimited run's
/// result and per-class work profile exactly.
fn limit_boundary<T: PartialEq + Debug>(
    what: &str,
    core: impl Fn(&Budget) -> SapResult<T>,
) -> (u64, u64) {
    let unlimited = Budget::unlimited();
    let free = core(&unlimited).unwrap();
    let free_profile = unlimited.work_profile();
    let u = unlimited.consumed();
    assert!(u > 0, "{what}: the core metered nothing");
    let completes = |limit: u64| {
        let budget = Budget::unlimited().with_work_units(limit);
        match core(&budget) {
            Ok(out) => {
                assert_eq!(out, free, "{what}: limit {limit} (U = {u}) steered the result");
                assert_eq!(budget.work_profile(), free_profile, "{what}: limit {limit}");
                true
            }
            Err(SapError::BudgetExhausted) => false,
            Err(e) => panic!("{what}: limit {limit} failed with {e}"),
        }
    };
    assert!(!completes(u - 1), "{what}: U − 1 = {} did not trip", u - 1);
    // Limits are monotone (a larger limit never trips where a smaller
    // one completed), so bracket L* and bisect.
    let (mut lo, mut hi) = (u - 1, u);
    while !completes(hi) {
        lo = hi;
        hi = hi.saturating_mul(2);
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if completes(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    (u, hi)
}

/// A work-unit limit only trips a core and never steers it.
///
/// The single-meter cores (exact search, Lemma-13 DP, rectangle
/// packing) meet the boundary exactly: under a limit of `U` they return
/// the unlimited result with the same work profile, and under `U − 1`
/// they trip. The small and medium arms fan out through
/// `map_reduce_isolated`, which splits the limit into fixed per-item
/// shares before dispatch so that trip points do not depend on the
/// worker width. One stratum or class can then exhaust its share while
/// the total stays under the limit, so for them the first non-tripping
/// limit `L*` can exceed `U`; below `L*` they trip, from `L*` on they
/// reproduce the unlimited run.
#[test]
fn work_limits_trip_but_never_steer() {
    let config = |regime, edges, tasks| GenConfig { regime, ..GenConfig::mixed(edges, tasks) };
    for seed in 1..=3 {
        let inst = generate(&config(DemandRegime::Mixed, 6, 9), seed);
        let ids = inst.all_ids();
        let (u, l) = limit_boundary("exact", |b| {
            solve_exact_sap(&inst, &ids, ExactConfig::default(), b)
        });
        assert_eq!(l, u, "exact, seed {seed}");
        let (u, l) = limit_boundary("lemma13", |b| {
            solve_lemma13_dp(&inst, &ids, Lemma13Config::default(), b)
        });
        assert_eq!(l, u, "lemma13, seed {seed}");

        let inst = generate(&config(DemandRegime::Large { k: 2 }, 12, 40), seed);
        let ids = inst.all_ids();
        let (u, l) = limit_boundary("large", |b| try_solve_large(&inst, &ids, b));
        assert_eq!(l, u, "large, seed {seed}");

        let inst = generate(&config(DemandRegime::Small { delta_inv: 16 }, 12, 40), seed);
        let ids = inst.all_ids();
        let (u, l) = limit_boundary("small", |b| {
            let opts = SimplexOptions::default();
            try_solve_small(&inst, &ids, SmallAlgo::LpRounding, opts, 1, b).map(|r| r.solution)
        });
        assert!(l >= u, "small, seed {seed}");

        let inst = generate(&config(DemandRegime::Medium { delta_inv: 8 }, 8, 14), seed);
        let ids = inst.all_ids();
        let (u, l) = limit_boundary("medium", |b| {
            try_solve_medium_with_stats(&inst, &ids, MediumParams::default(), 1, b).map(|r| r.0)
        });
        assert!(l >= u, "medium, seed {seed}");
    }
}
