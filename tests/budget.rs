//! Budget semantics of the fault-tolerant solve driver (always-on: no
//! `fault-injection` feature needed).
//!
//! * An unlimited budget reproduces `solve_sap` exactly.
//! * Work-unit budgets degrade *deterministically*: same instance, same
//!   limit → byte-identical solution and report (the work-unit path has
//!   no wall-clock branch).
//! * Every degradation path still yields a validator-clean solution, and
//!   the report says what happened.

use storage_alloc::admission::GREEDY_FLOOR_UNITS;
use storage_alloc::prelude::*;
use storage_alloc::sap_algs::baselines::greedy_sap_best;
use storage_alloc::sap_core::{ArmOutcome, Budget, SolveReport};
use storage_alloc::sap_gen::{generate, CapacityProfile, DemandRegime, GenConfig};
use storage_alloc::{solve_sap, try_solve_sap, try_solve_sap_practical};

fn workload(seed: u64, regime: DemandRegime) -> Instance {
    generate(
        &GenConfig {
            num_edges: 10,
            num_tasks: 40,
            profile: CapacityProfile::Random { lo: 16, hi: 64 },
            regime,
            max_span: 5,
            max_weight: 30,
        },
        seed,
    )
}

#[test]
fn unlimited_budget_matches_solve_sap() {
    for seed in 0..4 {
        let inst = workload(seed, DemandRegime::Mixed);
        let plain = solve_sap(&inst);
        let (budgeted, report) = try_solve_sap(&inst, &Budget::unlimited()).unwrap();
        budgeted.validate(&inst).unwrap();
        assert_eq!(plain.weight(&inst), budgeted.weight(&inst), "seed {seed}");
        assert_eq!(report.weight, budgeted.weight(&inst));
        assert!(report.fallbacks.is_empty(), "seed {seed}: {report:?}");
    }
}

#[test]
fn work_unit_budgets_degrade_deterministically() {
    // Same seed + same work-unit limit ⇒ byte-identical solutions and
    // reports, across the whole degradation range.
    let inst = workload(9, DemandRegime::Mixed);
    for limit in [0u64, 7, 50, 500, 5_000, 50_000] {
        let (sol_a, rep_a) =
            try_solve_sap(&inst, &Budget::unlimited().with_work_units(limit)).unwrap();
        let (sol_b, rep_b) =
            try_solve_sap(&inst, &Budget::unlimited().with_work_units(limit)).unwrap();
        sol_a.validate(&inst).unwrap();
        assert_eq!(sol_a, sol_b, "limit {limit}: solutions must be identical");
        assert_eq!(rep_a, rep_b, "limit {limit}: reports must be identical");
        assert_eq!(
            rep_a.to_json_string(),
            rep_b.to_json_string(),
            "limit {limit}: report JSON must be byte-identical"
        );
    }
}

#[test]
fn degradation_is_identical_across_worker_counts() {
    // Fan-out width must not perturb deterministic degradation: the
    // parallel map splits a metered budget into fixed per-item shares,
    // so the same work-unit limit yields byte-identical solutions and
    // reports at 1, 2, and 8 workers — including runs that trip mid-arm.
    let inst = workload(12, DemandRegime::Mixed);
    let ids = inst.all_ids();
    for limit in [50u64, 5_000, u64::MAX] {
        let runs: Vec<_> = [1usize, 2, 8]
            .into_iter()
            .map(|workers| {
                let params = storage_alloc::sap_algs::SapParams {
                    workers,
                    ..Default::default()
                };
                let budget = Budget::unlimited().with_work_units(limit);
                let (sol, report) =
                    storage_alloc::sap_algs::try_solve(&inst, &ids, &params, &budget).unwrap();
                sol.validate(&inst).unwrap();
                (sol, report.to_json_string())
            })
            .collect();
        for (workers, run) in [2usize, 8].iter().zip(&runs[1..]) {
            assert_eq!(run.0, runs[0].0, "limit {limit}, workers {workers}: solution differs");
            assert_eq!(run.1, runs[0].1, "limit {limit}, workers {workers}: report differs");
        }
    }
}

#[test]
fn exhausted_budget_still_yields_feasible_solution_and_says_so() {
    let inst = workload(3, DemandRegime::Mixed);
    let (sol, report) = try_solve_sap(&inst, &Budget::unlimited().with_work_units(0)).unwrap();
    sol.validate(&inst).unwrap();
    assert!(!sol.is_empty(), "greedy fallback packs something");
    assert!(!report.is_clean());
    assert!(report
        .arms
        .iter()
        .any(|a| a.outcome == ArmOutcome::BudgetExhausted));
    assert_eq!(report.winner, "greedy");
    assert_eq!(report.weight, sol.weight(&inst));
}

#[test]
fn expired_deadline_still_yields_feasible_solution() {
    let inst = workload(4, DemandRegime::Mixed);
    let (sol, report) = try_solve_sap(&inst, &Budget::unlimited().with_deadline_ms(0)).unwrap();
    sol.validate(&inst).unwrap();
    assert!(!sol.is_empty());
    assert_eq!(report.winner, "greedy", "everything past the deadline degrades to greedy");
    assert_eq!(report.weight, sol.weight(&inst));
}

#[test]
fn practical_driver_reports_greedy_takeovers() {
    for seed in 0..4 {
        let inst = workload(seed + 20, DemandRegime::Mixed);
        let (sol, report) = try_solve_sap_practical(&inst, &Budget::unlimited()).unwrap();
        sol.validate(&inst).unwrap();
        assert_eq!(report.weight, sol.weight(&inst));
        let greedy =
            storage_alloc::sap_algs::baselines::greedy_sap_best(&inst, &inst.all_ids());
        assert!(sol.weight(&inst) >= greedy.weight(&inst), "seed {seed}");
        if report.winner == "greedy" && report.fallbacks.is_empty() {
            assert_eq!(sol.weight(&inst), greedy.weight(&inst));
        }
    }
}

#[test]
fn starved_lp_routes_small_arm_to_greedy_and_reports_lp_non_optimal() {
    // Regression for the silent-acceptance audit: a pivot-starved LP must
    // never have its partial fractional point rounded. The arm degrades
    // to greedy and the report labels it `lp_non_optimal`.
    let inst = workload(5, DemandRegime::Small { delta_inv: 16 });
    let ids = inst.all_ids();
    let params = storage_alloc::sap_algs::SapParams {
        lp_max_iters: 1,
        ..Default::default()
    };
    let (sol, report) =
        storage_alloc::sap_algs::try_solve(&inst, &ids, &params, &Budget::unlimited()).unwrap();
    sol.validate(&inst).unwrap();
    let small = report.arm("small").expect("small arm ran");
    assert_eq!(small.outcome, ArmOutcome::LpNonOptimal, "{report:?}");
    assert_eq!(small.fallback, Some("greedy"));
    // The arm still contributed a feasible (greedy) solution.
    assert!(small.weight > 0);
    assert_eq!(report.weight, sol.weight(&inst));
}

#[test]
fn solve_sap_wrappers_are_feasible_and_practical_dominates() {
    // The crate-root `solve_sap` / `solve_sap_practical` wrap the
    // budgeted driver with an unlimited budget; their contract is a
    // feasible solution, with practical ≥ combined.
    let inst = workload(6, DemandRegime::Mixed);
    let combined = solve_sap(&inst);
    combined.validate(&inst).unwrap();
    let practical = storage_alloc::solve_sap_practical(&inst);
    practical.validate(&inst).unwrap();
    assert!(practical.weight(&inst) >= combined.weight(&inst));
}

/// The instance `sap generate --edges E --tasks N --regime R --seed S`
/// writes.
fn cli_instance(edges: usize, tasks: usize, regime: DemandRegime, seed: u64) -> Instance {
    generate(
        &GenConfig {
            num_edges: edges,
            num_tasks: tasks,
            profile: CapacityProfile::RandomWalk { lo: 64, hi: 1024 },
            regime,
            max_span: edges.div_ceil(2),
            max_weight: 100,
        },
        seed,
    )
}

const CLI_REGIMES: [DemandRegime; 4] = [
    DemandRegime::Small { delta_inv: 16 },
    DemandRegime::Medium { delta_inv: 8 },
    DemandRegime::Large { k: 2 },
    DemandRegime::Mixed,
];

/// Asserts the fallback rule on one budgeted `combined` solve: greedy is
/// the only fallback, it fired, and the answer weighs at least greedy's.
fn assert_greedy_fallback(inst: &Instance, limit: u64, what: &str) -> SolveReport {
    let (sol, report) = try_solve_sap(inst, &Budget::unlimited().with_work_units(limit)).unwrap();
    sol.validate(inst).unwrap();
    let greedy = greedy_sap_best(inst, &inst.all_ids()).weight(inst);
    assert_eq!(report.fallbacks, vec!["greedy"], "{what} at {limit}: {report:?}");
    assert_eq!(report.weight, sol.weight(inst), "{what} at {limit}");
    assert!(report.weight >= greedy, "{what} at {limit}: {} < greedy {greedy}", report.weight);
    let names: Vec<&str> = report.arms.iter().map(|a| a.arm).collect();
    assert_eq!(names, ["small", "medium", "large", "greedy"], "{what} at {limit}");
    assert!(report.arm(report.winner).is_some(), "{what} at {limit}: {report:?}");
    // Greedy already ran as the fallback, so practical returns the
    // driver's answer unchanged instead of running greedy again.
    let (psol, preport) =
        try_solve_sap_practical(inst, &Budget::unlimited().with_work_units(limit)).unwrap();
    assert_eq!(psol, sol, "{what} at {limit}: practical changed the answer");
    assert_eq!(preport, report, "{what} at {limit}: practical changed the report");
    report
}

#[test]
fn starved_combined_solves_fall_back_to_greedy_and_weigh_at_least_greedy() {
    // Under these limits an arm with tasks always runs out of budget,
    // while an arm with no tasks completes with the empty solution; the
    // answer must still be greedy's, not the empty arm's.
    for regime in CLI_REGIMES {
        for seed in 1..=3 {
            let inst = cli_instance(12, 40, regime, seed);
            for limit in [1, GREEDY_FLOOR_UNITS] {
                let report = assert_greedy_fallback(&inst, limit, &format!("{regime:?} {seed}"));
                assert!(report.weight > 0, "{regime:?} {seed} at {limit}: empty answer");
            }
        }
    }
}

#[test]
fn exhausted_medium_arm_adds_greedy_on_the_mixed80_corpus() {
    // `mixed80` seed 4: greedy packs 1164. Unlimited, the medium arm
    // meters 69,140 units; at 50k it still runs out while the small and
    // large arms complete lighter.
    let inst = cli_instance(12, 80, DemandRegime::Mixed, 4);
    for limit in [1, GREEDY_FLOOR_UNITS, 50_000] {
        let report = assert_greedy_fallback(&inst, limit, "mixed80 seed 4");
        assert!(report.weight >= 1164, "at {limit}: {report:?}");
        assert!(report.arm("lemma13").is_none(), "at {limit}: {report:?}");
        assert_eq!(report.arm("medium").unwrap().outcome, ArmOutcome::BudgetExhausted);
    }
}

#[test]
fn unlimited_combined_never_adds_greedy() {
    for regime in CLI_REGIMES {
        for seed in 1..=3 {
            let inst = cli_instance(12, 40, regime, seed);
            let (_, report) = try_solve_sap(&inst, &Budget::unlimited()).unwrap();
            assert!(report.fallbacks.is_empty(), "{regime:?} {seed}: {report:?}");
            assert!(report.arm("greedy").is_none(), "{regime:?} {seed}: {report:?}");
            assert!(report.is_clean(), "{regime:?} {seed}: {report:?}");
        }
    }
}
