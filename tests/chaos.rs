//! Chaos suite: deterministic fault injection across every injection
//! point, asserting that *every* degradation path yields a
//! validator-clean solution and an accurate report.
//!
//! Requires the `fault-injection` cargo feature (`scripts/ci.sh` runs it;
//! without the feature this file compiles to nothing).

#![cfg(feature = "fault-injection")]

use storage_alloc::prelude::*;
use storage_alloc::sap_algs::try_solve;
use storage_alloc::sap_core::{ArmOutcome, Budget, CheckpointClass, FaultPlan, Recorder};
use storage_alloc::sap_gen::{generate, CapacityProfile, DemandRegime, GenConfig};

fn workload(seed: u64) -> Instance {
    generate(
        &GenConfig {
            num_edges: 8,
            num_tasks: 28,
            profile: CapacityProfile::Random { lo: 16, hi: 64 },
            regime: DemandRegime::Mixed,
            max_span: 5,
            max_weight: 30,
        },
        seed,
    )
}

/// Shared postcondition: feasible solution, self-consistent report.
fn check(inst: &Instance, plan: FaultPlan) -> storage_alloc::sap_core::SolveReport {
    let budget = Budget::unlimited().with_fault_plan(plan);
    let (sol, report) =
        try_solve(inst, &inst.all_ids(), &SapParams::default(), &budget).unwrap();
    sol.validate(inst).unwrap_or_else(|e| panic!("{plan:?}: infeasible output: {e}"));
    assert_eq!(report.weight, sol.weight(inst), "{plan:?}: report weight mismatch");
    assert!(
        report.arm(report.winner).is_some(),
        "{plan:?}: winner {} missing from arms",
        report.winner
    );
    report
}

#[test]
fn injected_worker_panics_are_isolated_and_reported() {
    let inst = workload(1);
    for (idx, arm) in ["small", "medium", "large"].iter().enumerate() {
        let plan = FaultPlan { panic_worker: Some(idx), ..Default::default() };
        let report = check(&inst, plan);
        assert_eq!(
            report.arm(arm).unwrap().outcome,
            ArmOutcome::Panicked,
            "worker {idx}: {report:?}"
        );
        // The surviving arms complete; a panicked arm with tasks makes
        // greedy join the candidates, and the panic never reaches the
        // process.
        assert_eq!(report.fallbacks, vec!["greedy"], "worker {idx}: {report:?}");
        assert_ne!(report.winner, *arm, "worker {idx}: a panicked arm cannot win");
        for other in ["small", "medium", "large"] {
            if other != *arm {
                assert_eq!(report.arm(other).unwrap().outcome, ArmOutcome::Completed);
            }
        }
    }
}

#[test]
fn injected_lp_failures_degrade_the_small_arm_only() {
    let inst = workload(2);
    for nth in 1..=3u64 {
        let plan = FaultPlan { fail_lp_solve: Some(nth), ..Default::default() };
        let report = check(&inst, plan);
        let small = report.arm("small").unwrap();
        // The Nth LP solve may or may not exist (fewer strata than N);
        // when it fires, the arm must be labelled, never silently rounded.
        if small.outcome != ArmOutcome::Completed {
            assert_eq!(small.outcome, ArmOutcome::LpNonOptimal, "nth {nth}: {report:?}");
            assert_eq!(small.fallback, Some("greedy"));
        }
        assert_eq!(report.arm("medium").unwrap().outcome, ArmOutcome::Completed);
        assert_eq!(report.arm("large").unwrap().outcome, ArmOutcome::Completed);
    }
}

#[test]
fn first_lp_solve_failure_actually_fires() {
    // Guard against the previous test passing vacuously: on a small-heavy
    // workload the first LP solve exists, so the fault must fire.
    let inst = generate(
        &GenConfig {
            num_edges: 10,
            num_tasks: 40,
            profile: CapacityProfile::Random { lo: 32, hi: 128 },
            regime: DemandRegime::Small { delta_inv: 16 },
            max_span: 5,
            max_weight: 30,
        },
        7,
    );
    let plan = FaultPlan { fail_lp_solve: Some(1), ..Default::default() };
    let report = check(&inst, plan);
    assert_eq!(report.arm("small").unwrap().outcome, ArmOutcome::LpNonOptimal, "{report:?}");
}

#[test]
fn injected_refactor_failures_degrade_the_small_arm() {
    // A singular basis out of the Nth refactorization must be handled
    // exactly like a pivot-limited LP: the small arm degrades to greedy,
    // the report labels it, and telemetry attributes the cause. Every
    // solve refactorizes once before its first pivot, so `Some(1)` fires
    // on every stratum deterministically.
    let inst = generate(
        &GenConfig {
            num_edges: 10,
            num_tasks: 40,
            profile: CapacityProfile::Random { lo: 32, hi: 128 },
            regime: DemandRegime::Small { delta_inv: 16 },
            max_span: 5,
            max_weight: 30,
        },
        7,
    );
    let rec = Recorder::new();
    let plan = FaultPlan { fail_refactor: Some(1), ..Default::default() };
    let budget =
        Budget::unlimited().with_fault_plan(plan).with_telemetry(rec.handle());
    let (sol, report) =
        try_solve(&inst, &inst.all_ids(), &SapParams::default(), &budget).unwrap();
    sol.validate(&inst).unwrap();
    let small = report.arm("small").unwrap();
    assert_eq!(small.outcome, ArmOutcome::LpNonOptimal, "{report:?}");
    assert_eq!(small.fallback, Some("greedy"), "{report:?}");
    // Non-vacuity: the counter proves a refactorization actually failed
    // (rather than the arm degrading for some unrelated reason).
    let tele = rec.to_json_string();
    assert!(
        tele.contains("lp.refactor_failed"),
        "telemetry must attribute the singular basis: {tele}"
    );
}

#[test]
fn injected_exhaustion_at_any_class_degrades_cleanly() {
    let inst = workload(3);
    for class in [
        Some(CheckpointClass::LpPivot),
        Some(CheckpointClass::DpRow),
        Some(CheckpointClass::PackSweep),
        Some(CheckpointClass::Driver),
        None,
    ] {
        let plan = FaultPlan { exhaust_at: Some((class, 1)), ..Default::default() };
        let report = check(&inst, plan);
        // Whichever arms host checkpoints of that class must be exhausted,
        // and no arm may be misreported: exhausted arms carry no weight.
        for arm in &report.arms {
            if arm.outcome == ArmOutcome::BudgetExhausted {
                assert_eq!(arm.weight, 0, "{class:?}: {report:?}");
            }
        }
        assert!(!report.is_clean(), "{class:?}: exhaustion must be visible in the report");
    }
}

#[test]
fn exhaustion_on_every_checkpoint_falls_through_to_greedy() {
    let inst = workload(4);
    let plan = FaultPlan { exhaust_at: Some((None, 1)), ..Default::default() };
    let report = check(&inst, plan);
    for arm in ["small", "medium", "large"] {
        assert_eq!(report.arm(arm).unwrap().outcome, ArmOutcome::BudgetExhausted, "{report:?}");
    }
    // Greedy (checkpoint-free) is the only fallback.
    assert_eq!(report.fallbacks, vec!["greedy"]);
    assert_eq!(report.winner, "greedy");
}

#[test]
fn seeded_fault_plan_sweep_never_breaks_feasibility_or_reporting() {
    let inst = workload(5);
    for seed in 0..24u64 {
        let plan = FaultPlan::from_seed(seed);
        let report = check(&inst, plan);
        // A planned worker panic must surface as Panicked whenever the
        // arms actually dispatched (an exhaust-at fault can trip the
        // driver before the workers start).
        if let (Some(idx), None) = (plan.panic_worker, plan.exhaust_at) {
            let arm = ["small", "medium", "large"][idx];
            assert_eq!(
                report.arm(arm).unwrap().outcome,
                ArmOutcome::Panicked,
                "seed {seed}: {report:?}"
            );
        }
    }
}

#[test]
fn fault_plans_are_deterministic() {
    let inst = workload(6);
    for seed in [1u64, 9, 23] {
        let plan = FaultPlan::from_seed(seed);
        assert_eq!(plan, FaultPlan::from_seed(seed), "from_seed must be pure");
        let a = check(&inst, plan);
        let b = check(&inst, plan);
        assert_eq!(a, b, "seed {seed}: same plan must reproduce the same report");
        assert_eq!(a.to_json_string(), b.to_json_string());
    }
}

// ---------------------------------------------------------------------
// Serve-level injections (ISSUE 7): panic_request, fail_admission,
// exhaust_tenant_at.
// ---------------------------------------------------------------------

mod serve_chaos {
    use storage_alloc::serve::{ServeEngine, ServeOptions};
    use storage_alloc::sap_core::FaultPlan;

    fn inst(weight: u64) -> String {
        format!(
            r#"{{"capacities":[4,6,4],"tasks":[{{"lo":0,"hi":2,"demand":2,"weight":{weight}}},{{"lo":1,"hi":3,"demand":3,"weight":8}}]}}"#
        )
    }

    /// Five distinct solvable lines (distinct weights → distinct cache
    /// keys, so every line dispatches its own solve).
    fn batch() -> Vec<String> {
        (1..=5u64).map(|w| inst(w * 10)).collect()
    }

    fn run(opts: ServeOptions, batches: &[Vec<String>]) -> (Vec<String>, ServeEngine) {
        let mut engine = ServeEngine::new(opts);
        let mut out = Vec::new();
        for b in batches {
            let refs: Vec<&str> = b.iter().map(String::as_str).collect();
            out.extend(engine.process_batch(&refs));
        }
        (out, engine)
    }

    #[test]
    fn panicking_request_degrades_alone_and_neighbours_are_byte_identical() {
        let batches = vec![batch()];
        let (clean, _) = run(ServeOptions::default(), &batches);
        for workers in [1, 2, 8] {
            let opts = ServeOptions {
                workers,
                fault: FaultPlan { panic_request: Some(3), ..Default::default() },
                ..Default::default()
            };
            let (faulted, engine) = run(opts, &batches);
            assert_eq!(faulted.len(), clean.len());
            for (i, (f, c)) in faulted.iter().zip(&clean).enumerate() {
                if i == 2 {
                    // The third dispatched solve is the third line here
                    // (all lines are novel leaders).
                    assert!(
                        f.starts_with(r#"{"v":1,"status":"error""#),
                        "workers={workers} line {i}: {f}"
                    );
                    assert!(f.contains("solver panicked"), "workers={workers}: {f}");
                    assert!(f.contains("injected panic_request"), "workers={workers}: {f}");
                } else {
                    assert_eq!(f, c, "workers={workers}: fault leaked into line {i}");
                }
            }
            assert_eq!(engine.stats.errors, 1);
            assert_eq!(engine.stats.ok, 4);
        }
    }

    #[test]
    fn panic_request_seq_spans_batches_and_skips_cache_hits() {
        // Line layout: batch 1 = [A, B], batch 2 = [A(cache hit), C].
        // Executed solves are A=#1, B=#2, C=#3: the injection must hit C
        // even though it is the 4th request line.
        let a = inst(10);
        let b = inst(20);
        let c = inst(30);
        let batches = vec![vec![a.clone(), b], vec![a, c]];
        let opts = ServeOptions {
            fault: FaultPlan { panic_request: Some(3), ..Default::default() },
            ..Default::default()
        };
        let (out, engine) = run(opts, &batches);
        assert!(out[0].starts_with(r#"{"v":1,"status":"ok""#));
        assert!(out[1].starts_with(r#"{"v":1,"status":"ok""#));
        assert_eq!(out[2], out[0], "cache hit must replay the healthy response");
        assert!(out[3].contains("injected panic_request"), "{}", out[3]);
        assert_eq!(engine.stats.cache_hits, 1);
        assert_eq!(engine.stats.errors, 1);
    }

    #[test]
    fn injected_admission_failure_sheds_the_nth_request_as_capacity() {
        // No limits configured at all: only the injection can shed, and
        // it must present as a capacity refusal on exactly the 2nd
        // admission decision.
        let batches = vec![batch()];
        let opts = ServeOptions {
            fault: FaultPlan { fail_admission: Some(2), ..Default::default() },
            ..Default::default()
        };
        let (out, engine) = run(opts, &batches);
        assert_eq!(out[1], r#"{"v":1,"status":"shed","reason":"capacity"}"#);
        for (i, line) in out.iter().enumerate() {
            if i != 1 {
                assert!(line.starts_with(r#"{"v":1,"status":"ok""#), "line {i}: {line}");
            }
        }
        let adm = engine.admission_stats();
        assert_eq!(adm.shed_capacity, 1);
        assert_eq!(adm.admitted, 4);
        assert_eq!(engine.stats.shed, 1);
    }

    #[test]
    fn injected_tenant_exhaustion_drains_buckets_at_the_nth_refill() {
        // Quota 1000 comfortably fits every request; draining the
        // buckets at refill tick 2 (= batch 2) starves the tenant for
        // that batch only — tick 3 refills and service resumes.
        let line = |w: u64| format!(r#"{{"instance":{},"tenant":"t","work_units":50}}"#, inst(w));
        let batches: Vec<Vec<String>> =
            (0..3).map(|b| vec![line(10 + b), line(20 + b)]).collect();
        let opts = ServeOptions {
            tenant_quota: Some(1000),
            cache_size: 0,
            fault: FaultPlan { exhaust_tenant_at: Some(2), ..Default::default() },
            ..Default::default()
        };
        let (out, engine) = run(opts, &batches);
        // Batch 1: both ok. Batch 2: bucket drained to 0 → quota sheds.
        // Batch 3: refilled → both ok again.
        for i in [0, 1, 4, 5] {
            assert!(out[i].starts_with(r#"{"v":1,"status":"ok""#), "line {i}: {}", out[i]);
        }
        for i in [2, 3] {
            assert_eq!(out[i], r#"{"v":1,"status":"shed","reason":"quota"}"#, "line {i}");
        }
        let adm = engine.admission_stats();
        assert_eq!(adm.refills, 3);
        assert_eq!(adm.shed_quota, 2);
        assert_eq!(adm.admitted, 4);
    }
}
