//! Telemetry determinism and conservation (always-on: no feature flags).
//!
//! * The telemetry JSON export is byte-identical across repeated runs,
//!   and across the metered-sequential vs unmetered-parallel execution
//!   paths — the determinism contract of `sap_core::telemetry`.
//! * Counter conservation: the work attributed to each arm's phase node
//!   equals the arm's budget meter exactly (per class and in total), so
//!   the phase tree never invents or loses work units.
//! * Both exports carry the `"v":1` schema version and round-trip
//!   through the crate's own JSON parser.

use storage_alloc::json;
use storage_alloc::prelude::*;
use storage_alloc::sap_core::{
    Budget, CheckpointClass, ObsNode, Recorder, REPORT_SCHEMA_VERSION, TELEMETRY_SCHEMA_VERSION,
};
use storage_alloc::sap_gen::{generate, CapacityProfile, DemandRegime, GenConfig};

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

/// Solves `inst` with a fresh recorder attached and returns the
/// telemetry JSON plus the solve report. `work_units` of `u64::MAX`
/// leaves the budget unmetered (parallel arms); any finite value forces
/// the deterministic sequential path.
fn solve_with_recorder(
    inst: &Instance,
    work_units: u64,
) -> (String, storage_alloc::sap_core::SolveReport, Recorder) {
    let rec = Recorder::new();
    let budget = Budget::unlimited()
        .with_work_units(work_units)
        .with_telemetry(rec.handle());
    let (sol, report) = storage_alloc::try_solve_sap(inst, &budget).unwrap();
    sol.validate(inst).unwrap();
    let json = rec.to_json_string();
    (json, report, rec)
}

#[test]
fn telemetry_json_is_byte_identical_across_runs() {
    for seed in 0..4 {
        let inst = workload(seed, DemandRegime::Mixed);
        let (a, rep_a, _) = solve_with_recorder(&inst, u64::MAX);
        let (b, rep_b, _) = solve_with_recorder(&inst, u64::MAX);
        assert_eq!(a, b, "seed {seed}: telemetry JSON must be byte-identical");
        assert_eq!(rep_a.to_json_string(), rep_b.to_json_string(), "seed {seed}");
        assert!(!a.contains("busy_ns"), "timings must be opt-in: {a}");
        assert!(!a.contains('\n'), "export must be single-line");
    }
}

#[test]
fn telemetry_agrees_between_unlimited_and_finite_work_limits() {
    // A huge-but-finite limit meters every arm (and splits intra-arm
    // fan-out into fixed per-item shares) without ever tripping, so the
    // limited and unlimited runs must attribute exactly the same work to
    // exactly the same phases.
    for seed in 0..4 {
        let inst = workload(seed + 10, DemandRegime::Mixed);
        let (parallel, rep_p, _) = solve_with_recorder(&inst, u64::MAX);
        let (metered, rep_m, _) = solve_with_recorder(&inst, 1 << 40);
        assert_eq!(
            parallel, metered,
            "seed {seed}: metered-sequential and parallel runs must export identical telemetry"
        );
        assert_eq!(rep_p.to_json_string(), rep_m.to_json_string(), "seed {seed}");
    }
}

/// The small arm's fan-out workload: a random walk over a factor-64
/// capacity range spreads the bottlenecks over ~6 bands, so the arm
/// packs several strata per solve through `map_reduce_isolated`.
fn strata_workload(seed: u64, tasks: usize) -> Instance {
    generate(
        &GenConfig {
            num_edges: 16,
            num_tasks: tasks,
            profile: CapacityProfile::RandomWalk { lo: 64, hi: 4096 },
            regime: DemandRegime::Small { delta_inv: 16 },
            max_span: 6,
            max_weight: 60,
        },
        seed + 9000,
    )
}

/// Sums the counter `name` over the whole span tree (the `lp.*` counters
/// live under `small → stratum → lp.solve`, not at the root).
fn deep_counter(node: &ObsNode, name: &str) -> u64 {
    let own = node.counters.get(name).copied().unwrap_or(0);
    node.children.values().fold(own, |acc, c| acc + deep_counter(c, name))
}

#[test]
fn worker_fanout_exports_byte_identical_telemetry() {
    // The intra-arm fan-out (`SapParams::workers`) splits each metered
    // budget into fixed per-item child meters and merges results in
    // index order, so the solution, the SolveReport JSON, the telemetry
    // JSON and the metered work must be identical at 1, 2, and 8
    // workers. Inputs: mixed instances, and the multi-strata δ-small
    // family at 60 and 600 tasks, whose strata fan out LP solves.
    // The bool marks inputs whose LPs must pivot (at 60 tasks every
    // stratum's LP is solved at its bounds).
    let mut inputs: Vec<(String, Instance, bool)> = (0..3)
        .map(|seed| (format!("mixed seed {seed}"), workload(seed + 30, DemandRegime::Mixed), false))
        .collect();
    for tasks in [60, 600] {
        for seed in 0..2 {
            let label = format!("strata {tasks} seed {seed}");
            inputs.push((label, strata_workload(seed, tasks), tasks == 600));
        }
    }
    for (label, inst, pivots) in &inputs {
        let ids = inst.all_ids();
        let mut base: Option<(SapSolution, String, String, u64)> = None;
        for workers in [1usize, 2, 8] {
            let rec = Recorder::new();
            let budget = Budget::unlimited().with_telemetry(rec.handle());
            let params = storage_alloc::sap_algs::SapParams { workers, ..Default::default() };
            let (sol, report) =
                storage_alloc::sap_algs::try_solve(inst, &ids, &params, &budget).unwrap();
            sol.validate(inst).unwrap();
            let rep_json = report.to_json_string();
            let tele_json = rec.to_json_string();
            let work = report.attributed_work();
            if *pivots {
                assert!(deep_counter(&rec.snapshot(), "lp.etas") > 0, "{label}: no LP pivots");
            }
            match &base {
                None => base = Some((sol, rep_json, tele_json, work)),
                Some((sol_1, rep_1, tele_1, work_1)) => {
                    assert_eq!(&sol, sol_1, "{label}, workers {workers}: solution differs");
                    assert_eq!(
                        &rep_json, rep_1,
                        "{label}, workers {workers}: report JSON differs"
                    );
                    assert_eq!(
                        &tele_json, tele_1,
                        "{label}, workers {workers}: telemetry JSON differs"
                    );
                    assert_eq!(
                        work, *work_1,
                        "{label}, workers {workers}: work units not conserved"
                    );
                }
            }
        }
    }
}

#[test]
fn per_phase_work_reconciles_with_the_budget_meter() {
    for (seed, regime) in [
        (1, DemandRegime::Mixed),
        (2, DemandRegime::Small { delta_inv: 16 }),
        (3, DemandRegime::Large { k: 3 }),
    ] {
        let inst = workload(seed, regime);
        let (_, report, rec) = solve_with_recorder(&inst, u64::MAX);
        let root = rec.handle();
        assert!(report.work_is_attributed(), "{report:?}");
        for arm in ["small", "medium", "large"] {
            let arm_report = report.arm(arm).unwrap_or_else(|| panic!("{arm} arm ran"));
            let phase = root
                .get_child(arm)
                .unwrap_or_else(|| panic!("{arm} phase node exists"));
            assert_eq!(phase.entries(), 1, "{arm}: entered exactly once");
            // Total conservation: phase attribution == budget meter.
            assert_eq!(
                phase.work_total(),
                arm_report.work_consumed,
                "{arm}: telemetry work must equal the arm's budget meter"
            );
            // Per-class conservation against the report's work profile.
            for class in CheckpointClass::ALL {
                assert_eq!(
                    phase.work_units(class),
                    arm_report.work.get(class),
                    "{arm}/{}: per-class split must match",
                    class.as_str()
                );
            }
        }
        // The driver's own orchestration unit lands on the root node.
        assert_eq!(
            root.work_units(CheckpointClass::Driver),
            report.driver_work,
            "root phase carries the driver's own work"
        );
    }
}

#[test]
fn exports_carry_schema_version_and_round_trip() {
    let inst = workload(5, DemandRegime::Mixed);
    let (tele_json, report, _) = solve_with_recorder(&inst, u64::MAX);

    // Telemetry export: leading "v", root span, named arm children.
    let tele = json::parse(&tele_json).unwrap();
    assert_eq!(tele.get("v").and_then(|v| v.as_u64()), Some(TELEMETRY_SCHEMA_VERSION));
    let spans = tele.get("spans").expect("spans object");
    assert_eq!(spans.get("name").and_then(|v| v.as_str()), Some("root"));
    let children = spans.get("children").and_then(|c| c.as_array()).expect("children");
    for arm in ["small", "medium", "large"] {
        assert!(
            children
                .iter()
                .any(|c| c.get("name").and_then(|v| v.as_str()) == Some(arm)),
            "{arm} missing from {tele_json}"
        );
    }

    // Report export: same schema-version convention, and the numeric
    // fields survive the round trip losslessly.
    let rep_json = report.to_json_string();
    assert!(rep_json.starts_with("{\"v\":1,"), "{rep_json}");
    let rep = json::parse(&rep_json).unwrap();
    assert_eq!(rep.get("v").and_then(|v| v.as_u64()), Some(REPORT_SCHEMA_VERSION));
    assert_eq!(rep.get("winner").and_then(|v| v.as_str()), Some(report.winner));
    assert_eq!(rep.get("weight").and_then(|v| v.as_u64()), Some(report.weight));
    assert_eq!(
        rep.get("work_consumed").and_then(|v| v.as_u64()),
        Some(report.work_consumed)
    );
    assert_eq!(
        rep.get("driver_work").and_then(|v| v.as_u64()),
        Some(report.driver_work)
    );
    let arms = rep.get("arms").and_then(|a| a.as_array()).expect("arms array");
    assert_eq!(arms.len(), report.arms.len());
    for (parsed, arm) in arms.iter().zip(&report.arms) {
        assert_eq!(parsed.get("arm").and_then(|v| v.as_str()), Some(arm.arm));
        assert_eq!(
            parsed.get("work_consumed").and_then(|v| v.as_u64()),
            Some(arm.work_consumed)
        );
        let work = parsed.get("work").expect("per-arm work profile");
        for class in CheckpointClass::ALL {
            assert_eq!(
                work.get(class.as_str()).and_then(|v| v.as_u64()),
                Some(arm.work.get(class)),
                "{}/{}", arm.arm, class.as_str()
            );
        }
    }
}

#[test]
fn default_budget_keeps_telemetry_off() {
    // The no-recorder default must not grow a phase tree anywhere: the
    // off handle stays off through children and reports zero everywhere.
    let inst = workload(6, DemandRegime::Mixed);
    let budget = Budget::unlimited();
    assert!(!budget.telemetry().is_enabled());
    let (sol, report) = storage_alloc::try_solve_sap(&inst, &budget).unwrap();
    sol.validate(&inst).unwrap();
    assert!(!budget.telemetry().is_enabled(), "solving must not enable telemetry");
    assert!(budget.telemetry().get_child("small").is_none());
    assert_eq!(budget.telemetry().work_total(), 0);
    // The budget meter itself still works without a recorder.
    assert!(report.work_consumed > 0);
    assert!(report.work_is_attributed(), "{report:?}");
}

#[test]
fn degraded_runs_still_attribute_all_work() {
    // Starved budgets trip arms mid-flight; whatever they consumed
    // before tripping must still appear in both the report and the
    // phase tree (no silently-zeroed arms).
    let inst = workload(7, DemandRegime::Mixed);
    for limit in [0u64, 7, 50, 500, 5_000] {
        let rec = Recorder::new();
        let budget = Budget::unlimited()
            .with_work_units(limit)
            .with_telemetry(rec.handle());
        let (sol, report) = storage_alloc::try_solve_sap(&inst, &budget).unwrap();
        sol.validate(&inst).unwrap();
        assert!(report.work_is_attributed(), "limit {limit}: {report:?}");
        let root = rec.handle();
        for arm_report in &report.arms {
            if arm_report.work_consumed == 0 {
                continue;
            }
            let phase = root
                .get_child(arm_report.arm)
                .unwrap_or_else(|| panic!("limit {limit}: {} phase exists", arm_report.arm));
            assert_eq!(
                phase.work_total(),
                arm_report.work_consumed,
                "limit {limit}: {} conserves tripped work",
                arm_report.arm
            );
        }
    }
}

#[test]
fn practical_greedy_comparison_is_a_timed_phase() {
    // `mixed80` seed 1 (`sap generate --edges 12 --tasks 80 --regime
    // mixed --seed 1`): greedy wins the practical comparison, so its node
    // must record the run that produced the answer, like the fallback
    // path's greedy does.
    let inst = generate(
        &GenConfig {
            num_edges: 12,
            num_tasks: 80,
            profile: CapacityProfile::RandomWalk { lo: 64, hi: 1024 },
            regime: DemandRegime::Mixed,
            max_span: 6,
            max_weight: 100,
        },
        1,
    );
    let rec = Recorder::with_timings();
    let budget = Budget::unlimited().with_telemetry(rec.handle());
    let (sol, report) = storage_alloc::try_solve_sap_practical(&inst, &budget).unwrap();
    sol.validate(&inst).unwrap();
    assert_eq!(report.winner, "greedy", "{report:?}");
    let view = rec.to_tree_string();
    let greedy = rec.snapshot().children.get("greedy").cloned().expect("greedy node");
    assert_eq!(greedy.entries, 1, "{view}");
    let line = view.lines().find(|l| l.trim_start().starts_with("greedy ")).expect("greedy line");
    assert!(line.contains(" n=1 ") && line.contains("busy_ms="), "{view}");
}
