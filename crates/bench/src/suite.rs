//! The first-class hermetic bench suite behind the `sap-bench` binary.
//!
//! ```text
//! cargo run -p sap-bench --release -- --suite core --out BENCH_pr4.json
//! cargo run -p sap-bench --release -- --suite core --smoke
//! ```
//!
//! Two workload families, chosen to exercise the two performance layers
//! of the solver stack:
//!
//! * **`multi_strata_small`** — δ-small instances over a random-walk
//!   capacity profile spanning several bands, so the small arm fans its
//!   per-stratum LP solves out through
//!   `sap_core::map_reduce_isolated`. Each workload is solved once per
//!   requested worker count; the suite records wall-clock *and* the
//!   deterministic work-units from the [`Budget`] meter, and checks the
//!   solution, `SolveReport` JSON, and telemetry JSON are byte-identical
//!   across worker counts.
//! * **`mwis_large`** — ½-large instances solved by the exact rectangle
//!   MWIS, whose hash-consed memo keys are gauged by the deterministic
//!   `mwis.allocs` telemetry counter (no global allocator hooks; the
//!   gauge counts buffer acquisitions, so it is identical on every
//!   machine).
//!
//! Wall-clock numbers are machine-dependent and recorded for honesty —
//! `hardware_threads` is part of the report so a 1-CPU container's flat
//! speedup curve is legible as such. Everything else in the report is
//! deterministic.

use std::time::Instant;

use sap_algs::{try_solve, SapParams};
use sap_core::budget::Budget;
use sap_core::{Instance, Recorder};
use sap_gen::{generate, CapacityProfile, DemandRegime, GenConfig};

/// Suite configuration, parsed from the CLI by the `sap-bench` binary.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Shrinks every family to seconds of runtime (the CI gate).
    pub smoke: bool,
    /// Worker counts to sweep in the fan-out family.
    pub workers: Vec<usize>,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig { smoke: false, workers: vec![1, 8] }
    }
}

/// One timed solve of one workload at one worker count.
struct RunSample {
    workers: usize,
    wall_ms: f64,
    work_units: u64,
    weight: u64,
    report_json: String,
    telemetry_json: String,
}

fn run_combined(inst: &Instance, workers: usize) -> RunSample {
    let ids = inst.all_ids();
    let rec = Recorder::new();
    let budget = Budget::unlimited().with_telemetry(rec.handle());
    let params = SapParams { workers, ..Default::default() };
    let start = Instant::now();
    let (sol, report) = try_solve(inst, &ids, &params, &budget).expect("driver is total");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    RunSample {
        workers,
        wall_ms,
        // The driver meters each arm on its own child budget; the report
        // carries the merged per-arm profiles, so this is the full
        // deterministic work-unit total of the solve.
        work_units: report.attributed_work(),
        weight: sol.weight(inst),
        report_json: report.to_json_string(),
        telemetry_json: rec.to_json_string(),
    }
}

fn small_strata_workload(seed: u64, smoke: bool) -> Instance {
    generate(
        &GenConfig {
            num_edges: if smoke { 12 } else { 16 },
            num_tasks: if smoke { 60 } else { 600 },
            // A random walk across a factor-64 capacity range spreads the
            // bottlenecks over ~6 bands, so the small arm packs several
            // strata per solve — the map_reduce_isolated fan-out's load.
            profile: CapacityProfile::RandomWalk { lo: 64, hi: 4096 },
            regime: DemandRegime::Small { delta_inv: 16 },
            max_span: 6,
            max_weight: 60,
        },
        seed + 9000,
    )
}

fn mwis_large_workload(seed: u64, smoke: bool) -> Instance {
    generate(
        &GenConfig {
            num_edges: if smoke { 14 } else { 30 },
            num_tasks: if smoke { 40 } else { 120 },
            profile: CapacityProfile::Random { lo: 16, hi: 255 },
            regime: DemandRegime::Large { k: 2 },
            max_span: 6,
            max_weight: 50,
        },
        seed + 9500,
    )
}

fn fmt_ms(x: f64) -> String {
    format!("{x:.3}")
}

/// Runs the `core` suite and renders the report as a JSON document.
pub fn run_core(config: &SuiteConfig) -> String {
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let seeds: u64 = if config.smoke { 2 } else { 3 };
    let mut families = Vec::new();

    // Family 1: per-stratum LP fan-out, swept over worker counts.
    let mut workloads = Vec::new();
    for seed in 0..seeds {
        let inst = small_strata_workload(seed, config.smoke);
        let runs: Vec<RunSample> =
            config.workers.iter().map(|&w| run_combined(&inst, w)).collect();
        let base = &runs[0];
        let deterministic = runs.iter().all(|r| {
            r.weight == base.weight
                && r.work_units == base.work_units
                && r.report_json == base.report_json
                && r.telemetry_json == base.telemetry_json
        });
        let run_objs: Vec<String> = runs
            .iter()
            .map(|r| {
                format!(
                    "{{\"workers\":{},\"wall_ms\":{},\"work_units\":{},\"weight\":{}}}",
                    r.workers,
                    fmt_ms(r.wall_ms),
                    r.work_units,
                    r.weight
                )
            })
            .collect();
        let speedup = base.wall_ms / runs.last().map_or(base.wall_ms, |r| r.wall_ms.max(1e-9));
        workloads.push(format!(
            "{{\"id\":\"small_seed{}\",\"edges\":{},\"tasks\":{},\"work_units\":{},\
             \"deterministic\":{},\"speedup_vs_first\":{},\"runs\":[{}]}}",
            seed,
            inst.num_edges(),
            inst.num_tasks(),
            base.work_units,
            deterministic,
            fmt_ms(speedup),
            run_objs.join(",")
        ));
    }
    families.push(format!(
        "{{\"name\":\"multi_strata_small\",\"workloads\":[{}]}}",
        workloads.join(",")
    ));

    // Family 2: MWIS memo-key interning, gauged by deterministic counters.
    let mut workloads = Vec::new();
    for seed in 0..seeds {
        let inst = mwis_large_workload(seed, config.smoke);
        let ids = inst.all_ids();
        let rec = Recorder::new();
        let budget = Budget::unlimited().with_telemetry(rec.handle());
        let start = Instant::now();
        let chosen = rectpack::max_weight_packing(&inst, &ids, Default::default(), &budget)
            .expect("unlimited budget")
            .unwrap_or_default();
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let weight = inst.total_weight(&chosen);
        workloads.push(format!(
            "{{\"id\":\"large_seed{}\",\"edges\":{},\"tasks\":{},\"work_units\":{},\
             \"wall_ms\":{},\"weight\":{},\"allocs\":{}}}",
            seed,
            inst.num_edges(),
            inst.num_tasks(),
            budget.consumed(),
            fmt_ms(wall_ms),
            weight,
            rec.handle().counter("mwis.allocs"),
        ));
    }
    families.push(format!(
        "{{\"name\":\"mwis_large\",\"workloads\":[{}]}}",
        workloads.join(",")
    ));

    let workers: Vec<String> = config.workers.iter().map(|w| w.to_string()).collect();
    format!(
        "{{\"schema\":\"sap-bench/1\",\"suite\":\"core\",\"smoke\":{},\
         \"hardware_threads\":{},\"workers\":[{}],\"families\":[{}]}}",
        config.smoke,
        hw,
        workers.join(","),
        families.join(",")
    )
}

/// `mwis.allocs` of the `--smoke` MWIS workloads `large_seed0` and
/// `large_seed1`. The gauge is deterministic, so an exact pin fails on
/// any allocation regression in the memo-key scheme.
pub const SMOKE_MWIS_ALLOCS: [u64; 2] = [55, 52];

/// Validates a suite report document against the `sap-bench/1` schema and
/// its invariants. Returns the list of violations (empty = valid).
///
/// Checked invariants, all machine-independent:
///
/// * the schema tag, suite name, and both families are present;
/// * **work-unit conservation** — within a `multi_strata_small` workload
///   every run reports the same `work_units` as the workload total (the
///   fan-out must not create or lose metered work), and `deterministic`
///   is `true`;
/// * in a `--smoke` report, the MWIS family's allocation gauge equals
///   the pinned [`SMOKE_MWIS_ALLOCS`] exactly (any allocation regression
///   in the memo-key scheme fails the gate).
///
/// Wall-clock fields are deliberately *not* thresholded: they vary with
/// the machine (see `hardware_threads`) and thresholding them would make
/// the gate flaky.
pub fn validate_report(doc: &str) -> Vec<String> {
    let mut errors = Vec::new();
    let v = match crate::json::parse(doc) {
        Ok(v) => v,
        Err(e) => return vec![format!("not valid JSON: {e}")],
    };
    if v.get("schema").and_then(|s| s.as_str()) != Some("sap-bench/1") {
        errors.push("schema tag missing or wrong".to_string());
    }
    let Some(families) = v.get("families").and_then(|f| f.as_array()) else {
        errors.push("families array missing".to_string());
        return errors;
    };
    let family = |name: &str| {
        families
            .iter()
            .find(|f| f.get("name").and_then(|n| n.as_str()) == Some(name))
    };

    match family("multi_strata_small").and_then(|f| f.get("workloads")?.as_array()) {
        None => errors.push("multi_strata_small family missing".to_string()),
        Some(workloads) => {
            if workloads.is_empty() {
                errors.push("multi_strata_small has no workloads".to_string());
            }
            for w in workloads {
                let id = w.get("id").and_then(|s| s.as_str()).unwrap_or("?");
                if w.get("deterministic").and_then(|d| d.as_bool()) != Some(true) {
                    errors.push(format!("{id}: runs were not byte-identical"));
                }
                let total = w.get("work_units").and_then(|u| u.as_u64());
                let runs = w.get("runs").and_then(|r| r.as_array()).unwrap_or(&[]);
                if runs.is_empty() {
                    errors.push(format!("{id}: no runs"));
                }
                for r in runs {
                    if r.get("work_units").and_then(|u| u.as_u64()) != total {
                        errors.push(format!("{id}: work units not conserved across runs"));
                    }
                }
            }
        }
    }

    match family("mwis_large").and_then(|f| f.get("workloads")?.as_array()) {
        None => errors.push("mwis_large family missing".to_string()),
        Some(workloads) => {
            if workloads.is_empty() {
                errors.push("mwis_large has no workloads".to_string());
            }
            let smoke = v.get("smoke").and_then(|s| s.as_bool()) == Some(true);
            for (i, w) in workloads.iter().enumerate() {
                let id = w.get("id").and_then(|s| s.as_str()).unwrap_or("?");
                let pinned = SMOKE_MWIS_ALLOCS.get(i).filter(|_| smoke);
                match (w.get("allocs").and_then(|a| a.as_u64()), pinned) {
                    (None, _) => errors.push(format!("{id}: allocs missing")),
                    (Some(got), Some(&want)) if got != want => errors.push(format!(
                        "{id}: mwis.allocs {got} differs from the pinned {want}"
                    )),
                    _ => {}
                }
            }
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_suite_is_valid_and_conserves_work() {
        let config = SuiteConfig { smoke: true, workers: vec![1, 2] };
        let doc = run_core(&config);
        let errors = validate_report(&doc);
        // A clean report includes `mwis.allocs` equal to the pinned
        // SMOKE_MWIS_ALLOCS (55 / 52 for seeds 0 / 1).
        assert!(errors.is_empty(), "violations: {errors:?}");
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(!validate_report("{").is_empty());
        assert!(!validate_report("{\"schema\":\"sap-bench/1\"}").is_empty());
        let tampered = "{\"schema\":\"sap-bench/1\",\"smoke\":true,\"families\":[\
            {\"name\":\"multi_strata_small\",\"workloads\":[\
              {\"id\":\"w\",\"work_units\":5,\"deterministic\":false,\
               \"runs\":[{\"workers\":1,\"work_units\":4}]}]},\
            {\"name\":\"mwis_large\",\"workloads\":[\
              {\"id\":\"l\",\"allocs\":3}]}]}";
        let errors = validate_report(tampered);
        assert!(errors.iter().any(|e| e.contains("byte-identical")));
        assert!(errors.iter().any(|e| e.contains("not conserved")));
        assert!(errors.iter().any(|e| e.contains("pinned 55")));
    }
}
