//! **T1 — Theorem 1**: Strip-Pack on δ-small instances.
//!
//! Paper claim: ratio `4 + ε` against `OPT_SAP`. Measured two ways:
//! against the exact optimum on tiny instances, and against the LP upper
//! bound (which dominates `OPT_SAP`) on realistic sizes, sweeping δ.

use crate::par_seeds;
use lp_solver::SimplexOptions;
use sap_algs::{solve_exact_sap, try_solve_small, ExactConfig, SmallAlgo};
use sap_core::{Budget, Instance, SapSolution, TaskId};
use sap_gen::{generate, CapacityProfile, DemandRegime, GenConfig};
use ufpp::lp_upper_bound;

use crate::table::{fmt_mean_max, Table};
use crate::workloads::small_workload;

const SEEDS: u64 = 8;

/// Runs T1.
pub fn run() -> Vec<Table> {
    vec![ratio_vs_lp(), ratio_vs_exact()]
}

fn ratio_vs_lp() -> Table {
    let mut t = Table::new(
        "T1a",
        "Strip-Pack vs LP upper bound (δ-small, n = 120)",
        "mean/max ratio stays below the proved 4+ε (LP ≥ OPT makes this conservative)",
        &["δ", "algorithm", "mean ratio", "max ratio"],
    );
    for delta_inv in [16u64, 32, 64] {
        for (name, algo) in
            [("LP-rounding", SmallAlgo::LpRounding), ("local-ratio", SmallAlgo::LocalRatio)]
        {
            let ratios: Vec<f64> = par_seeds(0..SEEDS, |seed| {
                    let inst = small_workload(seed, 120, delta_inv);
                    let ids = inst.all_ids();
                    let sol = solve_small(&inst, &ids, algo);
                    sol.validate(&inst).expect("feasible");
                    let (_, lp) = lp_upper_bound(&inst, &ids);
                    lp / sol.weight(&inst).max(1) as f64
                });
            let (mean, max) = fmt_mean_max(&ratios);
            t.push(vec![format!("1/{delta_inv}"), name.into(), mean, max]);
        }
    }
    t
}

/// Strip-Pack with default LP options and no budget.
fn solve_small(inst: &Instance, ids: &[TaskId], algo: SmallAlgo) -> SapSolution {
    let opts = SimplexOptions::default();
    try_solve_small(inst, ids, algo, opts, 0, &Budget::unlimited())
        .expect("no budget")
        .solution
}

fn ratio_vs_exact() -> Table {
    let mut t = Table::new(
        "T1b",
        "Strip-Pack vs exact optimum (tiny δ-small instances)",
        "ratio ≤ 4+ε everywhere; typically ≈ 1–2 in practice",
        &["algorithm", "mean ratio", "max ratio"],
    );
    for (name, algo) in
        [("LP-rounding", SmallAlgo::LpRounding), ("local-ratio", SmallAlgo::LocalRatio)]
    {
        let ratios: Vec<f64> = par_seeds(0..SEEDS, |seed| {
                let inst = generate(
                    &GenConfig {
                        num_edges: 5,
                        num_tasks: 12,
                        profile: CapacityProfile::Random { lo: 256, hi: 1023 },
                        regime: DemandRegime::Small { delta_inv: 16 },
                        max_span: 4,
                        max_weight: 40,
                    },
                    seed + 1000,
                );
                let ids = inst.all_ids();
                let opt = solve_exact_sap(&inst, &ids, ExactConfig::default(), &Budget::unlimited())
                    .expect("no budget")
                    .optimal()
                    .expect("budget")
                    .weight(&inst);
                let sol = solve_small(&inst, &ids, algo);
                opt as f64 / sol.weight(&inst).max(1) as f64
            });
        let (mean, max) = fmt_mean_max(&ratios);
        t.push(vec![name.into(), mean, max]);
    }
    t
}
