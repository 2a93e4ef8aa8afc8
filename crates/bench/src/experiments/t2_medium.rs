//! **T2 — Theorem 2**: AlmostUniform + Elevator on medium instances.
//!
//! Paper claim: ratio `(1+ε)·2` with `ε = q/ℓ`. Measured against the
//! exact optimum, sweeping ℓ (the ε knob), plus framework statistics
//! (classes solved exactly, winning residue).

use crate::par_seeds;
use sap_algs::medium::{try_solve_medium_with_stats, MediumParams};
use sap_algs::{solve_exact_sap, ExactConfig};
use sap_core::Budget;

use crate::table::{fmt_mean_max, Table};
use crate::workloads::medium_workload;

const SEEDS: u64 = 8;

/// Runs T2.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "T2",
        "AlmostUniform/Elevator vs exact optimum (medium tasks, q = 2)",
        "mean/max ratio ≤ 2·(ℓ+q)/ℓ; larger ℓ → closer to 2",
        &["ℓ", "bound 2(ℓ+q)/ℓ", "mean ratio", "max ratio", "exact classes"],
    );
    for ell in [2u32, 4, 8] {
        let results: Vec<(f64, usize, usize)> = par_seeds(0..SEEDS, |seed| {
                let inst = medium_workload(seed, 5, 12);
                let ids = inst.all_ids();
                let opt = solve_exact_sap(&inst, &ids, ExactConfig::default(), &Budget::unlimited())
                    .expect("no budget")
                    .optimal()
                    .expect("budget")
                    .weight(&inst);
                let params = MediumParams { ell, ..Default::default() };
                let (sol, stats) =
                    try_solve_medium_with_stats(&inst, &ids, params, 0, &Budget::unlimited())
                        .expect("no budget");
                sol.validate(&inst).expect("feasible");
                (
                    opt as f64 / sol.weight(&inst).max(1) as f64,
                    stats.exact_classes,
                    stats.classes,
                )
            });
        let ratios: Vec<f64> = results.iter().map(|r| r.0).collect();
        let exact: usize = results.iter().map(|r| r.1).sum();
        let total: usize = results.iter().map(|r| r.2).sum();
        let (mean, max) = fmt_mean_max(&ratios);
        let bound = 2.0 * (ell + 2) as f64 / ell as f64;
        t.push(vec![
            ell.to_string(),
            format!("{bound:.2}"),
            mean,
            max,
            format!("{exact}/{total}"),
        ]);
    }
    vec![t]
}
