//! **T3 — Theorem 3**: rectangle packing on `1/k`-large instances.
//!
//! Paper claim: ratio `2k−1` (better than Bonsma et al.'s `2k`).
//! Measured for k ∈ {1, 2, 3, 4} against the exact optimum, plus the
//! runtime of the exact rectangle solver on growing `n` (the
//! polynomial-time claim behind Theorem 7's substitution).

use std::time::Instant;

use crate::par_seeds;
use sap_algs::{solve_exact_sap, try_solve_large, ExactConfig};
use sap_core::{Budget, Instance, SapSolution, TaskId};

use crate::table::{fmt_mean_max, Table};
use crate::workloads::large_workload;

const SEEDS: u64 = 8;

/// Runs T3.
pub fn run() -> Vec<Table> {
    vec![ratio_table(), runtime_table()]
}

fn ratio_table() -> Table {
    let mut t = Table::new(
        "T3a",
        "Rectangle packing vs exact optimum (1/k-large tasks)",
        "max ratio ≤ 2k−1; k=1 (d=b) is solved exactly (ratio 1)",
        &["k", "bound 2k−1", "mean ratio", "max ratio"],
    );
    for k in [1u64, 2, 3, 4] {
        let ratios: Vec<f64> = par_seeds(0..SEEDS, |seed| {
                let inst = large_workload(seed, 6, 12, k);
                let ids = inst.all_ids();
                let opt = solve_exact_sap(&inst, &ids, ExactConfig::default(), &Budget::unlimited())
                    .expect("no budget")
                    .optimal()
                    .expect("budget")
                    .weight(&inst);
                let sol = solve_large(&inst, &ids).expect("budget");
                sol.validate(&inst).expect("feasible");
                opt as f64 / sol.weight(&inst).max(1) as f64
            });
        let (mean, max) = fmt_mean_max(&ratios);
        t.push(vec![k.to_string(), (2 * k - 1).to_string(), mean, max]);
    }
    t
}

/// The rectangle packing with no budget (`None`: memo-state cap hit).
fn solve_large(inst: &Instance, ids: &[TaskId]) -> Option<SapSolution> {
    try_solve_large(inst, ids, &Budget::unlimited()).expect("no budget")
}

fn runtime_table() -> Table {
    let mut t = Table::new(
        "T3b",
        "Exact rectangle-packing runtime on ½-large workloads",
        "growth stays polynomial (the min-edge D&C collapses the search)",
        &["n", "edges", "mean time (ms)"],
    );
    for (n, m) in [(40usize, 20usize), (80, 30), (160, 40), (320, 60)] {
        let times: Vec<f64> = (0..4u64)
            .map(|seed| {
                let inst = large_workload(seed + 500, m, n, 2);
                let ids = inst.all_ids();
                let start = Instant::now();
                let sol = solve_large(&inst, &ids).expect("budget");
                let elapsed = start.elapsed().as_secs_f64() * 1e3;
                assert!(sol.validate(&inst).is_ok());
                elapsed
            })
            .collect();
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        t.push(vec![n.to_string(), m.to_string(), format!("{mean:.1}")]);
    }
    t
}
