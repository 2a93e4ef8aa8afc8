//! **T6 — Theorem 6 substitution**: the LP-rounding step for δ-small
//! UFPP-U (DESIGN.md §3, substitution 1).
//!
//! The paper cites Chekuri–Mydlarz–Shepherd for a `(1+ε)` rounding of the
//! scaled LP optimum. We measure what the deterministic greedy rounding
//! retains: `rounded weight / (LP/4)` — the quantity Lemma 5 consumes —
//! as δ shrinks (retention should approach and exceed 1).

use crate::par_seeds;
use lp_solver::SimplexOptions;
use sap_core::Budget;
use ufpp::{lp_upper_bound, round_scaled_lp};

use crate::table::Table;
use crate::workloads::small_workload;

const SEEDS: u64 = 8;

/// Runs T6.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "T6",
        "Greedy rounding retention vs scaled LP (δ-small strips)",
        "retention = w(rounded)/(LP/4) ≥ 1 for small δ (the CMS step loses only 1+ε)",
        &["δ", "mean retention", "min retention"],
    );
    for delta_inv in [8u64, 16, 32, 64] {
        let retentions: Vec<f64> = par_seeds(0..SEEDS, |seed| {
                let inst = small_workload(seed + 60, 150, delta_inv);
                let ids = inst.all_ids();
                let (_, lp) = lp_upper_bound(&inst, &ids);
                let bound = inst.network().min_capacity() / 2;
                let rounded = round_scaled_lp(&inst, &ids, bound, SimplexOptions::default(), &Budget::unlimited())
                    .expect("no budget");
                rounded
                    .solution
                    .validate_packable(&inst, bound)
                    .expect("bound respected");
                rounded.solution.weight(&inst) as f64 / (lp / 4.0)
            });
        let mean = retentions.iter().sum::<f64>() / retentions.len() as f64;
        let min = retentions.iter().cloned().fold(f64::NAN, f64::min);
        t.push(vec![format!("1/{delta_inv}"), format!("{mean:.3}"), format!("{min:.3}")]);
    }
    vec![t]
}
