//! **A1 — Appendix**: the local-ratio Algorithm Strip.
//!
//! Paper claim: `½B`-packable solutions with
//! `w(S) ≥ (1−4δ)/5 · OPT_SAP` — a `(5+ε)` LP-free alternative to §4.1's
//! LP-rounding (`4+ε`). We measure both against the same LP bound to
//! reproduce the 4-vs-5 ordering and verify the packability invariant.

use crate::par_seeds;
use lp_solver::SimplexOptions;
use sap_core::{Budget, Instance};
use sap_gen::{generate, CapacityProfile, DemandRegime, GenConfig};
use ufpp::{lp_upper_bound, round_scaled_lp, strip_local_ratio};

use crate::table::Table;

const SEEDS: u64 = 8;

/// A δ-small one-band workload (all bottlenecks in [B, 2B)).
fn band_workload(seed: u64, delta_inv: u64) -> (Instance, u64) {
    let b = 64 * delta_inv;
    let inst = generate(
        &GenConfig {
            num_edges: 10,
            num_tasks: 140,
            profile: CapacityProfile::Random { lo: b, hi: 2 * b - 1 },
            regime: DemandRegime::Small { delta_inv },
            max_span: 6,
            max_weight: 60,
        },
        seed,
    );
    (inst, b)
}

/// Runs A1.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "A1",
        "Local-ratio Strip vs LP-rounding in one band [B, 2B)",
        "both ½B-packable; LP-rounding (4+ε) ahead of local-ratio (5+ε), \
         both far below their bounds",
        &["δ", "LP/w(LP-rounding)", "LP/w(local-ratio)"],
    );
    for delta_inv in [16u64, 32, 64] {
        let pairs: Vec<(f64, f64)> = par_seeds(0..SEEDS, |seed| {
                let (inst, b) = band_workload(seed + 300, delta_inv);
                let ids = inst.all_ids();
                let (_, lp) = lp_upper_bound(&inst, &ids);
                let lp_round = round_scaled_lp(&inst, &ids, b / 2, SimplexOptions::default(), &Budget::unlimited())
                    .expect("no budget");
                lp_round
                    .solution
                    .validate_packable(&inst, b / 2)
                    .expect("LP-rounding bound");
                let local = strip_local_ratio(&inst, &ids, b);
                local
                    .validate_packable(&inst, b / 2)
                    .expect("local-ratio bound");
                (
                    lp / lp_round.solution.weight(&inst).max(1) as f64,
                    lp / local.weight(&inst).max(1) as f64,
                )
            });
        let mean_a = pairs.iter().map(|p| p.0).sum::<f64>() / pairs.len() as f64;
        let mean_b = pairs.iter().map(|p| p.1).sum::<f64>() / pairs.len() as f64;
        t.push(vec![format!("1/{delta_inv}"), format!("{mean_a:.3}"), format!("{mean_b:.3}")]);
    }
    vec![t]
}
