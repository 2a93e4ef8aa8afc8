//! **T5 — Theorem 5**: the `(10+ε)` ring algorithm.
//!
//! Measured: ratio vs the exact ring optimum (tiny rings), and the
//! cut-path / through-knapsack winner split on realistic rings — the
//! paper's Lemma 18 predicts both branches matter.

use crate::oracles::solve_ring_exact;
use crate::par_seeds;
use sap_algs::ring::{solve_ring, RingParams, RingWinner};
use sap_gen::{generate_ring, CapacityProfile, RingGenConfig};

use crate::table::{fmt_mean_max, Table};

const SEEDS: u64 = 8;

/// Runs T5.
pub fn run() -> Vec<Table> {
    vec![ratio_table(), winner_split()]
}

fn ratio_table() -> Table {
    let mut t = Table::new(
        "T5a",
        "Ring algorithm vs exact ring optimum (tiny rings)",
        "max ratio ≤ 10+ε (= 1 + ratio of the path solver + ε)",
        &["instances", "mean ratio", "max ratio"],
    );
    let ratios: Vec<f64> = par_seeds(0..SEEDS, |seed| {
            let inst = generate_ring(
                &RingGenConfig {
                    num_edges: 6,
                    num_tasks: 9,
                    profile: CapacityProfile::Random { lo: 8, hi: 40 },
                    max_demand: 40,
                    max_weight: 30,
                },
                seed + 900,
            );
            let (sol, _) = solve_ring(&inst, &RingParams::default());
            sol.validate(&inst).expect("feasible");
            let opt = solve_ring_exact(&inst).weight(&inst);
            opt as f64 / sol.weight(&inst).max(1) as f64
        });
    let (mean, max) = fmt_mean_max(&ratios);
    t.push(vec![SEEDS.to_string(), mean, max]);
    t
}

fn winner_split() -> Table {
    let mut t = Table::new(
        "T5b",
        "Cut-path vs through-knapsack winner split (Lemma 18)",
        "the path branch usually wins; the knapsack branch matters when the \
         minimum cut is wide relative to the rest",
        &["capacity profile", "path wins", "knapsack wins"],
    );
    let profiles: [(&str, CapacityProfile); 2] = [
        ("random 64..512", CapacityProfile::Random { lo: 64, hi: 512 }),
        ("near-uniform 200..256", CapacityProfile::Random { lo: 200, hi: 256 }),
    ];
    for (name, profile) in profiles {
        let winners: Vec<RingWinner> = par_seeds(0..SEEDS, |seed| {
                let inst = generate_ring(
                    &RingGenConfig {
                        num_edges: 16,
                        num_tasks: 100,
                        profile,
                        max_demand: 128,
                        max_weight: 60,
                    },
                    seed + 950,
                );
                let (sol, stats) = solve_ring(&inst, &RingParams::default());
                sol.validate(&inst).expect("feasible");
                stats.winner
            });
        let path = winners.iter().filter(|w| **w == RingWinner::CutPath).count();
        let ks = winners.len() - path;
        t.push(vec![name.into(), path.to_string(), ks.to_string()]);
    }
    t
}
