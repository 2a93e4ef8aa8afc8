//! **T4 — Theorem 4**: the combined `(9+ε)` algorithm on general
//! instances.
//!
//! Measured: ratio vs exact optimum (tiny instances); ratio vs LP bound
//! (realistic sizes); per-regime winner distribution — each regime's
//! algorithm should win on workloads dominated by its regime.

use crate::par_seeds;
use sap_algs::{solve, solve_exact_sap, try_solve, ExactConfig, SapParams};
use sap_core::Budget;
use sap_gen::DemandRegime;
use ufpp::lp_upper_bound;

use crate::table::{fmt_mean_max, Table};
use crate::workloads::{mixed_workload, tiny_mixed_workload};

const SEEDS: u64 = 8;

/// Runs T4.
pub fn run() -> Vec<Table> {
    vec![ratio_vs_exact(), ratio_vs_lp(), winner_table(), delta_ablation()]
}

/// T4d — ablation of the small/medium split threshold δ (the paper fixes
/// δ as a function of ε in the proof; here it is a knob).
fn delta_ablation() -> Table {
    use sap_core::Ratio;
    let mut t = Table::new(
        "T4d",
        "Ablation: the δ (small/medium) split threshold",
        "the split matters (≈25% weight swing): this workload is best served \
         by routing tasks to Strip-Pack (δ=1/4) or to the medium solver \
         (δ=1/64); the worst choice is in between",
        &["δ_small", "mean weight", "mean ratio vs LP"],
    );
    for delta_inv in [4u64, 8, 16, 32, 64] {
        let results: Vec<(u64, f64)> = par_seeds(0..SEEDS, |seed| {
                let inst = mixed_workload(seed + 40, 20, 100);
                let ids = inst.all_ids();
                let params = SapParams {
                    delta_small: Ratio::new(1, delta_inv),
                    ..Default::default()
                };
                let sol = solve(&inst, &ids, &params);
                sol.validate(&inst).expect("feasible");
                let (_, lp) = lp_upper_bound(&inst, &ids);
                let w = sol.weight(&inst);
                (w, lp / w.max(1) as f64)
            });
        let mean_w = results.iter().map(|r| r.0).sum::<u64>() / results.len() as u64;
        let mean_r = results.iter().map(|r| r.1).sum::<f64>() / results.len() as f64;
        t.push(vec![format!("1/{delta_inv}"), mean_w.to_string(), format!("{mean_r:.3}")]);
    }
    t
}

fn ratio_vs_exact() -> Table {
    let mut t = Table::new(
        "T4a",
        "Combined algorithm vs exact optimum (tiny mixed instances)",
        "max ratio ≤ 9+ε; typically ≤ 2 in practice",
        &["instances", "mean ratio", "max ratio"],
    );
    let ratios: Vec<f64> = par_seeds(0..SEEDS, |seed| {
            let inst = tiny_mixed_workload(seed);
            let ids = inst.all_ids();
            let opt = solve_exact_sap(&inst, &ids, ExactConfig::default(), &Budget::unlimited())
                .expect("no budget")
                .optimal()
                .expect("budget")
                .weight(&inst);
            let sol = solve(&inst, &ids, &SapParams::default());
            sol.validate(&inst).expect("feasible");
            opt as f64 / sol.weight(&inst).max(1) as f64
        });
    let (mean, max) = fmt_mean_max(&ratios);
    t.push(vec![SEEDS.to_string(), mean, max]);
    t
}

fn ratio_vs_lp() -> Table {
    let mut t = Table::new(
        "T4b",
        "Combined algorithm vs LP bound (mixed workloads)",
        "ratio bounded and stable as n grows",
        &["n", "edges", "mean ratio", "max ratio"],
    );
    for (n, m) in [(50usize, 10usize), (100, 20), (200, 30)] {
        let ratios: Vec<f64> = par_seeds(0..SEEDS, |seed| {
                let inst = mixed_workload(seed + 40, m, n);
                let ids = inst.all_ids();
                let sol = solve(&inst, &ids, &SapParams::default());
                sol.validate(&inst).expect("feasible");
                let (_, lp) = lp_upper_bound(&inst, &ids);
                lp / sol.weight(&inst).max(1) as f64
            });
        let (mean, max) = fmt_mean_max(&ratios);
        t.push(vec![n.to_string(), m.to_string(), mean, max]);
    }
    t
}

fn winner_table() -> Table {
    let mut t = Table::new(
        "T4c",
        "Which regime's algorithm wins (Lemma 3's best-of-three)",
        "each sub-algorithm dominates on its own regime",
        &["workload", "small wins", "medium wins", "large wins"],
    );
    let regimes: [(&str, DemandRegime); 4] = [
        ("δ-small", DemandRegime::Small { delta_inv: 16 }),
        ("medium", DemandRegime::Medium { delta_inv: 8 }),
        ("½-large", DemandRegime::Large { k: 2 }),
        ("mixed", DemandRegime::Mixed),
    ];
    for (name, regime) in regimes {
        let winners: Vec<&'static str> = par_seeds(0..SEEDS, |seed| {
                let inst = sap_gen::generate(
                    &sap_gen::GenConfig {
                        num_edges: 16,
                        num_tasks: 80,
                        profile: sap_gen::CapacityProfile::RandomWalk { lo: 128, hi: 2048 },
                        regime,
                        max_span: 8,
                        max_weight: 60,
                    },
                    seed + 70,
                );
                let params = SapParams::default();
                let (_, report) = try_solve(&inst, &inst.all_ids(), &params, &Budget::unlimited())
                    .expect("no budget");
                report.winner
            });
        let count = |w: &str| winners.iter().filter(|&&x| x == w).count().to_string();
        t.push(vec![name.into(), count("small"), count("medium"), count("large")]);
    }
    t
}
