//! **UF — the Bonsma-style UFPP comparator**: the split-and-best-of
//! framework the paper adapts, run on UFPP itself. Measured against the
//! exact UFPP optimum, with the per-regime winner split.

use crate::oracles::ufpp::{solve_exact, solve_ufpp_combined, UfppParams};
use crate::par_seeds;

use crate::table::{fmt_mean_max, Table};
use crate::workloads::{mixed_workload, tiny_mixed_workload};

const SEEDS: u64 = 8;

/// Runs UF.
pub fn run() -> Vec<Table> {
    vec![ratio_table(), winner_table()]
}

fn ratio_table() -> Table {
    let mut t = Table::new(
        "UFa",
        "Combined UFPP solver vs exact UFPP optimum (tiny instances)",
        "constant-factor behaviour mirroring the SAP combined algorithm \
         (Bonsma et al. prove 7+ε for the real thing)",
        &["instances", "mean ratio", "max ratio"],
    );
    let ratios: Vec<f64> = par_seeds(0..SEEDS, |seed| {
            let inst = tiny_mixed_workload(seed + 5000);
            let ids = inst.all_ids();
            let opt = solve_exact(&inst, &ids).weight(&inst);
            let (sol, _) = solve_ufpp_combined(&inst, &ids, &UfppParams::default());
            sol.validate(&inst).expect("feasible");
            opt as f64 / sol.weight(&inst).max(1) as f64
        });
    let (mean, max) = fmt_mean_max(&ratios);
    t.push(vec![SEEDS.to_string(), mean, max]);
    t
}

fn winner_table() -> Table {
    let mut t = Table::new(
        "UFb",
        "UFPP combined: regime winner split on mixed workloads",
        "mirrors T4c — each regime contributes",
        &["n", "small wins", "medium wins", "large wins"],
    );
    for n in [60usize, 120] {
        let winners: Vec<&'static str> = par_seeds(0..SEEDS, |seed| {
                let inst = mixed_workload(seed + 5100, 16, n);
                let ids = inst.all_ids();
                let (_, stats) = solve_ufpp_combined(&inst, &ids, &UfppParams::default());
                stats.winner
            });
        let count = |w: &str| winners.iter().filter(|&&x| x == w).count().to_string();
        t.push(vec![n.to_string(), count("small"), count("medium"), count("large")]);
    }
    t
}
