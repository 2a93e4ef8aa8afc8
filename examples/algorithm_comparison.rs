//! Side-by-side comparison of every solver in the workspace across the
//! paper's three regimes — a miniature version of experiment `BL`.
//!
//! Run with: `cargo run --release --example algorithm_comparison`

use storage_alloc::prelude::*;
use storage_alloc::sap_algs::baselines::greedy_sap_best;
use storage_alloc::lp_solver::SimplexOptions;
use storage_alloc::sap_algs::{
    try_solve_large, try_solve_medium_with_stats, try_solve_small, MediumParams,
};
use storage_alloc::sap_gen::{generate, CapacityProfile, DemandRegime, GenConfig};
use storage_alloc::ufpp;

fn main() -> Result<(), SapError> {
    let regimes: [(&str, DemandRegime); 4] = [
        ("small (δ=1/16)", DemandRegime::Small { delta_inv: 16 }),
        ("medium", DemandRegime::Medium { delta_inv: 8 }),
        ("large (k=2)", DemandRegime::Large { k: 2 }),
        ("mixed", DemandRegime::Mixed),
    ];

    println!(
        "{:<16}{:>12}{:>12}{:>12}{:>12}{:>12}{:>10}",
        "regime", "combined", "small-alg", "medium-alg", "large-alg", "greedy", "% of LP"
    );
    for (name, regime) in regimes {
        let config = GenConfig {
            num_edges: 24,
            num_tasks: 120,
            profile: CapacityProfile::RandomWalk { lo: 256, hi: 2048 },
            regime,
            max_span: 10,
            max_weight: 100,
        };
        let inst = generate(&config, 7);
        let ids = inst.all_ids();

        let combined = storage_alloc::solve_sap(&inst);
        combined.validate(&inst)?;
        let unlimited = Budget::unlimited();
        let opts = SimplexOptions::default();
        let small = try_solve_small(&inst, &ids, SmallAlgo::LpRounding, opts, 0, &unlimited)?;
        let small = small.solution;
        small.validate(&inst)?;
        let (medium, _) =
            try_solve_medium_with_stats(&inst, &ids, MediumParams::default(), 0, &unlimited)?;
        medium.validate(&inst)?;
        let large = try_solve_large(&inst, &ids, &unlimited)?.map_or(0, |s| s.weight(&inst));
        let greedy = greedy_sap_best(&inst, &ids);
        let (_, lp) = ufpp::lp_upper_bound(&inst, &ids);

        let cw = combined.weight(&inst);
        println!(
            "{:<16}{:>12}{:>12}{:>12}{:>12}{:>12}{:>9.1}%",
            name,
            cw,
            small.weight(&inst),
            medium.weight(&inst),
            large,
            greedy.weight(&inst),
            100.0 * cw as f64 / lp
        );
    }
    println!(
        "\nNote: each regime-specific algorithm carries its guarantee only on its own \
         regime; the combined algorithm (Theorem 4) is the best of the three after \
         splitting the task set."
    );
    Ok(())
}
