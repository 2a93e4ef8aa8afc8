//! The three independent exact solvers side by side:
//!
//! 1. the **state-space search** over grounded insertion orders
//!    (`sap_algs::exact` — works on any instance);
//! 2. the paper's **Lemma 13 proper-pair DP** (`sap_algs::lemma13` —
//!    the faithful transcription, poly-time for constant `L`);
//! 3. the **Chen–Hassin–Tzur column DP** (`sap_algs::sapu` — SAP-U with
//!    constant integer capacity, §1.1).
//!
//! Three algorithms, three completely different state spaces, one answer.
//!
//! Run with: `cargo run --release --example exact_solvers`

use std::time::Instant;

use storage_alloc::prelude::*;
use storage_alloc::sap_algs::{
    solve_exact_sap, solve_lemma13_dp, solve_sapu_exact_dp, ExactConfig, Lemma13Config,
};
use storage_alloc::sap_gen::{generate, CapacityProfile, DemandRegime, GenConfig};

fn main() -> Result<(), SapError> {
    println!("{:<8}{:>14}{:>14}{:>14}{:>10}", "seed", "search", "Lemma-13 DP", "column DP", "agree");
    let unlimited = Budget::unlimited();
    for seed in 0..8u64 {
        // SAP-U with K = 6 so all three solvers apply.
        let instance = generate(
            &GenConfig {
                num_edges: 6,
                num_tasks: 11,
                profile: CapacityProfile::Uniform(6),
                regime: DemandRegime::Mixed,
                max_span: 4,
                max_weight: 25,
            },
            seed,
        );
        let ids = instance.all_ids();

        let t0 = Instant::now();
        let search = solve_exact_sap(&instance, &ids, ExactConfig::default(), &unlimited)?
            .optimal()
            .expect("state budget")
            .weight(&instance);
        let t_search = t0.elapsed();

        let t0 = Instant::now();
        let dp13 = solve_lemma13_dp(&instance, &ids, Lemma13Config::default(), &unlimited)?
            .expect("state budget")
            .weight(&instance);
        let t_13 = t0.elapsed();

        let t0 = Instant::now();
        let column = solve_sapu_exact_dp(&instance, &ids).weight(&instance);
        let t_col = t0.elapsed();

        assert_eq!(search, dp13);
        assert_eq!(search, column);
        println!(
            "{:<8}{:>9} {:>4.1?}{:>9} {:>4.1?}{:>9} {:>4.1?}{:>10}",
            seed, search, t_search, dp13, t_13, column, t_col, "yes"
        );
    }
    println!("\nall three exact solvers agree on every instance — the search and the");
    println!("paper's DPs validate each other (differential testing).");
    Ok(())
}
