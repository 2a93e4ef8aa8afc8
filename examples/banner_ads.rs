//! Banner advertising (another application from the paper's intro): a
//! banner of fixed height is displayed over a sequence of page views;
//! each advertiser wants a contiguous horizontal stripe of the banner
//! for a contiguous range of views. Uniform capacities make this SAP-U.
//!
//! Also demonstrates the figure-1 phenomenon: a set of ads that fits
//! *in aggregate* on every view (UFPP-feasible) may still be impossible
//! to lay out as stripes (SAP-infeasible).
//!
//! Run with: `cargo run --release --example banner_ads`

use storage_alloc::prelude::*;
use storage_alloc::sap_algs::{is_sap_feasible, solve_exact_sap, ExactConfig};
use storage_alloc::sap_core::render_solution;
use storage_alloc::sap_gen::{fig1b, generate, CapacityProfile, DemandRegime, GenConfig};

fn main() -> Result<(), SapError> {
    // Part 1: the Chen-et-al separation instance (paper Fig. 1b).
    let sep = fig1b();
    let all = sep.all_ids();
    println!("Fig. 1(b): {} ads, banner height 4, {} views", sep.num_tasks(), sep.num_edges());
    println!(
        "  aggregate fits every view (UFPP-feasible): {}",
        UfppSolution::new(all.clone()).validate(&sep).is_ok()
    );
    println!("  stripe layout of ALL ads exists (SAP-feasible): {}", is_sap_feasible(&sep, &all));
    let best = solve_exact_sap(&sep, &all, ExactConfig::default(), &Budget::unlimited())?
        .optimal()
        .expect("tiny instance");
    println!("  best stripe layout sells {} of {} ads:", best.len(), sep.num_tasks());
    println!("{}", render_solution(&sep, &best, 8));

    // Part 2: a realistic banner campaign solved with the paper's
    // algorithm.
    let config = GenConfig {
        num_edges: 60,
        num_tasks: 250,
        profile: CapacityProfile::Uniform(1024),
        regime: DemandRegime::Mixed,
        max_span: 20,
        max_weight: 500,
    };
    let campaign = generate(&config, 99);
    let sol = storage_alloc::solve_sap(&campaign);
    sol.validate(&campaign)?;
    println!(
        "campaign: sold {} / {} ads, revenue {} / {} possible weight",
        sol.len(),
        campaign.num_tasks(),
        sol.weight(&campaign),
        campaign.weight_sum()
    );
    Ok(())
}
