//! Memory allocation scenario (the paper's motivating application):
//! edges are time slots, capacity is the size of a memory arena, tasks
//! are allocation requests that need a **contiguous** address range for
//! their whole lifetime. Compares the paper's algorithm against greedy
//! baselines and the LP upper bound on a day-long trace.
//!
//! Run with: `cargo run --release --example memory_allocation`

use storage_alloc::prelude::*;
use storage_alloc::sap_algs::baselines::{greedy_sap, GreedyOrder};
use storage_alloc::sap_gen::{generate, CapacityProfile, DemandRegime, GenConfig};
use storage_alloc::ufpp;

fn main() -> Result<(), SapError> {
    // 48 half-hour slots; the arena shrinks mid-day (another tenant).
    let slots = 48;
    let config = GenConfig {
        num_edges: slots,
        num_tasks: 400,
        profile: CapacityProfile::Valley { high: 1 << 20, low: 1 << 18 },
        regime: DemandRegime::Mixed,
        max_span: 16,
        max_weight: 1000,
    };
    let instance = generate(&config, 2016);
    println!(
        "arena trace: {} slots, {} allocation requests, capacities {}..{} KiB",
        slots,
        instance.num_tasks(),
        instance.network().min_capacity() >> 10,
        instance.network().max_capacity() >> 10,
    );

    // The paper's (9+ε) algorithm; its report carries the per-arm weights.
    let params = SapParams::default();
    let ids = instance.all_ids();
    let (solution, report) =
        storage_alloc::sap_algs::try_solve(&instance, &ids, &params, &Budget::unlimited())?;
    solution.validate(&instance)?;
    let classified = classify_by_size(&instance, params.delta_small, params.delta_large);

    // Baselines.
    let by_weight = greedy_sap(&instance, &ids, GreedyOrder::WeightDesc);
    let by_density = greedy_sap(&instance, &ids, GreedyOrder::DensityDesc);

    // LP upper bound on the best possible (fractional relaxation).
    let (_, lp_bound) = ufpp::lp_upper_bound(&instance, &ids);

    println!("\ntask mix: {} small / {} medium / {} large (δ=1/16, δ'=1/2)",
        classified.small.len(),
        classified.medium.len(),
        classified.large.len());
    let arm = |name| report.arm(name).map_or(0, |a| a.weight);
    println!("regime solutions: small {} | medium {} | large {} → winner: {}",
        arm("small"), arm("medium"), arm("large"), report.winner);

    println!("\n{:<28}{:>12}{:>12}", "allocator", "weight", "% of LP");
    let row = |name: &str, w: u64| {
        println!("{:<28}{:>12}{:>11.1}%", name, w, 100.0 * w as f64 / lp_bound);
    };
    row("paper (9+eps) combined", solution.weight(&instance));
    row("greedy by weight", by_weight.weight(&instance));
    row("greedy by density", by_density.weight(&instance));
    println!("{:<28}{:>12}{:>11.1}%", "LP upper bound", lp_bound as u64, 100.0);

    Ok(())
}
