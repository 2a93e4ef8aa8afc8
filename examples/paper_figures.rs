//! Reconstructs the paper's figures in the terminal: the Fig. 1
//! UFPP-vs-SAP separations, the Fig. 5 gravity argument, and the Fig. 8
//! rectangle pentagon.
//!
//! Run with: `cargo run --release --example paper_figures`

use storage_alloc::prelude::*;
use storage_alloc::rectpack::{self, intersection_graph};
use storage_alloc::sap_algs::{is_sap_feasible, solve_exact_sap, ExactConfig};
use storage_alloc::sap_core::{apply_gravity, render_solution};
use storage_alloc::sap_gen::{fig1a, fig1b, fig8};

fn main() -> Result<(), SapError> {
    // ---- Fig. 1(a): capacities (2,4,2) ----
    let a = fig1a();
    println!("Fig. 1(a) — capacities {:?}", a.network().capacities());
    println!(
        "  all {} tasks UFPP-feasible: {} | SAP-feasible: {}",
        a.num_tasks(),
        UfppSolution::new(a.all_ids()).validate(&a).is_ok(),
        is_sap_feasible(&a, &a.all_ids()),
    );
    let best = solve_exact_sap(&a, &a.all_ids(), ExactConfig::default(), &Budget::unlimited())?
        .optimal()
        .expect("tiny");
    println!("  best SAP subset ({} of {} tasks):", best.len(), a.num_tasks());
    println!("{}", render_solution(&a, &best, 6));

    // ---- Fig. 1(b): uniform capacity (Chen et al.) ----
    let b = fig1b();
    println!("Fig. 1(b) — uniform capacity 4, {} tasks", b.num_tasks());
    println!(
        "  UFPP-feasible: {} | SAP-feasible: {}",
        UfppSolution::new(b.all_ids()).validate(&b).is_ok(),
        is_sap_feasible(&b, &b.all_ids()),
    );
    let best = solve_exact_sap(&b, &b.all_ids(), ExactConfig::default(), &Budget::unlimited())?
        .optimal()
        .expect("tiny");
    println!("  best SAP subset ({} of {}):", best.len(), b.num_tasks());
    println!("{}", render_solution(&b, &best, 6));

    // ---- Fig. 5: gravity ----
    let net = PathNetwork::uniform(5, 12)?;
    let tasks = vec![
        Task::of(0, 3, 3, 1),
        Task::of(2, 5, 2, 1),
        Task::of(1, 4, 4, 1),
        Task::of(0, 2, 1, 1),
    ];
    let inst = Instance::new(net, tasks)?;
    let floating = SapSolution::from_pairs([(0, 1), (1, 5), (2, 8), (3, 6)]);
    floating.validate(&inst)?;
    println!("Fig. 5 — before gravity:");
    println!("{}", render_solution(&inst, &floating, 12));
    let grounded = apply_gravity(&inst, &floating);
    println!("after gravity (every task rests on the floor or on another):");
    println!("{}", render_solution(&inst, &grounded, 12));

    // ---- Fig. 8: the pentagon ----
    let f = fig8();
    println!("Fig. 8 — a ½-large SAP solution of 5 tasks:");
    println!("{}", render_solution(&f.instance, &f.solution, 24));
    let adj = intersection_graph(&f.instance, &f.instance.all_ids());
    println!("rectangle intersection graph (R(j) = task pushed to its bottleneck):");
    for (v, nbrs) in adj.iter().enumerate() {
        println!("  R({v}) intersects {nbrs:?}");
    }
    let (order, degeneracy) = rectpack::degeneracy_order(&adj);
    let colors = rectpack::greedy_coloring(&adj, &order);
    println!(
        "  → a 5-cycle: degeneracy {degeneracy} (= 2k−2 for k=2), {} colours needed \
         (odd cycle ⇒ not 2-colourable); Lemma 17 is tight.",
        rectpack::coloring::num_colors(&colors)
    );
    Ok(())
}
