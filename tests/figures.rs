//! Machine verification of every figure in the paper (experiment index
//! F1–F8 in DESIGN.md). Each test states the figure's formal claim and
//! checks it with the exact solvers.

use storage_alloc::prelude::*;
use storage_alloc::rectpack::{
    self, degeneracy_order, greedy_coloring, intersection_graph,
};
use storage_alloc::sap_algs::{is_sap_feasible, solve_exact_sap, ExactConfig};
use storage_alloc::sap_core::{
    apply_gravity, canonical_heights, clip_to_band, elevation_split, is_delta_small,
    is_elevated, is_grounded, lift, stack,
};
use storage_alloc::sap_gen::{fig1a, fig1b, fig8};

/// Fig. 1(a): UFPP-feasible, SAP-infeasible, with capacities (½, 1, ½)
/// scaled ×4; every proper subset is SAP-feasible (minimal witness).
#[test]
fn fig1a_gap_between_ufpp_and_sap() {
    let inst = fig1a();
    assert_eq!(inst.network().capacities(), &[2, 4, 2]);
    let all = inst.all_ids();
    UfppSolution::new(all.clone()).validate(&inst).unwrap();
    assert!(!is_sap_feasible(&inst, &all), "no SAP solution contains all tasks");
    for skip in &all {
        let sub: Vec<TaskId> = all.iter().copied().filter(|j| j != skip).collect();
        assert!(is_sap_feasible(&inst, &sub), "dropping task {skip} must make it feasible");
    }
}

/// Fig. 1(b) (Chen et al.): the same separation with uniform capacities.
#[test]
fn fig1b_gap_with_uniform_capacities() {
    let inst = fig1b();
    assert!(inst.network().is_uniform());
    let all = inst.all_ids();
    UfppSolution::new(all.clone()).validate(&inst).unwrap();
    assert!(!is_sap_feasible(&inst, &all));
    for skip in &all {
        let sub: Vec<TaskId> = all.iter().copied().filter(|j| j != skip).collect();
        assert!(is_sap_feasible(&inst, &sub), "minimal witness: subset without {skip}");
    }
    // Demands are the figure's {¼, ½} of the capacity.
    for j in &all {
        assert!([1, 2].contains(&inst.demand(*j)));
    }
}

/// Fig. 2: δ-smallness depends on the bottleneck, not a global capacity —
/// the same demand can be small under uniform capacities and large under
/// non-uniform ones.
#[test]
fn fig2_classification_uniform_vs_nonuniform() {
    let delta = Ratio::new(1, 4);
    // Uniform: b(j) = 16 for every task.
    let uni = Instance::new(
        PathNetwork::uniform(4, 16).unwrap(),
        vec![Task::of(0, 4, 4, 1), Task::of(1, 3, 4, 1)],
    )
    .unwrap();
    assert!(is_delta_small(&uni, 0, delta));
    assert!(is_delta_small(&uni, 1, delta));

    // Non-uniform: a valley makes the long task large.
    let non = Instance::new(
        PathNetwork::new(vec![16, 8, 16, 16]).unwrap(),
        vec![Task::of(0, 4, 4, 1), Task::of(2, 4, 4, 1)],
    )
    .unwrap();
    assert!(!is_delta_small(&non, 0, delta), "b = 8 through the valley ⇒ 4 > 8/4");
    assert!(is_delta_small(&non, 1, delta), "b = 16 to the right of the valley");
}

/// Fig. 3 / Observation 2: clipping capacities to the band's upper end is
/// lossless for tasks whose bottlenecks lie in the band.
#[test]
fn fig3_clipping_preserves_optimum() {
    let net = PathNetwork::new(vec![8, 30, 9, 14]).unwrap();
    let tasks = vec![
        Task::of(0, 2, 5, 7),  // b = 8
        Task::of(1, 3, 6, 9),  // b = 9
        Task::of(1, 4, 9, 4),  // b = 9
        Task::of(2, 4, 4, 6),  // b = 9
    ];
    let inst = Instance::new(net, tasks).unwrap();
    let ids = inst.all_ids();
    let (clipped, map) = clip_to_band(&inst, &ids, 8, 16).unwrap();
    assert_eq!(clipped.network().capacities(), &[8, 16, 9, 14]);
    let exact = |inst: &Instance, ids: &[TaskId]| {
        solve_exact_sap(inst, ids, ExactConfig::default(), &Budget::unlimited())
            .unwrap()
            .optimal()
            .unwrap()
    };
    let opt_orig = exact(&inst, &ids);
    let opt_clip = exact(&clipped, &clipped.all_ids());
    assert_eq!(opt_orig.weight(&inst), opt_clip.weight(&clipped));
    // And the clipped solution lifts back verbatim.
    let lifted = SapSolution::from_pairs(
        opt_clip.placements.iter().map(|p| (map[p.task], p.height)),
    );
    lifted.validate(&inst).unwrap();
}

/// Fig. 4: Strip-Pack's stacking — lifted per-stratum solutions combine
/// into one feasible solution.
#[test]
fn fig4_strip_stacking() {
    // Two strata: b ∈ [4,8) (t=2) and b ∈ [8,16) (t=3).
    let net = PathNetwork::new(vec![4, 8, 8]).unwrap();
    let tasks = vec![
        Task::of(0, 2, 1, 1), // stratum 2
        Task::of(0, 3, 1, 1), // stratum 2
        Task::of(1, 3, 3, 1), // stratum 3
        Task::of(1, 2, 1, 1), // stratum 3
    ];
    let inst = Instance::new(net, tasks).unwrap();
    // Stratum 2 packed into [0,2), lifted to [2,4); stratum 3 into [0,4),
    // lifted to [4,8).
    let s2 = canonical_heights(&inst, &[0, 1]).unwrap();
    assert!(s2.max_makespan(&inst) <= 2);
    let s3 = canonical_heights(&inst, &[2, 3]).unwrap();
    assert!(s3.max_makespan(&inst) <= 4);
    let combined = stack(&[lift(&s2, 2), lift(&s3, 4)]);
    combined.validate(&inst).unwrap();
    assert_eq!(combined.len(), 4);
}

/// Fig. 5 / Observation 11: gravity produces a grounded solution without
/// changing the selected set, and never raises a task.
#[test]
fn fig5_gravity() {
    let net = PathNetwork::uniform(5, 12).unwrap();
    let tasks = vec![
        Task::of(0, 3, 3, 1),
        Task::of(2, 5, 2, 1),
        Task::of(1, 4, 4, 1),
        Task::of(0, 2, 1, 1),
    ];
    let inst = Instance::new(net, tasks).unwrap();
    let floating = SapSolution::from_pairs([(0, 1), (1, 5), (2, 8), (3, 6)]);
    floating.validate(&inst).unwrap();
    assert!(!is_grounded(&inst, &floating));
    let grounded = apply_gravity(&inst, &floating);
    grounded.validate(&inst).unwrap();
    assert!(is_grounded(&inst, &grounded));
    for p in &grounded.placements {
        assert!(p.height <= floating.height_of(p.task).unwrap());
    }
    assert_eq!(grounded.height_of(0), Some(0));
}

/// Fig. 6 / Lemma 14: a feasible solution of (1−2β)-small tasks splits
/// into two β-elevated feasible solutions.
#[test]
fn fig6_elevation_split() {
    // 2^k = 8, β = ¼ ⇒ threshold 2. Tasks are ½-small (d ≤ b/2).
    let net = PathNetwork::uniform(4, 8).unwrap();
    let tasks = vec![
        Task::of(0, 2, 2, 1),
        Task::of(1, 4, 3, 1),
        Task::of(2, 4, 2, 1),
        Task::of(0, 1, 4, 1),
    ];
    let inst = Instance::new(net, tasks).unwrap();
    let sol = canonical_heights(&inst, &[0, 1, 2, 3]).unwrap();
    let split = elevation_split(&inst, &sol, 2);
    split.lifted.validate(&inst).unwrap();
    split.kept.validate(&inst).unwrap();
    assert!(is_elevated(&split.lifted, 2));
    assert!(is_elevated(&split.kept, 2));
    assert_eq!(split.lifted.len() + split.kept.len(), sol.len());
    assert!(!split.lifted.is_empty(), "tasks at height < 2 exist and get lifted");
}

/// Fig. 7: the rectangle reduction — `R(j)` hangs from the bottleneck.
#[test]
fn fig7_rectangle_reduction() {
    let net = PathNetwork::new(vec![10, 6, 4, 6, 10]).unwrap();
    let inst = Instance::new(
        net,
        vec![Task::of(0, 5, 2, 1), Task::of(0, 2, 3, 1)],
    )
    .unwrap();
    let r0 = rectpack::rect_of(&inst, 0);
    assert_eq!((r0.bottom, r0.top), (2, 4), "top = b(j) = 4 (valley), bottom = b−d");
    let r1 = rectpack::rect_of(&inst, 1);
    assert_eq!((r1.bottom, r1.top), (3, 6));
    assert_eq!(r0.height(), inst.demand(0));
}

/// Fig. 8: a ½-large SAP solution whose rectangles form a 5-cycle; the
/// intersection graph is C₅ (2-degenerate, chromatic number 3) — Lemma 17
/// is tight for k = 2.
#[test]
fn fig8_pentagon() {
    let f = fig8();
    let inst = &f.instance;
    // (a) the five tasks form a feasible ½-large SAP solution.
    f.solution.validate(inst).unwrap();
    assert_eq!(f.solution.len(), 5);
    for j in 0..5 {
        assert!(2 * inst.demand(j) > inst.bottleneck(j), "task {j} is ½-large");
    }
    // (b) the rectangle intersection graph is exactly the 5-cycle.
    let ids = inst.all_ids();
    let adj = intersection_graph(inst, &ids);
    for v in 0..5 {
        assert_eq!(adj[v].len(), 2, "vertex {v} must have degree 2");
    }
    // Consecutive in the cycle ⇔ adjacent.
    for i in 0..5 {
        let a = f.cycle[i];
        let b = f.cycle[(i + 1) % 5];
        assert!(adj[a].contains(&b), "cycle edge {a}–{b}");
        let c = f.cycle[(i + 2) % 5];
        assert!(!adj[a].contains(&c), "chord {a}–{c} must be absent");
    }
    // Degeneracy 2 ⇒ greedy uses ≤ 3 colours; an odd cycle needs exactly 3.
    let (order, degeneracy) = degeneracy_order(&adj);
    assert_eq!(degeneracy, 2, "Lemma 17: 2k−2 = 2 for k = 2");
    let colors = greedy_coloring(&adj, &order);
    assert!(rectpack::coloring::is_proper(&adj, &colors));
    assert_eq!(rectpack::coloring::num_colors(&colors), 3, "odd cycle is not 2-colourable");
}
