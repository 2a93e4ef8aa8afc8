//! Exact ring SAP for tiny instances: the reference optimum behind the
//! T5 table and the Theorem 5 tests.

use std::collections::HashSet;

use sap_core::ring::{ArcChoice, RingInstance, RingPlacement, RingSolution};
use sap_core::TaskId;

/// Exact ring SAP for tiny instances: for every routing of every task,
/// searches all bottom-up insertion orders at grounded heights.
/// Exponential in `n`.
///
/// # Panics
///
/// Panics on more than 16 tasks.
pub fn solve_ring_exact(instance: &RingInstance) -> RingSolution {
    let n = instance.num_tasks();
    assert!(n <= 16, "exact ring solver limited to 16 tasks");
    let m = instance.network().num_edges();
    let mut best = RingSolution::default();
    let mut best_w = 0u64;
    // For each routing assignment, check feasibility by exact search over
    // vertical orders (μ-profile DFS over the ring's edges).
    for routing_mask in 0u32..(1 << n) {
        let arcs: Vec<ArcChoice> = (0..n)
            .map(|j| {
                if routing_mask & (1 << j) != 0 {
                    ArcChoice::Clockwise
                } else {
                    ArcChoice::CounterClockwise
                }
            })
            .collect();
        // Max-weight subset for this routing via DFS with grounded heights.
        let mut stack_best: (u64, Vec<(TaskId, u64)>) = (0, Vec::new());
        let mut order: Vec<(TaskId, u64)> = Vec::new();
        let mut seen = HashSet::new();
        dfs_ring(instance, &arcs, m, 0, &vec![0u64; m], &mut order, &mut stack_best, &mut seen);
        if stack_best.0 > best_w {
            best_w = stack_best.0;
            best = RingSolution::new(
                stack_best
                    .1
                    .iter()
                    .map(|&(j, h)| RingPlacement { task: j, arc: arcs[j], height: h })
                    .collect(),
            );
        }
    }
    debug_assert!(best.validate(instance).is_ok());
    best
}

#[allow(clippy::too_many_arguments)]
fn dfs_ring(
    instance: &RingInstance,
    arcs: &[ArcChoice],
    m: usize,
    mask: u32,
    mu: &[u64],
    placed: &mut Vec<(TaskId, u64)>,
    best: &mut (u64, Vec<(TaskId, u64)>),
    seen: &mut HashSet<(u32, Vec<u64>)>,
) {
    let w: u64 = placed.iter().map(|&(j, _)| instance.tasks()[j].weight).sum();
    if w > best.0 {
        *best = (w, placed.clone());
    }
    if !seen.insert((mask, mu.to_vec())) {
        return;
    }
    // Exactness requires trying every bottom-up insertion order, so the
    // loop always ranges over all unplaced tasks.
    for j in 0..instance.num_tasks() {
        if mask & (1 << j) != 0 {
            continue;
        }
        let arc = instance.arc_of(j, arcs[j]);
        let h = arc.edges(m).map(|e| mu[e]).max().unwrap_or(0);
        let d = instance.tasks()[j].demand;
        let fits = arc.edges(m).all(|e| h + d <= instance.network().capacity(e));
        if !fits {
            continue;
        }
        let mut mu2 = mu.to_vec();
        for e in arc.edges(m) {
            mu2[e] = h + d;
        }
        placed.push((j, h));
        dfs_ring(instance, arcs, m, mask | (1 << j), &mu2, placed, best, seen);
        placed.pop();
    }
}
