//! SAP on ring networks (Theorem 5, §7 / Lemma 18).
//!
//! Cut the ring at a minimum-capacity edge `e`:
//!
//! 1. solve path-SAP on the cut-open instance (no task crosses `e`) with
//!    the `(9+ε)` combined algorithm — or any solver the caller supplies;
//! 2. independently, allow **every** task to cross `e`: since one of each
//!    task's two arcs contains `e` and `c_e` is the global minimum,
//!    any knapsack-feasible subset (total demand ≤ `c_e`) can be stacked
//!    cumulatively and routed through `e` — solved with the Knapsack
//!    FPTAS;
//! 3. return the heavier of the two. Ratio: `α + 1 + ε` (Lemma 18).

use knapsack::{fptas, Item};
use sap_core::ring::{RingInstance, RingPlacement, RingSolution};
use sap_core::{SapSolution, TaskId};

use crate::combined::{solve, SapParams};

/// Parameters for the ring algorithm.
#[derive(Debug, Clone)]
pub struct RingParams {
    /// Parameters of the path solver used on the cut-open instance.
    pub path: SapParams,
    /// FPTAS precision `ε = eps_num / eps_den` for the through-tasks
    /// knapsack.
    pub eps_num: u64,
    /// See `eps_num`.
    pub eps_den: u64,
}

impl Default for RingParams {
    fn default() -> Self {
        RingParams { path: SapParams::default(), eps_num: 1, eps_den: 10 }
    }
}

/// Which branch of the best-of-two won.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingWinner {
    /// The path solution on the cut-open ring.
    CutPath,
    /// The knapsack of tasks routed through the cut edge.
    ThroughKnapsack,
}

/// Run statistics of [`solve_ring`], consumed by the `T5` experiment.
#[derive(Debug, Clone, Copy)]
pub struct RingStats {
    /// The branch that produced the returned solution.
    pub winner: RingWinner,
    /// The cut (minimum-capacity) edge.
    pub cut_edge: usize,
    /// Weight achieved by the cut-path branch.
    pub path_weight: u64,
    /// Weight achieved by the through-knapsack branch.
    pub knapsack_weight: u64,
}

/// Runs the `(10+ε)` ring algorithm. Returns the solution and which
/// branch produced it.
pub fn solve_ring(instance: &RingInstance, params: &RingParams) -> (RingSolution, RingStats) {
    let cut = instance.network().min_capacity_edge();

    // Branch 1: path SAP avoiding the cut edge.
    // lint:allow(p1) — `cut` comes from `min_capacity_edge`, a valid edge id,
    // and cut-opening a validated ring at a valid edge cannot fail.
    let (path_inst, id_map) = instance.cut_open(cut).expect("cut-open of a valid ring");
    let path_sol = solve(&path_inst, &path_inst.all_ids(), &params.path);
    let branch1 = ring_solution_from_path(instance, cut, &path_sol, &id_map);

    // Branch 2: all tasks considered through the cut edge (each task has
    // an arc containing `cut`; stack them cumulatively under c_cut).
    let items: Vec<Item> = instance
        .tasks()
        .iter()
        .map(|t| Item { size: t.demand, weight: t.weight })
        .collect();
    let cap = instance.network().capacity(cut);
    let ks = fptas(&items, cap, params.eps_num, params.eps_den);
    let mut height = 0u64;
    let mut placements = Vec::with_capacity(ks.chosen.len());
    for &j in &ks.chosen {
        let through = through_choice(instance, j, cut);
        placements.push(RingPlacement { task: j, arc: through, height });
        height += instance.tasks()[j].demand;
    }
    let branch2 = RingSolution::new(placements);

    let (w1, w2) = (branch1.weight(instance), branch2.weight(instance));
    let (sol, winner) = if w1 >= w2 {
        (branch1, RingWinner::CutPath)
    } else {
        (branch2, RingWinner::ThroughKnapsack)
    };
    debug_assert!(sol.validate(instance).is_ok());
    let stats =
        RingStats { winner, cut_edge: cut, path_weight: w1, knapsack_weight: w2 };
    (sol, stats)
}

/// The arc of task `j` that **contains** the cut edge.
fn through_choice(
    instance: &RingInstance,
    j: TaskId,
    cut: usize,
) -> sap_core::ring::ArcChoice {
    use sap_core::ring::ArcChoice;
    match instance.avoiding_choice(j, cut) {
        ArcChoice::Clockwise => ArcChoice::CounterClockwise,
        ArcChoice::CounterClockwise => ArcChoice::Clockwise,
    }
}

/// Translates a path solution on the cut-open instance back to the ring.
fn ring_solution_from_path(
    instance: &RingInstance,
    cut: usize,
    path_sol: &SapSolution,
    id_map: &[TaskId],
) -> RingSolution {
    RingSolution::new(
        path_sol
            .placements
            .iter()
            .map(|p| RingPlacement {
                task: id_map[p.task],
                arc: instance.avoiding_choice(id_map[p.task], cut),
                height: p.height,
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sap_core::ring::{RingNetwork, RingTask};

    fn ring_instance(seed: u64, m: usize, n: usize) -> RingInstance {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let caps: Vec<u64> = (0..m).map(|_| 4 + next() % 28).collect();
        let net = RingNetwork::new(caps.clone()).unwrap();
        let mut tasks = Vec::new();
        for _ in 0..n {
            let from = (next() % m as u64) as usize;
            let mut to = (next() % m as u64) as usize;
            if to == from {
                to = (to + 1) % m;
            }
            let best_arc = {
                let len = (to + m - from) % m;
                let cw: u64 = (0..len).map(|i| caps[(from + i) % m]).min().unwrap();
                let len2 = (from + m - to) % m;
                let ccw: u64 = (0..len2).map(|i| caps[(to + i) % m]).min().unwrap();
                cw.max(ccw)
            };
            let d = 1 + next() % best_arc;
            tasks.push(RingTask { from, to, demand: d, weight: 1 + next() % 20 });
        }
        RingInstance::new(net, tasks).unwrap()
    }

    #[test]
    fn ring_solutions_are_feasible() {
        for seed in 0..8 {
            let inst = ring_instance(seed, 8, 20);
            let (sol, _) = solve_ring(&inst, &RingParams::default());
            sol.validate(&inst).unwrap();
            assert!(!sol.is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn winner_is_the_heavier_branch() {
        for seed in 0..6 {
            let inst = ring_instance(seed + 50, 7, 14);
            let (sol, stats) = solve_ring(&inst, &RingParams::default());
            sol.validate(&inst).unwrap();
            let w = sol.weight(&inst);
            assert_eq!(w, stats.path_weight.max(stats.knapsack_weight));
            match stats.winner {
                RingWinner::CutPath => assert_eq!(w, stats.path_weight),
                RingWinner::ThroughKnapsack => assert_eq!(w, stats.knapsack_weight),
            }
            // The cut edge really is a minimum-capacity edge.
            let c = inst.network().capacity(stats.cut_edge);
            assert_eq!(c, inst.network().min_capacity());
        }
    }

    #[test]
    fn both_tasks_stack_through_the_cut_region() {
        // All capacity equal: everything fits both ways; the solution must
        // take both tasks regardless of the winning branch.
        let net = RingNetwork::new(vec![100, 100, 100, 100]).unwrap();
        let tasks = vec![RingTask::of(0, 1, 50, 5), RingTask::of(0, 1, 50, 5)];
        let inst = RingInstance::new(net, tasks).unwrap();
        let (sol, _) = solve_ring(&inst, &RingParams::default());
        sol.validate(&inst).unwrap();
        assert_eq!(sol.weight(&inst), 10);
    }

    #[test]
    fn empty_ring() {
        let net = RingNetwork::new(vec![4, 4, 4]).unwrap();
        let inst = RingInstance::new(net, vec![]).unwrap();
        let (sol, _) = solve_ring(&inst, &RingParams::default());
        assert!(sol.is_empty());
    }
}
