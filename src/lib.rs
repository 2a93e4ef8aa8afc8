//! # storage-alloc
//!
//! A production-quality Rust implementation of
//!
//! > Reuven Bar-Yehuda, Michael Beder, Dror Rawitz.
//! > *A Constant Factor Approximation Algorithm for the Storage Allocation
//! > Problem.* SPAA 2013 (journal version 2016).
//!
//! The **Storage Allocation Problem (SAP)** asks for a maximum-weight set
//! of tasks on a capacitated path, where each selected task must also be
//! assigned a *contiguous vertical slab* (a height) that fits under every
//! capacity along its sub-path and never overlaps another selected task —
//! rectangle packing where rectangles slide vertically but not
//! horizontally. It models memory allocation over time, contiguous
//! spectrum assignment, and banner-ad placement, and strictly refines the
//! Unsplittable Flow Problem on Paths (UFPP).
//!
//! This crate re-exports the whole workspace and adds a convenience
//! facade. The paper's results map to:
//!
//! * [`solve_sap`] — the `(9+ε)`-approximation for general instances
//!   (Theorem 4);
//! * [`sap_algs::try_solve_small`] — `(4+ε)` for δ-small instances (Thm 1);
//! * [`sap_algs::try_solve_medium_with_stats`] — `(2+ε)` for medium
//!   instances (Thm 2);
//! * [`sap_algs::try_solve_large`] — `2k−1` for `1/k`-large instances
//!   (Thm 3);
//! * [`solve_sap_ring`] — `(10+ε)` on ring networks (Theorem 5);
//! * [`solve_sap_practical`] — combined ∨ greedy (guarantee kept);
//! * [`try_solve_sap`] / [`try_solve_sap_practical`] — the same under a
//!   cooperative [`sap_core::Budget`], with a [`sap_core::SolveReport`]
//!   describing per-arm outcomes and any degradation;
//! * [`sap_algs::solve_exact_sap`] — exact reference solver (plus the
//!   paper's Lemma-13 DP and the Chen et al. SAP-U column DP as
//!   independent exact cross-checks).
//!
//! Every `sap_algs` solver takes a cooperative [`sap_core::Budget`];
//! pass `Budget::unlimited()` to run one without a limit.
//!
//! ## Quickstart
//!
//! ```
//! use storage_alloc::prelude::*;
//!
//! // A path with 3 edges and capacities (4, 6, 4).
//! let network = PathNetwork::new(vec![4, 6, 4])?;
//! let tasks = vec![
//!     Task::of(0, 2, 2, 10), // edges {0,1}, demand 2, weight 10
//!     Task::of(1, 3, 3, 8),  // edges {1,2}, demand 3, weight 8
//!     Task::of(0, 3, 4, 5),  // all edges, demand 4, weight 5
//! ];
//! let instance = Instance::new(network, tasks)?;
//!
//! let solution = storage_alloc::solve_sap(&instance);
//! solution.validate(&instance)?;   // exact feasibility check
//! assert!(solution.weight(&instance) >= 10);
//! # Ok::<(), storage_alloc::sap_core::SapError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod io;
pub mod net;
pub mod serve;

pub use sap_core::json;

pub use dsa;
pub use knapsack;
pub use lp_solver;
pub use rectpack;
pub use sap_algs;
pub use sap_core;
pub use sap_gen;
pub use ufpp;

use sap_core::error::SapResult;
use sap_core::ring::{RingInstance, RingSolution};
use sap_core::{Budget, Instance, SapSolution, SolveReport};

/// Solves a SAP instance with the paper's combined `(9+ε)`-approximation
/// (Theorem 4) under default parameters (`δ = 1/16`, `δ′ = ½`, `β = ¼`,
/// `ℓ = 4`, LP-rounding for small tasks).
pub fn solve_sap(instance: &Instance) -> SapSolution {
    // An unlimited budget cannot trip and the driver's terminal greedy
    // stage cannot fail, so the Err arm is dead; greedy keeps this total
    // without a panic path.
    match try_solve_sap(instance, &Budget::unlimited()) {
        Ok((sol, _)) => sol,
        Err(_) => sap_algs::baselines::greedy_sap_best(instance, &instance.all_ids()),
    }
}

/// Budgeted variant of [`solve_sap`]: runs the combined algorithm under a
/// cooperative [`Budget`] and also returns the [`SolveReport`] describing
/// per-arm outcomes and any degradation that occurred.
///
/// The solution is always feasible: when an arm with tasks runs out of
/// budget or panics, greedy first-fit over all tasks joins the
/// candidates, and the heaviest answer wins (see [`sap_algs::driver`]).
pub fn try_solve_sap(
    instance: &Instance,
    budget: &Budget,
) -> SapResult<(SapSolution, SolveReport)> {
    sap_algs::try_solve(instance, &instance.all_ids(), &sap_algs::SapParams::default(), budget)
}

/// Solves SAP on a ring with the `(10+ε)`-approximation (Theorem 5)
/// under default parameters.
pub fn solve_sap_ring(instance: &RingInstance) -> RingSolution {
    sap_algs::solve_ring(instance, &sap_algs::RingParams::default()).0
}

/// The practical front-end: runs the `(9+ε)` combined algorithm **and**
/// the greedy first-fit baselines, returning the heavier solution. The
/// worst-case guarantee of Theorem 4 is preserved (the result is never
/// lighter than the combined algorithm's), while on benign workloads the
/// greedy's unguaranteed-but-strong solutions are kept (see the `BL`
/// experiment in EXPERIMENTS.md for why both matter).
pub fn solve_sap_practical(instance: &Instance) -> SapSolution {
    match try_solve_sap_practical(instance, &Budget::unlimited()) {
        Ok((sol, _)) => sol,
        Err(_) => sap_algs::baselines::greedy_sap_best(instance, &instance.all_ids()),
    }
}

/// Budgeted variant of [`solve_sap_practical`], returning the
/// [`SolveReport`] alongside the solution (a greedy takeover is recorded
/// as a `"greedy"` winner).
pub fn try_solve_sap_practical(
    instance: &Instance,
    budget: &Budget,
) -> SapResult<(SapSolution, SolveReport)> {
    sap_algs::try_solve_practical(
        instance,
        &instance.all_ids(),
        &sap_algs::SapParams::default(),
        budget,
    )
}

/// Commonly used items.
pub mod prelude {
    pub use sap_algs::{RingParams, SapParams, SmallAlgo};
    pub use sap_core::prelude::*;
    pub use sap_core::ring::{RingInstance, RingNetwork, RingTask};
}

#[cfg(test)]
mod tests {
    use super::*;
    use sap_core::prelude::*;

    #[test]
    fn facade_solves_and_validates() {
        let net = PathNetwork::new(vec![4, 6, 4]).unwrap();
        let tasks = vec![
            Task::of(0, 2, 2, 10),
            Task::of(1, 3, 3, 8),
            Task::of(0, 3, 4, 5),
        ];
        let inst = Instance::new(net, tasks).unwrap();
        let sol = solve_sap(&inst);
        sol.validate(&inst).unwrap();
        assert!(sol.weight(&inst) >= 10);
    }

    #[test]
    fn practical_facade_dominates_combined() {
        let net = PathNetwork::uniform(6, 64).unwrap();
        let tasks: Vec<Task> = (0..12)
            .map(|i| Task::of(i % 5, (i % 5) + 1, 1 + (i as u64 % 8), 1 + (i as u64 * 3) % 17))
            .collect();
        let inst = Instance::new(net, tasks).unwrap();
        let combined = solve_sap(&inst);
        let practical = solve_sap_practical(&inst);
        practical.validate(&inst).unwrap();
        assert!(practical.weight(&inst) >= combined.weight(&inst));
    }

    #[test]
    fn ring_facade() {
        use sap_core::ring::{RingInstance, RingNetwork, RingTask};
        let net = RingNetwork::new(vec![4, 4, 4, 4]).unwrap();
        let tasks = vec![RingTask::of(0, 2, 2, 7), RingTask::of(2, 0, 2, 7)];
        let inst = RingInstance::new(net, tasks).unwrap();
        let sol = solve_sap_ring(&inst);
        sol.validate(&inst).unwrap();
        assert_eq!(sol.weight(&inst), 14);
    }
}
