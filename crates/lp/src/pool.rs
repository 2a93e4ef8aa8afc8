//! A warm-start pool sharing [`Scratch`] workspaces across LP solves.
//!
//! Strata of one storage-allocation instance (and consecutive requests
//! of one serve worker) solve many similarly-shaped packing LPs. A
//! [`ScratchPool`] keys warm workspaces by `(rows, shape fingerprint)`
//! so a solve checks out a scratch whose buffers already cover a
//! problem of its shape, and checks it back in afterwards.
//!
//! Sharing a scratch **never** changes pivots: every solve rewrites the
//! whole workspace from the problem data before its first iteration
//! (see [`Scratch`]), so the pool only affects allocation counts. That
//! is what makes it safe to share across strata regardless of the order
//! or worker width in which they run — and why hit/miss counts are
//! exposed as methods for tests rather than emitted as telemetry
//! (per-thread pools would make such counters width-dependent).

use std::collections::BTreeMap;

use crate::simplex::{LpProblem, Scratch};

/// A bounded pool of warm [`Scratch`] workspaces keyed by problem
/// shape. Eviction removes the smallest key (deterministic: the map is
/// ordered), which drops the workspaces of the smallest problems first.
#[derive(Debug, Default)]
pub struct ScratchPool {
    slots: BTreeMap<(usize, u64), Scratch>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl ScratchPool {
    /// An empty pool holding at most `capacity` warm workspaces
    /// (`capacity = 0` disables pooling: every checkout is a miss and
    /// every checkin is dropped).
    pub fn new(capacity: usize) -> Self {
        ScratchPool { slots: BTreeMap::new(), capacity, hits: 0, misses: 0 }
    }

    /// The pool key of a problem: row count plus the power-of-two shape
    /// fingerprint, so problems needing similarly-sized buffers share
    /// warm workspaces.
    fn key(problem: &LpProblem) -> (usize, u64) {
        (problem.num_rows(), problem.shape_fingerprint())
    }

    /// Takes a warm workspace for `problem`'s shape, or a cold one when
    /// the pool holds none.
    pub fn checkout(&mut self, problem: &LpProblem) -> Scratch {
        match self.slots.remove(&Self::key(problem)) {
            Some(s) => {
                self.hits += 1;
                s
            }
            None => {
                self.misses += 1;
                Scratch::new()
            }
        }
    }

    /// Returns a workspace to the pool under `problem`'s shape key,
    /// evicting the smallest-keyed slot when the pool is full. A
    /// workspace checked in under an occupied key replaces the incumbent
    /// (the fresher basis is the better warm start for the next solve).
    pub fn checkin(&mut self, problem: &LpProblem, scratch: Scratch) {
        if self.capacity == 0 {
            return;
        }
        self.slots.insert(Self::key(problem), scratch);
        while self.slots.len() > self.capacity {
            let oldest = self.slots.keys().next().copied();
            match oldest {
                Some(k) => {
                    self.slots.remove(&k);
                }
                None => break,
            }
        }
    }

    /// Checkouts that found a warm workspace.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Checkouts that had to build a cold workspace.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Warm workspaces currently parked in the pool.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no workspace is parked.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LpSolution, SimplexOptions};
    use sap_core::budget::Budget;

    fn solve_in(p: &LpProblem, scratch: &mut Scratch) -> LpSolution {
        p.solve_with(SimplexOptions::default(), &Budget::unlimited(), scratch).unwrap()
    }

    fn lp(rows: usize, vars: usize) -> LpProblem {
        let mut p = LpProblem::new(vec![4.0; rows]);
        for j in 0..vars {
            p.add_var(1.0 + j as f64, 1.0, &[(j % rows, 1.0)]);
        }
        p
    }

    #[test]
    fn checkout_checkin_reuses_buffers() {
        let mut pool = ScratchPool::new(4);
        let p = lp(3, 6);
        let mut s = pool.checkout(&p);
        solve_in(&p, &mut s);
        let allocs = s.buffer_allocs();
        assert!(allocs > 0);
        pool.checkin(&p, s);
        let mut warm = pool.checkout(&p);
        solve_in(&p, &mut warm);
        assert_eq!(warm.buffer_allocs(), allocs, "warm checkout must not reallocate");
        assert_eq!(pool.hits(), 1);
        assert_eq!(pool.misses(), 1);
    }

    #[test]
    fn pooling_is_pivot_invariant() {
        // A scratch warmed on one shape must replay another problem's
        // cold pivot trace exactly.
        let a = lp(3, 6);
        let b = lp(4, 9);
        let mut cold = Scratch::new();
        cold.enable_trace();
        let cold_sol = solve_in(&b, &mut cold);
        let mut pool = ScratchPool::new(4);
        let mut s = pool.checkout(&a);
        s.enable_trace();
        solve_in(&a, &mut s);
        pool.checkin(&a, s);
        // Different shape ⇒ miss, but force reuse through the same pool
        // anyway by checking the warm scratch out under `a`'s key.
        let mut warm = pool.checkout(&a);
        let warm_sol = solve_in(&b, &mut warm);
        assert_eq!(warm.trace(), cold.trace());
        assert_eq!(warm_sol.x, cold_sol.x);
        assert_eq!(warm_sol.objective.to_bits(), cold_sol.objective.to_bits());
    }

    #[test]
    fn capacity_bounds_the_pool() {
        let mut pool = ScratchPool::new(2);
        let problems: Vec<LpProblem> = (1..=4).map(|r| lp(r, 2 * r)).collect();
        for p in &problems {
            let s = pool.checkout(p);
            pool.checkin(p, s);
        }
        assert_eq!(pool.len(), 2);
        let mut zero = ScratchPool::new(0);
        let s = zero.checkout(&problems[0]);
        zero.checkin(&problems[0], s);
        assert!(zero.is_empty());
    }
}
