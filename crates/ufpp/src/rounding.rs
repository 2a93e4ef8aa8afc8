//! LP scaling + rounding for small tasks in a band (§4.1, Lemma 5).
//!
//! The paper's pipeline for a δ-small instance with `b(j) ∈ [B, 2B)`:
//!
//! 1. solve the LP relaxation (1) with the true capacities;
//! 2. scale the optimum by `¼`: the scaled point satisfies every row with
//!    capacity `½B` (because loads were ≤ 2B by Observation 1);
//! 3. round to an integral `½B`-packable solution (the paper cites
//!    Chekuri–Mydlarz–Shepherd, Theorem 6, losing `(1+ε)`).
//!
//! Step 3 is substituted by a deterministic greedy rounding in decreasing
//! fractional value (randomised-rounding-with-alteration, derandomised;
//! see DESIGN.md §3): scan tasks by `x_j` (ties broken by weight density)
//! and keep a task when the `½B` load bound survives on its whole span.
//! For δ-small tasks each edge's load can always be filled to within `δB`
//! of the bound, which is what makes the measured retention high (the
//! `T6` experiment quantifies it).

use std::cell::RefCell;

use lp_solver::{LpProblem, LpSolution, LpStatus, Scratch, ScratchPool, SimplexOptions, SolveStats};
use sap_core::budget::Budget;
use sap_core::error::SapResult;
use sap_core::{Instance, TaskId, UfppSolution};

use crate::relax::build_relaxation;

/// Warm workspaces parked per worker thread (shape-keyed; see
/// [`ScratchPool`]).
const POOL_CAPACITY: usize = 8;

thread_local! {
    /// Per-thread warm-start pool: the strata a worker thread packs (and
    /// consecutive requests it serves) check [`Scratch`] workspaces in
    /// and out by LP shape, so steady-state LP solves perform zero
    /// workspace allocations even across differently-sized strata.
    /// Determinism is unaffected — a warm scratch is pivot-identical to
    /// a cold one (see [`lp_solver::Scratch`]), which is why sharing
    /// across strata cannot change any solution, trace or counter.
    static LP_POOL: RefCell<ScratchPool> = RefCell::new(ScratchPool::new(POOL_CAPACITY));
}

/// Solve through the thread's shared warm-start pool; a re-entrant
/// borrow (impossible today — the LP solver never calls back into this
/// module) degrades to a one-shot workspace instead of panicking.
/// Returns the solution together with the solve's work counters.
fn solve_pooled(
    lp: &LpProblem,
    opts: SimplexOptions,
    budget: &Budget,
) -> SapResult<(LpSolution, SolveStats)> {
    LP_POOL.with(|cell| match cell.try_borrow_mut() {
        Ok(mut pool) => {
            let mut scratch = pool.checkout(lp);
            let out = lp.solve_with(opts, budget, &mut scratch);
            let stats = scratch.stats();
            pool.checkin(lp, scratch);
            out.map(|sol| (sol, stats))
        }
        Err(_) => {
            let mut scratch = Scratch::new();
            let out = lp.solve_with(opts, budget, &mut scratch);
            let stats = scratch.stats();
            out.map(|sol| (sol, stats))
        }
    })
}

/// Result of [`round_scaled_lp`].
#[derive(Debug, Clone)]
pub struct RoundedStrip {
    /// The integral solution; `bound`-packable.
    pub solution: UfppSolution,
    /// The fractional LP optimum before scaling (an upper bound on the
    /// best integral solution under the *original* capacities — only valid
    /// when `lp_status` is [`LpStatus::Optimal`]).
    pub lp_value: f64,
    /// The load bound the solution satisfies (= `B/2` in the paper,
    /// passed in by the caller).
    pub bound: u64,
    /// Status of the underlying LP solve. Anything other than
    /// [`LpStatus::Optimal`] means the rounding order was guided by a
    /// sub-optimal fractional point: the solution is still feasible and
    /// `bound`-packable, but carries no Lemma 5 guarantee, and callers
    /// that need the approximation ratio must fall back.
    pub lp_status: LpStatus,
}

/// Runs the scale-by-¼-and-round pipeline targeting load `bound` on every
/// edge and returns a `bound`-packable UFPP solution over `ids`.
///
/// The LP solve is charged against `budget` (one `LpPivot` unit per
/// pivot, capped at `opts.max_pivots` pivots, `0` = automatic; pass
/// [`Budget::unlimited`] for no limit) and the fault-injection
/// hooks [`Budget::lp_solve_fault`] / [`Budget::refactor_fault`] can
/// force a non-optimal status.
///
/// Emits the sparse-core work counters under the `lp.solve` span:
/// `lp.etas`, `lp.refactors`, `lp.pricing.scanned`, and
/// `lp.refactor_failed` when the solve reports a singular basis. All of
/// them are per-stratum-deterministic (pure functions of the problem
/// data), so telemetry exports stay byte-identical at any worker width.
///
/// Returns `Err(BudgetExhausted)` when the budget trips mid-solve; a
/// pivot-limit stop or an injected singular basis is reported in-band
/// via [`RoundedStrip::lp_status`].
pub fn round_scaled_lp(
    instance: &Instance,
    ids: &[TaskId],
    bound: u64,
    opts: SimplexOptions,
    budget: &Budget,
) -> SapResult<RoundedStrip> {
    let phase = budget.telemetry().span("lp.solve");
    phase.count("solves", 1);
    let lp = build_relaxation(instance, ids);
    let (mut lp_sol, stats) = solve_pooled(&lp, opts, budget)?;
    phase.count("lp.etas", stats.etas);
    phase.count("lp.refactors", stats.refactors);
    phase.count("lp.pricing.scanned", stats.pricing_scanned);
    if lp_sol.status == LpStatus::SingularBasis {
        phase.count("lp.refactor_failed", 1);
    }
    if budget.lp_solve_fault() {
        phase.count("faulted", 1);
        lp_sol.status = LpStatus::IterationLimit;
    }
    Ok(round_solution(instance, ids, bound, lp_sol))
}

/// Greedy rounding of a fractional point.
fn round_solution(
    instance: &Instance,
    ids: &[TaskId],
    bound: u64,
    lp_sol: LpSolution,
) -> RoundedStrip {
    let lp_value = lp_sol.objective;
    let lp_status = lp_sol.status;

    // Scaled fractional values x'_j = x*_j / 4 guide the greedy order.
    // (The ¼ factor cancels in the ordering but matters for the analysis:
    // the scaled point already fits under `bound` in expectation.)
    let mut order: Vec<(usize, f64)> = lp_sol
        .x
        .iter()
        .enumerate()
        .filter(|&(_, &x)| x > 1e-12)
        .map(|(i, &x)| (i, x))
        .collect();
    order.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| {
                // tie-break: weight per unit of demand, descending
                let (ia, ib) = (ids[a.0], ids[b.0]);
                let da = instance.weight(ia) as u128 * instance.demand(ib) as u128;
                let db = instance.weight(ib) as u128 * instance.demand(ia) as u128;
                db.cmp(&da)
            })
    });

    let mut loads = vec![0u64; instance.num_edges()];
    // High-water mark of the load profile: while `max_load + demand` stays
    // under the uniform bound every edge trivially fits, so the per-edge
    // scan is skipped. The kept set is identical to the plain scan's.
    let mut max_load = 0u64;
    let mut chosen: Vec<TaskId> = Vec::new();
    for (i, _) in order {
        let j = ids[i];
        let t = instance.task(j);
        if t.demand > bound {
            continue;
        }
        let fits = max_load + t.demand <= bound
            || t.span.edges().all(|e| loads[e] + t.demand <= bound);
        if fits {
            for e in t.span.edges() {
                loads[e] += t.demand;
                max_load = max_load.max(loads[e]);
            }
            chosen.push(j);
        }
    }
    RoundedStrip { solution: UfppSolution::new(chosen), lp_value, bound, lp_status }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sap_core::{PathNetwork, Task};

    fn round_unlimited(inst: &Instance, ids: &[TaskId], bound: u64) -> RoundedStrip {
        round_scaled_lp(inst, ids, bound, SimplexOptions::default(), &Budget::unlimited()).unwrap()
    }

    fn band_instance(seed: u64, m: usize, b: u64, n: usize, delta_inv: u64) -> Instance {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        // Capacities within [B, 2B).
        let caps: Vec<u64> = (0..m).map(|_| b + next() % b).collect();
        let net = PathNetwork::new(caps).unwrap();
        let mut tasks = Vec::new();
        for _ in 0..n {
            let lo = (next() % m as u64) as usize;
            let hi = (lo + 1 + (next() % (m as u64 - lo as u64)) as usize).min(m);
            let d = 1 + next() % (b / delta_inv).max(1);
            tasks.push(Task::of(lo, hi, d, 1 + next() % 30));
        }
        Instance::new(net, tasks).unwrap()
    }

    #[test]
    fn output_respects_bound_exactly() {
        for seed in 0..10 {
            let inst = band_instance(seed, 8, 64, 60, 16);
            let ids = inst.all_ids();
            let r = round_unlimited(&inst, &ids, 32);
            r.solution.validate_packable(&inst, 32).unwrap();
            r.solution.validate(&inst).unwrap();
        }
    }

    #[test]
    fn retention_on_small_tasks_beats_one_quarter_of_lp() {
        // The paper's pipeline guarantees ≈ LP/4(1+ε) for δ-small tasks.
        for seed in 0..10 {
            let inst = band_instance(seed + 50, 10, 128, 120, 32);
            let ids = inst.all_ids();
            let r = round_unlimited(&inst, &ids, 64);
            let w = r.solution.weight(&inst) as f64;
            assert!(
                4.5 * w >= r.lp_value,
                "seed {seed}: rounded {w} too far below LP {}",
                r.lp_value
            );
        }
    }

    #[test]
    fn oversized_tasks_are_skipped() {
        let net = PathNetwork::uniform(2, 100).unwrap();
        let tasks = vec![Task::of(0, 2, 80, 100), Task::of(0, 2, 10, 1)];
        let inst = Instance::new(net, tasks).unwrap();
        let r = round_unlimited(&inst, &inst.all_ids(), 50);
        assert_eq!(r.solution.tasks, vec![1]);
    }

    #[test]
    fn empty_input() {
        let net = PathNetwork::uniform(2, 10).unwrap();
        let inst = Instance::new(net, vec![]).unwrap();
        let r = round_unlimited(&inst, &[], 5);
        assert!(r.solution.is_empty());
        assert_eq!(r.lp_value, 0.0);
    }
}
