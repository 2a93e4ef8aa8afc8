//! A practical UFPP solver (no SAP contiguity): best of LP-guided
//! rounding against the true capacities, the greedy baselines, and
//! exact weighted interval scheduling (also the `BL` table's interval
//! MWIS column). Used by the *price of contiguity* experiment —
//! how much weight the SAP contiguity constraint costs relative to plain
//! UFPP on the same instance (the quantitative side of Fig. 1).

use sap_core::{Instance, TaskId, UfppSolution};
use ufpp::build_relaxation;

use super::greedy::{greedy_by_density, greedy_by_weight};

/// Greedy rounding of the LP optimum against the **true per-edge
/// capacities** (not a uniform bound): scan tasks by decreasing
/// fractional value, keep whenever the loads stay within `c_e`.
pub fn round_lp_against_capacities(instance: &Instance, ids: &[TaskId]) -> UfppSolution {
    let lp = build_relaxation(instance, ids);
    let sol = lp.solve(0);
    let mut order: Vec<(usize, f64)> = sol
        .x
        .iter()
        .enumerate()
        .filter(|&(_, &x)| x > 1e-12)
        .map(|(i, &x)| (i, x))
        .collect();
    order.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut loads = vec![0u64; instance.num_edges()];
    let mut chosen = Vec::new();
    for (i, _) in order {
        let j = ids[i];
        let t = instance.task(j);
        if t
            .span
            .edges()
            .all(|e| loads[e] + t.demand <= instance.network().capacity(e))
        {
            for e in t.span.edges() {
                loads[e] += t.demand;
            }
            chosen.push(j);
        }
    }
    UfppSolution::new(chosen)
}

/// Best-of portfolio UFPP heuristic.
pub fn solve_ufpp_heuristic(instance: &Instance, ids: &[TaskId]) -> UfppSolution {
    let mut best = round_lp_against_capacities(instance, ids);
    for cand in [
        greedy_by_weight(instance, ids),
        greedy_by_density(instance, ids),
        UfppSolution::new(weighted_interval_scheduling(instance, ids)),
    ] {
        if cand.weight(instance) > best.weight(instance) {
            best = cand;
        }
    }
    best
}

/// Exact weighted interval scheduling: maximum-weight set of pairwise
/// non-overlapping spans among `ids`. O(n log n).
pub fn weighted_interval_scheduling(instance: &Instance, ids: &[TaskId]) -> Vec<TaskId> {
    let mut order: Vec<TaskId> = ids.to_vec();
    order.sort_by_key(|&j| (instance.span(j).hi, instance.span(j).lo, j));
    let n = order.len();
    if n == 0 {
        return Vec::new();
    }
    // p[i] = number of tasks (prefix length) with hi ≤ lo_i.
    let his: Vec<usize> = order.iter().map(|&j| instance.span(j).hi).collect();
    let mut p = vec![0usize; n];
    for i in 0..n {
        let lo = instance.span(order[i]).lo;
        p[i] = his.partition_point(|&h| h <= lo);
    }
    let mut best = vec![0u64; n + 1];
    let mut take = vec![false; n];
    for i in 0..n {
        // p[i] = partition_point(..) ≤ n and best has n+1
        // slots, so every index is in bounds.
        let with = instance.weight(order[i]) + best[p[i]];
        if with > best[i] {
            best[i + 1] = with;
            take[i] = true;
        } else {
            best[i + 1] = best[i];
        }
    }
    let mut chosen = Vec::new();
    let mut i = n;
    while i > 0 {
        if take[i - 1] {
            chosen.push(order[i - 1]);
            i = p[i - 1];
        } else {
            i -= 1;
        }
    }
    chosen.reverse();
    chosen
}
