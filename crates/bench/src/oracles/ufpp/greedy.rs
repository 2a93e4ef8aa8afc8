//! Greedy UFPP baselines for the comparison experiments (`BL` in
//! EXPERIMENTS.md): no approximation guarantee on paths, but fast and a
//! useful yardstick for "who wins where".

use sap_core::{Instance, TaskId, UfppSolution};

/// Greedy by decreasing weight: scan and keep whenever feasible.
pub fn greedy_by_weight(instance: &Instance, ids: &[TaskId]) -> UfppSolution {
    let mut order: Vec<TaskId> = ids.to_vec();
    order.sort_by_key(|&j| std::cmp::Reverse(instance.weight(j)));
    greedy_in_order(instance, &order)
}

/// Greedy by decreasing weight per unit of (demand × span length) — a
/// density heuristic that accounts for both dimensions of the rectangle.
pub fn greedy_by_density(instance: &Instance, ids: &[TaskId]) -> UfppSolution {
    let mut order: Vec<TaskId> = ids.to_vec();
    order.sort_by(|&a, &b| {
        let area =
            |j: TaskId| instance.demand(j) as u128 * instance.span(j).len() as u128;
        let lhs = instance.weight(a) as u128 * area(b);
        let rhs = instance.weight(b) as u128 * area(a);
        rhs.cmp(&lhs)
    });
    greedy_in_order(instance, &order)
}

fn greedy_in_order(instance: &Instance, order: &[TaskId]) -> UfppSolution {
    let net = instance.network();
    let mut loads = vec![0u64; instance.num_edges()];
    // Global high-water mark of the load profile. Together with the O(1)
    // sparse-table bottleneck it short-circuits the per-edge feasibility
    // scan in both directions: a task whose demand exceeds its span's
    // bottleneck can never fit (reject without scanning), and while
    // `max_load + demand` clears the bottleneck every edge trivially fits
    // (accept without scanning). Neither shortcut changes which tasks are
    // kept, so the output is byte-identical to the plain scan.
    let mut max_load = 0u64;
    let mut chosen = Vec::new();
    for &j in order {
        let t = instance.task(j);
        let bottleneck = net.bottleneck(t.span);
        if t.demand > bottleneck {
            continue;
        }
        let fits = max_load + t.demand <= bottleneck
            || t.span.edges().all(|e| loads[e] + t.demand <= net.capacity(e));
        if fits {
            for e in t.span.edges() {
                loads[e] += t.demand;
                max_load = max_load.max(loads[e]);
            }
            chosen.push(j);
        }
    }
    UfppSolution::new(chosen)
}
