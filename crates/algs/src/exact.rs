//! Exact SAP by state-space search — the reference optimum for the ratio
//! experiments and the oracle behind the Fig. 1 separations.
//!
//! The search exploits Observation 11: some optimal solution is *grounded*
//! (every task at height 0 or resting on another). Enumerating selected
//! tasks bottom-up, the grounded height of the next task is determined by
//! the **makespan profile** `μ(e)` of the tasks placed so far — so a state
//! is exactly `(placed set, μ profile)`. Distinct insertion orders
//! reaching the same state are merged, and a task whose grounded height
//! already overflows its bottleneck can never be placed later (profiles
//! only grow), which yields a sound remaining-weight prune.

use std::collections::HashSet;

use sap_core::budget::{Budget, CheckpointClass};
use sap_core::error::{SapError, SapResult};
use sap_core::{canonical_heights, Instance, SapSolution, TaskId};

/// Budget knobs for the exact search.
#[derive(Debug, Clone, Copy)]
pub struct ExactConfig {
    /// Maximum number of distinct `(set, profile)` states to expand.
    pub max_states: usize,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig { max_states: 5_000_000 }
    }
}

struct Search<'a> {
    inst: &'a Instance,
    ids: &'a [TaskId],
    seen: HashSet<(u64, Vec<u64>)>,
    best_weight: u64,
    best_order: Vec<TaskId>,
    max_states: usize,
    exhausted: bool,
    budget: &'a Budget,
    budget_tripped: bool,
}

/// Solves SAP exactly over `ids` (at most 64 tasks), charging one
/// `DpRow` work unit per expanded search state against `budget` (pass
/// [`Budget::unlimited`] for no limit).
///
/// `Err(BudgetExhausted)` is the cooperative budget tripping; `Ok(None)`
/// is the solver's own memo-state budget giving up.
pub fn solve_exact_sap(
    instance: &Instance,
    ids: &[TaskId],
    config: ExactConfig,
    budget: &Budget,
) -> SapResult<Option<SapSolution>> {
    assert!(ids.len() <= 64, "exact solver limited to 64 tasks");
    let mut s = Search {
        inst: instance,
        ids,
        seen: HashSet::new(),
        best_weight: 0,
        best_order: Vec::new(),
        max_states: config.max_states,
        exhausted: false,
        budget,
        budget_tripped: false,
    };
    let mu = vec![0u64; instance.num_edges()];
    let mut order = Vec::new();
    s.dfs(0, &mu, 0, &mut order);
    if s.budget_tripped {
        return Err(SapError::BudgetExhausted);
    }
    if s.exhausted {
        return Ok(None);
    }
    let sol = canonical_heights(instance, &s.best_order)
        // lint:allow(p1) — the DFS only records orders whose canonical
        // heights it has already verified edge by edge.
        .expect("searched orders are feasible by construction");
    debug_assert_eq!(sol.weight(instance), s.best_weight);
    debug_assert!(sol.validate(instance).is_ok());
    Ok(Some(sol))
}

impl Search<'_> {
    fn dfs(&mut self, mask: u64, mu: &[u64], weight: u64, order: &mut Vec<TaskId>) {
        if self.exhausted {
            return;
        }
        if self.budget.checkpoint(CheckpointClass::DpRow, 1).is_err() {
            // Unwind the whole search; the caller maps this to
            // Err(BudgetExhausted), so the partial best is never used.
            self.exhausted = true;
            self.budget_tripped = true;
            return;
        }
        if weight > self.best_weight {
            self.best_weight = weight;
            self.best_order = order.clone();
        }
        // Prune: tasks that can still be placed (profiles only grow, so a
        // task overflowing now overflows forever).
        let mut potential = 0u64;
        let mut feasible: Vec<(usize, u64)> = Vec::new(); // (position, grounded height)
        for (i, &j) in self.ids.iter().enumerate() {
            if mask & (1 << i) != 0 {
                continue;
            }
            let span = self.inst.span(j);
            let h = span.edges().map(|e| mu[e]).max().unwrap_or(0);
            if h + self.inst.demand(j) <= self.inst.bottleneck(j) {
                potential += self.inst.weight(j);
                feasible.push((i, h));
            }
        }
        if weight.saturating_add(potential) <= self.best_weight {
            return;
        }
        if !self.seen.insert((mask, mu.to_vec())) {
            return;
        }
        if self.seen.len() > self.max_states {
            self.exhausted = true;
            return;
        }
        for (i, h) in feasible {
            let j = self.ids[i];
            let mut mu2 = mu.to_vec();
            let top = h + self.inst.demand(j);
            for e in self.inst.span(j).edges() {
                mu2[e] = top;
            }
            order.push(j);
            self.dfs(mask | (1 << i), &mu2, weight.saturating_add(self.inst.weight(j)), order);
            order.pop();
        }
    }
}

/// True when **all** tasks in `ids` can be scheduled simultaneously
/// (the decision version used by the Fig. 1 separations). Weights are
/// ignored: the check re-weights every task to 1 so that zero-weight
/// tasks cannot be silently dropped.
pub fn is_sap_feasible(instance: &Instance, ids: &[TaskId]) -> bool {
    let unit_tasks: Vec<sap_core::Task> = ids
        .iter()
        .map(|&j| {
            let t = *instance.task(j);
            sap_core::Task { weight: 1, ..t }
        })
        .collect();
    let unit = Instance::new(instance.network().clone(), unit_tasks)
        // lint:allow(p1) — same spans and demands over the same network as the
        // validated input instance, so revalidation cannot fail.
        .expect("restriction of a valid instance");
    match solve_exact_sap(&unit, &unit.all_ids(), ExactConfig::default(), &Budget::unlimited()) {
        Ok(Some(sol)) => sol.len() == ids.len(),
        // lint:allow(p1) — a silently wrong yes/no would corrupt every
        // downstream theorem check; exhausting the probe budget is misuse.
        Ok(None) | Err(_) => panic!("exact feasibility check exhausted its state budget"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sap_core::{PathNetwork, Task};

    fn exact(inst: &Instance) -> u64 {
        solve_exact_sap(inst, &inst.all_ids(), ExactConfig::default(), &Budget::unlimited())
            .unwrap()
            .expect("budget")
            .weight(inst)
    }

    /// Brute force over subsets × insertion orders (tiny n only).
    fn brute(inst: &Instance) -> u64 {
        let n = inst.num_tasks();
        assert!(n <= 8);
        let ids: Vec<TaskId> = inst.all_ids();
        let mut best = 0;
        for mask in 0u32..(1 << n) {
            let subset: Vec<TaskId> =
                ids.iter().copied().filter(|&j| mask & (1 << j) != 0).collect();
            if subset.is_empty() {
                continue;
            }
            // All permutations via Heap's algorithm.
            let mut perm = subset.clone();
            let k = perm.len();
            let mut c = vec![0usize; k];
            let check = |p: &[TaskId], best: &mut u64| {
                if canonical_heights(inst, p).is_some() {
                    *best = (*best).max(inst.total_weight(&p.to_vec()));
                }
            };
            check(&perm, &mut best);
            let mut i = 0;
            while i < k {
                if c[i] < i {
                    if i % 2 == 0 {
                        perm.swap(0, i);
                    } else {
                        perm.swap(c[i], i);
                    }
                    check(&perm, &mut best);
                    c[i] += 1;
                    i = 0;
                } else {
                    c[i] = 0;
                    i += 1;
                }
            }
        }
        best
    }

    #[test]
    fn matches_bruteforce_on_random_instances() {
        let mut s = 0x5EEDu64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for case in 0..40 {
            let m = 2 + (next() % 5) as usize;
            let caps: Vec<u64> = (0..m).map(|_| 2 + next() % 10).collect();
            let net = PathNetwork::new(caps).unwrap();
            let mut tasks = Vec::new();
            for _ in 0..(2 + next() % 6) {
                let lo = (next() % m as u64) as usize;
                let hi = (lo + 1 + (next() % (m as u64 - lo as u64)) as usize).min(m);
                let b = net.bottleneck(sap_core::Span { lo, hi });
                tasks.push(Task::of(lo, hi, 1 + next() % b, 1 + next() % 20));
            }
            let inst = Instance::new(net, tasks).unwrap();
            assert_eq!(exact(&inst), brute(&inst), "case {case}");
        }
    }

    #[test]
    fn knapsack_degenerate_case() {
        let net = PathNetwork::new(vec![10]).unwrap();
        let tasks = vec![
            Task::of(0, 1, 6, 60),
            Task::of(0, 1, 5, 50),
            Task::of(0, 1, 5, 50),
            Task::of(0, 1, 10, 70),
        ];
        let inst = Instance::new(net, tasks).unwrap();
        assert_eq!(exact(&inst), 100);
    }

    #[test]
    fn feasibility_decision() {
        // Three unit tasks forced into a band of height 2 — infeasible
        // together, feasible pairwise (the Fig. 1a core).
        let net = PathNetwork::new(vec![2, 4, 2]).unwrap();
        let tasks = vec![
            Task::of(0, 2, 1, 1),
            Task::of(0, 2, 1, 1),
            Task::of(1, 3, 1, 1),
        ];
        let inst = Instance::new(net, tasks).unwrap();
        assert!(!is_sap_feasible(&inst, &inst.all_ids()));
        assert!(is_sap_feasible(&inst, &[0, 1]));
        assert!(is_sap_feasible(&inst, &[0, 2]));
        assert!(is_sap_feasible(&inst, &[1, 2]));
        assert_eq!(exact(&inst), 2);
    }

    #[test]
    fn exact_beats_or_equals_any_greedy_order() {
        let net = PathNetwork::new(vec![6, 3, 6, 3]).unwrap();
        let tasks = vec![
            Task::of(0, 4, 3, 9),
            Task::of(0, 2, 3, 5),
            Task::of(2, 4, 3, 5),
            Task::of(1, 3, 1, 2),
        ];
        let inst = Instance::new(net, tasks).unwrap();
        let opt = exact(&inst);
        // Greedy insertion in id order.
        let mut chosen = Vec::new();
        for j in inst.all_ids() {
            chosen.push(j);
            if canonical_heights(&inst, &chosen).is_none() {
                chosen.pop();
            }
        }
        assert!(opt >= inst.total_weight(&chosen));
        assert_eq!(opt, 10, "tasks 1+2 (w=10) beat task 0 (w=9)");
    }

    #[test]
    fn empty_and_single() {
        let net = PathNetwork::uniform(2, 4).unwrap();
        let inst = Instance::new(net, vec![Task::of(0, 1, 2, 5)]).unwrap();
        assert_eq!(exact(&inst), 5);
        let empty = Instance::new(PathNetwork::uniform(2, 4).unwrap(), vec![]).unwrap();
        assert_eq!(exact(&empty), 0);
    }
}
