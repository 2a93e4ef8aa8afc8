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
//!
//! μ is kept per *elementary interval* (a run of edges between
//! consecutive distinct task endpoints), not per edge: μ is constant
//! across one, so states map one to one onto per-edge states, and a state
//! is at most `2n` words whatever the path's length (DESIGN.md §10).
//!
//! The search is *anytime*: when the memo-state cap stops it, it returns
//! the heaviest order it had found as [`Exact::Capped`], and only an
//! [`Exact::Optimal`] outcome is a proven optimum ([`Exact::optimal`]).

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

use sap_core::budget::{Budget, CheckpointClass};
use sap_core::error::{SapError, SapResult};
use sap_core::{canonical_heights, Fnv1a, Instance, SapSolution, TaskId};

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

/// Word-wise FNV-1a over the `[mask, μ…]` state keys: deterministic
/// run to run (no `RandomState` seeding), one multiply per word. `[u64]`
/// hashes as a length word plus one byte slice, folded 8 bytes a step.
#[derive(Default)]
struct StateHasher(Fnv1a);

impl Hasher for StateHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut le = [0u8; 8];
            le.copy_from_slice(w);
            self.0.write_word(u64::from_le_bytes(le));
        }
        for &b in words.remainder() {
            self.0.write_word(u64::from(b));
        }
    }

    fn write_u64(&mut self, w: u64) {
        self.0.write_word(w);
    }

    fn write_usize(&mut self, w: usize) {
        self.0.write_word(w as u64);
    }

    fn finish(&self) -> u64 {
        // FNV's multiply only carries upward; fold the high half down so
        // the table's low index bits see every input bit.
        let h = self.0.finish();
        h ^ (h >> 32)
    }
}

/// What [`solve_exact_sap`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Exact {
    /// The search finished: an optimal solution.
    Optimal(SapSolution),
    /// The memo-state cap stopped the search: the heaviest solution it
    /// had found, with no optimality guarantee (the incumbent).
    Capped(SapSolution),
}

impl Exact {
    // lint:allow(v1) — an accessor: solve_exact_sap validated the solution
    // it wrapped (debug builds), and this hands it back unchanged.
    // lint:allow(v2) — same accessor; the validator ran in solve_exact_sap.
    /// The solution when it is a proven optimum; `None` when the search
    /// was capped. Callers that need exactness go through this.
    pub fn optimal(self) -> Option<SapSolution> {
        match self {
            Exact::Optimal(sol) => Some(sol),
            Exact::Capped(_) => None,
        }
    }
}

/// Visited `[mask, μ…]` states. A key is boxed only when first inserted;
/// probes borrow a slice of the search's per-depth buffer.
type StateSet = HashSet<Box<[u64]>, BuildHasherDefault<StateHasher>>;

struct Search<'a> {
    ids: &'a [TaskId],
    /// Per-position task data, indexed like `ids`. `cols` is the task's
    /// span as a column range of a state slot (elementary interval `k`
    /// is column `k + 1`, after the mask).
    cols: Vec<Range<usize>>,
    demand: Vec<u64>,
    weight: Vec<u64>,
    bottleneck: Vec<u64>,
    /// One `[mask, μ(0), …, μ(k-1)]` state per depth over the `k`
    /// elementary intervals, `width = k + 1` words each: a node's state
    /// is the probe key itself, and a child's is written into the next
    /// slot.
    states: Vec<u64>,
    width: usize,
    /// `(position, grounded height)` candidates, stacked by depth: a
    /// node pushes its own above its ancestors' and truncates on return.
    feasible: Vec<(usize, u64)>,
    seen: StateSet,
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
/// `Err(BudgetExhausted)` is the cooperative budget tripping, and no
/// partial answer is kept; [`Exact::Capped`] is the solver's own
/// memo-state cap stopping the search, with the incumbent it had found.
pub fn solve_exact_sap(
    instance: &Instance,
    ids: &[TaskId],
    config: ExactConfig,
    budget: &Budget,
) -> SapResult<Exact> {
    assert!(ids.len() <= 64, "exact solver limited to 64 tasks");
    // Distinct task endpoints, sorted: elementary interval `k` runs from
    // `ends[k]` to `ends[k + 1]`.
    let mut ends: Vec<usize> =
        ids.iter().flat_map(|&j| [instance.span(j).lo, instance.span(j).hi]).collect();
    ends.sort_unstable();
    ends.dedup();
    let col = |e: usize| ends.partition_point(|&x| x < e) + 1;
    let width = ends.len().max(1);
    let mut s = Search {
        ids,
        cols: ids.iter().map(|&j| instance.span(j)).map(|s| col(s.lo)..col(s.hi)).collect(),
        demand: ids.iter().map(|&j| instance.demand(j)).collect(),
        weight: ids.iter().map(|&j| instance.weight(j)).collect(),
        bottleneck: ids.iter().map(|&j| instance.bottleneck(j)).collect(),
        states: vec![0u64; width * (ids.len() + 1)],
        width,
        feasible: Vec::new(),
        seen: StateSet::default(),
        best_weight: 0,
        best_order: Vec::new(),
        max_states: config.max_states,
        exhausted: false,
        budget,
        budget_tripped: false,
    };
    let mut order = Vec::new();
    s.dfs(0, 0, &mut order);
    if s.budget_tripped {
        return Err(SapError::BudgetExhausted);
    }
    let sol = canonical_heights(instance, &s.best_order)
        // lint:allow(p1) — the DFS only records orders whose canonical
        // heights it has already verified edge by edge.
        .expect("searched orders are feasible by construction");
    debug_assert_eq!(sol.weight(instance), s.best_weight);
    debug_assert!(sol.validate(instance).is_ok());
    Ok(if s.exhausted { Exact::Capped(sol) } else { Exact::Optimal(sol) })
}

impl Search<'_> {
    /// Expands the state in slot `depth` (`order.len() == depth`).
    fn dfs(&mut self, depth: usize, weight: u64, order: &mut Vec<TaskId>) {
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
            self.best_order.clone_from(order);
        }
        let width = self.width;
        let at = depth * width;
        let mask = self.states[at];
        // Prune: tasks that can still be placed (profiles only grow, so a
        // task overflowing now overflows forever).
        let base = self.feasible.len();
        let mut potential = 0u64;
        {
            let state = &self.states[at..at + width];
            for i in 0..self.ids.len() {
                if mask & (1 << i) != 0 {
                    continue;
                }
                let h = state[self.cols[i].clone()].iter().copied().max().unwrap_or(0);
                if h + self.demand[i] <= self.bottleneck[i] {
                    potential += self.weight[i];
                    self.feasible.push((i, h));
                }
            }
        }
        if weight.saturating_add(potential) > self.best_weight && self.insert_state(at) {
            for k in base..self.feasible.len() {
                let (i, h) = self.feasible[k];
                let top = h + self.demand[i];
                let (parent, child) = self.states.split_at_mut(at + width);
                let child = &mut child[..width];
                child.copy_from_slice(&parent[at..]);
                child[0] = mask | (1 << i);
                child[self.cols[i].clone()].fill(top);
                order.push(self.ids[i]);
                self.dfs(depth + 1, weight.saturating_add(self.weight[i]), order);
                order.pop();
            }
        }
        self.feasible.truncate(base);
    }

    /// Records the state in the slot at `at`; false when it was already
    /// seen or the memo-state cap is now exceeded.
    fn insert_state(&mut self, at: usize) -> bool {
        let key = &self.states[at..at + self.width];
        if self.seen.contains(key) {
            return false;
        }
        self.seen.insert(key.into());
        if self.seen.len() > self.max_states {
            self.exhausted = true;
            return false;
        }
        true
    }
}

/// True when **all** tasks in `ids` can be scheduled simultaneously
/// (the decision version used by the Fig. 1 separations). Weights are
/// ignored: the check re-weights every task to 1 so that zero-weight
/// tasks cannot be silently dropped.
pub fn is_sap_feasible(instance: &Instance, ids: &[TaskId]) -> bool {
    all_fit(instance, ids, ExactConfig::default())
}

/// [`is_sap_feasible`] under the given search budget: panics unless the
/// search finishes.
fn all_fit(instance: &Instance, ids: &[TaskId], config: ExactConfig) -> bool {
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
    let search = solve_exact_sap(&unit, &unit.all_ids(), config, &Budget::unlimited());
    match search.map(Exact::optimal) {
        Ok(Some(sol)) => sol.len() == ids.len(),
        // lint:allow(p1) — a silently wrong yes/no would corrupt every
        // downstream theorem check; a capped search's incumbent proves
        // nothing, and exhausting the probe budget is misuse.
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
            .optimal()
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
    fn a_capped_search_keeps_a_feasible_incumbent() {
        let net = PathNetwork::new(vec![10, 12, 10]).unwrap();
        let tasks = (0..8).map(|i| Task::of(i % 3, 3, 1 + i as u64 % 3, 5 + i as u64)).collect();
        let inst = Instance::new(net, tasks).unwrap();
        let opt = exact(&inst);
        let capped = solve_exact_sap(
            &inst,
            &inst.all_ids(),
            ExactConfig { max_states: 3 },
            &Budget::unlimited(),
        )
        .unwrap();
        let Exact::Capped(incumbent) = capped.clone() else { panic!("{capped:?}") };
        incumbent.validate(&inst).unwrap();
        assert!(incumbent.weight(&inst) > 0 && incumbent.weight(&inst) <= opt);
        assert_eq!(capped.optimal(), None);
    }

    #[test]
    #[should_panic(expected = "exhausted its state budget")]
    fn feasibility_panics_on_a_capped_search() {
        let net = PathNetwork::new(vec![2, 4, 2]).unwrap();
        let tasks = vec![
            Task::of(0, 2, 1, 1),
            Task::of(0, 2, 1, 1),
            Task::of(1, 3, 1, 1),
        ];
        let inst = Instance::new(net, tasks).unwrap();
        all_fit(&inst, &inst.all_ids(), ExactConfig { max_states: 1 });
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
