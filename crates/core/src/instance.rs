//! SAP / UFPP instances.

use crate::error::{SapError, SapResult};
use crate::network::PathNetwork;
use crate::task::{Span, Task};
use crate::units::{Capacity, Demand, TaskId, Weight};

/// A SAP (equivalently UFPP) instance: a path network plus a task set.
///
/// Construction validates every task span against the network and
/// pre-computes each task's bottleneck capacity
/// `b(j) = min_{e ∈ I_j} c_e`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    network: PathNetwork,
    tasks: Vec<Task>,
    bottlenecks: Vec<Capacity>,
}

impl Instance {
    /// Creates an instance.
    ///
    /// # Errors
    ///
    /// * [`SapError::InvalidSpan`] when a task's span exceeds the network;
    /// * [`SapError::DemandExceedsBottleneck`] when a task could never be
    ///   scheduled (`d_j > b(j)`). Use [`Instance::new_pruning`] to drop such
    ///   tasks silently instead.
    pub fn new(network: PathNetwork, tasks: Vec<Task>) -> SapResult<Self> {
        let m = network.num_edges();
        let mut bottlenecks = Vec::with_capacity(tasks.len());
        for (id, t) in tasks.iter().enumerate() {
            if t.span.hi > m {
                return Err(SapError::InvalidSpan { task: id });
            }
            let b = network.bottleneck(t.span);
            if t.demand > b {
                return Err(SapError::DemandExceedsBottleneck { task: id });
            }
            bottlenecks.push(b);
        }
        Ok(Instance { network, tasks, bottlenecks })
    }

    /// Creates an instance, silently discarding tasks whose demand exceeds
    /// their bottleneck (they can never appear in any feasible solution).
    /// Returns the instance together with the ids (indices into `tasks`)
    /// that survived.
    pub fn new_pruning(network: PathNetwork, tasks: Vec<Task>) -> SapResult<(Self, Vec<TaskId>)> {
        let m = network.num_edges();
        let mut kept = Vec::new();
        let mut kept_ids = Vec::new();
        for (id, t) in tasks.into_iter().enumerate() {
            if t.span.hi > m {
                return Err(SapError::InvalidSpan { task: id });
            }
            if t.demand <= network.bottleneck(t.span) {
                kept.push(t);
                kept_ids.push(id);
            }
        }
        let inst = Instance::new(network, kept)?;
        Ok((inst, kept_ids))
    }

    /// The underlying path network.
    #[inline]
    pub fn network(&self) -> &PathNetwork {
        &self.network
    }

    /// All tasks.
    #[inline]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Number of tasks `n`.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.network.num_edges()
    }

    /// The task with id `j`.
    #[inline]
    pub fn task(&self, j: TaskId) -> &Task {
        &self.tasks[j]
    }

    /// Bottleneck capacity `b(j)` (pre-computed).
    #[inline]
    pub fn bottleneck(&self, j: TaskId) -> Capacity {
        self.bottlenecks[j]
    }

    /// Demand of task `j`.
    #[inline]
    pub fn demand(&self, j: TaskId) -> Demand {
        self.tasks[j].demand
    }

    /// Weight of task `j`.
    #[inline]
    pub fn weight(&self, j: TaskId) -> Weight {
        self.tasks[j].weight
    }

    /// Span of task `j`.
    #[inline]
    pub fn span(&self, j: TaskId) -> Span {
        self.tasks[j].span
    }

    /// Total weight of a set of task ids.
    pub fn total_weight(&self, ids: &[TaskId]) -> Weight {
        ids.iter().map(|&j| self.tasks[j].weight).sum()
    }

    /// Per-edge load `d(S(e))` of a set of task ids, computed with a
    /// difference array in O(|S| + m).
    pub fn loads(&self, ids: &[TaskId]) -> Vec<u64> {
        let m = self.num_edges();
        let mut diff = vec![0i128; m + 1];
        for &j in ids {
            let t = &self.tasks[j];
            diff[t.span.lo] += t.demand as i128;
            diff[t.span.hi] -= t.demand as i128;
        }
        let mut loads = Vec::with_capacity(m);
        let mut acc = 0i128;
        for d in diff.iter().take(m) {
            acc += d;
            loads.push(acc as u64);
        }
        loads
    }

    /// `LOAD(S)` — the maximum per-edge load of a set of task ids.
    pub fn max_load(&self, ids: &[TaskId]) -> u64 {
        self.loads(ids).into_iter().max().unwrap_or(0)
    }

    /// All task ids `0 .. n`.
    pub fn all_ids(&self) -> Vec<TaskId> {
        (0..self.tasks.len()).collect()
    }

    /// Maximum demand over all tasks (0 when there are none).
    pub fn max_demand(&self) -> Demand {
        self.tasks.iter().map(|t| t.demand).max().unwrap_or(0)
    }

    /// Total weight of all tasks.
    pub fn weight_sum(&self) -> Weight {
        self.tasks.iter().map(|t| t.weight).sum()
    }

    /// True when the instance satisfies the *no-bottleneck assumption*
    /// (NBA, §1 of the paper): `max_j d_j ≤ min_e c_e`. Several UFPP
    /// results in the literature (e.g. Chakrabarti et al., Chekuri et
    /// al.) hold only under NBA; the paper's algorithms do **not** need
    /// it, which the NBA-free test workloads exercise.
    pub fn satisfies_nba(&self) -> bool {
        self.max_demand() <= self.network.min_capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst() -> Instance {
        let net = PathNetwork::new(vec![4, 7, 2, 9]).unwrap();
        let tasks = vec![
            Task::of(0, 2, 3, 5),  // b = 4
            Task::of(1, 4, 2, 6),  // b = 2
            Task::of(3, 4, 9, 1),  // b = 9
        ];
        Instance::new(net, tasks).unwrap()
    }

    #[test]
    fn bottlenecks_precomputed() {
        let i = inst();
        assert_eq!(i.bottleneck(0), 4);
        assert_eq!(i.bottleneck(1), 2);
        assert_eq!(i.bottleneck(2), 9);
    }

    #[test]
    fn invalid_span_rejected() {
        let net = PathNetwork::uniform(2, 5).unwrap();
        let err = Instance::new(net, vec![Task::of(0, 3, 1, 1)]).unwrap_err();
        assert_eq!(err, SapError::InvalidSpan { task: 0 });
    }

    #[test]
    fn unschedulable_task_rejected_or_pruned() {
        let net = PathNetwork::new(vec![4, 2]).unwrap();
        let tasks = vec![Task::of(0, 2, 3, 1), Task::of(0, 1, 3, 2)];
        let err = Instance::new(net.clone(), tasks.clone()).unwrap_err();
        assert_eq!(err, SapError::DemandExceedsBottleneck { task: 0 });
        let (pruned, ids) = Instance::new_pruning(net, tasks).unwrap();
        assert_eq!(pruned.num_tasks(), 1);
        assert_eq!(ids, vec![1]);
    }

    #[test]
    fn loads_via_difference_array() {
        let i = inst();
        assert_eq!(i.loads(&[0, 1, 2]), vec![3, 5, 2, 11]);
        assert_eq!(i.max_load(&[0, 1, 2]), 11);
        assert_eq!(i.max_load(&[]), 0);
        assert_eq!(i.total_weight(&[0, 2]), 6);
    }

    #[test]
    fn nba_predicate() {
        // inst(): caps (4,7,2,9); max demand 9 > min cap 2 ⇒ no NBA.
        assert!(!inst().satisfies_nba());
        let net = PathNetwork::new(vec![4, 7, 9]).unwrap();
        let nba = Instance::new(net, vec![Task::of(0, 3, 4, 1), Task::of(2, 3, 2, 1)]).unwrap();
        assert!(nba.satisfies_nba());
    }
}
