//! Exact UFPP by branch & bound — the reference optimum for small
//! instances in tests and ratio experiments.

use sap_core::{Instance, TaskId, UfppSolution};

/// Solves UFPP exactly over `ids` by depth-first branch & bound with
/// remaining-weight pruning. Exponential in the worst case; intended for
/// `n ≲ 30` reference runs.
pub fn solve_exact(instance: &Instance, ids: &[TaskId]) -> UfppSolution {
    // Order by weight density (descending) so good solutions are found
    // early and pruning bites.
    let mut order: Vec<TaskId> = ids.to_vec();
    order.sort_by(|&a, &b| {
        let lhs = instance.weight(a) as u128 * instance.demand(b) as u128;
        let rhs = instance.weight(b) as u128 * instance.demand(a) as u128;
        rhs.cmp(&lhs)
    });
    // Suffix weight sums for pruning.
    let mut suffix = vec![0u64; order.len() + 1];
    for i in (0..order.len()).rev() {
        // suffix has len+1 slots and i < len, so both
        // accesses (and order[i]) are in bounds.
        suffix[i] = suffix[i + 1] + instance.weight(order[i]);
    }

    struct Dfs<'a> {
        inst: &'a Instance,
        order: &'a [TaskId],
        suffix: &'a [u64],
        loads: Vec<u64>,
        current: Vec<TaskId>,
        current_w: u64,
        best: Vec<TaskId>,
        best_w: u64,
    }

    impl Dfs<'_> {
        fn go(&mut self, i: usize) {
            if self.current_w > self.best_w {
                self.best_w = self.current_w;
                self.best = self.current.clone();
            }
            if i == self.order.len() || self.current_w + self.suffix[i] <= self.best_w {
                return;
            }
            let j = self.order[i];
            let t = self.inst.task(j);
            // Branch 1: take j if it fits.
            if t
                .span
                .edges()
                .all(|e| self.loads[e] + t.demand <= self.inst.network().capacity(e))
            {
                for e in t.span.edges() {
                    self.loads[e] += t.demand;
                }
                self.current.push(j);
                self.current_w += t.weight;
                self.go(i + 1);
                self.current_w -= t.weight;
                self.current.pop();
                for e in t.span.edges() {
                    self.loads[e] -= t.demand;
                }
            }
            // Branch 2: skip j.
            self.go(i + 1);
        }
    }

    let mut dfs = Dfs {
        inst: instance,
        order: &order,
        suffix: &suffix,
        loads: vec![0; instance.num_edges()],
        current: Vec::new(),
        current_w: 0,
        best: Vec::new(),
        best_w: 0,
    };
    dfs.go(0);
    UfppSolution::new(dfs.best)
}
