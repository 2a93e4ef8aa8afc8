//! Adversarial instance families with known structure — used by the
//! baseline experiments and stress tests. Each generator documents what
//! it is adversarial *for* and what the optimal solution looks like.

use sap_core::{Instance, PathNetwork, Task};

/// The **blocker** family: one long task of weight `field − 1` spanning
/// everything, plus `field` unit-weight tasks each filling one edge.
/// Greedy-by-weight takes the blocker and scores `field − 1`; the optimal
/// solution takes the field and scores `field`. All tasks have
/// `d = b = cap`, so the instance is 1-large and the rectangle solver is
/// exact on it.
pub fn blocker(field: u64) -> Instance {
    assert!(field >= 2, "need at least two field tasks");
    let m = field as usize;
    let net = PathNetwork::uniform(m, 2).expect("valid");
    let mut tasks = vec![Task::of(0, m, 2, field - 1)];
    for i in 0..m {
        tasks.push(Task::of(i, i + 1, 2, 1));
    }
    Instance::new(net, tasks).expect("valid")
}

/// The **knapsack core**: every task shares a single edge (UFPP = SAP =
/// knapsack). `sizes[i]`/`weights[i]` give the items; `capacity` the
/// edge. NP-hardness lives here (§1.1 of the paper).
pub fn knapsack_core(capacity: u64, items: &[(u64, u64)]) -> Instance {
    let net = PathNetwork::new(vec![capacity]).expect("valid");
    let tasks: Vec<Task> = items
        .iter()
        .map(|&(size, weight)| Task::of(0, 1, size.clamp(1, capacity), weight))
        .collect();
    Instance::new(net, tasks).expect("valid")
}

/// The **staircase tower**: tasks of doubling demands nested by span on a
/// staircase capacity profile — every task's bottleneck sits in its own
/// stratum `J_t`, so Strip-Pack must open one strip per task. With
/// `levels` levels, the optimal solution selects *all* tasks (they nest
/// like a wedding cake), while any algorithm that ignores strata
/// interactions loses the tall ones.
pub fn staircase_tower(levels: u32) -> Instance {
    assert!((1..=12).contains(&levels));
    let m = levels as usize;
    // Capacity doubles with each edge away from the tall end.
    let caps: Vec<u64> = (0..m).map(|i| 4u64 << i).collect();
    let net = PathNetwork::new(caps).expect("valid");
    // Task t spans edges [t, m): bottleneck 4·2^t; demand half of it.
    let tasks: Vec<Task> = (0..m)
        .map(|t| {
            let b = 4u64 << t;
            Task::of(t, m, b / 2, 1 + t as u64)
        })
        .collect();
    Instance::new(net, tasks).expect("valid")
}

/// The **comb**: a long spine of demand 2 plus, at every other edge, two
/// unit "teeth" that exactly fill the remaining band. Tight but fully
/// SAP-feasible — a stress family for gravity, rendering and the
/// validators (every edge under the spine is loaded to capacity).
pub fn comb(teeth: usize) -> Instance {
    assert!(teeth >= 2);
    let m = 2 * teeth + 1;
    let net = PathNetwork::uniform(m, 4).expect("valid");
    let mut tasks = Vec::new();
    // The spine: a long task of demand 2.
    tasks.push(Task::of(0, m, 2, teeth as u64));
    // Teeth: at every odd edge, two demand-1 tasks filling the rest.
    for t in 0..teeth {
        let e = 2 * t + 1;
        tasks.push(Task::of(e, e + 1, 1, 1));
        tasks.push(Task::of(e, e + 1, 1, 1));
    }
    Instance::new(net, tasks).expect("valid")
}

/// The **long path**: `short`'s tasks unchanged on a path padded to `m`
/// edges, the new edges at `short`'s smallest capacity and touched by no
/// task. Every algorithm must answer exactly as on `short` — adversarial
/// for any state, buffer or meter that scales with the edge count `m`
/// instead of the task count `n`.
pub fn long_path(short: &Instance, m: usize) -> Instance {
    let mut caps = short.network().capacities().to_vec();
    assert!(m >= caps.len(), "the long path must not cut the short one");
    let pad = caps.iter().copied().min().expect("a path has edges");
    caps.resize(m, pad);
    Instance::new(PathNetwork::new(caps).expect("valid"), short.tasks().to_vec())
        .expect("valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sap_core::UfppSolution;

    #[test]
    fn blocker_shape() {
        let inst = blocker(8);
        assert_eq!(inst.num_tasks(), 9);
        assert_eq!(inst.weight(0), 7);
        // Field alone is feasible and weighs 8.
        let field: Vec<usize> = (1..9).collect();
        UfppSolution::new(field.clone()).validate(&inst).unwrap();
        assert_eq!(inst.total_weight(&field), 8);
        // Blocker + any field task is infeasible.
        assert!(UfppSolution::new(vec![0, 1]).validate(&inst).is_err());
    }

    #[test]
    fn knapsack_core_shape() {
        let inst = knapsack_core(10, &[(6, 60), (5, 50), (5, 50)]);
        assert_eq!(inst.num_edges(), 1);
        assert!(UfppSolution::new(vec![1, 2]).validate(&inst).is_ok());
        assert!(UfppSolution::new(vec![0, 1]).validate(&inst).is_err());
    }

    #[test]
    fn staircase_tower_nests() {
        let inst = staircase_tower(5);
        assert_eq!(inst.num_tasks(), 5);
        // All tasks together are SAP-feasible: stack by demand.
        let order: Vec<usize> = (0..5).collect();
        let sol = sap_core::canonical_heights(&inst, &order).expect("nests");
        sol.validate(&inst).unwrap();
        assert_eq!(sol.len(), 5);
        // Each task in its own stratum.
        let strata = sap_core::strata_by_bottleneck(&inst, &inst.all_ids());
        assert_eq!(strata.len(), 5);
    }

    #[test]
    fn long_path_keeps_the_tasks_and_pads_the_edges() {
        let short = comb(3);
        let long = long_path(&short, 1000);
        assert_eq!(long.num_edges(), 1000);
        assert_eq!(long.tasks(), short.tasks());
        assert_eq!(&long.network().capacities()[..7], short.network().capacities());
        assert!(long.network().capacities()[7..].iter().all(|&c| c == 4));
    }

    #[test]
    fn comb_is_tight_and_fully_feasible() {
        let inst = comb(3);
        let all = inst.all_ids();
        UfppSolution::new(all.clone()).validate(&inst).unwrap();
        // Full SAP solution: spine at 0, teeth at 2 and 3.
        let sol = sap_core::canonical_heights(&inst, &all).expect("comb packs");
        sol.validate(&inst).unwrap();
        assert_eq!(sol.len(), inst.num_tasks());
        // Tooth edges are loaded to exactly the capacity.
        let loads = inst.loads(&all);
        assert_eq!(loads[1], 4);
        assert_eq!(loads[3], 4);
        assert_eq!(loads[0], 2);
    }
}
