//! Large tasks via rectangle packing (Theorem 3, §6).
//!
//! For a `1/k`-large instance, compute a maximum-weight set of pairwise
//! disjoint associated rectangles `R(j)` (Theorem 7's solver in
//! [`rectpack`]). The packing *is* a SAP solution (each task placed at its
//! residual height `ℓ(j)`), and by the `(2k−1)`-degeneracy colouring
//! argument (Lemmas 16–17) its weight is at least `OPT_SAP / (2k−1)`.

use rectpack::{max_weight_packing, MwisConfig};
use sap_core::budget::Budget;
use sap_core::error::SapResult;
use sap_core::{Instance, SapSolution, TaskId};

/// Solves the large-task sub-problem: an optimal rectangle packing of
/// `R(ids)`, returned as a SAP solution. The rectangle sweep is charged
/// against `budget` (`PackSweep` units; pass [`Budget::unlimited`] for no
/// limit).
///
/// `Err(BudgetExhausted)` is the cooperative budget tripping; `Ok(None)`
/// is the rectangle solver's own memo-state budget giving up (see
/// [`MwisConfig`]; the driver substitutes the greedy baseline).
pub fn try_solve_large(
    instance: &Instance,
    ids: &[TaskId],
    budget: &Budget,
) -> SapResult<Option<SapSolution>> {
    let Some(chosen) = max_weight_packing(instance, ids, MwisConfig::default(), budget)?
    else {
        return Ok(None);
    };
    let sol = rectpack::reduction::packing_to_sap(instance, &chosen);
    debug_assert!(sol.validate(instance).is_ok());
    Ok(Some(sol))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{solve_exact_sap, ExactConfig};
    use sap_core::{PathNetwork, Task};

    fn solve_large(inst: &Instance, ids: &[TaskId]) -> Option<SapSolution> {
        try_solve_large(inst, ids, &Budget::unlimited()).unwrap()
    }

    fn exact(inst: &Instance, ids: &[TaskId]) -> u64 {
        solve_exact_sap(inst, ids, ExactConfig::default(), &Budget::unlimited())
            .unwrap()
            .optimal()
            .expect("budget")
            .weight(inst)
    }

    fn large_instance(seed: u64, m: usize, n: usize, k: u64) -> Instance {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let caps: Vec<u64> = (0..m).map(|_| 8 + next() % 56).collect();
        let net = PathNetwork::new(caps).unwrap();
        let mut tasks = Vec::new();
        for _ in 0..n {
            let lo = (next() % m as u64) as usize;
            let hi = (lo + 1 + (next() % (m as u64 - lo as u64).min(4)) as usize).min(m);
            let b = net.bottleneck(sap_core::Span { lo, hi });
            let d = b / k + 1 + next() % (b - b / k).max(1);
            tasks.push(Task::of(lo, hi, d.min(b), 1 + next() % 30));
        }
        Instance::new(net, tasks).unwrap()
    }

    #[test]
    fn output_is_feasible() {
        for seed in 0..8 {
            let inst = large_instance(seed, 8, 20, 2);
            let sol = solve_large(&inst, &inst.all_ids()).expect("budget");
            sol.validate(&inst).unwrap();
        }
    }

    #[test]
    fn theorem_3_ratio_for_k2() {
        // (2k−1) = 3 for ½-large instances: 3·w(packing) ≥ OPT_SAP.
        for seed in 0..10 {
            let inst = large_instance(seed + 40, 5, 11, 2);
            let ids = inst.all_ids();
            let opt = exact(&inst, &ids);
            let sol = solve_large(&inst, &ids).expect("budget").weight(&inst);
            assert!(3 * sol >= opt, "seed {seed}: packing {sol} vs opt {opt}");
        }
    }

    #[test]
    fn theorem_3_ratio_for_k1() {
        // 1-large tasks (d = b): ratio 2k−1 = 1, i.e. the packing is
        // optimal: any SAP solution of 1-large tasks induces disjoint
        // rectangles (each task *is* its rectangle at height 0).
        for seed in 0..8 {
            let inst = large_instance(seed + 80, 5, 10, 1);
            for j in 0..inst.num_tasks() {
                assert_eq!(inst.demand(j), inst.bottleneck(j));
            }
            let ids = inst.all_ids();
            let opt = exact(&inst, &ids);
            let sol = solve_large(&inst, &ids).expect("budget").weight(&inst);
            assert_eq!(sol, opt, "seed {seed}");
        }
    }

    #[test]
    fn empty_input() {
        let inst = large_instance(0, 4, 5, 2);
        assert!(solve_large(&inst, &[]).unwrap().is_empty());
    }
}
