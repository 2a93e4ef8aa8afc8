//! A Bonsma-et-al.-style constant-factor **UFPP** solver — the framework
//! the paper's SAP algorithm adapts (§1.2), implemented as the natural
//! comparator: split tasks into small / medium / large, solve each
//! regime, return the heaviest (Lemma 3).
//!
//! * **small** (δ-small): LP-guided rounding against the true capacities
//!   (the CMS-style step, as in the SAP pipeline but without strips —
//!   UFPP needs no vertical structure);
//! * **medium**: the AlmostUniform framework over classes `J^{k,ℓ}`.
//!   UFPP solutions for different classes of one residue cannot simply be
//!   unioned (loads add), so each class is solved against **reserved
//!   capacities** `c_e − 2^{k+2−q}`: by Observation 1 a feasible class
//!   solution loads an edge by at most `2·2^{k+ℓ}`, so the lower classes
//!   of the residue (spaced `ℓ+q` apart) contribute at most
//!   `Σ_i 2·2^{k−i(ℓ+q)+ℓ} < 2^{k+2−q}` — exactly the reserved headroom.
//!   Per class we use the exact branch & bound (with a greedy fallback
//!   beyond its budget), mirroring the SAP Elevator;
//! * **large** (`1/k`-large): the optimal rectangle packing of `R(J)` —
//!   a valid UFPP solution within `2k` of the UFPP optimum (Bonsma et
//!   al.'s colouring bound).

use sap_core::{classes_k_ell, classify_by_size, Instance, PathNetwork, Ratio, TaskId, UfppSolution};

use crate::exact::solve_exact;
use crate::greedy::greedy_by_density;
use crate::heuristic::round_lp_against_capacities;

/// Parameters of the UFPP combined solver.
#[derive(Debug, Clone)]
pub struct UfppParams {
    /// Small/medium threshold δ.
    pub delta_small: Ratio,
    /// Medium/large threshold (1/k).
    pub delta_large: Ratio,
    /// Class width ℓ of the medium framework.
    pub ell: u32,
    /// Headroom exponent `q` (reserve `2^{k+2−q}`; `q ≥ 3` keeps at least
    /// half of every capacity).
    pub q: u32,
    /// Per-class task-count cap for the exact sub-solver.
    pub max_class_size: usize,
}

impl Default for UfppParams {
    fn default() -> Self {
        UfppParams {
            delta_small: Ratio::new(1, 16),
            delta_large: Ratio::new(1, 2),
            ell: 4,
            q: 3,
            max_class_size: 22,
        }
    }
}

/// Per-regime result breakdown.
#[derive(Debug, Clone)]
pub struct UfppStats {
    /// Weight of the small-regime solution.
    pub small_weight: u64,
    /// Weight of the medium-regime solution.
    pub medium_weight: u64,
    /// Weight of the large-regime solution.
    pub large_weight: u64,
    /// `"small"`, `"medium"` or `"large"`.
    pub winner: &'static str,
}

/// Runs the combined UFPP solver on `ids`.
pub fn solve_ufpp_combined(
    instance: &Instance,
    ids: &[TaskId],
    params: &UfppParams,
) -> (UfppSolution, UfppStats) {
    let all = classify_by_size(instance, params.delta_small, params.delta_large);
    let wanted: std::collections::HashSet<TaskId> = ids.iter().copied().collect();
    let small: Vec<TaskId> = all.small.into_iter().filter(|j| wanted.contains(j)).collect();
    let medium: Vec<TaskId> = all.medium.into_iter().filter(|j| wanted.contains(j)).collect();
    let large: Vec<TaskId> = all.large.into_iter().filter(|j| wanted.contains(j)).collect();

    let small_sol = round_lp_against_capacities(instance, &small);
    let medium_sol = medium_framework(instance, &medium, params);
    let large_sol = large_rectangles(instance, &large);

    let sw = small_sol.weight(instance);
    let mw = medium_sol.weight(instance);
    let lw = large_sol.weight(instance);
    let (best, winner) = if sw >= mw && sw >= lw {
        (small_sol, "small")
    } else if mw >= lw {
        (medium_sol, "medium")
    } else {
        (large_sol, "large")
    };
    debug_assert!(best.validate(instance).is_ok());
    (
        best,
        UfppStats { small_weight: sw, medium_weight: mw, large_weight: lw, winner },
    )
}

/// The AlmostUniform framework for UFPP with reserved capacities.
fn medium_framework(instance: &Instance, ids: &[TaskId], params: &UfppParams) -> UfppSolution {
    if ids.is_empty() {
        return UfppSolution::empty();
    }
    let ell = params.ell.max(1);
    let q = params.q.max(3);
    let classes = classes_k_ell(instance, ids, ell);

    // Solve every class against its reserved capacities.
    let mut class_solutions: Vec<(u32, UfppSolution)> = Vec::with_capacity(classes.len());
    for (k, members) in &classes {
        let reserve = if k + 2 >= q { 1u64 << (k + 2 - q) } else { 1 };
        let reserved = instance
            .network()
            .map_capacities(|c| c.saturating_sub(reserve).min(1u64 << (k + ell)))
            .unwrap_or_else(|_| instance.network().clone());
        let sol = solve_class(instance, &reserved, members, params);
        class_solutions.push((*k, sol));
    }

    // Residue sweep: union classes spaced ℓ+q apart, keep the heaviest
    // residue. The reservation makes the union feasible; validated in
    // debug builds and re-checked greedily in release as a safety net.
    let period = ell + q;
    let mut best = UfppSolution::empty();
    let mut best_w = 0u64;
    for r in 0..period {
        let mut union: Vec<TaskId> = Vec::new();
        // Highest class first so the safety filter drops low-value
        // violators (never triggered when the reservation analysis holds).
        for (k, sol) in class_solutions.iter().rev() {
            if k % period != r {
                continue;
            }
            for &j in &sol.tasks {
                union.push(j);
                if UfppSolution::new(union.clone()).validate(instance).is_err() {
                    union.pop();
                }
            }
        }
        let sol = UfppSolution::new(union);
        let w = sol.weight(instance);
        if w > best_w || (best.is_empty() && best_w == 0) {
            best_w = w;
            best = sol;
        }
    }
    best
}

/// Exact (or greedy beyond budget) UFPP on one class against reserved
/// capacities; solutions are reported in original task ids.
fn solve_class(
    instance: &Instance,
    reserved: &PathNetwork,
    members: &[TaskId],
    params: &UfppParams,
) -> UfppSolution {
    // Build the class sub-instance over the reserved network, pruning
    // tasks that no longer fit at all.
    let tasks: Vec<sap_core::Task> = members.iter().map(|&j| *instance.task(j)).collect();
    let Ok((sub, kept)) = Instance::new_pruning(reserved.clone(), tasks) else {
        return UfppSolution::empty();
    };
    let sub_ids = sub.all_ids();
    let sol = if sub_ids.len() <= params.max_class_size {
        solve_exact(&sub, &sub_ids)
    } else {
        greedy_by_density(&sub, &sub_ids)
    };
    UfppSolution::new(sol.tasks.iter().map(|&i| members[kept[i]]).collect())
}

/// Large tasks: the exact rectangle packing (a valid UFPP solution).
fn large_rectangles(instance: &Instance, ids: &[TaskId]) -> UfppSolution {
    let unlimited = sap_core::Budget::unlimited();
    match rectpack::max_weight_packing(instance, ids, rectpack::MwisConfig::default(), &unlimited) {
        Ok(Some(chosen)) => UfppSolution::new(chosen),
        // An unlimited budget cannot trip, so only the memo-state cap
        // lands here.
        Ok(None) | Err(_) => greedy_by_density(instance, ids),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sap_core::Task;

    fn instance(seed: u64, m: usize, n: usize) -> Instance {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let caps: Vec<u64> = (0..m).map(|_| 32 + next() % 224).collect();
        let net = PathNetwork::new(caps).unwrap();
        let tasks: Vec<Task> = (0..n)
            .map(|_| {
                let lo = (next() % m as u64) as usize;
                let hi = (lo + 1 + (next() % (m as u64 - lo as u64)) as usize).min(m);
                let b = net.bottleneck(sap_core::Span { lo, hi });
                Task::of(lo, hi, 1 + next() % b, 1 + next() % 30)
            })
            .collect();
        Instance::new(net, tasks).unwrap()
    }

    #[test]
    fn combined_ufpp_is_feasible_and_reports_winner() {
        for seed in 0..8 {
            let inst = instance(seed, 8, 40);
            let ids = inst.all_ids();
            let (sol, stats) = solve_ufpp_combined(&inst, &ids, &UfppParams::default());
            sol.validate(&inst).unwrap();
            let w = sol.weight(&inst);
            assert_eq!(
                w,
                stats.small_weight.max(stats.medium_weight).max(stats.large_weight)
            );
            assert!(["small", "medium", "large"].contains(&stats.winner));
        }
    }

    #[test]
    fn combined_ufpp_ratio_on_small_instances() {
        // Measured comparator: stays within a small constant of exact.
        for seed in 0..8 {
            let inst = instance(seed + 30, 5, 11);
            let ids = inst.all_ids();
            let opt = solve_exact(&inst, &ids).weight(&inst);
            let (sol, _) = solve_ufpp_combined(&inst, &ids, &UfppParams::default());
            let w = sol.weight(&inst);
            assert!(w <= opt);
            assert!(8 * w >= opt, "seed {seed}: combined-UFPP {w} vs opt {opt}");
        }
    }

    #[test]
    fn medium_framework_unions_are_feasible() {
        for seed in 0..6 {
            let inst = instance(seed + 60, 10, 50);
            // Feed it everything; it will classify internally when called
            // through solve_ufpp_combined, here we stress the framework
            // directly on the ½-small tasks.
            let ids: Vec<TaskId> = inst
                .all_ids()
                .into_iter()
                .filter(|&j| 2 * inst.demand(j) <= inst.bottleneck(j))
                .collect();
            let sol = medium_framework(&inst, &ids, &UfppParams::default());
            sol.validate(&inst).unwrap();
        }
    }

    #[test]
    fn empty_input() {
        let inst = instance(0, 4, 6);
        let (sol, _) = solve_ufpp_combined(&inst, &[], &UfppParams::default());
        assert!(sol.is_empty());
    }
}
