//! The combined `(9+ε)`-approximation (Theorem 4).
//!
//! With `k = 2` and `β = ¼`:
//!
//! * δ-small tasks → Strip-Pack (`4+ε`, Theorem 1);
//! * δ-large, ½-small tasks → AlmostUniform (`2+ε`, Theorem 2);
//! * ½-large tasks → rectangle packing (`2k−1 = 3`, Theorem 3);
//!
//! and the heaviest of the three solutions is returned. By Lemma 3 the
//! ratio is the **sum** `(4+ε) + (2+ε) + 3 = 9 + ε′`.
//!
//! [`crate::driver::try_solve`] is the one implementation: it runs the
//! three arms in parallel on disjoint task subsets, each on its own
//! child budget and isolated against panics, and reports per-arm weights
//! and the winner in its [`sap_core::SolveReport`]. [`solve`] is that
//! driver under [`Budget::unlimited`].

use lp_solver::SimplexOptions;
use sap_core::budget::Budget;
use sap_core::{parallel_map, Instance, Ratio, SapSolution, TaskId};

use crate::baselines::greedy_sap_best;
use crate::driver::try_solve;
use crate::medium::MediumParams;
use crate::small::SmallAlgo;

/// Parameters of the combined algorithm.
#[derive(Debug, Clone)]
pub struct SapParams {
    /// The small/medium threshold δ (the paper picks δ as a function of
    /// ε via Theorem 6; it is an explicit knob here — the `T4-δ` ablation
    /// sweeps it).
    pub delta_small: Ratio,
    /// The medium/large threshold δ′ (= `1/k`; the paper uses ½).
    pub delta_large: Ratio,
    /// Small-task packer variant.
    pub small_algo: SmallAlgo,
    /// Medium-task parameters (β = 2^{-q} must satisfy
    /// `delta_large ≤ 1 − 2β`; the defaults pair δ′ = ½ with β = ¼).
    pub medium: MediumParams,
    /// Simplex pivot cap for the Strip-Pack LP solves (`0` = automatic).
    /// A too-small cap never corrupts the answer: a non-optimal LP routes
    /// the small arm to the greedy baseline (see [`crate::small`]).
    pub lp_max_iters: usize,
    /// Intra-arm fan-out width for the small arm's per-stratum LP solves
    /// and the medium arm's per-class Elevator sweeps (`0` = auto,
    /// `1` = sequential). Any width produces byte-identical solutions,
    /// reports, and telemetry — see [`sap_core::map_reduce_isolated`].
    pub workers: usize,
}

impl Default for SapParams {
    fn default() -> Self {
        SapParams {
            delta_small: Ratio::new(1, 16),
            delta_large: Ratio::new(1, 2),
            small_algo: SmallAlgo::LpRounding,
            medium: MediumParams::default(),
            lp_max_iters: 0,
            workers: 0,
        }
    }
}

impl SapParams {
    /// The simplex options the small arm's LP solves run under.
    pub fn lp_options(&self) -> SimplexOptions {
        SimplexOptions { max_pivots: self.lp_max_iters, ..SimplexOptions::default() }
    }
}

/// Runs the combined `(9+ε)` algorithm on the tasks `ids`: the driver
/// ([`crate::driver::try_solve`]) under an unlimited budget, without its
/// report.
pub fn solve(instance: &Instance, ids: &[TaskId], params: &SapParams) -> SapSolution {
    // An unlimited budget cannot trip and the driver's terminal greedy
    // stage cannot fail, so the Err arm is dead; greedy keeps this total
    // without a panic path.
    let sol = match try_solve(instance, ids, params, &Budget::unlimited()) {
        Ok((sol, _)) => sol,
        Err(_) => greedy_sap_best(instance, ids),
    };
    debug_assert!(sol.validate(instance).is_ok());
    sol
}

/// Runs the combined algorithm over a parameter grid in parallel and
/// returns `(params, weight)` for each point — the engine behind the
/// ablation experiments.
pub fn sweep_params(instance: &Instance, grid: &[SapParams]) -> Vec<(SapParams, u64)> {
    let ids = instance.all_ids();
    parallel_map(grid, |p| {
        let sol = solve(instance, &ids, p);
        (p.clone(), sol.weight(instance))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{solve_exact_sap, ExactConfig};
    use sap_core::{classify_by_size, PathNetwork, SolveReport, Task};

    fn solve_with_report(inst: &Instance, params: &SapParams) -> (SapSolution, SolveReport) {
        try_solve(inst, &inst.all_ids(), params, &Budget::unlimited()).unwrap()
    }

    fn arm_weight(report: &SolveReport, arm: &str) -> u64 {
        report.arm(arm).unwrap().weight
    }

    fn mixed_instance(seed: u64, m: usize, n: usize) -> Instance {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let caps: Vec<u64> = (0..m).map(|_| 64 << (next() % 3)).collect();
        let net = PathNetwork::new(caps).unwrap();
        let mut tasks = Vec::new();
        for _ in 0..n {
            let lo = (next() % m as u64) as usize;
            let hi = (lo + 1 + (next() % (m as u64 - lo as u64)) as usize).min(m);
            let b = net.bottleneck(sap_core::Span { lo, hi });
            let d = 1 + next() % b;
            tasks.push(Task::of(lo, hi, d, 1 + next() % 40));
        }
        Instance::new(net, tasks).unwrap()
    }

    #[test]
    fn combined_is_feasible_on_mixed_workloads() {
        for seed in 0..6 {
            let inst = mixed_instance(seed, 6, 30);
            let params = SapParams::default();
            let (sol, report) = solve_with_report(&inst, &params);
            sol.validate(&inst).unwrap();
            assert!(!sol.is_empty(), "seed {seed}");
            let classified = classify_by_size(&inst, params.delta_small, params.delta_large);
            assert_eq!(classified.len(), inst.num_tasks(), "classification covers everything");
            let w = sol.weight(&inst);
            let arms = ["small", "medium", "large"].map(|arm| arm_weight(&report, arm));
            assert_eq!(w, arms[0].max(arms[1]).max(arms[2]));
        }
    }

    #[test]
    fn theorem_4_ratio_on_small_instances() {
        // Exact-vs-combined on instances small enough for the reference
        // solver: the formal bound is 9+ε; measured is far better.
        for seed in 0..6 {
            let inst = mixed_instance(seed + 30, 5, 11);
            let ids = inst.all_ids();
            let opt = solve_exact_sap(&inst, &ids, ExactConfig::default(), &Budget::unlimited())
                .unwrap()
                .optimal()
                .expect("budget")
                .weight(&inst);
            let sol = solve(&inst, &ids, &SapParams::default());
            let w = sol.weight(&inst);
            assert!(10 * w >= opt, "seed {seed}: combined {w} vs opt {opt}");
        }
    }

    #[test]
    fn lemma_3_winner_covers_its_regime_share() {
        // The returned weight is ≥ each regime's own solution weight and
        // ≥ greedy on the full set / 3 (sanity floor, not the theorem).
        let inst = mixed_instance(77, 8, 40);
        let (sol, report) = solve_with_report(&inst, &SapParams::default());
        let w = sol.weight(&inst);
        for arm in ["small", "medium", "large"] {
            assert!(w >= arm_weight(&report, arm), "{arm}");
        }
    }

    #[test]
    fn restricting_ids_restricts_the_solution() {
        let inst = mixed_instance(5, 6, 20);
        let subset: Vec<TaskId> = (0..10).collect();
        let sol = solve(&inst, &subset, &SapParams::default());
        for p in &sol.placements {
            assert!(p.task < 10);
        }
    }

    #[test]
    fn empty_input() {
        let inst = mixed_instance(1, 4, 6);
        assert!(solve(&inst, &[], &SapParams::default()).is_empty());
    }

    #[test]
    fn sweep_covers_grid() {
        let inst = mixed_instance(9, 6, 20);
        let grid: Vec<SapParams> = [4u64, 16, 64]
            .into_iter()
            .map(|d| SapParams { delta_small: Ratio::new(1, d), ..Default::default() })
            .collect();
        let results = sweep_params(&inst, &grid);
        assert_eq!(results.len(), 3);
        for (p, w) in &results {
            assert!(*w > 0);
            assert_eq!(*w, solve(&inst, &inst.all_ids(), p).weight(&inst));
        }
    }
}
