//! Algorithm **AlmostUniform** + **Elevator** for medium tasks
//! (Theorem 2, §5): a `(2+ε)`-approximation for δ-large, `(1−2β)`-small
//! instances.
//!
//! Framework (Algorithm 2 of the paper):
//!
//! 1. for every `k`, solve the "almost uniform" class
//!    `J^{k,ℓ} = { j : 2^k ≤ b(j) < 2^{k+ℓ} }` with a **β-elevated
//!    2-approximation** (*Elevator*): compute an optimal solution for the
//!    class (Lemma 13) and split it into two β-elevated halves
//!    (Lemma 14 / Fig. 6), keeping the heavier;
//! 2. for every residue `r ∈ {0, …, ℓ+q−1}` (where `q = log₂(1/β)`),
//!    stack the classes `k ≡ r (mod ℓ+q)` — elevation makes the stack
//!    feasible (Lemma 8);
//! 3. return the heaviest residue; every task lies in exactly `ℓ` classes,
//!    so the best residue loses only `(ℓ+q)/ℓ = 1+ε` (Lemmas 9–10).
//!
//! **Integrality.** The elevation threshold `β·2^k` must be an integer
//! height; the instance is scaled by `2^q` internally (capacities and
//! demands ×`2^q`), making every threshold `2^{k−q}` exact, and the final
//! solution is re-grounded in original units via canonical heights.
//!
//! **Elevator's optimal sub-solver.** Lemma 13's dynamic program is
//! polynomial for constant `ℓ, δ` but with an impractical exponent
//! (`n^{O((2^ℓ/δ)²)}`). Elevator runs the exact state-space search of
//! [`crate::exact`] instead: it returns an optimal class solution too.
//! The search is anytime. When it hits [`MediumParams::exact`]'s state
//! cap (10k states by default), the class splits both the search's
//! incumbent and the greedy baseline, and keeps the heaviest of the four
//! halves; Lemma 15's factor 2 then no longer holds for that class. A
//! class of more than [`MediumParams::max_class_size`] tasks splits the
//! greedy baseline only. The `T2` experiment reports how many classes
//! were solved exactly. The paper's DP stays in [`crate::lemma13`] as a
//! reference, cross-checked against the search in its own tests.

use sap_core::budget::{Budget, CheckpointClass};
use sap_core::error::SapResult;
use sap_core::{
    canonical_heights, classes_k_ell, clip_to_band, elevation_split, map_reduce_isolated, stack,
    Instance, PathNetwork, SapSolution, Task, TaskId,
};

use crate::baselines::greedy_sap_best;
use crate::exact::{solve_exact_sap, Exact, ExactConfig};

/// Parameters of the medium-task algorithm.
#[derive(Debug, Clone, Copy)]
pub struct MediumParams {
    /// `β = 2^{-q}`; the paper uses β = ¼ (`q = 2`). Tasks must be
    /// `(1−2β)`-small for the elevation split to be feasible.
    pub q: u32,
    /// Class width ℓ; the framework ratio is `α·(ℓ+q)/ℓ`, so
    /// `ℓ = q/ε` gives `(1+ε)·α`.
    pub ell: u32,
    /// Budget of the per-class exact solver. A class whose search hits
    /// the state cap splits the heavier of the search's incumbent and
    /// greedy instead of an optimum.
    pub exact: ExactConfig,
    /// Per-class task-count cap beyond which greedy alone is used (the
    /// exact search is limited to 64 tasks).
    pub max_class_size: usize,
}

impl Default for MediumParams {
    fn default() -> Self {
        MediumParams {
            q: 2,
            ell: 4,
            // A much tighter budget than the standalone exact solver:
            // a capped class keeps the search's incumbent (reported in
            // `MediumStats::capped_classes`).
            exact: ExactConfig { max_states: 10_000 },
            max_class_size: 28,
        }
    }
}

impl MediumParams {
    /// The ℓ achieving ratio `(1+ε)·2` for `ε = 1/eps_inv`: `ℓ = q·eps_inv`.
    pub fn for_epsilon(q: u32, eps_inv: u32) -> Self {
        MediumParams { q, ell: q * eps_inv, ..Default::default() }
    }
}

/// Statistics of a [`try_solve_medium_with_stats`] run.
#[derive(Debug, Clone, Default)]
pub struct MediumStats {
    /// Number of non-empty classes solved.
    pub classes: usize,
    /// Classes whose exact search finished, so their half is Lemma 15's.
    pub exact_classes: usize,
    /// Classes whose exact search hit its state cap: the heavier half of
    /// the search's incumbent and greedy stood in.
    pub capped_classes: usize,
    /// The winning residue.
    pub best_residue: u32,
}

/// Runs AlmostUniform on the medium tasks `ids` and reports solver
/// statistics. The per-class exact solvers are charged against `budget`
/// (`DpRow` units per expanded state, plus one `Driver` unit per class;
/// pass [`Budget::unlimited`] for no limit). The classes fan out through
/// [`sap_core::map_reduce_isolated`] on fixed per-class budget shares, so
/// metered runs trip — and degrade — byte-identically at any `workers`
/// width (`0` = auto, `1` = sequential).
pub fn try_solve_medium_with_stats(
    instance: &Instance,
    ids: &[TaskId],
    params: MediumParams,
    workers: usize,
    budget: &Budget,
) -> SapResult<(SapSolution, MediumStats)> {
    let q = params.q;
    let ell = params.ell.max(1);
    assert!(q >= 2 && q + ell <= 14, "q ≥ 2 (β < ½) and q + ℓ ≤ 14 supported");

    // Lemma 14's elevation split needs every task to be (1−2β)-small;
    // tasks outside that regime carry no guarantee here and are dropped
    // (the combined algorithm routes them to the large-task solver).
    let smallness = sap_core::Ratio::new((1u64 << q) - 2, 1u64 << q);
    let ids: Vec<TaskId> = ids
        .iter()
        .copied()
        .filter(|&j| smallness.le_scaled(instance.demand(j), instance.bottleneck(j)))
        .collect();
    if ids.is_empty() {
        return Ok((SapSolution::empty(), MediumStats::default()));
    }
    let ids = &ids[..];

    // Scale by 2^{q+ℓ} so that (i) every elevation threshold `β·2^k` is
    // integral and (ii) every class index k satisfies k > q (scaled
    // bottlenecks are ≥ 2^{q+ℓ}, so strata start at t = q+ℓ).
    let factor = 1u64 << (q + ell);
    let Some(scaled) = scale_instance(instance, factor) else {
        // Capacities or demands too close to the representable limit to
        // scale by 2^{q+ℓ}: Lemma 14's integral thresholds are unavailable
        // in this degenerate regime, so fall back to the greedy baseline
        // (always feasible, no ratio guarantee).
        let sol = crate::baselines::greedy_sap_best(instance, ids);
        return Ok((sol, MediumStats::default()));
    };

    // Classes over the scaled bottlenecks (all k ≥ q since b ≥ 2^q).
    let classes = classes_k_ell(&scaled, ids, ell);
    let class_results: Vec<SapResult<(u32, SapSolution, ClassSolve)>> =
        map_reduce_isolated(budget, &classes, workers, |(k, members), b| {
            elevator(&scaled, *k, ell, q, members, &params, b).map(|(sol, how)| (*k, sol, how))
        });
    let mut solved: Vec<(u32, SapSolution, ClassSolve)> = Vec::with_capacity(class_results.len());
    // lint:allow(b1) — folds per-class results; the per-class work was
    // metered inside map_reduce_isolated.
    for r in class_results {
        solved.push(r?);
    }

    let mut capped_units = 0u64;
    let mut stats = MediumStats { classes: solved.len(), ..MediumStats::default() };
    // lint:allow(b1) — one tally per class; the per-class work was
    // metered inside map_reduce_isolated.
    for (_, _, how) in &solved {
        match how {
            ClassSolve::Exact => stats.exact_classes += 1,
            ClassSolve::Capped { units } => {
                stats.capped_classes += 1;
                capped_units += units;
            }
            ClassSolve::Greedy => {}
        }
    }

    // Residue sweep.
    let period = ell + q;
    let mut best: Option<(u64, SapSolution, u32)> = None;
    // lint:allow(b1) — period = ℓ + q residues, a config constant that
    // does not scale with the instance.
    for r in 0..period {
        let parts: Vec<SapSolution> = solved
            .iter()
            .filter(|(k, _, _)| k % period == r)
            .map(|(_, s, _)| s.clone())
            .collect();
        let union = stack(&parts);
        debug_assert!(union.validate(&scaled).is_ok(), "Lemma 8 stack must be feasible");
        let w = union.weight(&scaled);
        if best.as_ref().map_or(true, |(bw, _, _)| w > *bw) {
            best = Some((w, union, r));
        }
    }
    // lint:allow(p1) — the residue loop runs `period = q+ℓ ≥ 3` iterations,
    // so `best` is always populated before this point.
    let (_, scaled_sol, r) = best.expect("at least one residue");
    stats.best_residue = r;
    let tele = budget.telemetry();
    tele.count("classes", stats.classes as u64);
    tele.count("classes.exact", stats.exact_classes as u64);
    tele.count("classes.capped", stats.capped_classes as u64);
    tele.count("capped_units", capped_units);
    tele.gauge_max("best_residue", u64::from(stats.best_residue));

    // Re-ground in original units, preserving the vertical order.
    let mut order: Vec<(u64, TaskId)> =
        scaled_sol.placements.iter().map(|p| (p.height, p.task)).collect();
    order.sort_unstable();
    let ids_in_order: Vec<TaskId> = order.into_iter().map(|(_, j)| j).collect();
    let sol = canonical_heights(instance, &ids_in_order)
        // lint:allow(p1) — feasibility is invariant under uniform scaling:
        // an order feasible at ×2^{q+ℓ} re-grounds feasibly at ×1.
        .expect("scaled-feasible order re-grounds feasibly");
    debug_assert!(sol.validate(instance).is_ok());
    Ok((sol, stats))
}

/// Multiplies every capacity and demand by `factor`; `None` when the
/// scaled values would overflow or leave the representable capacity
/// range, in which case the caller falls back to the greedy baseline.
fn scale_instance(instance: &Instance, factor: u64) -> Option<Instance> {
    let mut caps = Vec::with_capacity(instance.network().capacities().len());
    for &c in instance.network().capacities() {
        caps.push(c.checked_mul(factor)?);
    }
    let net = PathNetwork::new(caps).ok()?;
    let mut tasks = Vec::with_capacity(instance.tasks().len());
    for t in instance.tasks() {
        tasks.push(Task { demand: t.demand.checked_mul(factor)?, ..*t });
    }
    Instance::new(net, tasks).ok()
}

/// How Elevator solved one class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClassSolve {
    /// The exact search finished (or the class was empty after clipping).
    Exact,
    /// The search hit its state cap after metering `units` work units;
    /// the incumbent and greedy competed.
    Capped { units: u64 },
    /// The class is over [`MediumParams::max_class_size`]: greedy only.
    Greedy,
}

/// Elevator (Lemma 15): a β-elevated 2-approximation for one class.
/// Returns the solution in the *scaled* instance's coordinates and how
/// the class was solved.
fn elevator(
    scaled: &Instance,
    k: u32,
    ell: u32,
    q: u32,
    members: &[TaskId],
    params: &MediumParams,
    budget: &Budget,
) -> SapResult<(SapSolution, ClassSolve)> {
    let phase = budget.telemetry().span("class");
    phase.observe("members", members.len() as u64);
    budget.checkpoint(CheckpointClass::Driver, 1)?;
    debug_assert!(k > q, "scaling guarantees every class index exceeds q");
    let band_lo = 1u64 << k;
    let band_hi = 1u64 << (k + ell);
    let threshold = 1u64 << (k - q); // β·2^k, exact after scaling

    // Clip capacities to 2^{k+ℓ} (Observation 7): lossless for the class
    // and keeps the sub-solver's search space small.
    let (sub, map) = match clip_to_band(scaled, members, band_lo, band_hi) {
        Ok(x) => x,
        Err(_) => return Ok((SapSolution::empty(), ClassSolve::Exact)),
    };
    let sub_ids = sub.all_ids();
    // Class solutions to split, in tie-break order.
    let (candidates, how) = if sub_ids.len() <= params.max_class_size.min(64) {
        match solve_exact_sap(&sub, &sub_ids, params.exact, budget)? {
            Exact::Optimal(opt) => (vec![opt], ClassSolve::Exact),
            Exact::Capped(incumbent) => (
                vec![incumbent, greedy_sap_best(&sub, &sub_ids)],
                ClassSolve::Capped { units: budget.consumed() },
            ),
        }
    } else {
        (vec![greedy_sap_best(&sub, &sub_ids)], ClassSolve::Greedy)
    };

    // Lemma 14: split each candidate at β·2^k and keep the first heaviest
    // β-elevated half (`lifted` before `kept` on ties).
    let mut chosen = SapSolution::empty();
    let mut chosen_weight = None;
    for sol in &candidates {
        let split = elevation_split(&sub, sol, threshold);
        for half in [split.lifted, split.kept] {
            let w = half.weight(&sub);
            if chosen_weight.map_or(true, |best| w > best) {
                chosen_weight = Some(w);
                chosen = half;
            }
        }
    }
    // Map back to the scaled instance's task ids.
    let mapped = SapSolution::from_pairs(
        chosen.placements.iter().map(|p| (map[p.task], p.height)),
    );
    Ok((mapped, how))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sap_core::{is_delta_small, PathNetwork, Ratio};

    fn solve_medium_with_stats(
        inst: &Instance,
        ids: &[TaskId],
        params: MediumParams,
    ) -> (SapSolution, MediumStats) {
        try_solve_medium_with_stats(inst, ids, params, 0, &Budget::unlimited()).unwrap()
    }

    fn solve_medium(inst: &Instance, ids: &[TaskId], params: MediumParams) -> SapSolution {
        solve_medium_with_stats(inst, ids, params).0
    }

    fn exact(inst: &Instance, ids: &[TaskId]) -> u64 {
        solve_exact_sap(inst, ids, ExactConfig::default(), &Budget::unlimited())
            .unwrap()
            .optimal()
            .expect("budget")
            .weight(inst)
    }

    /// Medium workload: 1/8-large and ½-small tasks over mixed strata.
    fn medium_instance(seed: u64, m: usize, n: usize) -> Instance {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let caps: Vec<u64> = (0..m).map(|_| 32 << (next() % 3)).collect();
        let net = PathNetwork::new(caps).unwrap();
        let mut tasks = Vec::new();
        for _ in 0..n {
            let lo = (next() % m as u64) as usize;
            let hi = (lo + 1 + (next() % (m as u64 - lo as u64)) as usize).min(m);
            let b = net.bottleneck(sap_core::Span { lo, hi });
            let d = b / 8 + 1 + next() % (b / 2 - b / 8);
            tasks.push(Task::of(lo, hi, d.min(b / 2).max(1), 1 + next() % 40));
        }
        Instance::new(net, tasks).unwrap()
    }

    #[test]
    fn output_is_feasible() {
        for seed in 0..6 {
            let inst = medium_instance(seed, 6, 24);
            let ids = inst.all_ids();
            // Confirm the workload really is ½-small.
            for &j in &ids {
                assert!(is_delta_small(&inst, j, Ratio::new(1, 2)));
            }
            let (sol, stats) = solve_medium_with_stats(&inst, &ids, MediumParams::default());
            sol.validate(&inst).unwrap();
            assert!(!sol.is_empty(), "seed {seed}");
            assert!(stats.classes > 0);
        }
    }

    #[test]
    fn ratio_against_exact_on_small_instances() {
        // Thm 2: ratio ≤ (1+ε)·2 with ε = q/ℓ = 2/4 → 3. Measure ≤ 3.
        for seed in 0..6 {
            let inst = medium_instance(seed + 20, 5, 12);
            let ids = inst.all_ids();
            let opt = exact(&inst, &ids);
            let sol = solve_medium(&inst, &ids, MediumParams::default());
            let w = sol.weight(&inst);
            assert!(3 * w >= opt, "seed {seed}: medium {w} vs opt {opt}");
        }
    }

    #[test]
    fn elevation_threshold_is_respected_in_scaled_space() {
        // Indirect check: the final solution validates and selects tasks
        // from multiple strata without collisions.
        let inst = medium_instance(3, 8, 40);
        let sol = solve_medium(&inst, &inst.all_ids(), MediumParams::default());
        sol.validate(&inst).unwrap();
    }

    #[test]
    fn empty_input() {
        let inst = medium_instance(0, 4, 8);
        assert!(solve_medium(&inst, &[], MediumParams::default()).is_empty());
    }

    #[test]
    fn elevator_satisfies_the_bound() {
        // The framework output stays within the Theorem-2 bound
        // (ℓ=4, q=2 ⇒ 3) of the true optimum.
        for seed in 0..2 {
            let inst = medium_instance(seed + 40, 4, 9);
            let ids = inst.all_ids();
            let opt = exact(&inst, &ids);
            let sol = solve_medium(&inst, &ids, MediumParams::default());
            sol.validate(&inst).unwrap();
            let w = sol.weight(&inst);
            assert!(w <= opt);
            assert!(3 * w >= opt, "seed {seed}: {w} vs opt {opt}");
        }
    }

    #[test]
    fn wider_ell_does_not_break_feasibility() {
        let inst = medium_instance(9, 6, 20);
        for ell in [1u32, 2, 6, 8] {
            let params = MediumParams { ell, ..Default::default() };
            let sol = solve_medium(&inst, &inst.all_ids(), params);
            sol.validate(&inst).unwrap();
        }
    }
}
