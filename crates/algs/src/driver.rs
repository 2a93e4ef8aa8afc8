//! Budgeted, fault-tolerant portfolio driver.
//!
//! [`try_solve`] runs the Theorem 4 best-of-three portfolio under a
//! cooperative [`Budget`], isolates each arm against panics, and falls
//! back to one guaranteed stage when arms fail:
//!
//! 1. the three portfolio arms (small / medium / large), each on a
//!    [child budget](Budget::child) and behind
//!    [`sap_core::join3_isolated`];
//! 2. greedy first-fit over all ids, which needs no budget and always
//!    succeeds. It joins the candidates when an arm whose task set is
//!    non-empty ended [`ArmOutcome::BudgetExhausted`] or
//!    [`ArmOutcome::Panicked`], or when no arm produced a solution.
//!
//! The winner is the first heaviest of [small, medium, large, greedy], so
//! ties go to the portfolio arms. The returned [`SolveReport`] records,
//! per arm and for the greedy fallback, how it ended ([`ArmOutcome`]),
//! what it weighed, and what it consumed — so a degraded answer is always
//! *labelled* as degraded. The solution itself is feasible in every path
//! (each producer validates in debug builds).
//!
//! Determinism: every arm's internal fan-out runs through
//! [`sap_core::map_reduce_isolated`], which splits the arm budget into
//! fixed per-item shares before dispatch; each item trips based only on
//! its own checkpoint sequence, so equal seeds and equal work-unit limits
//! yield byte-identical solutions *and* reports at any worker count.

use sap_core::budget::{ArmOutcome, ArmReport, Budget, CheckpointClass, SolveReport, WorkProfile};
use sap_core::error::SapError;
use sap_core::{classify_by_size, ClassifiedTasks, Instance, SapSolution, TaskId};

use crate::baselines::greedy_sap_best;
use crate::combined::SapParams;
use crate::medium::try_solve_medium_with_stats;
use crate::small::try_solve_small;

/// One arm's digested result: its report entry plus the solution it
/// contributed, if any.
struct ArmRun {
    report: ArmReport,
    solution: Option<SapSolution>,
}

/// Runs the combined algorithm under `budget` and reports what happened.
///
/// The result is always a feasible solution over `ids`: when an arm with
/// tasks runs out of budget or panics, greedy first-fit over all ids
/// joins the candidates, and greedy cannot fail.
pub fn try_solve(
    instance: &Instance,
    ids: &[TaskId],
    params: &SapParams,
    budget: &Budget,
) -> (SapSolution, SolveReport) {
    let classified = classify_restricted(instance, ids, params);

    // Each arm's child budget carries a telemetry handle for its own
    // phase, so work and counters recorded inside the arm land under
    // `small` / `medium` / `large` in the phase tree (a no-op when no
    // recorder is attached).
    let tele = budget.telemetry();
    let small_b = budget.child().with_telemetry(tele.child("small"));
    let medium_b = budget.child().with_telemetry(tele.child("medium"));
    let large_b = budget.child().with_telemetry(tele.child("large"));

    // One coarse unit for orchestration; also the anchor for injected
    // `Driver`-class exhaustion before any arm starts.
    let dispatch = budget.checkpoint(CheckpointClass::Driver, 1);

    let mut arms: Vec<ArmRun> = Vec::new();
    if dispatch.is_ok() {
        let (small_r, medium_r, large_r) = sap_core::join3_isolated(
            || {
                let _phase = small_b.telemetry().enter();
                small_b.worker_fault(0);
                try_solve_small(
                    instance,
                    &classified.small,
                    params.small_algo,
                    params.lp_options(),
                    params.workers,
                    &small_b,
                )
            },
            || {
                let _phase = medium_b.telemetry().enter();
                medium_b.worker_fault(1);
                try_solve_medium_with_stats(
                    instance,
                    &classified.medium,
                    params.medium,
                    params.workers,
                    &medium_b,
                )
            },
            || {
                let _phase = large_b.telemetry().enter();
                large_b.worker_fault(2);
                crate::large::try_solve_large(instance, &classified.large, &large_b)
            },
        );

        arms.push(match small_r {
            Ok(Ok(run)) => {
                let weight = run.solution.weight(instance);
                let (outcome, fallback) = if run.lp_degraded {
                    (ArmOutcome::LpNonOptimal, Some("greedy"))
                } else {
                    (ArmOutcome::Completed, None)
                };
                ArmRun {
                    report: arm_report("small", outcome, weight, &small_b, fallback),
                    solution: Some(run.solution),
                }
            }
            Ok(Err(e)) => ArmRun {
                report: arm_report("small", failure_outcome(&e), 0, &small_b, None),
                solution: None,
            },
            Err(_panic) => ArmRun {
                report: arm_report("small", ArmOutcome::Panicked, 0, &small_b, None),
                solution: None,
            },
        });
        arms.push(match medium_r {
            Ok(Ok((sol, _stats))) => {
                let weight = sol.weight(instance);
                ArmRun {
                    report: arm_report("medium", ArmOutcome::Completed, weight, &medium_b, None),
                    solution: Some(sol),
                }
            }
            Ok(Err(e)) => ArmRun {
                report: arm_report("medium", failure_outcome(&e), 0, &medium_b, None),
                solution: None,
            },
            Err(_panic) => ArmRun {
                report: arm_report("medium", ArmOutcome::Panicked, 0, &medium_b, None),
                solution: None,
            },
        });
        arms.push(match large_r {
            // `Ok(None)` is the rectangle solver's own state budget giving
            // up — substitute greedy on the large ids.
            Ok(Ok(opt)) => {
                let (sol, fallback) = match opt {
                    Some(sol) => (sol, None),
                    None => (greedy_sap_best(instance, &classified.large), Some("greedy")),
                };
                let weight = sol.weight(instance);
                ArmRun {
                    report: arm_report("large", ArmOutcome::Completed, weight, &large_b, fallback),
                    solution: Some(sol),
                }
            }
            Ok(Err(e)) => ArmRun {
                report: arm_report("large", failure_outcome(&e), 0, &large_b, None),
                solution: None,
            },
            Err(_panic) => ArmRun {
                report: arm_report("large", ArmOutcome::Panicked, 0, &large_b, None),
                solution: None,
            },
        });
    } else {
        // The budget tripped before dispatch: every arm is exhausted by
        // fiat and greedy answers. The reports still read the (untouched)
        // child budgets, so any work an arm might have consumed is
        // attributed rather than silently zeroed.
        for (arm, child) in
            [("small", &small_b), ("medium", &medium_b), ("large", &large_b)]
        {
            arms.push(ArmRun {
                report: arm_report(arm, ArmOutcome::BudgetExhausted, 0, child, None),
                solution: None,
            });
        }
    }

    // Greedy over all ids joins the candidates when an arm with tasks did
    // not complete, or when no arm produced a solution at all (the budget
    // tripped before dispatch). It needs no budget and cannot fail.
    let arm_tasks = [&classified.small, &classified.medium, &classified.large];
    let arm_failed = arms.iter().zip(arm_tasks).any(|(run, tasks)| {
        !tasks.is_empty()
            && matches!(run.report.outcome, ArmOutcome::BudgetExhausted | ArmOutcome::Panicked)
    });
    let mut fallbacks: Vec<&'static str> = Vec::new();
    if arm_failed || arms.iter().all(|run| run.solution.is_none()) {
        fallbacks.push("greedy");
        let _phase = tele.span("greedy");
        let sol = greedy_sap_best(instance, ids);
        let weight = sol.weight(instance);
        arms.push(ArmRun { report: greedy_report(weight), solution: Some(sol) });
    }

    // Winner: first of [small, medium, large, greedy] attaining the
    // maximum weight, among the candidates that produced a solution — so
    // ties go to the portfolio arms.
    let mut best: Option<(&'static str, SapSolution)> = None;
    // lint:allow(b1) — at most four fixed candidates; the per-arm work
    // was metered inside the solves that produced them.
    for run in &mut arms {
        if let Some(sol) = run.solution.take() {
            let better = match &best {
                Some((_, b)) => run.report.weight > b.weight(instance),
                None => true,
            };
            if better {
                best = Some((run.report.arm, sol));
            }
        }
    }
    let reports: Vec<ArmReport> = arms.into_iter().map(|r| r.report).collect();

    // lint:allow(p1) — greedy joins whenever no arm produced a solution.
    let (winner, solution) = best.expect("greedy joins when no arm produced a solution");
    debug_assert!(solution.validate(instance).is_ok());
    let weight = solution.weight(instance);
    let work_consumed = budget.consumed()
        + small_b.consumed()
        + medium_b.consumed()
        + large_b.consumed();
    let checkpoints = budget.checkpoints_passed()
        + small_b.checkpoints_passed()
        + medium_b.checkpoints_passed()
        + large_b.checkpoints_passed();
    // Mirror each arm's outcome onto its phase node, so a service-level
    // profile merged from many solves (crate::obs in sap-core) can read
    // per-arm completion/exhaustion rates without re-parsing reports.
    // lint:allow(b1) — fixed handful of arms, one counter bump each;
    // the arms' own work was metered while they ran.
    for r in &reports {
        note_arm_outcome(&tele.child(r.arm), r.outcome);
    }

    let report = SolveReport {
        arms: reports,
        fallbacks,
        winner,
        weight,
        work_consumed,
        driver_work: budget.consumed(),
        checkpoints,
    };
    debug_assert!(report.work_is_attributed(), "report loses work: {report:?}");
    (solution, report)
}

/// Bumps the arm-phase counter matching `outcome` (no-op without a
/// recorder). Names are registered in the DESIGN.md §9 counter table.
fn note_arm_outcome(tele: &sap_core::Telemetry, outcome: ArmOutcome) {
    match outcome {
        ArmOutcome::Completed => tele.count("arm.completed", 1),
        ArmOutcome::BudgetExhausted => tele.count("arm.budget_exhausted", 1),
        ArmOutcome::LpNonOptimal => tele.count("arm.lp_non_optimal", 1),
        ArmOutcome::Panicked => tele.count("arm.panicked", 1),
    }
}

/// Budgeted counterpart of the practical facade: the driver's answer,
/// replaced by unbudgeted greedy first-fit when greedy is strictly
/// heavier (greedy carries no approximation guarantee, so the
/// driver/combined side wins ties). The replacement is recorded in the
/// report as a `"greedy"` arm and winner. When the driver already ran
/// greedy as its fallback, its answer is returned unchanged, so greedy
/// runs at most once per request.
pub fn try_solve_practical(
    instance: &Instance,
    ids: &[TaskId],
    params: &SapParams,
    budget: &Budget,
) -> (SapSolution, SolveReport) {
    let (sol, mut report) = try_solve(instance, ids, params, budget);
    if report.fallbacks.contains(&"greedy") {
        return (sol, report);
    }
    let greedy = {
        let _phase = budget.telemetry().span("greedy");
        greedy_sap_best(instance, ids)
    };
    let gw = greedy.weight(instance);
    debug_assert!(greedy.validate(instance).is_ok());
    if gw > report.weight {
        report.arms.push(greedy_report(gw));
        note_arm_outcome(&budget.telemetry().child("greedy"), ArmOutcome::Completed);
        report.winner = "greedy";
        report.weight = gw;
        return (greedy, report);
    }
    (sol, report)
}

/// The combined algorithm's three-way split, restricted to `ids`.
fn classify_restricted(
    instance: &Instance,
    ids: &[TaskId],
    params: &SapParams,
) -> ClassifiedTasks {
    let all = classify_by_size(instance, params.delta_small, params.delta_large);
    let wanted: std::collections::HashSet<TaskId> = ids.iter().copied().collect();
    ClassifiedTasks {
        small: all.small.into_iter().filter(|j| wanted.contains(j)).collect(),
        medium: all.medium.into_iter().filter(|j| wanted.contains(j)).collect(),
        large: all.large.into_iter().filter(|j| wanted.contains(j)).collect(),
    }
}

/// The report entry of a greedy run: greedy meters no work units.
fn greedy_report(weight: u64) -> ArmReport {
    ArmReport {
        arm: "greedy",
        outcome: ArmOutcome::Completed,
        weight,
        work_consumed: 0,
        work: WorkProfile::default(),
        fallback: None,
    }
}

fn arm_report(
    arm: &'static str,
    outcome: ArmOutcome,
    weight: u64,
    child: &Budget,
    fallback: Option<&'static str>,
) -> ArmReport {
    ArmReport {
        arm,
        outcome,
        weight,
        work_consumed: child.consumed(),
        work: child.work_profile(),
        fallback,
    }
}

/// Maps a propagated solver error to the arm outcome it represents.
///
/// `try_*` arms only surface [`SapError::BudgetExhausted`]; any other
/// variant would indicate an internal bug, recorded as `Panicked` so it
/// can never masquerade as a clean completion.
fn failure_outcome(e: &SapError) -> ArmOutcome {
    match e {
        SapError::BudgetExhausted => ArmOutcome::BudgetExhausted,
        _ => ArmOutcome::Panicked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sap_core::{PathNetwork, Task};

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
    fn unlimited_budget_runs_every_arm_without_fallbacks() {
        for seed in 0..5 {
            let inst = mixed_instance(seed, 6, 30);
            let (sol, report) =
                try_solve(&inst, &inst.all_ids(), &SapParams::default(), &Budget::unlimited());
            sol.validate(&inst).unwrap();
            assert!(report.is_clean(), "seed {seed}");
            assert!(report.fallbacks.is_empty());
            assert_eq!(report.arms.len(), 3);
            assert_eq!(report.weight, sol.weight(&inst));
            assert_eq!(report.arm(report.winner).unwrap().weight, report.weight);
        }
    }

    #[test]
    fn zero_work_budget_degrades_to_greedy_and_reports_it() {
        let inst = mixed_instance(7, 6, 30);
        let ids = inst.all_ids();
        let budget = Budget::unlimited().with_work_units(0);
        let (sol, report) =
            try_solve(&inst, &ids, &SapParams::default(), &budget);
        sol.validate(&inst).unwrap();
        assert!(!sol.is_empty());
        assert_eq!(report.winner, "greedy");
        assert_eq!(report.fallbacks, vec!["greedy"]);
        assert!(!report.is_clean());
        for arm in ["small", "medium", "large"] {
            assert_eq!(report.arm(arm).unwrap().outcome, ArmOutcome::BudgetExhausted);
        }
        assert_eq!(report.weight, sol.weight(&inst));
    }

    #[test]
    fn cancelled_budget_still_yields_feasible_solution() {
        let inst = mixed_instance(11, 5, 20);
        let ids = inst.all_ids();
        let budget = Budget::unlimited();
        budget.cancel();
        let (sol, report) =
            try_solve(&inst, &ids, &SapParams::default(), &budget);
        sol.validate(&inst).unwrap();
        assert_eq!(report.winner, "greedy");
    }

    #[test]
    fn practical_never_below_greedy() {
        for seed in 0..5 {
            let inst = mixed_instance(seed + 50, 6, 25);
            let ids = inst.all_ids();
            let (sol, report) = try_solve_practical(
                &inst,
                &ids,
                &SapParams::default(),
                &Budget::unlimited(),
            );
            let gw = greedy_sap_best(&inst, &ids).weight(&inst);
            assert!(sol.weight(&inst) >= gw, "seed {seed}");
            assert_eq!(report.weight, sol.weight(&inst));
        }
    }

    #[test]
    fn report_json_is_single_line_and_stable() {
        let inst = mixed_instance(3, 5, 15);
        let ids = inst.all_ids();
        let (_, r1) =
            try_solve(&inst, &ids, &SapParams::default(), &Budget::unlimited());
        let json = r1.to_json_string();
        assert!(!json.contains('\n'));
        assert!(json.contains("\"winner\":"));
        assert!(json.contains("\"arms\":["));
    }
}
