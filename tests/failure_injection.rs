//! Failure injection: corrupt solutions in every possible way and verify
//! the validators reject each corruption with the right error. The
//! validators are the trust anchor of the whole reproduction (every
//! algorithm's output passes through them), so they get adversarial
//! treatment of their own.

use storage_alloc::prelude::*;
use storage_alloc::sap_core::SapError;
use storage_alloc::sap_gen::{generate, CapacityProfile, DemandRegime, GenConfig};

fn workload(seed: u64) -> Instance {
    generate(
        &GenConfig {
            num_edges: 10,
            num_tasks: 40,
            profile: CapacityProfile::Random { lo: 16, hi: 64 },
            regime: DemandRegime::Mixed,
            max_span: 5,
            max_weight: 30,
        },
        seed,
    )
}

fn solved(seed: u64) -> (Instance, SapSolution) {
    let inst = workload(seed);
    let sol = storage_alloc::solve_sap_practical(&inst);
    assert!(sol.len() >= 2, "need at least two placements to corrupt");
    (inst, sol)
}

#[test]
fn raising_a_task_above_its_bottleneck_is_caught() {
    let (inst, sol) = solved(1);
    for i in 0..sol.len() {
        let mut bad = sol.clone();
        let task = bad.placements[i].task;
        bad.placements[i].height = inst.bottleneck(task) - inst.demand(task) + 1;
        let err = bad.validate(&inst).unwrap_err();
        assert!(
            matches!(
                err,
                SapError::PlacementAboveCapacity { .. } | SapError::OverlappingPlacements { .. }
            ),
            "corruption {i} must be rejected, got {err:?}"
        );
    }
}

#[test]
fn forcing_two_overlapping_tasks_to_equal_heights_is_caught() {
    let (inst, sol) = solved(2);
    // Find two placements with overlapping spans and force a collision.
    let mut found = false;
    'outer: for i in 0..sol.len() {
        for j in i + 1..sol.len() {
            let (a, b) = (sol.placements[i], sol.placements[j]);
            if inst.span(a.task).overlaps(inst.span(b.task)) {
                let mut bad = sol.clone();
                bad.placements[j].height = bad.placements[i].height;
                assert!(bad.validate(&inst).is_err());
                found = true;
                break 'outer;
            }
        }
    }
    assert!(found, "workload should contain overlapping selections");
}

#[test]
fn duplicate_selection_is_caught() {
    let (inst, sol) = solved(3);
    let mut bad = sol.clone();
    let dup = bad.placements[0];
    bad.placements.push(dup);
    assert_eq!(
        bad.validate(&inst).unwrap_err(),
        SapError::DuplicateTask { task: dup.task }
    );
}

#[test]
fn unknown_task_id_is_caught() {
    let (inst, sol) = solved(4);
    let mut bad = sol.clone();
    bad.placements[0].task = inst.num_tasks() + 7;
    assert_eq!(
        bad.validate(&inst).unwrap_err(),
        SapError::UnknownTask { task: inst.num_tasks() + 7 }
    );
}

#[test]
fn height_overflow_is_caught_not_wrapped() {
    let (inst, sol) = solved(5);
    let mut bad = sol.clone();
    bad.placements[0].height = u64::MAX - 1;
    let err = bad.validate(&inst).unwrap_err();
    assert!(matches!(err, SapError::Overflow | SapError::PlacementAboveCapacity { .. }));
}

#[test]
fn ufpp_overload_is_caught_with_edge_report() {
    let inst = workload(6);
    // Select everything — guaranteed to overload some edge.
    let all = UfppSolution::new(inst.all_ids());
    match all.validate(&inst) {
        Err(SapError::LoadExceedsCapacity { edge, load, capacity }) => {
            assert!(load > capacity);
            assert_eq!(inst.loads(&all.tasks)[edge], load);
        }
        other => panic!("expected overload, got {other:?}"),
    }
}

#[test]
fn ring_validator_rejects_wrong_arc() {
    use storage_alloc::sap_core::ring::{
        ArcChoice, RingInstance, RingNetwork, RingPlacement, RingSolution, RingTask,
    };
    let net = RingNetwork::new(vec![8, 2, 8, 8]).unwrap();
    let inst = RingInstance::new(net, vec![RingTask::of(0, 2, 5, 1)]).unwrap();
    // Clockwise (edges 0,1) crosses the capacity-2 edge: must fail.
    let cw = RingSolution::new(vec![RingPlacement {
        task: 0,
        arc: ArcChoice::Clockwise,
        height: 0,
    }]);
    assert!(cw.validate(&inst).is_err());
    // Counter-clockwise (edges 2,3) fits.
    let ccw = RingSolution::new(vec![RingPlacement {
        task: 0,
        arc: ArcChoice::CounterClockwise,
        height: 0,
    }]);
    ccw.validate(&inst).unwrap();
}

/// Report integrity under injected faults: an arm that was corrupted
/// (panicked or starved) must never be reported as `Completed`, and the
/// report's winner/weight must always describe the returned solution.
/// The complementary sweep lives in `tests/chaos.rs`; these cases pin the
/// *absence of misreporting* specifically.
#[cfg(feature = "fault-injection")]
mod report_integrity {
    use super::workload;
    use storage_alloc::sap_algs::try_solve;
    use storage_alloc::sap_core::{ArmOutcome, Budget, CheckpointClass, FaultPlan};
    use storage_alloc::prelude::*;

    #[test]
    fn a_panicked_arm_is_never_reported_completed() {
        let inst = workload(31);
        for idx in 0..3usize {
            let plan = FaultPlan { panic_worker: Some(idx), ..Default::default() };
            let budget = Budget::unlimited().with_fault_plan(plan);
            let (sol, report) =
                try_solve(&inst, &inst.all_ids(), &SapParams::default(), &budget);
            sol.validate(&inst).unwrap();
            let arm = report.arm(["small", "medium", "large"][idx]).unwrap();
            assert_eq!(arm.outcome, ArmOutcome::Panicked, "worker {idx}: {report:?}");
            assert_eq!(arm.weight, 0, "a dead arm cannot carry weight");
            assert!(!report.is_clean());
        }
    }

    #[test]
    fn a_starved_arm_is_never_reported_completed() {
        let inst = workload(32);
        // Exhaust on the first DP row: the medium arm's sub-solvers trip.
        let plan = FaultPlan {
            exhaust_at: Some((Some(CheckpointClass::DpRow), 1)),
            ..Default::default()
        };
        let budget = Budget::unlimited().with_fault_plan(plan);
        let (sol, report) =
            try_solve(&inst, &inst.all_ids(), &SapParams::default(), &budget);
        sol.validate(&inst).unwrap();
        let medium = report.arm("medium").unwrap();
        assert_eq!(medium.outcome, ArmOutcome::BudgetExhausted, "{report:?}");
        assert_eq!(medium.weight, 0);
        assert_ne!(report.winner, "medium");
        assert_eq!(report.weight, sol.weight(&inst));
    }

    #[test]
    fn a_panicked_arm_still_has_its_work_attributed() {
        // Regression for the child-budget accounting audit: whatever a
        // worker consumed before its injected panic must appear in its
        // ArmReport (and in the phase tree), never be silently dropped.
        use storage_alloc::sap_core::Recorder;
        let inst = workload(34);
        for idx in 0..3usize {
            let plan = FaultPlan { panic_worker: Some(idx), ..Default::default() };
            let rec = Recorder::new();
            let budget = Budget::unlimited()
                .with_fault_plan(plan)
                .with_telemetry(rec.handle());
            let (sol, report) =
                try_solve(&inst, &inst.all_ids(), &SapParams::default(), &budget);
            sol.validate(&inst).unwrap();
            assert!(report.work_is_attributed(), "worker {idx}: {report:?}");
            let arm = ["small", "medium", "large"][idx];
            // The phase was entered before the fault hook fired, so the
            // tree records the attempt even though the arm died at once.
            let phase = rec.handle().get_child(arm).expect("phase node exists");
            assert_eq!(phase.entries(), 1, "worker {idx}");
            assert_eq!(
                phase.work_total(),
                report.arm(arm).unwrap().work_consumed,
                "worker {idx}: telemetry conserves the dead arm's work"
            );
        }
    }

    #[test]
    fn a_starved_arm_still_reports_the_work_it_burned() {
        let inst = workload(35);
        // Let a few DP rows through before tripping, so the starved arm
        // has non-zero consumption to account for.
        let plan = FaultPlan {
            exhaust_at: Some((Some(CheckpointClass::DpRow), 3)),
            ..Default::default()
        };
        let budget = Budget::unlimited().with_fault_plan(plan);
        let (sol, report) =
            try_solve(&inst, &inst.all_ids(), &SapParams::default(), &budget);
        sol.validate(&inst).unwrap();
        assert!(report.work_is_attributed(), "{report:?}");
        let medium = report.arm("medium").unwrap();
        assert_eq!(medium.outcome, ArmOutcome::BudgetExhausted, "{report:?}");
        assert!(
            medium.work_consumed > 0,
            "the starved arm burned DP rows before tripping: {report:?}"
        );
        assert_eq!(
            medium.work.total(),
            medium.work_consumed,
            "per-class split covers everything: {report:?}"
        );
    }

    #[test]
    fn an_lp_starved_arm_is_labelled_not_silently_rounded() {
        use storage_alloc::sap_gen::{generate, CapacityProfile, DemandRegime, GenConfig};
        let inst = generate(
            &GenConfig {
                num_edges: 8,
                num_tasks: 30,
                profile: CapacityProfile::Random { lo: 32, hi: 128 },
                regime: DemandRegime::Small { delta_inv: 16 },
                max_span: 4,
                max_weight: 30,
            },
            33,
        );
        let plan = FaultPlan { fail_lp_solve: Some(1), ..Default::default() };
        let budget = Budget::unlimited().with_fault_plan(plan);
        let (sol, report) =
            try_solve(&inst, &inst.all_ids(), &SapParams::default(), &budget);
        sol.validate(&inst).unwrap();
        let small = report.arm("small").unwrap();
        assert_eq!(small.outcome, ArmOutcome::LpNonOptimal, "{report:?}");
        assert_eq!(small.fallback, Some("greedy"));
        assert_ne!(small.outcome, ArmOutcome::Completed);
    }
}

#[test]
fn validators_agree_with_dto_round_trip() {
    use storage_alloc::io::{InstanceDto, JsonDto, SolutionDto};
    let (inst, sol) = solved(7);
    let json_inst = InstanceDto::from_instance(&inst).to_json_string();
    let json_sol = SolutionDto::from_solution(&inst, &sol).to_json_string();
    let inst2 = InstanceDto::from_json_str(&json_inst)
        .unwrap()
        .to_instance()
        .unwrap();
    let sol2 = SolutionDto::from_json_str(&json_sol).unwrap().to_solution();
    sol2.validate(&inst2).unwrap();
    assert_eq!(sol.weight(&inst), sol2.weight(&inst2));
}
