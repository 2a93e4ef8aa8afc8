//! Every algorithm against the adversarial generator families — the
//! instances with *known* optimal structure, where wrong answers are
//! unambiguous.

use storage_alloc::prelude::*;
use storage_alloc::sap_algs::{
    self, baselines::greedy_sap, baselines::GreedyOrder, solve_exact_sap, ExactConfig,
};
use storage_alloc::sap_core::{SolveReport, WorkProfile};
use storage_alloc::sap_gen::{
    blocker, comb, generate, generate_trace, knapsack_core, long_path, staircase_tower,
    CapacityProfile, DemandRegime, GenConfig, TraceConfig,
};

fn exact(inst: &Instance, ids: &[TaskId]) -> SapSolution {
    solve_exact_sap(inst, ids, ExactConfig::default(), &Budget::unlimited())
        .unwrap()
        .optimal()
        .expect("state budget")
}

#[test]
fn blocker_family_exact_values() {
    for field in [4u64, 8, 12] {
        let inst = blocker(field);
        // Exact optimum is the field.
        let opt = exact(&inst, &inst.all_ids()).weight(&inst);
        assert_eq!(opt, field);
        // Greedy-by-weight falls into the trap.
        let trap = greedy_sap(&inst, &inst.all_ids(), GreedyOrder::WeightDesc);
        assert_eq!(trap.weight(&inst), field - 1);
        // The combined algorithm escapes it (all tasks are 1-large, the
        // rectangle solver is exact there).
        let combined = storage_alloc::solve_sap(&inst);
        assert_eq!(combined.weight(&inst), field);
    }
}

#[test]
fn knapsack_core_matches_knapsack_solvers() {
    let items = [(6u64, 60u64), (5, 50), (5, 50), (3, 20), (2, 25)];
    let inst = knapsack_core(10, &items);
    let sap_opt = exact(&inst, &inst.all_ids()).weight(&inst);
    let ks_items: Vec<knapsack::Item> =
        items.iter().map(|&(size, weight)| knapsack::Item { size, weight }).collect();
    let ks_opt = knapsack::solve_exact_by_capacity(&ks_items, 10).weight;
    assert_eq!(sap_opt, ks_opt, "single-edge SAP is exactly knapsack");
    let bb = knapsack::solve_exact_branch_and_bound(&ks_items, 10).weight;
    assert_eq!(bb, ks_opt);
}

#[test]
fn staircase_tower_is_fully_schedulable_and_found() {
    let inst = staircase_tower(6);
    let all = inst.all_ids();
    let opt = exact(&inst, &all);
    assert_eq!(opt.len(), inst.num_tasks(), "the tower nests completely");
    // Strip-Pack alone also schedules a fair share: every task is exactly
    // ½-large so the small algorithm gets nothing — use combined.
    let combined = storage_alloc::solve_sap(&inst);
    combined.validate(&inst).unwrap();
    assert!(combined.weight(&inst) * 3 >= opt.weight(&inst), "within the large-task factor");
}

#[test]
fn comb_is_solved_exactly_by_practical() {
    let inst = comb(4);
    let sol = storage_alloc::solve_sap_practical(&inst);
    sol.validate(&inst).unwrap();
    // Total weight = spine (4) + 8 teeth (1 each) = 12; everything packs.
    assert_eq!(sol.weight(&inst), inst.weight_sum());
}

/// `report` with the large arm's metered work taken out of the arm and
/// of the totals (every `pack_sweep` checkpoint charges one unit).
fn without_large_arm_work(mut report: SolveReport) -> SolveReport {
    for arm in report.arms.iter_mut().filter(|a| a.arm == "large") {
        report.work_consumed -= arm.work_consumed;
        report.checkpoints -= arm.work_consumed;
        arm.work_consumed = 0;
        arm.work = WorkProfile::default();
    }
    report
}

#[test]
fn long_paths_answer_like_their_short_twins() {
    // Padding a 12-edge instance with edges that no task touches must
    // change nothing that scales with the padding: per regime,
    // `combined` and `practical` return the short twin's solution, and
    // 1,000 and 200,000 edges give byte-identical reports. Those equal
    // the short twin's except for the large arm's `pack_sweep` units:
    // the rectangle MWIS charges one unit per edge range it sweeps, and
    // the padding adds a few ranges that hold no task.
    type Solve = fn(&Instance, &Budget) -> SapResult<(SapSolution, SolveReport)>;
    let modes: [(&str, Solve); 2] = [
        ("combined", storage_alloc::try_solve_sap),
        ("practical", storage_alloc::try_solve_sap_practical),
    ];
    for regime in [
        DemandRegime::Small { delta_inv: 16 },
        DemandRegime::Medium { delta_inv: 8 },
        DemandRegime::Large { k: 2 },
        DemandRegime::Mixed,
    ] {
        let short = generate(
            &GenConfig {
                num_edges: 12,
                num_tasks: 24,
                profile: CapacityProfile::RandomWalk { lo: 64, hi: 1024 },
                regime,
                max_span: 6,
                max_weight: 100,
            },
            5,
        );
        let (near, far) = (long_path(&short, 1_000), long_path(&short, 200_000));
        for (mode, solve) in modes {
            let (short_sol, short_report) = solve(&short, &Budget::unlimited()).unwrap();
            let (near_sol, near_report) = solve(&near, &Budget::unlimited()).unwrap();
            let (far_sol, far_report) = solve(&far, &Budget::unlimited()).unwrap();
            far_sol.validate(&far).unwrap();
            assert!(!short_sol.is_empty(), "{regime:?} {mode}: vacuous");
            assert_eq!(near_sol, short_sol, "{regime:?} {mode}: solution");
            assert_eq!(far_sol, short_sol, "{regime:?} {mode}: solution");
            assert_eq!(
                far_report.to_json_string(),
                near_report.to_json_string(),
                "{regime:?} {mode}: report moves with the padding"
            );
            assert_eq!(
                without_large_arm_work(far_report).to_json_string(),
                without_large_arm_work(short_report).to_json_string(),
                "{regime:?} {mode}: report"
            );
        }
    }
}

#[test]
fn trace_workloads_run_through_the_full_pipeline() {
    let cfg = TraceConfig { slots: 32, arrivals_per_slot: 3.0, ..Default::default() };
    let inst = generate_trace(&cfg, 9);
    let sol = storage_alloc::solve_sap_practical(&inst);
    sol.validate(&inst).unwrap();
    assert!(!sol.is_empty());
    let stats = storage_alloc::sap_core::solution_stats(&inst, &sol);
    assert!(stats.max_utilization <= 1.0 + 1e-9);
    assert!(stats.weight.0 <= stats.weight.1);
    // Ring sanity on the same shapes.
    let ring = sap_algs::solve_ring(
        &storage_alloc::sap_gen::generate_ring(
            &storage_alloc::sap_gen::RingGenConfig {
                num_edges: 12,
                num_tasks: 60,
                profile: storage_alloc::sap_gen::CapacityProfile::Uniform(1 << 12),
                max_demand: 1 << 10,
                max_weight: 50,
            },
            9,
        ),
        &RingParams::default(),
    );
    assert!(ring.0.len() > 0);
}
