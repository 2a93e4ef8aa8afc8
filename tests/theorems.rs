//! End-to-end verification of each theorem's guarantee on seeded random
//! instances (the full measured curves live in the bench suite / report;
//! these tests assert the *bounds* so regressions fail loudly).

use storage_alloc::prelude::*;
use storage_alloc::lp_solver::SimplexOptions;
use storage_alloc::sap_algs::{
    self, is_sap_feasible, solve_exact_sap, try_solve_large, try_solve_medium_with_stats,
    try_solve_small, ExactConfig, MediumParams,
};
use storage_alloc::sap_core::Budget;
use storage_alloc::sap_gen::{generate, CapacityProfile, DemandRegime, GenConfig};
use storage_alloc::ufpp;

fn opt(inst: &Instance) -> u64 {
    solve_exact_sap(inst, &inst.all_ids(), ExactConfig::default(), &Budget::unlimited())
        .unwrap()
        .optimal()
        .expect("state budget")
        .weight(inst)
}

/// Theorem 1 (measured): Strip-Pack stays within 4+ε of the LP bound on
/// δ-small workloads. The LP bound over-estimates OPT, so this is
/// conservative.
#[test]
fn theorem1_small_ratio_vs_lp() {
    for seed in 0..4 {
        let cfg = GenConfig {
            num_edges: 12,
            num_tasks: 90,
            profile: CapacityProfile::Random { lo: 512, hi: 2047 },
            regime: DemandRegime::Small { delta_inv: 32 },
            max_span: 6,
            max_weight: 60,
        };
        let inst = generate(&cfg, seed);
        let ids = inst.all_ids();
        let opts = SimplexOptions::default();
        let sol =
            try_solve_small(&inst, &ids, SmallAlgo::LpRounding, opts, 0, &Budget::unlimited())
                .unwrap()
                .solution;
        sol.validate(&inst).unwrap();
        let (_, lp) = ufpp::lp_upper_bound(&inst, &ids);
        let w = sol.weight(&inst) as f64;
        assert!(
            4.5 * w >= lp,
            "seed {seed}: strip-pack {w} vs LP {lp} exceeds 4+ε"
        );
    }
}

/// Theorem 2: the medium algorithm is within (1+ε)·2 of OPT (here
/// ε = q/ℓ = ½ ⇒ bound 3) on δ-large, ½-small instances.
#[test]
fn theorem2_medium_ratio_vs_exact() {
    for seed in 0..4 {
        let cfg = GenConfig {
            num_edges: 5,
            num_tasks: 12,
            profile: CapacityProfile::Random { lo: 64, hi: 255 },
            regime: DemandRegime::Medium { delta_inv: 8 },
            max_span: 4,
            max_weight: 40,
        };
        let inst = generate(&cfg, seed + 100);
        let ids = inst.all_ids();
        let params = MediumParams::default();
        let (sol, _) =
            try_solve_medium_with_stats(&inst, &ids, params, 0, &Budget::unlimited()).unwrap();
        sol.validate(&inst).unwrap();
        let w = sol.weight(&inst);
        let o = opt(&inst);
        assert!(3 * w >= o, "seed {seed}: medium {w} vs opt {o}");
    }
}

/// Theorem 3: the rectangle-packing algorithm is within 2k−1 = 3 of OPT
/// on ½-large instances, and within 1 on 1-demand-equals-bottleneck
/// instances.
#[test]
fn theorem3_large_ratio_vs_exact() {
    for seed in 0..4 {
        let cfg = GenConfig {
            num_edges: 6,
            num_tasks: 12,
            profile: CapacityProfile::Random { lo: 16, hi: 63 },
            regime: DemandRegime::Large { k: 2 },
            max_span: 4,
            max_weight: 40,
        };
        let inst = generate(&cfg, seed + 200);
        let ids = inst.all_ids();
        let sol = try_solve_large(&inst, &ids, &Budget::unlimited()).unwrap().expect("budget");
        sol.validate(&inst).unwrap();
        let w = sol.weight(&inst);
        let o = opt(&inst);
        assert!(3 * w >= o, "seed {seed}: large {w} vs opt {o}");
    }
}

/// Theorem 4: the combined algorithm is within 9+ε of OPT on mixed
/// workloads (measured: usually far better).
#[test]
fn theorem4_combined_ratio_vs_exact() {
    for seed in 0..4 {
        let cfg = GenConfig {
            num_edges: 5,
            num_tasks: 11,
            profile: CapacityProfile::Random { lo: 32, hi: 127 },
            regime: DemandRegime::Mixed,
            max_span: 4,
            max_weight: 40,
        };
        let inst = generate(&cfg, seed + 300);
        let sol = storage_alloc::solve_sap(&inst);
        sol.validate(&inst).unwrap();
        let w = sol.weight(&inst);
        let o = opt(&inst);
        assert!(10 * w >= o, "seed {seed}: combined {w} vs opt {o}");
        assert!(w <= o, "an approximation can never beat the exact optimum");
    }
}

/// Theorem 5: the ring algorithm is within 10+ε of the exact ring optimum.
#[test]
fn theorem5_ring_ratio_vs_exact() {
    use storage_alloc::sap_gen::{generate_ring, RingGenConfig};
    for seed in 0..3 {
        let cfg = RingGenConfig {
            num_edges: 6,
            num_tasks: 9,
            profile: CapacityProfile::Random { lo: 8, hi: 40 },
            max_demand: 40,
            max_weight: 30,
        };
        let inst = generate_ring(&cfg, seed + 400);
        let (sol, _) = sap_algs::solve_ring(&inst, &RingParams::default());
        sol.validate(&inst).unwrap();
        let exact = sap_bench::oracles::solve_ring_exact(&inst);
        let w = sol.weight(&inst);
        let o = exact.weight(&inst);
        assert!(11 * w >= o, "seed {seed}: ring {w} vs opt {o}");
        assert!(w <= o);
    }
}

/// Lemma 3: the best-of-split bound — on any instance the combined
/// algorithm's weight is at least each regime algorithm's weight run on
/// its own regime subset.
#[test]
fn lemma3_best_of_split_dominates_components() {
    let cfg = GenConfig {
        num_edges: 8,
        num_tasks: 40,
        profile: CapacityProfile::RandomWalk { lo: 64, hi: 512 },
        regime: DemandRegime::Mixed,
        max_span: 5,
        max_weight: 50,
    };
    let inst = generate(&cfg, 500);
    let params = SapParams::default();
    let (sol, report) =
        sap_algs::try_solve(&inst, &inst.all_ids(), &params, &Budget::unlimited());
    let w = sol.weight(&inst);
    let arm = |name| report.arm(name).expect("arm ran").weight;
    assert_eq!(w, arm("small").max(arm("medium")).max(arm("large")));
}

/// The exact solver agrees with the UFPP exact solver on instances where
/// SAP = UFPP (single edge ⇒ heights are free: any load-feasible set
/// stacks).
#[test]
fn exact_sap_equals_knapsack_on_single_edge() {
    let net = PathNetwork::new(vec![25]).unwrap();
    let tasks: Vec<Task> = (0..10)
        .map(|i| Task::of(0, 1, 2 + (i % 5), 3 + (i * 7) % 11))
        .collect();
    let inst = Instance::new(net, tasks).unwrap();
    let sap = opt(&inst);
    let ufpp_sol = sap_bench::oracles::ufpp::solve_exact(&inst, &inst.all_ids());
    assert_eq!(sap, ufpp_sol.weight(&inst));
}

/// Feasibility of the empty and full extremes.
#[test]
fn degenerate_inputs() {
    let net = PathNetwork::uniform(3, 100).unwrap();
    let inst = Instance::new(net, vec![Task::of(0, 3, 1, 1)]).unwrap();
    assert!(is_sap_feasible(&inst, &[]));
    assert!(is_sap_feasible(&inst, &[0]));
    let sol = storage_alloc::solve_sap(&inst);
    assert_eq!(sol.len(), 1);
}
