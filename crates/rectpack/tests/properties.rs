//! Seeded property tests for the rectangle substrate (hermetic
//! replacement for the old proptest suite): the exact MWIS equals brute
//! force, packings project to feasible SAP solutions, and the colouring
//! machinery stays within its degeneracy guarantee.
//!
//! Build with `--features proptest` to raise the iteration counts.

use rectpack::{
    degeneracy_order, greedy_coloring, intersection_graph, max_weight_packing,
    max_weight_packing_bruteforce, MwisConfig,
};
use sap_core::{Budget, Instance, PathNetwork, Span, Task};
use sap_gen::Rng64;

const CASES: u64 = if cfg!(feature = "proptest") { 768 } else { 144 };

fn arb_instance(rng: &mut Rng64) -> Instance {
    let m = rng.gen_range(2usize..=7);
    let n = rng.gen_range(1usize..=11);
    let caps: Vec<u64> = (0..m).map(|_| rng.gen_range(2u64..=16)).collect();
    let net = PathNetwork::new(caps).unwrap();
    let tasks: Vec<Task> = (0..n)
        .map(|_| {
            let lo = rng.gen_range(0..m);
            let len = rng.gen_range(1..=m);
            let hi = (lo + len).min(m).max(lo + 1);
            let b = net.bottleneck(Span::new(lo, hi).unwrap());
            let d = rng.gen_range(1u64..=16);
            Task::of(lo, hi, d.min(b).max(1), rng.gen_range(1u64..=20))
        })
        .collect();
    Instance::new(net, tasks).unwrap()
}

#[test]
fn exact_mwis_matches_bruteforce() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0x4ec7_0001 ^ case);
        let inst = arb_instance(&mut rng);
        let ids = inst.all_ids();
        let exact = max_weight_packing(&inst, &ids, MwisConfig::default(), &Budget::unlimited())
            .unwrap()
            .expect("budget");
        let brute = max_weight_packing_bruteforce(&inst, &ids);
        assert_eq!(inst.total_weight(&exact), inst.total_weight(&brute), "case {case}");
        assert!(rectpack::reduction::is_valid_packing(&inst, &exact), "case {case}");
    }
}

#[test]
fn packing_projects_to_feasible_sap() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0x4ec7_0002 ^ case);
        let inst = arb_instance(&mut rng);
        let ids = inst.all_ids();
        let exact = max_weight_packing(&inst, &ids, MwisConfig::default(), &Budget::unlimited())
            .unwrap()
            .expect("budget");
        let sol = rectpack::reduction::packing_to_sap(&inst, &exact);
        sol.validate(&inst).unwrap();
        // Each selected task sits exactly at its residual height.
        for p in &sol.placements {
            assert_eq!(p.height, inst.bottleneck(p.task) - inst.demand(p.task), "case {case}");
        }
    }
}

#[test]
fn coloring_stays_within_degeneracy() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0x4ec7_0003 ^ case);
        let inst = arb_instance(&mut rng);
        let ids = inst.all_ids();
        let adj = intersection_graph(&inst, &ids);
        let (order, degeneracy) = degeneracy_order(&adj);
        let colors = greedy_coloring(&adj, &order);
        assert!(rectpack::coloring::is_proper(&adj, &colors), "case {case}");
        assert!(rectpack::coloring::num_colors(&colors) <= degeneracy + 1, "case {case}");
    }
}

/// Rect disjointness is symmetric and matches the geometric predicate.
#[test]
fn disjointness_symmetry() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0x4ec7_0004 ^ case);
        let inst = arb_instance(&mut rng);
        let ids = inst.all_ids();
        for &a in &ids {
            for &b in &ids {
                if a == b {
                    continue;
                }
                let ra = rectpack::rect_of(&inst, a);
                let rb = rectpack::rect_of(&inst, b);
                assert_eq!(
                    rectpack::rects_disjoint(&ra, &rb),
                    rectpack::rects_disjoint(&rb, &ra),
                    "case {case}"
                );
                let geo = !(ra.span.overlaps(rb.span) && ra.bottom < rb.top && rb.bottom < ra.top);
                assert_eq!(rectpack::rects_disjoint(&ra, &rb), geo, "case {case}");
            }
        }
    }
}
