//! Seeded property tests for the simplex (hermetic replacement for the
//! old proptest suite): on random packing LPs the solver must return a
//! feasible point whose optimality is certified by its own duals (weak
//! duality makes the certificate sound regardless of the pivoting path
//! taken).
//!
//! Build with `--features proptest` to raise the iteration counts.

mod dense;

use dense::solve_dense;
use lp_solver::{LpProblem, LpStatus, Scratch, SimplexOptions};
use sap_core::budget::Budget;
use sap_gen::Rng64;

const CASES: u64 = if cfg!(feature = "proptest") { 1024 } else { 192 };

#[derive(Debug, Clone)]
struct RandomLp {
    rhs: Vec<f64>,
    cols: Vec<(f64, Vec<(usize, f64)>)>, // (objective, entries)
}

fn build(lp: &RandomLp) -> LpProblem {
    let mut p = LpProblem::new(lp.rhs.clone());
    for (obj, entries) in &lp.cols {
        p.add_var(*obj, 1.0, entries);
    }
    p
}

fn arb_lp(rng: &mut Rng64) -> RandomLp {
    let m = rng.gen_range(1usize..=6);
    let n = rng.gen_range(1usize..=12);
    let rhs: Vec<f64> = (0..m).map(|_| rng.gen_range(0u64..50) as f64).collect();
    let cols = (0..n)
        .map(|_| {
            let obj = rng.gen_range(0u64..100) as f64 / 7.0;
            // deduplicate rows within a column (keep max coef)
            let mut per_row = std::collections::BTreeMap::new();
            for _ in 0..rng.gen_range(1usize..=m) {
                let r = rng.gen_range(0..m);
                let a = rng.gen_range(1u64..8) as f64;
                let e = per_row.entry(r).or_insert(0.0f64);
                *e = e.max(a);
            }
            (obj, per_row.into_iter().collect::<Vec<_>>())
        })
        .collect();
    RandomLp { rhs, cols }
}

/// A packing LP with `m` rows, `n` columns and ~2/3 density: large
/// enough that partial pricing scans several 32-wide segments.
fn ladder_lp(seed: u64, m: usize, n: usize) -> RandomLp {
    let mut rng = Rng64::seed_from_u64(seed ^ 0x1b_be4c_4a53);
    let rhs: Vec<f64> = (0..m).map(|_| rng.gen_range(5u64..80) as f64).collect();
    let cols = (0..n)
        .map(|_| {
            let obj = rng.gen_range(1u64..100) as f64 / 7.0;
            let mut entries = Vec::new();
            for r in 0..m {
                if rng.gen_range(0u64..3) > 0 {
                    entries.push((r, rng.gen_range(1u64..8) as f64));
                }
            }
            if entries.is_empty() {
                entries.push((0, 1.0));
            }
            (obj, entries)
        })
        .collect();
    RandomLp { rhs, cols }
}

/// Degenerate / stall-inducing family: duplicated columns with identical
/// objectives (massive reduced-cost ties), integer coefficients from a
/// tiny set, and some zero-capacity rows (any column touching one is
/// stuck at its lower bound, making many ratios tie at 0).
fn arb_degenerate_lp(rng: &mut Rng64) -> RandomLp {
    let mut lp = arb_lp(rng);
    for b in lp.rhs.iter_mut() {
        if rng.gen_range(0u64..4) == 0 {
            *b = 0.0;
        }
    }
    // Duplicate a prefix of the columns verbatim (same objective, same
    // entries) so Dantzig pricing sees exact ties.
    let dup = rng.gen_range(1usize..=lp.cols.len());
    for i in 0..dup {
        let col = lp.cols[i].clone();
        lp.cols.push(col);
    }
    lp
}

#[test]
fn solver_is_feasible_and_certified() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0x51a9_1e30 ^ case);
        let lp = arb_lp(&mut rng);
        let mut p = LpProblem::new(lp.rhs.clone());
        for (obj, entries) in &lp.cols {
            p.add_var(*obj, 1.0, entries);
        }
        let s = p.solve(0);
        assert_eq!(s.status, LpStatus::Optimal, "case {case}");
        assert!(p.is_feasible(&s.x, 1e-6), "case {case}");
        // Weak-duality certificate: gap ~ 0 at optimality.
        let gap = s.duality_gap(&p);
        assert!(gap.abs() < 1e-5, "case {case}: duality gap {gap}");
        // The dual objective bounds any feasible point, e.g. 0 and e_j.
        assert!(s.dual_objective(&p) >= -1e-9, "case {case}");
    }
}

#[test]
fn sparse_core_agrees_with_dense_oracle() {
    // The sparse eta-file core must reproduce the pre-sparse dense
    // solver's *solutions* — same status, objectives within tolerance,
    // both points feasible. (Pivot sequences may differ: partial pricing
    // is a different — equally valid — pricing rule.) Inputs: small
    // random LPs, then a size ladder up to 64 × 512.
    let ladder = [(8, 24), (16, 64), (32, 128), (48, 256), (64, 512)];
    let ladder = ladder.iter().flat_map(|&(m, n)| (0..2).map(move |seed| ladder_lp(seed, m, n)));
    let small = (0..CASES).map(|case| arb_lp(&mut Rng64::seed_from_u64(0xd1ff_0a11 ^ case)));
    for (case, lp) in small.chain(ladder).enumerate() {
        let p = build(&lp);
        let s = p.solve(0);
        let d = solve_dense(&p, 0);
        assert_eq!(s.status, d.status, "case {case}");
        assert_eq!(s.status, LpStatus::Optimal, "case {case}");
        let scale = 1.0 + s.objective.abs().max(d.objective.abs());
        assert!(
            (s.objective - d.objective).abs() < 1e-6 * scale,
            "case {case}: sparse {} vs dense {}",
            s.objective,
            d.objective
        );
        assert!(p.is_feasible(&s.x, 1e-6), "case {case}: sparse point");
        assert!(p.is_feasible(&d.x, 1e-6), "case {case}: dense point");
    }
}

#[test]
fn degenerate_families_agree_and_certify() {
    // Ties everywhere: duplicated columns and zero-capacity rows push
    // both solvers through their anti-cycling (Bland) fallbacks. They
    // must still terminate at certified optima that agree.
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0xdead_5742 ^ case);
        let lp = arb_degenerate_lp(&mut rng);
        let p = build(&lp);
        let s = p.solve(0);
        let d = solve_dense(&p, 0);
        assert_eq!(s.status, LpStatus::Optimal, "case {case}");
        assert_eq!(d.status, LpStatus::Optimal, "case {case}");
        assert!(p.is_feasible(&s.x, 1e-6), "case {case}");
        let gap = s.duality_gap(&p);
        assert!(gap.abs() < 1e-5, "case {case}: duality gap {gap}");
        let scale = 1.0 + s.objective.abs();
        assert!(
            (s.objective - d.objective).abs() < 1e-6 * scale,
            "case {case}: sparse {} vs dense {}",
            s.objective,
            d.objective
        );
    }
}

#[test]
fn eta_refactorization_does_not_drift() {
    // Long eta chains against a fresh factorization every pivot: with a
    // cadence of K=4 some instance must accumulate ≥ 10×K pivots between
    // start and finish (non-vacuity), and the eager cadence (K=1, a fresh
    // factorization before every pivot) must land on the same optimum.
    const K: usize = 4;
    let mut deepest = 0u64;
    for case in 0..CASES / 4 {
        let mut rng = Rng64::seed_from_u64(0xe7a0_d21f ^ case);
        // Larger than arb_lp so solves run long enough to be non-vacuous.
        let m = rng.gen_range(12usize..=20);
        let n = rng.gen_range(60usize..=120);
        let rhs: Vec<f64> = (0..m).map(|_| rng.gen_range(5u64..60) as f64).collect();
        let mut p = LpProblem::new(rhs);
        for _ in 0..n {
            let obj = rng.gen_range(1u64..100) as f64 / 7.0;
            let mut entries = Vec::new();
            for r in 0..m {
                if rng.gen_range(0u64..3) > 0 {
                    entries.push((r, rng.gen_range(1u64..8) as f64));
                }
            }
            if entries.is_empty() {
                entries.push((0, 1.0));
            }
            p.add_var(obj, 1.0, &entries);
        }
        let mut lazy = Scratch::new();
        let mut eager = Scratch::new();
        let unlimited = Budget::unlimited();
        let s_lazy = p
            .solve_with(
                SimplexOptions { refactor_every: K, ..SimplexOptions::default() },
                &unlimited,
                &mut lazy,
            )
            .unwrap();
        let s_eager = p
            .solve_with(
                SimplexOptions { refactor_every: 1, ..SimplexOptions::default() },
                &unlimited,
                &mut eager,
            )
            .unwrap();
        deepest = deepest.max(lazy.stats().etas);
        assert_eq!(s_lazy.status, LpStatus::Optimal, "case {case}");
        assert_eq!(s_eager.status, LpStatus::Optimal, "case {case}");
        let scale = 1.0 + s_lazy.objective.abs();
        assert!(
            (s_lazy.objective - s_eager.objective).abs() < 1e-6 * scale,
            "case {case}: K={K} drifted: {} vs fresh {}",
            s_lazy.objective,
            s_eager.objective
        );
        assert!(p.is_feasible(&s_lazy.x, 1e-6), "case {case}");
    }
    assert!(
        deepest >= (10 * K) as u64,
        "drift test is vacuous: deepest solve made only {deepest} pivots"
    );
}

#[test]
fn objective_monotone_in_capacity() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0x0b03_0702 ^ case);
        let lp = arb_lp(&mut rng);
        let mut p1 = LpProblem::new(lp.rhs.clone());
        let mut p2 = LpProblem::new(lp.rhs.iter().map(|b| b * 2.0).collect());
        for (obj, entries) in &lp.cols {
            p1.add_var(*obj, 1.0, entries);
            p2.add_var(*obj, 1.0, entries);
        }
        let s1 = p1.solve(0);
        let s2 = p2.solve(0);
        assert!(
            s2.objective + 1e-6 >= s1.objective,
            "case {case}: doubling capacities cannot lower the optimum: {} vs {}",
            s2.objective,
            s1.objective
        );
    }
}

#[test]
fn scaling_objective_scales_optimum() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0x5ca1_e0b1 ^ case);
        let lp = arb_lp(&mut rng);
        let mut p1 = LpProblem::new(lp.rhs.clone());
        let mut p3 = LpProblem::new(lp.rhs.clone());
        for (obj, entries) in &lp.cols {
            p1.add_var(*obj, 1.0, entries);
            p3.add_var(obj * 3.0, 1.0, entries);
        }
        let s1 = p1.solve(0);
        let s3 = p3.solve(0);
        assert!(
            (s3.objective - 3.0 * s1.objective).abs() < 1e-5 * (1.0 + s3.objective.abs()),
            "case {case}"
        );
    }
}
