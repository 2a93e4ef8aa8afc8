//! Pins the medium arm on the two 80-task corpora the benchmark and the
//! experiments use: `mixed80` and `medium80`, the instances
//! `sap generate --edges 12 --tasks 80 --regime mixed|medium --seed 1..=8`
//! writes, each solved `combined` at an unlimited budget.
//!
//! * Each request's medium `dp_row` units are pinned exactly (the meter is
//!   deterministic), so any change to the per-class search or its state
//!   cap shows up here.
//! * The medium arm's weight never drops below what the arm returned
//!   when a capped class fell back to greedy under a 400k-state cap.
//! * `practical` answers on `mixed80` are pinned to the same placements,
//!   in order, as under that older policy: greedy wins each of them.

use storage_alloc::prelude::*;
use storage_alloc::sap_core::{Budget, Fnv1a};
use storage_alloc::sap_gen::{generate, CapacityProfile, DemandRegime, GenConfig};
use storage_alloc::{try_solve_sap, try_solve_sap_practical};

/// The instance `sap generate --edges 12 --tasks 80 --regime R --seed S`
/// writes.
fn corpus_instance(regime: DemandRegime, seed: u64) -> Instance {
    generate(
        &GenConfig {
            num_edges: 12,
            num_tasks: 80,
            profile: CapacityProfile::RandomWalk { lo: 64, hi: 1024 },
            regime,
            max_span: 6,
            max_weight: 100,
        },
        seed,
    )
}

/// Per seed 1..=8: the medium arm's pinned `dp_row` units, and the
/// weight floor it must reach.
struct Corpus {
    regime: DemandRegime,
    dp_row: [u64; 8],
    weight_floor: [u64; 8],
}

const CORPORA: [(&str, Corpus); 2] = [
    (
        "mixed80",
        Corpus {
            regime: DemandRegime::Mixed,
            dp_row: [153_078, 190_435, 169_541, 69_135, 68_224, 138_093, 196_059, 72_507],
            weight_floor: [715, 827, 484, 440, 610, 867, 535, 603],
        },
    ),
    (
        "medium80",
        Corpus {
            regime: DemandRegime::Medium { delta_inv: 8 },
            dp_row: [149_442, 63_505, 116_508, 61_345, 109_633, 7_723, 66_663, 71_442],
            weight_floor: [1232, 879, 882, 964, 1056, 1186, 926, 922],
        },
    ),
];

#[test]
fn medium_arm_units_and_weights_are_pinned_on_the_corpora() {
    for (name, corpus) in &CORPORA {
        for seed in 1..=8u64 {
            let i = seed as usize - 1;
            let inst = corpus_instance(corpus.regime, seed);
            let (sol, report) = try_solve_sap(&inst, &Budget::unlimited()).unwrap();
            sol.validate(&inst).unwrap();
            assert!(report.is_clean(), "{name} seed {seed}: {report:?}");
            let medium = report.arm("medium").unwrap();
            assert_eq!(medium.work.dp_row, corpus.dp_row[i], "{name} seed {seed}: dp_row units");
            assert!(
                medium.weight >= corpus.weight_floor[i],
                "{name} seed {seed}: medium weight {} < {}",
                medium.weight,
                corpus.weight_floor[i]
            );
        }
    }
}

/// FNV-1a over the placements as `task@height`, space-separated, in the
/// order the solution lists them.
fn placements_digest(sol: &SapSolution) -> u64 {
    let text: Vec<String> =
        sol.placements.iter().map(|p| format!("{}@{}", p.task, p.height)).collect();
    let mut h = Fnv1a::new();
    h.write_bytes(text.join(" ").as_bytes());
    h.finish()
}

#[test]
fn practical_answers_on_mixed80_are_pinned() {
    // (placements, weight, digest) per seed 1..=8.
    let pins: [(usize, u64, u64); 8] = [
        (27, 1511, 0x13bb_b634_74b8_d0e7),
        (22, 1436, 0x09ff_1292_62c4_615e),
        (20, 1253, 0x6bf6_47b6_5b67_ac10),
        (20, 1164, 0x2f21_5a63_a7ae_a631),
        (30, 1380, 0x9167_53ed_5bce_69f1),
        (26, 1879, 0x8981_ab5f_7274_81a4),
        (23, 1231, 0xa62d_9915_29bf_928c),
        (22, 1366, 0x9953_fe36_610b_3dad),
    ];
    for (seed, &(len, weight, digest)) in (1u64..).zip(&pins) {
        let inst = corpus_instance(DemandRegime::Mixed, seed);
        let (sol, report) = try_solve_sap_practical(&inst, &Budget::unlimited()).unwrap();
        sol.validate(&inst).unwrap();
        assert_eq!(report.winner, "greedy", "seed {seed}: {report:?}");
        assert_eq!((sol.len(), sol.weight(&inst)), (len, weight), "seed {seed}");
        assert_eq!(placements_digest(&sol), digest, "seed {seed}: placements moved");
    }
}
