//! Pins the exact SAP search (`solve_exact_sap`) on fixed generator
//! classes: the returned placements in order, `Ok(None)` versus `Some`
//! when the memo-state cap is hit, and the exact number of work units
//! metered. Any rewrite of the search must keep its visit order,
//! checkpoint sequence, prune rule and `max_states` semantics, so every
//! line below must stay byte-for-byte the same.

use sap_algs::{solve_exact_sap, ExactConfig};
use sap_core::{Budget, Instance, SapError};
use sap_gen::{generate, CapacityProfile, DemandRegime, GenConfig};

/// One fixed generator class.
struct Class {
    edges: usize,
    tasks: usize,
    profile: CapacityProfile,
    regime: DemandRegime,
    seed: u64,
    max_states: usize,
}

fn instance(c: &Class) -> Instance {
    let cfg = GenConfig {
        num_edges: c.edges,
        num_tasks: c.tasks,
        profile: c.profile.clone(),
        regime: c.regime,
        max_span: c.edges,
        max_weight: 100,
    };
    generate(&cfg, c.seed)
}

/// `some|none|tripped units=N` followed by the placements as
/// `task@height` in the order the search returns them.
fn outcome(c: &Class, budget: &Budget) -> String {
    let inst = instance(c);
    let ids = inst.all_ids();
    let res = solve_exact_sap(&inst, &ids, ExactConfig { max_states: c.max_states }, budget);
    let units = budget.consumed();
    match res {
        Ok(Some(sol)) => {
            sol.validate(&inst).expect("exact solution is feasible");
            let placed: Vec<String> =
                sol.placements.iter().map(|p| format!("{}@{}", p.task, p.height)).collect();
            format!("some units={units} w={} [{}]", sol.weight(&inst), placed.join(" "))
        }
        Ok(None) => format!("none units={units}"),
        Err(SapError::BudgetExhausted) => format!("tripped units={units}"),
        Err(e) => panic!("unexpected error {e:?}"),
    }
}

fn medium(edges: usize, tasks: usize, seed: u64, max_states: usize) -> Class {
    Class {
        edges,
        tasks,
        profile: CapacityProfile::RandomWalk { lo: 64, hi: 1024 },
        regime: DemandRegime::Medium { delta_inv: 8 },
        seed,
        max_states,
    }
}

fn mixed(edges: usize, tasks: usize, seed: u64, max_states: usize) -> Class {
    Class {
        edges,
        tasks,
        profile: CapacityProfile::Valley { high: 96, low: 24 },
        regime: DemandRegime::Mixed,
        seed,
        max_states,
    }
}

#[test]
fn exact_search_outcomes_are_pinned() {
    let cases: [(Class, &str); 10] = [
        (medium(6, 8, 1, 400_000), "some units=238 w=320 [0@0 1@85 3@85 4@315 6@182]"),
        (
            medium(8, 12, 2, 400_000),
            "some units=9179 w=539 [0@0 1@42 2@42 3@0 4@0 5@86 6@0 7@127 8@160 11@243]",
        ),
        (
            medium(10, 16, 3, 400_000),
            "some units=53479 w=557 [1@0 4@0 7@0 10@0 8@84 13@132 11@155 15@132 5@280]",
        ),
        (mixed(6, 10, 4, 400_000), "some units=188 w=502 [0@0 1@11 2@23 6@23 8@24 9@11]"),
        (mixed(8, 14, 5, 400_000), "some units=375 w=301 [3@0 5@14 9@16 8@23 11@0]"),
        (
            medium(12, 20, 6, 400_000),
            "some units=239482 w=930 \
             [0@0 1@0 6@25 8@12 9@25 14@27 3@64 5@49 2@86 7@84 4@102 17@51 18@87 19@129]",
        ),
        (
            medium(12, 22, 7, 400_000),
            "some units=87828 w=632 \
             [0@0 5@0 15@0 18@48 19@69 1@93 2@93 7@138 17@187 3@311 4@311 21@146 13@236]",
        ),
        (
            mixed(12, 24, 8, 400_000),
            "some units=625655 w=728 [1@0 2@0 7@0 0@1 13@86 16@1 4@12 9@17 10@88 19@19 20@88]",
        ),
        // Hit the memo-state cap: the search gives up with Ok(None). The
        // second is a medium-arm-sized class at the arm's own cap.
        (medium(10, 16, 3, 200), "none units=1129"),
        (medium(14, 26, 9, 400_000), "none units=3308783"),
    ];
    for (i, (class, want)) in cases.iter().enumerate() {
        assert_eq!(outcome(class, &Budget::unlimited()), *want, "class {i}");
    }
}

#[test]
fn exact_search_trips_at_the_same_unit() {
    // The cooperative budget trips on the checkpoint that crosses the
    // limit; the unit that tripped is still metered.
    let class = medium(10, 16, 3, 400_000);
    let line = outcome(&class, &Budget::unlimited().with_work_units(500));
    assert_eq!(line, "tripped units=501");
}
