//! **BL — baseline comparison**: who wins where.
//!
//! The paper's algorithm vs greedy heuristics and the interval-MWIS
//! relaxation across regimes. Expected shape: the combined algorithm is
//! competitive everywhere; greedy collapses on adversarial blocker
//! workloads; interval MWIS only competes when tasks are so large that
//! one task per column is optimal.

use crate::oracles::ufpp::weighted_interval_scheduling;
use crate::par_seeds;
use sap_algs::baselines::greedy_sap_best;
use sap_algs::SapParams;
use sap_core::{Instance, PathNetwork, Task};
use sap_gen::DemandRegime;

use crate::table::Table;

const SEEDS: u64 = 6;

/// Runs BL.
pub fn run() -> Vec<Table> {
    vec![regime_grid(), adversarial()]
}

fn regime_grid() -> Table {
    let mut t = Table::new(
        "BLa",
        "Combined vs baselines across regimes (weight, mean of seeds)",
        "greedy (no guarantee) may win on benign random workloads — the \
         combined algorithm pays for its worst-case guarantee by using \
         only one regime's tasks; greedy collapses adversarially (BLb), \
         the combined algorithm cannot (Thm 4)",
        &["regime", "combined", "greedy best", "interval MWIS"],
    );
    let regimes: [(&str, DemandRegime); 4] = [
        ("δ-small", DemandRegime::Small { delta_inv: 16 }),
        ("medium", DemandRegime::Medium { delta_inv: 8 }),
        ("½-large", DemandRegime::Large { k: 2 }),
        ("mixed", DemandRegime::Mixed),
    ];
    for (name, regime) in regimes {
        let sums: Vec<(u64, u64, u64)> = par_seeds(0..SEEDS, |seed| {
                let inst = sap_gen::generate(
                    &sap_gen::GenConfig {
                        num_edges: 20,
                        num_tasks: 120,
                        profile: sap_gen::CapacityProfile::RandomWalk { lo: 128, hi: 2048 },
                        regime,
                        max_span: 8,
                        max_weight: 60,
                    },
                    seed + 777,
                );
                let ids = inst.all_ids();
                let combined = sap_algs::solve(&inst, &ids, &SapParams::default());
                let greedy = greedy_sap_best(&inst, &ids);
                // Interval MWIS: one task per column — always SAP-feasible
                // (pairwise non-overlapping spans at height 0).
                let mwis = weighted_interval_scheduling(&inst, &ids);
                (
                    combined.weight(&inst),
                    greedy.weight(&inst),
                    inst.total_weight(&mwis),
                )
            });
        let n = sums.len() as u64;
        let mean = |f: fn(&(u64, u64, u64)) -> u64| {
            (sums.iter().map(f).sum::<u64>() / n).to_string()
        };
        t.push(vec![
            name.into(),
            mean(|s| s.0),
            mean(|s| s.1),
            mean(|s| s.2),
        ]);
    }
    t
}

/// A blocker workload where greedy-by-weight is provably bad: one heavy
/// long task whose acceptance forfeits many medium tasks.
fn adversarial() -> Table {
    let mut t = Table::new(
        "BLb",
        "Adversarial blocker instance",
        "greedy-by-weight takes the blocker and loses; the combined \
         algorithm (and exact) pick the field",
        &["n field tasks", "combined", "greedy best", "optimum"],
    );
    for field in [8u64, 16, 32] {
        let m = field as usize;
        let net = PathNetwork::uniform(m, 2).unwrap();
        // Blocker: almost as heavy as the whole field, so weight-greedy
        // grabs it first and forfeits everything else.
        let mut tasks = vec![Task::of(0, m, 2, field - 1)];
        for i in 0..m {
            tasks.push(Task::of(i, i + 1, 2, 1)); // field of weight-1 tasks
        }
        let inst = Instance::new(net, tasks).unwrap();
        let ids = inst.all_ids();
        let combined = sap_algs::solve(&inst, &ids, &SapParams::default());
        let by_weight =
            sap_algs::baselines::greedy_sap(&inst, &ids, sap_algs::baselines::GreedyOrder::WeightDesc);
        let best = greedy_sap_best(&inst, &ids);
        let opt = field; // the field beats the blocker by 1
        t.push(vec![
            field.to_string(),
            combined.weight(&inst).to_string(),
            format!("{} (by weight: {})", best.weight(&inst), by_weight.weight(&inst)),
            opt.to_string(),
        ]);
    }
    t
}
