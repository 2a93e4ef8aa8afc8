//! **PC — the price of contiguity** (the phenomenon behind Fig. 1,
//! quantified).
//!
//! Every SAP solution is a UFPP solution, but not vice versa: requiring a
//! task to occupy the *same contiguous* slab along its whole path costs
//! weight. On tiny instances we measure `OPT_UFPP / OPT_SAP` exactly;
//! on larger ones we compare the best UFPP heuristic against the best SAP
//! solution (combined ∨ greedy). The Fig. 1 witnesses show the exact gap
//! factor can exceed 1; random instances show how large it typically is.

use crate::oracles::ufpp;
use crate::par_seeds;
use sap_algs::{solve_exact_sap, ExactConfig, SapParams};
use sap_core::Budget;

use crate::table::Table;
use crate::workloads::{mixed_workload, tiny_mixed_workload};

const SEEDS: u64 = 8;

/// Runs PC.
pub fn run() -> Vec<Table> {
    vec![exact_gap(), heuristic_gap()]
}

fn exact_gap() -> Table {
    let mut t = Table::new(
        "PCa",
        "Exact price of contiguity OPT_UFPP / OPT_SAP (tiny instances)",
        "ratio ≥ 1; > 1 exactly when the Fig. 1 phenomenon bites",
        &["instances", "mean ratio", "max ratio", "instances with gap"],
    );
    let ratios: Vec<f64> = par_seeds(0..SEEDS, |seed| {
            let inst = tiny_mixed_workload(seed + 4000);
            let ids = inst.all_ids();
            let sap = solve_exact_sap(&inst, &ids, ExactConfig::default(), &Budget::unlimited())
                .expect("no budget")
                .optimal()
                .expect("budget")
                .weight(&inst);
            let ufpp_opt = ufpp::solve_exact(&inst, &ids).weight(&inst);
            ufpp_opt as f64 / sap.max(1) as f64
        });
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let max = ratios.iter().cloned().fold(f64::NAN, f64::max);
    let gaps = ratios.iter().filter(|&&r| r > 1.0 + 1e-9).count();
    t.push(vec![
        SEEDS.to_string(),
        format!("{mean:.3}"),
        format!("{max:.3}"),
        format!("{gaps}/{SEEDS}"),
    ]);
    t
}

fn heuristic_gap() -> Table {
    let mut t = Table::new(
        "PCb",
        "Heuristic price of contiguity on larger instances",
        "best-UFPP ≥ best-SAP everywhere; the gap shrinks when tasks are \
         small (contiguity is nearly free for sand-like tasks)",
        &["n", "best UFPP", "best SAP", "UFPP/SAP"],
    );
    for n in [60usize, 120, 240] {
        let pairs: Vec<(u64, u64)> = par_seeds(0..SEEDS, |seed| {
                let inst = mixed_workload(seed + 4100, 20, n);
                let ids = inst.all_ids();
                let u = ufpp::solve_ufpp_heuristic(&inst, &ids).weight(&inst);
                let combined = sap_algs::solve(&inst, &ids, &SapParams::default());
                let greedy = sap_algs::baselines::greedy_sap_best(&inst, &ids);
                let s = combined.weight(&inst).max(greedy.weight(&inst));
                (u, s)
            });
        let mu = pairs.iter().map(|p| p.0).sum::<u64>() / pairs.len() as u64;
        let ms = pairs.iter().map(|p| p.1).sum::<u64>() / pairs.len() as u64;
        t.push(vec![
            n.to_string(),
            mu.to_string(),
            ms.to_string(),
            format!("{:.3}", mu as f64 / ms.max(1) as f64),
        ]);
    }
    t
}
