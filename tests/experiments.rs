//! Pins the paper's experiment tables. `EXPERIMENTS.json` is the
//! `report --json` document with T3b's wall-clock column blanked (the only
//! cell that differs between runs); this test regenerates it through
//! `sap_bench::experiments::all()` and compares bytes, then asserts each
//! table's theorem bound. A solver change that moves a paper number fails
//! here; the fresh document is written beside the test binary
//! (`CARGO_TARGET_TMPDIR`) so the move can be reviewed and committed.

use sap_bench::experiments;
use sap_bench::table::tables_to_json;
use sap_bench::Table;

/// Tables and columns that hold wall-clock readings.
const WALL_CLOCK: &[(&str, &str)] = &[("T3b", "mean time (ms)")];

fn column(t: &Table, name: &str) -> Vec<f64> {
    let i = t
        .header
        .iter()
        .position(|h| h == name)
        .unwrap_or_else(|| panic!("{}: no column {name:?}", t.id));
    t.rows
        .iter()
        .map(|r| r[i].parse().unwrap_or_else(|_| panic!("{}: {name} = {:?}", t.id, r[i])))
        .collect()
}

fn table<'a>(tables: &'a [Table], id: &str) -> &'a Table {
    tables.iter().find(|t| t.id == id).unwrap_or_else(|| panic!("table {id} missing"))
}

/// Asserts `max ratio ≤ bound` on every row of table `id`.
fn max_ratio_within(tables: &[Table], id: &str, bound: impl Fn(usize) -> f64) {
    let t = table(tables, id);
    for (row, ratio) in column(t, "max ratio").into_iter().enumerate() {
        let b = bound(row);
        assert!(ratio <= b, "{id} row {row}: max ratio {ratio} above the bound {b}");
    }
}

#[test]
fn paper_tables_are_pinned_and_meet_their_theorem_bounds() {
    let mut tables: Vec<Table> =
        experiments::all().into_iter().flat_map(|(_, run)| run()).collect();
    for &(id, name) in WALL_CLOCK {
        let t = tables.iter_mut().find(|t| t.id == id).expect("wall-clock table");
        let i = t.header.iter().position(|h| h == name).expect("wall-clock column");
        for row in &mut t.rows {
            row[i].clear();
        }
    }

    let fresh = tables_to_json(&tables);
    let pinned = include_str!("../EXPERIMENTS.json");
    if fresh != pinned {
        let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("EXPERIMENTS.json");
        std::fs::write(&out, &fresh).expect("write the fresh tables");
        panic!(
            "the experiment tables moved: diff EXPERIMENTS.json {} and commit it if the \
             move is intended",
            out.display()
        );
    }

    // The ε terms are left out: every pinned row meets the stricter bound.
    max_ratio_within(&tables, "T1a", |_| 4.0); // Theorem 1: 4+ε
    max_ratio_within(&tables, "T1b", |_| 4.0);
    let t2 = table(&tables, "T2");
    let t2_bound = column(t2, "bound 2(ℓ+q)/ℓ"); // Theorem 2: 2(ℓ+q)/ℓ
    max_ratio_within(&tables, "T2", |row| t2_bound[row]);
    let t3 = table(&tables, "T3a");
    let t3_bound = column(t3, "bound 2k−1"); // Theorem 3: 2k−1
    max_ratio_within(&tables, "T3a", |row| t3_bound[row]);
    max_ratio_within(&tables, "T4a", |_| 9.0); // Theorem 4: 9+ε
    max_ratio_within(&tables, "T4b", |_| 9.0);
    max_ratio_within(&tables, "T5a", |_| 10.0); // Theorem 5: 10+ε
    let l4 = table(&tables, "L4a"); // Lemma 4: retention ≥ 1−4δ
    for (row, (min, target)) in column(l4, "min retention")
        .into_iter()
        .zip(column(l4, "paper target 1−4δ"))
        .enumerate()
    {
        assert!(min >= target, "L4a row {row}: min retention {min} below 1−4δ = {target}");
    }
}
