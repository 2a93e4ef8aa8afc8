//! Regenerates every experiment table in EXPERIMENTS.md.
//!
//! ```text
//! cargo run -p sap-bench --release --bin report            # everything
//! cargo run -p sap-bench --release --bin report -- T1 L4   # a subset
//! cargo run -p sap-bench --release --bin report -- --json out.json
//! ```

use std::time::Instant;

use sap_bench::experiments;
use sap_bench::table::tables_to_json;
use sap_bench::Table;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path: Option<String> = None;
    let mut filters: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--json" {
            json_path = it.next();
        } else {
            filters.push(a.to_uppercase());
        }
    }

    let mut all_tables: Vec<Table> = Vec::new();
    println!("# Experiment report (storage-alloc)\n");
    for (id, runner) in experiments::all() {
        if !filters.is_empty() && !filters.iter().any(|f| f == id) {
            continue;
        }
        let start = Instant::now();
        eprintln!("running {id}…");
        let tables = runner();
        let secs = start.elapsed().as_secs_f64();
        eprintln!("  {id} done in {secs:.1}s");
        for t in &tables {
            println!("{}", t.to_markdown());
        }
        all_tables.extend(tables);
    }
    if let Some(path) = json_path {
        std::fs::write(&path, tables_to_json(&all_tables)).expect("write json");
        eprintln!("wrote {path}");
    }
}
