//! The `sap-bench` binary: the hermetic bench harness.
//!
//! ```text
//! cargo run -p sap-bench --release -- --suite core --out BENCH_pr4.json
//! cargo run -p sap-bench --release -- --suite core --smoke
//! cargo run -p sap-bench --release -- --suite core --workers 1,2,8
//! cargo run -p sap-bench --release -- --suite lp --smoke
//! ```
//!
//! `--smoke` shrinks the workloads to CI scale; `--out` writes the JSON
//! report to a file (stdout otherwise). The report is validated against
//! the `sap-bench/1` schema before it is emitted, so a report that
//! reaches disk is schema-valid by construction.

use sap_bench::suite::{run_core, SuiteConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut suite = "core".to_string();
    let mut out: Option<String> = None;
    let mut config = SuiteConfig::default();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--suite" => suite = it.next().unwrap_or_else(|| usage("--suite needs a name")),
            "--out" => out = Some(it.next().unwrap_or_else(|| usage("--out needs a path"))),
            "--smoke" => config.smoke = true,
            "--workers" => {
                let list = it.next().unwrap_or_else(|| usage("--workers needs a list"));
                config.workers = list
                    .split(',')
                    .map(|w| {
                        w.trim()
                            .parse::<usize>()
                            .unwrap_or_else(|_| usage("--workers takes integers"))
                    })
                    .collect();
                if config.workers.is_empty() {
                    usage("--workers needs at least one count");
                }
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }

    eprintln!(
        "running suite {suite} (smoke: {}, workers: {:?})…",
        config.smoke, config.workers
    );
    let (doc, errors) = match suite.as_str() {
        "core" => {
            let doc = run_core(&config);
            let errors = sap_bench::suite::validate_report(&doc);
            (doc, errors)
        }
        "lp" => {
            let doc = sap_bench::lp_bench::run_lp(&config);
            let errors = sap_bench::lp_bench::validate_lp_report(&doc);
            (doc, errors)
        }
        other => usage(&format!("unknown suite {other:?} (available: core, lp)")),
    };
    if !errors.is_empty() {
        for e in &errors {
            eprintln!("invariant violated: {e}");
        }
        std::process::exit(1);
    }
    match out {
        Some(path) => {
            std::fs::write(&path, &doc).expect("write report");
            eprintln!("wrote {path}");
        }
        None => println!("{doc}"),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("sap-bench: {msg}");
    eprintln!(
        "usage: sap-bench [--suite core|lp] [--smoke] [--workers 1,8] [--out report.json]"
    );
    std::process::exit(2);
}
