//! `sap solve` telemetry exports driven through the real binary: the
//! human `--telemetry=tree` view and the `--trace` Chrome trace file must
//! be byte-identical across runs (no `--timings`), and the trace must be
//! a well-formed trace-event document.

use std::path::{Path, PathBuf};
use std::process::Command;

use storage_alloc::json::{self, Json};

/// A fresh scratch directory for one test, removed by the caller.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sap-cli-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn sap(args: &[&str]) -> std::process::Output {
    let out = Command::new(env!("CARGO_BIN_EXE_sap")).args(args).output().expect("run sap");
    assert!(out.status.success(), "sap {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    out
}

/// Writes a seeded mixed instance into `dir` and returns its path.
fn instance(dir: &Path) -> String {
    let out = sap(&["generate", "--edges", "10", "--tasks", "40", "--seed", "7"]);
    let path = dir.join("inst.json");
    std::fs::write(&path, out.stdout).expect("write instance");
    path.to_str().expect("utf-8 path").to_string()
}

#[test]
fn solve_telemetry_tree_is_byte_identical_across_runs() {
    let dir = scratch_dir("tree");
    let inst = instance(&dir);
    let run = || sap(&["solve", &inst, "--algo", "combined", "--telemetry=tree"]).stderr;
    let (a, b) = (run(), run());
    assert_eq!(a, b, "--telemetry=tree differs between runs");
    let text = String::from_utf8(a).expect("utf-8 tree");
    let tree = text.lines().skip_while(|l| !l.starts_with("root  n=")).collect::<Vec<_>>();
    assert!(tree.len() > 1, "tree has no phases below root: {text}");
    assert!(tree.iter().any(|l| l.starts_with("  medium  n=1")), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn solve_trace_is_byte_identical_across_runs_and_parses() {
    let dir = scratch_dir("trace");
    let inst = instance(&dir);
    let run = |name: &str| {
        let path = dir.join(name);
        let path = path.to_str().expect("utf-8 path");
        sap(&["solve", &inst, "--algo", "practical", "--trace", path]);
        std::fs::read_to_string(path).expect("trace written")
    };
    let (a, b) = (run("a.json"), run("b.json"));
    assert_eq!(a, b, "--trace differs between runs");
    let doc = json::parse(&a).expect("trace is valid JSON");
    let events = doc.get("traceEvents").and_then(Json::as_array).expect("traceEvents array");
    let count = |ph: &str| events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph)).count();
    assert!(count("B") > 1, "trace holds only the root span: {a}");
    assert_eq!(count("B"), count("E"), "unbalanced B/E events: {a}");
    std::fs::remove_dir_all(&dir).ok();
}
