//! # sap-bench
//!
//! The hermetic experiment harness. Its one binary, **`report`**,
//! regenerates every experiment table in EXPERIMENTS.md (T1–T6, L4,
//! L16/17, A1, BL, PC, UF, DS):
//!
//! ```text
//! cargo run -p sap-bench --release --bin report            # all tables
//! cargo run -p sap-bench --release --bin report -- T1 T4   # a subset
//! ```
//!
//! The crate is a plain workspace member: path dependencies only, no
//! registry access, no external bench framework — fan-out runs on
//! [`sap_core::parallel_map`]. Served cost is measured end to end by
//! `e2ebench/`, not here.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod oracles;
pub mod table;
pub mod workloads;

pub use table::Table;

/// Maps `f` over a seed range on the workspace's own scoped-thread pool
/// (the hermetic replacement for the harness's former rayon fan-out).
/// Results come back in seed order regardless of scheduling.
pub fn par_seeds<R: Send>(
    seeds: std::ops::Range<u64>,
    f: impl Fn(u64) -> R + Sync,
) -> Vec<R> {
    let items: Vec<u64> = seeds.collect();
    sap_core::parallel_map(&items, |&s| f(s))
}
