//! # sap-core
//!
//! Problem model for the **Storage Allocation Problem (SAP)** and the
//! **Unsplittable Flow Problem on Paths (UFPP)**, following
//! Bar-Yehuda, Beder & Rawitz, *A Constant Factor Approximation Algorithm
//! for the Storage Allocation Problem* (SPAA 2013 / journal 2016).
//!
//! A SAP instance consists of a path `P = (V, E)` where each edge `e` has a
//! capacity `c_e`, and a set `J` of tasks. Each task `j` is a sub-path
//! `I_j` (a contiguous range of edges), a demand `d_j` and a weight `w_j`.
//! A feasible SAP solution is a subset `S ⊆ J` together with a height
//! function `h : S → ℕ` such that
//!
//! 1. `h(j) + d_j ≤ c_e` for every `j ∈ S` and every `e ∈ I_j`, and
//! 2. if `j, i ∈ S` overlap (`I_i ∩ I_j ≠ ∅`) and `h(j) ≥ h(i)` then
//!    `h(j) ≥ h(i) + d_i` — i.e. the rectangles
//!    `[s_j, t_j) × [h(j), h(j)+d_j)` are pairwise disjoint.
//!
//! SAP is a rectangle packing problem in which rectangles may slide
//! vertically but not horizontally. Dropping the height function (keeping
//! only the per-edge load constraint) yields UFPP.
//!
//! This crate provides:
//!
//! * the instance model ([`PathNetwork`], [`Task`], [`Instance`]) and the
//!   ring variant ([`ring::RingNetwork`], [`ring::RingInstance`]);
//! * solution types ([`UfppSolution`], [`SapSolution`]) with **exact
//!   integer validators** (all quantities are `u64`);
//! * the structural toolbox the paper's algorithms are built from:
//!   bottleneck computation (via an O(1)-query sparse-table RMQ),
//!   gravity normalisation (Observation 11, Fig. 5),
//!   the β-elevation split (Lemma 14, Fig. 6),
//!   δ-small / δ-large classification and the `J_t` / `J^{k,ℓ}` strata
//!   (Fig. 2), capacity clipping (Observation 2, Fig. 3), and strip
//!   lifting/stacking (Algorithm Strip-Pack, Fig. 4);
//! * an ASCII renderer for solutions, used by the examples to reproduce
//!   the paper's figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod cache;
pub mod classify;
pub mod clip;
pub mod elevate;
pub mod error;
pub mod gravity;
pub mod instance;
pub mod json;
pub mod network;
pub mod obs;
pub mod parallel;
pub mod render;
pub mod ring;
pub mod rmq;
pub mod solution;
pub mod stack;
pub mod stats;
pub mod task;
pub mod telemetry;
pub mod units;

#[cfg(feature = "fault-injection")]
pub use budget::FaultPlan;
pub use budget::{
    ArmOutcome, ArmReport, Budget, CheckpointClass, SolveReport, WorkProfile,
    REPORT_SCHEMA_VERSION,
};
pub use cache::{Fnv1a, LruCache, ShardedLru};
pub use classify::{
    classes_k_ell, classify_by_size, is_delta_large, is_delta_small, strata_by_bottleneck,
    stratum_of, ClassifiedTasks, SizeClass,
};
pub use clip::clip_to_band;
pub use elevate::{elevation_split, is_elevated, ElevationSplit};
pub use error::{SapError, SapResult};
pub use gravity::{apply_gravity, canonical_heights, is_grounded};
pub use instance::Instance;
pub use network::PathNetwork;
pub use obs::{
    chrome_trace, Aggregator, Histogram, ObsNode, TenantObs, TraceClock, OBS_SCHEMA_VERSION,
};
pub use parallel::{join3_isolated, map_reduce_isolated, parallel_map, run_isolated};
pub use render::{render_solution, render_solution_svg};
pub use rmq::RangeMin;
pub use solution::{Placement, SapSolution, UfppSolution};
pub use stack::{lift, stack};
pub use stats::{instance_stats, solution_stats, InstanceStats, SolutionStats};
pub use task::{Span, Task};
pub use telemetry::{
    telemetry_json, Recorder, Span as TelemetrySpan, Telemetry, TELEMETRY_SCHEMA_VERSION,
};
pub use units::{Capacity, Demand, EdgeId, Height, Ratio, TaskId, Vertex, Weight};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::budget::Budget;
    pub use crate::classify::{classify_by_size, strata_by_bottleneck, SizeClass};
    pub use crate::error::{SapError, SapResult};
    pub use crate::gravity::{apply_gravity, canonical_heights};
    pub use crate::instance::Instance;
    pub use crate::network::PathNetwork;
    pub use crate::solution::{Placement, SapSolution, UfppSolution};
    pub use crate::task::{Span, Task};
    pub use crate::units::{Capacity, Demand, EdgeId, Height, Ratio, TaskId, Vertex, Weight};
}
