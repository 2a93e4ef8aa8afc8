//! # ufpp
//!
//! Algorithms for the **Unsplittable Flow Problem on Paths**: the
//! substrate the paper's small-task algorithm runs on (§4.1).
//!
//! * [`relax`] — the LP relaxation (1) of UFPP, built on the workspace's
//!   simplex; also used as an upper bound on OPT in the ratio experiments.
//! * [`rounding`] — the `¼`-scaling + rounding pipeline of Lemma 5: from a
//!   fractional optimum to a `½B`-packable integral solution (the
//!   Chekuri–Mydlarz–Shepherd Theorem 6 step is substituted by a
//!   deterministic greedy rounding; see DESIGN.md §3).
//! * [`local_ratio`] — Algorithm **Strip** from the paper's appendix: the
//!   local-ratio `(5+ε)` alternative producing `½B`-packable solutions,
//!   implemented verbatim.
//!
//! The exact, heuristic, greedy and Bonsma-et-al.-style UFPP solvers the
//! experiments compare against live in `sap-bench` (`sap_bench::oracles::ufpp`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod local_ratio;
pub mod relax;
pub mod rounding;

pub use local_ratio::strip_local_ratio;
pub use relax::{build_relaxation, lp_upper_bound};
pub use rounding::{round_scaled_lp, RoundedStrip};
