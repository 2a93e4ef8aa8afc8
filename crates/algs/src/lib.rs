//! # sap-algs
//!
//! The paper's approximation algorithms for the Storage Allocation
//! Problem, assembled from the workspace's substrates:
//!
//! | module | result | ratio |
//! |--------|--------|-------|
//! | [`small`] | Algorithm Strip-Pack (Thm 1, §4) | `4 + ε` on δ-small |
//! | [`medium`] | AlmostUniform + Elevator (Thm 2, §5) | `2 + ε` on medium |
//! | [`large`] | rectangle packing (Thm 3, §6) | `2k − 1` on `1/k`-large |
//! | [`driver`] | best-of-three split (Thm 4), budgeted, with fallbacks | `9 + ε` |
//! | [`combined`] | the driver's parameters, and the driver under no limit | `9 + ε` |
//! | [`ring`] | cut + knapsack FPTAS (Thm 5, §7) | `10 + ε` |
//! | [`exact`] | exact SAP (reference) | 1 (exponential time) |
//! | [`sapu`] | Chen et al. column DP for SAP-U, constant K (§1.1) | 1 (poly for constant K) |
//! | [`baselines`] | greedy first-fit SAP | — |
//!
//! Every algorithm returns a [`sap_core::SapSolution`] that passes the
//! exact validator (asserted in debug builds and tests). Every solver
//! takes a cooperative [`sap_core::Budget`]; pass `Budget::unlimited()`
//! to run without a limit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod combined;
pub mod driver;
pub mod exact;
pub mod large;
pub mod lemma13;
pub mod medium;
pub mod ring;
pub mod sapu;
pub mod small;

pub use combined::{solve, sweep_params, SapParams};
pub use driver::{try_solve, try_solve_practical};
pub use exact::{is_sap_feasible, solve_exact_sap, Exact, ExactConfig};
pub use large::try_solve_large;
pub use lemma13::{solve_lemma13_dp, Lemma13Config};
pub use medium::{try_solve_medium_with_stats, MediumParams};
pub use ring::{solve_ring, RingParams};
pub use sapu::solve_sapu_exact_dp;
pub use small::{try_solve_small, SmallAlgo, SmallRun};
