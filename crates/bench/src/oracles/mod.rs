//! Reference and experiment-only solvers. No `sap` code path runs them:
//! they are the exact optima the experiment tables and the theorem tests
//! measure the served algorithms against, and the UFPP comparators of
//! the PC, UF and BL tables.
//!
//! | module | what | role |
//! |--------|------|------|
//! | [`lemma13`] | the paper's Lemma 13 proper-pair DP | exact SAP, cross-checks Elevator's search |
//! | [`sapu`] | Chen–Hassin–Tzur column DP for SAP-U, constant K (§1.1) | exact SAP on uniform capacities |
//! | [`ring`] | exhaustive ring SAP (≤ 16 tasks) | the T5 and Theorem 5 optimum |
//! | [`ufpp`] | exact, heuristic, greedy and Bonsma-et-al.-style UFPP solvers | the PC, UF and BL tables |

pub mod lemma13;
pub mod ring;
pub mod sapu;
pub mod ufpp;

pub use lemma13::{solve_lemma13_dp, Lemma13Config};
pub use ring::solve_ring_exact;
pub use sapu::solve_sapu_exact_dp;
