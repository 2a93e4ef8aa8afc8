//! UFPP solvers the experiments compare SAP against (no contiguity):
//!
//! * [`exact`] — branch & bound exact UFPP for small instances (the
//!   reference optimum of the PC and UF tables);
//! * [`heuristic`] — best of LP-guided rounding, the greedy baselines and
//!   exact weighted interval scheduling;
//! * [`greedy`] — greedy-by-weight / greedy-by-density baselines;
//! * [`combined`] — a Bonsma–Schulz–Wiese-style constant-factor portfolio
//!   (arXiv:1102.3643), the UF table's subject.

pub mod combined;
pub mod exact;
pub mod greedy;
pub mod heuristic;

pub use combined::{solve_ufpp_combined, UfppParams, UfppStats};
pub use exact::solve_exact;
pub use greedy::{greedy_by_density, greedy_by_weight};
pub use heuristic::{round_lp_against_capacities, solve_ufpp_heuristic, weighted_interval_scheduling};
