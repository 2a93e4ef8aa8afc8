//! # sap-gen
//!
//! Seeded, reproducible instance generators for the experiment suite:
//!
//! * [`profiles`] — capacity profiles (uniform, random, staircase, valley,
//!   random walk);
//! * [`random`] — task workloads in the paper's three regimes (δ-small,
//!   medium, `1/k`-large) and mixed;
//! * [`figures`] — the paper's figure instances, found/verified by search:
//!   Fig. 1(a)/(b) (UFPP-feasible task sets with no full SAP solution) and
//!   Fig. 8 (a ½-large SAP solution whose rectangles form a 5-cycle);
//! * [`rings`] — ring-network workloads for §7.
//!
//! All generators take an explicit seed and use the in-repo
//! [`rng::Rng64`] (SplitMix64-seeded xoshiro256**), so every experiment
//! in EXPERIMENTS.md is reproducible bit-for-bit with no dependency on
//! external crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversarial;
pub mod figures;
pub mod profiles;
pub mod random;
pub mod rings;
pub mod rng;
pub mod traces;

pub use adversarial::{blocker, comb, knapsack_core, long_path, staircase_tower};
pub use figures::{fig1a, fig1b, fig8, Fig8};
pub use profiles::CapacityProfile;
pub use random::{generate, DemandRegime, GenConfig};
pub use rings::{generate_ring, RingGenConfig};
pub use rng::Rng64;
pub use traces::{generate_trace, TraceConfig};
