//! # rectpack
//!
//! The rectangle substrate of the paper's large-task algorithm (§6).
//!
//! Every task `j` is *associated* with the rectangle
//! `R(j) = [s_j, t_j) × [ℓ(j), b(j))` where `b(j)` is the bottleneck
//! capacity of `j`'s path and `ℓ(j) = b(j) − d_j` is its *residual
//! capacity* — the rectangle induced by pushing `j` as high as it can go
//! (Fig. 7). Bonsma et al. showed the maximum-weight set of pairwise
//! disjoint such rectangles can be computed in polynomial time
//! (Theorem 7), and the paper observes the resulting packing **is** a SAP
//! solution and within factor `2k−1` of the optimal `1/k`-large SAP
//! solution (Theorem 3, via the degeneracy bound of Lemma 17).
//!
//! This crate provides:
//!
//! * [`reduction`] — the `R(j)` rectangles and their geometry;
//! * [`mwis`] — an **exact** maximum-weight independent set solver for
//!   top-drawn rectangle families, built on the min-capacity-edge
//!   divide & conquer (at most one rectangle can cross a minimum-capacity
//!   edge of a sub-instance — every rectangle through it has its top at
//!   exactly that capacity), with memoisation over canonical floor
//!   profiles; plus a brute-force reference;
//! * [`coloring`] — intersection graphs, smallest-last (degeneracy)
//!   ordering and greedy colouring [Matula–Beck 1983], used to check
//!   Lemmas 16/17 (`1/k`-large solutions have `(2k−2)`-degenerate
//!   rectangle graphs) and the tightness example of Fig. 8.

//! ## Example
//!
//! ```
//! use sap_core::{Instance, PathNetwork, Task};
//!
//! let net = PathNetwork::new(vec![10, 4, 10]).unwrap();
//! let inst = Instance::new(net, vec![
//!     Task::of(0, 3, 2, 10),  // crosses the valley: R = [0,3)×[2,4)
//!     Task::of(0, 1, 5, 4),   // R = [0,1)×[5,10) — fits above
//! ]).unwrap();
//! let best = rectpack::max_weight_packing(&inst, &inst.all_ids(),
//!                                         rectpack::MwisConfig::default(),
//!                                         &sap_core::Budget::unlimited())
//!     .unwrap()
//!     .unwrap();
//! assert_eq!(inst.total_weight(&best), 14);  // both rectangles are disjoint
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coloring;
pub mod mwis;
pub mod reduction;

pub use coloring::{degeneracy_order, greedy_coloring, intersection_graph};
pub use mwis::{max_weight_packing, max_weight_packing_bruteforce, MwisConfig};
pub use reduction::{rect_of, rects_disjoint, Rect};
