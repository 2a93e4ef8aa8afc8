//! Scalar unit types.
//!
//! All quantities in this workspace are **exact unsigned integers**. This is
//! without loss of generality for the paper's algorithms: by Observation 11
//! (the "gravity" argument) there is always an optimal SAP solution in which
//! every height is a sum of demands, so integer demands imply integer
//! heights. Exact arithmetic lets every validator be a proof rather than a
//! tolerance check.

/// Edge capacity `c_e`.
pub type Capacity = u64;

/// Task demand `d_j` (the height of the task's rectangle).
pub type Demand = u64;

/// Task weight `w_j` (the profit of selecting the task).
pub type Weight = u64;

/// A height `h(j)` assigned to a selected task (the bottom ordinate of its
/// rectangle).
pub type Height = u64;

/// Index of a task within an [`crate::Instance`].
pub type TaskId = usize;

/// Index of an edge of the path. A path with `m` edges has edges
/// `0 .. m` connecting vertices `0 ..= m`.
pub type EdgeId = usize;

/// Index of a vertex of the path.
pub type Vertex = usize;

/// Upper bound used by algorithms that scale demands/capacities internally
/// (e.g. the medium-task algorithm multiplies by `2^q`). Instances whose
/// capacities exceed this bound are rejected at construction so that no
/// intermediate computation can overflow `u64`.
pub const MAX_CAPACITY: Capacity = 1 << 48;

/// An exact non-negative rational, used for the paper's parameters
/// (δ, β, ε) so that classifications like "δ-small" are decided with
/// integer arithmetic only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ratio {
    /// Numerator.
    pub num: u64,
    /// Denominator (non-zero).
    pub den: u64,
}

impl Ratio {
    /// Creates `num / den`.
    ///
    /// # Panics
    ///
    /// Panics when `den == 0`.
    #[must_use]
    pub const fn new(num: u64, den: u64) -> Self {
        assert!(den != 0, "Ratio denominator must be non-zero");
        Ratio { num, den }
    }

    /// True when `value ≤ self · base`, exactly (u128 cross-multiplication).
    #[inline]
    pub fn le_scaled(&self, value: u64, base: u64) -> bool {
        (value as u128) * (self.den as u128) <= (self.num as u128) * (base as u128)
    }

    /// `⌊self · base⌋`.
    #[inline]
    pub fn floor_mul(&self, base: u64) -> u64 {
        ((self.num as u128 * base as u128) / self.den as u128) as u64
    }

    /// `⌈self · base⌉`.
    #[inline]
    pub fn ceil_mul(&self, base: u64) -> u64 {
        let prod = self.num as u128 * base as u128;
        prod.div_ceil(self.den as u128) as u64
    }

    /// Value as `f64` (for reporting only; never used in feasibility
    /// decisions).
    #[inline]
    pub fn as_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Exact comparison `self ≤ other`.
    #[inline]
    pub fn le(&self, other: Ratio) -> bool {
        (self.num as u128) * (other.den as u128) <= (other.num as u128) * (self.den as u128)
    }

    /// Exact strict comparison `self < other`.
    #[inline]
    pub fn lt(&self, other: Ratio) -> bool {
        (self.num as u128) * (other.den as u128) < (other.num as u128) * (self.den as u128)
    }
}
