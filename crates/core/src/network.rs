//! The path network `P = (V, E)`.

use crate::error::{SapError, SapResult};
use crate::rmq::RangeMin;
use crate::task::Span;
use crate::units::{Capacity, EdgeId, MAX_CAPACITY};

/// A path with `m` edges and per-edge capacities.
///
/// Edges are indexed `0 .. m`; edge `e` connects vertices `e` and `e + 1`.
/// The capacity profile is immutable after construction; a sparse-table RMQ
/// is built once so that bottleneck queries `min_{e ∈ I} c_e` cost O(1).
#[derive(Debug, Clone)]
pub struct PathNetwork {
    capacities: Vec<Capacity>,
    rmq: RangeMin,
}

impl PartialEq for PathNetwork {
    fn eq(&self, other: &Self) -> bool {
        self.capacities == other.capacities
    }
}
impl Eq for PathNetwork {}

impl PathNetwork {
    /// Creates a path network from per-edge capacities.
    ///
    /// # Errors
    ///
    /// * [`SapError::EmptyNetwork`] when `capacities` is empty;
    /// * [`SapError::CapacityTooLarge`] when a capacity exceeds
    ///   [`MAX_CAPACITY`] (this head-room guarantees the internal scaling
    ///   performed by some algorithms cannot overflow).
    pub fn new(capacities: Vec<Capacity>) -> SapResult<Self> {
        if capacities.is_empty() {
            return Err(SapError::EmptyNetwork);
        }
        for (edge, &c) in capacities.iter().enumerate() {
            if c > MAX_CAPACITY {
                return Err(SapError::CapacityTooLarge { edge, capacity: c });
            }
        }
        let rmq = RangeMin::new(&capacities);
        Ok(PathNetwork { capacities, rmq })
    }

    /// Creates a path of `m` edges with the same capacity everywhere
    /// (a SAP-U / UFPP-U network).
    pub fn uniform(m: usize, capacity: Capacity) -> SapResult<Self> {
        if m == 0 {
            return Err(SapError::EmptyNetwork);
        }
        Self::new(vec![capacity; m])
    }

    /// Number of edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.capacities.len()
    }

    /// Capacity of edge `e`.
    #[inline]
    pub fn capacity(&self, e: EdgeId) -> Capacity {
        self.capacities[e]
    }

    /// The full capacity profile.
    #[inline]
    pub fn capacities(&self) -> &[Capacity] {
        &self.capacities
    }

    /// Bottleneck capacity over a span: `min_{e ∈ span} c_e` in O(1).
    #[inline]
    pub fn bottleneck(&self, span: Span) -> Capacity {
        self.rmq.min(span.lo, span.hi)
    }

    /// Minimum capacity over the whole path.
    pub fn min_capacity(&self) -> Capacity {
        self.rmq.min(0, self.capacities.len())
    }

    /// Maximum capacity over the whole path.
    pub fn max_capacity(&self) -> Capacity {
        self.capacities.iter().copied().fold(0, Capacity::max)
    }

    /// Leftmost edge within `span` achieving the bottleneck capacity, in
    /// O(1) via the argmin sparse table (this query sits on the MWIS
    /// recursion's hot path, once per recursion node).
    #[inline]
    pub fn bottleneck_edge(&self, span: Span) -> EdgeId {
        self.rmq.argmin(span.lo, span.hi)
    }

    /// True when all edges share one capacity (a SAP-U instance).
    pub fn is_uniform(&self) -> bool {
        self.capacities.windows(2).all(|w| w[0] == w[1])
    }

    /// Returns a new network whose capacity on every edge is
    /// `f(c_e)` — used by clipping and internal scaling.
    pub fn map_capacities(&self, f: impl Fn(Capacity) -> Capacity) -> SapResult<Self> {
        Self::new(self.capacities.iter().map(|&c| f(c)).collect())
    }

    /// Restricts the network to the half-open edge range `lo .. hi`.
    pub fn slice(&self, lo: EdgeId, hi: EdgeId) -> SapResult<Self> {
        if lo >= hi || hi > self.capacities.len() {
            return Err(SapError::EmptyNetwork);
        }
        Self::new(self.capacities[lo..hi].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_network() {
        let net = PathNetwork::uniform(5, 10).unwrap();
        assert_eq!(net.num_edges(), 5);
        assert!(net.is_uniform());
        assert_eq!(net.min_capacity(), 10);
        assert_eq!(net.max_capacity(), 10);
        assert_eq!(net.bottleneck(Span::new(1, 4).unwrap()), 10);
    }

    #[test]
    fn empty_network_rejected() {
        assert_eq!(PathNetwork::new(vec![]).unwrap_err(), SapError::EmptyNetwork);
        assert_eq!(PathNetwork::uniform(0, 3).unwrap_err(), SapError::EmptyNetwork);
    }

    #[test]
    fn oversized_capacity_rejected() {
        let err = PathNetwork::new(vec![MAX_CAPACITY + 1]).unwrap_err();
        assert!(matches!(err, SapError::CapacityTooLarge { edge: 0, .. }));
    }

    #[test]
    fn bottleneck_queries() {
        let net = PathNetwork::new(vec![4, 7, 2, 9, 5]).unwrap();
        assert!(!net.is_uniform());
        assert_eq!(net.bottleneck(Span::new(0, 5).unwrap()), 2);
        assert_eq!(net.bottleneck(Span::new(0, 2).unwrap()), 4);
        assert_eq!(net.bottleneck(Span::new(3, 5).unwrap()), 5);
        assert_eq!(net.bottleneck_edge(Span::new(0, 5).unwrap()), 2);
        assert_eq!(net.bottleneck_edge(Span::new(3, 5).unwrap()), 4);
        assert_eq!(net.min_capacity(), 2);
        assert_eq!(net.max_capacity(), 9);
    }

    #[test]
    fn bottleneck_edge_is_leftmost_on_ties() {
        let net = PathNetwork::new(vec![5, 2, 2, 9, 2]).unwrap();
        assert_eq!(net.bottleneck_edge(Span::new(0, 5).unwrap()), 1);
        assert_eq!(net.bottleneck_edge(Span::new(2, 5).unwrap()), 2);
        assert_eq!(net.bottleneck_edge(Span::new(3, 5).unwrap()), 4);
        assert_eq!(net.bottleneck_edge(Span::new(3, 4).unwrap()), 3);
    }

    #[test]
    fn slice_and_map() {
        let net = PathNetwork::new(vec![4, 7, 2, 9, 5]).unwrap();
        let sliced = net.slice(1, 4).unwrap();
        assert_eq!(sliced.capacities(), &[7, 2, 9]);
        let doubled = net.map_capacities(|c| c * 2).unwrap();
        assert_eq!(doubled.capacities(), &[8, 14, 4, 18, 10]);
        assert!(net.slice(2, 2).is_err());
        assert!(net.slice(2, 9).is_err());
    }
}
