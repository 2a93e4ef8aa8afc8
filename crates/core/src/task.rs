//! Tasks and spans.

use crate::error::{SapError, SapResult};
use crate::units::{Demand, EdgeId, Weight};

/// A half-open, non-empty range of edges `lo .. hi` — the sub-path `I_j`
/// of a task. In the paper's notation a task runs from vertex `s_j` to
/// vertex `t_j`; here `lo = s_j` and `hi = t_j` with `lo < hi`, and the
/// task uses edges `lo, lo+1, …, hi−1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Span {
    /// First edge used.
    pub lo: EdgeId,
    /// One past the last edge used.
    pub hi: EdgeId,
}

impl Span {
    /// Creates a span; `lo < hi` is required.
    pub fn new(lo: EdgeId, hi: EdgeId) -> Option<Self> {
        (lo < hi).then_some(Span { lo, hi })
    }

    /// Number of edges used.
    #[inline]
    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// Spans are never empty; kept for API symmetry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True when the two sub-paths share an edge (`I_i ∩ I_j ≠ ∅`).
    #[inline]
    pub fn overlaps(&self, other: Span) -> bool {
        self.lo < other.hi && other.lo < self.hi
    }

    /// True when `self` contains edge `e`.
    #[inline]
    pub fn contains(&self, e: EdgeId) -> bool {
        self.lo <= e && e < self.hi
    }

    /// Intersection of the two edge ranges, if non-empty.
    pub fn intersect(&self, other: Span) -> Option<Span> {
        Span::new(self.lo.max(other.lo), self.hi.min(other.hi))
    }

    /// Iterates over the edges used.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> {
        self.lo..self.hi
    }
}

/// A task `j = (I_j, d_j, w_j)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Task {
    /// The sub-path `I_j` of edges the task uses.
    pub span: Span,
    /// Demand `d_j` — the height of the task's rectangle.
    pub demand: Demand,
    /// Weight `w_j` — the profit of selecting the task.
    pub weight: Weight,
}

impl Task {
    /// Creates a task over edges `lo .. hi`.
    ///
    /// # Errors
    ///
    /// Rejects empty spans and zero demands (a zero-demand task is degenerate:
    /// it occupies no space, and the paper's height condition (2) would let
    /// it coincide with any other task).
    pub fn new(lo: EdgeId, hi: EdgeId, demand: Demand, weight: Weight) -> SapResult<Self> {
        let span = Span::new(lo, hi).ok_or(SapError::InvalidSpan { task: usize::MAX })?;
        if demand == 0 {
            return Err(SapError::ZeroDemand { task: usize::MAX });
        }
        Ok(Task { span, demand, weight })
    }

    /// Convenience constructor that panics on invalid input — for tests,
    /// generators and examples where inputs are static.
    #[must_use]
    pub fn of(lo: EdgeId, hi: EdgeId, demand: Demand, weight: Weight) -> Self {
        // lint:allow(p1) — documented panicking constructor for static task
        // literals in tests and generators; fallible code uses `Task::new`.
        Self::new(lo, hi, demand, weight).expect("valid task literal")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_basics() {
        let s = Span::new(2, 5).unwrap();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(s.contains(2) && s.contains(4) && !s.contains(5) && !s.contains(1));
        assert_eq!(s.edges().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert!(Span::new(3, 3).is_none());
        assert!(Span::new(4, 3).is_none());
    }

    #[test]
    fn span_overlap_is_symmetric_and_correct() {
        let a = Span::new(0, 3).unwrap();
        let b = Span::new(2, 5).unwrap();
        let c = Span::new(3, 4).unwrap();
        assert!(a.overlaps(b) && b.overlaps(a));
        assert!(!a.overlaps(c) && !c.overlaps(a));
        assert!(b.overlaps(c));
        assert_eq!(a.intersect(b), Span::new(2, 3));
        assert_eq!(a.intersect(c), None);
    }

    #[test]
    fn task_construction() {
        let t = Task::of(0, 2, 3, 10);
        assert_eq!(t.span.len(), 2);
        assert!(Task::new(1, 1, 3, 10).is_err());
        assert!(Task::new(0, 2, 0, 10).is_err());
        assert!(Task::new(0, 2, 3, 0).is_ok(), "zero weight is allowed");
    }
}
