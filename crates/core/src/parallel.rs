//! Minimal structured-concurrency helpers built on [`std::thread::scope`].
//!
//! The workspace's default build is hermetic (path dependencies only, see
//! `cargo xtask lint`, lint H1), so it cannot use rayon. The algorithm
//! crates only ever need two shapes of parallelism — a fork/join pair and
//! an independent map over a slice — and scoped threads cover both with
//! no work-stealing machinery.
//!
//! All helpers fall back to sequential execution for tiny inputs and
//! propagate panics from worker closures to the caller.

use std::num::NonZeroUsize;

use crate::budget::Budget;
use crate::error::SapResult;

/// Number of worker threads to fan out to: the available parallelism,
/// capped so small batches do not pay thread spawn cost per element.
fn num_workers(jobs: usize) -> usize {
    let hw = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    hw.min(jobs).max(1)
}

/// Resolves an explicit worker-count request: `0` means "auto" (the
/// available parallelism); any other value is honoured verbatim, capped
/// only by the job count. Requests above the hardware thread count are
/// legal — they just oversubscribe, which [`map_reduce_isolated`]'s
/// determinism contract makes observationally irrelevant.
fn resolve_workers(requested: usize, jobs: usize) -> usize {
    if requested == 0 {
        num_workers(jobs)
    } else {
        requested.min(jobs).max(1)
    }
}

/// Runs two closures, potentially in parallel, and returns both results.
fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        let rb = match hb.join() {
            Ok(rb) => rb,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        (ra, rb)
    })
}

/// Runs three closures, potentially in parallel, and returns all three
/// results.
fn join3<A, B, C, RA, RB, RC>(a: A, b: B, c: C) -> (RA, RB, RC)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    C: FnOnce() -> RC + Send,
    RA: Send,
    RB: Send,
    RC: Send,
{
    let ((ra, rb), rc) = join(|| join(a, b), c);
    (ra, rb, rc)
}

/// Runs `f` with panic isolation: a panic is caught and returned as
/// `Err(message)` instead of unwinding into the caller.
///
/// [`join3_isolated`] runs each arm of the fault-tolerant portfolio
/// driver through it, so one poisoned arm cannot take down the solve.
/// The panic payload is downcast to a `String` when possible; opaque
/// payloads are reported generically.
pub fn run_isolated<R, F>(f: F) -> Result<R, String>
where
    F: FnOnce() -> R,
{
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => Ok(r),
        Err(payload) => Err(panic_message(payload.as_ref())),
    }
}

/// Best-effort extraction of a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Runs three closures, potentially in parallel, each with panic
/// isolation; a panicking closure yields `Err(message)` in its slot while
/// the other two still return their results.
pub fn join3_isolated<A, B, C, RA, RB, RC>(
    a: A,
    b: B,
    c: C,
) -> (Result<RA, String>, Result<RB, String>, Result<RC, String>)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    C: FnOnce() -> RC + Send,
    RA: Send,
    RB: Send,
    RC: Send,
{
    join3(|| run_isolated(a), || run_isolated(b), || run_isolated(c))
}

/// Applies `f` to every element of `items` and collects the results in
/// input order, fanning the work out over scoped threads.
///
/// Workers pull indices from a shared atomic cursor, so uneven per-item
/// cost (e.g. instances of very different sizes in a batch solve) load
/// balances without chunking heuristics. Panics in `f` are propagated.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    fan_out(n, num_workers(n), |i| f(&items[i]))
}

/// The one fan-out loop behind [`parallel_map`] and
/// [`map_reduce_isolated`]: computes `f(i)` for every `i` in `0..n` on
/// `workers` scoped threads and returns the results in index order.
///
/// Each worker claims one index at a time from a shared atomic cursor
/// and keeps (index, result) locally; results are merged in order at
/// the end. No locks on the hot path. One worker, or at most one item,
/// runs inline on the caller's thread.
fn fan_out<R, F>(n: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }

    use std::sync::atomic::{AtomicUsize, Ordering};
    let cursor = AtomicUsize::new(0);

    let mut buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(local) => local,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(n);
    for bucket in &mut buckets {
        indexed.append(bucket);
    }
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Absorbs the children's meters into the parent when dropped, so the
/// merge runs even while a worker panic unwinds through
/// [`map_reduce_isolated`] — no consumed unit is ever lost to a panic.
struct MergeGuard<'a> {
    parent: &'a Budget,
    children: Vec<Budget>,
}

impl Drop for MergeGuard<'_> {
    fn drop(&mut self) {
        for child in &self.children {
            self.parent.absorb(child);
        }
    }
}

/// Bounded deterministic fan-out over budget-metered items: applies `f`
/// to every element of `items` with its own fixed-share child meter and
/// returns the results in input order.
///
/// The primitive that makes intra-arm parallelism deterministic:
///
/// * `parent` is split with [`Budget::split_shares`] **before** any item
///   runs, so each item's trip point depends only on its own checkpoint
///   sequence — never on how far its siblings got on another thread;
/// * the per-item meters are merged back into `parent` in index order
///   when the fan-out completes (the merge is commutative addition, so
///   panic-path absorption in [`MergeGuard`] yields the same totals), and
///   telemetry is attributed through the parent's own handle, whose
///   counters are interleaving-independent by construction;
/// * `workers` picks the fan-out width (`0` = auto, `1` = sequential);
///   because no item observes another's meter, every width produces
///   byte-identical results, reports, and telemetry.
///
/// Every item runs even after an earlier item returns `Err` (exactly like
/// the sequential `.map(..).collect()` it replaces — an exhausted share
/// errs quickly at its first checkpoint). Panics in `f` are propagated
/// after all workers join, with all meters absorbed.
pub fn map_reduce_isolated<T, R, F>(
    parent: &Budget,
    items: &[T],
    workers: usize,
    f: F,
) -> Vec<SapResult<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&T, &Budget) -> SapResult<R> + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let merge = MergeGuard { parent, children: parent.split_shares(n) };
    let children = &merge.children;
    fan_out(n, resolve_workers(workers, n), |i| f(&items[i], &children[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 1 + 1, || "x".to_string());
        assert_eq!(a, 2);
        assert_eq!(b, "x");
    }

    #[test]
    fn join3_returns_all() {
        let (a, b, c) = join3(|| 1, || 2, || 3);
        assert_eq!((a, b, c), (1, 2, 3));
    }

    #[test]
    fn map_preserves_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = parallel_map(&items, |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_empty_and_singleton() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, |x| *x).is_empty());
        assert_eq!(parallel_map(&[7u32], |x| *x + 1), vec![8]);
    }

    #[test]
    fn run_isolated_catches_panics() {
        assert_eq!(run_isolated(|| 41 + 1), Ok(42));
        let err = run_isolated(|| -> u32 { panic!("boom {}", 7) }).unwrap_err();
        assert_eq!(err, "boom 7");
    }

    #[test]
    fn join3_isolated_survives_one_panicking_arm() {
        let (a, b, c) = join3_isolated(|| 1, || -> u32 { panic!("arm b down") }, || 3);
        assert_eq!(a, Ok(1));
        assert_eq!(b.unwrap_err(), "arm b down");
        assert_eq!(c, Ok(3));
    }

    #[test]
    fn map_reduce_is_identical_across_worker_counts() {
        use crate::budget::CheckpointClass;
        let items: Vec<u64> = (1..=40).collect();
        let run = |workers: usize| {
            let parent = Budget::unlimited().with_work_units(100);
            let out = map_reduce_isolated(&parent, &items, workers, |x, b| {
                // Charge x units one at a time; big items trip their share.
                for _ in 0..*x {
                    b.checkpoint(CheckpointClass::DpRow, 1)?;
                }
                Ok(*x * 2)
            });
            (out, parent.consumed(), parent.checkpoints_passed(), parent.work_profile())
        };
        let base = run(1);
        for workers in [2, 3, 8, 64] {
            assert_eq!(run(workers), base, "workers {workers}");
        }
        // Some items completed, some tripped (shares are 3 or 2 units).
        assert!(base.0.iter().any(|r| r.is_ok()));
        assert!(base.0.iter().any(|r| r.is_err()));
    }

    #[test]
    fn map_reduce_absorbs_all_work_into_the_parent() {
        use crate::budget::CheckpointClass;
        let items: Vec<u64> = (0..10).collect();
        let parent = Budget::unlimited();
        let out = map_reduce_isolated(&parent, &items, 0, |x, b| {
            b.checkpoint(CheckpointClass::PackSweep, *x)?;
            Ok(())
        });
        assert_eq!(out.len(), 10);
        assert_eq!(parent.consumed(), (0..10).sum::<u64>());
        assert_eq!(parent.checkpoints_passed(), 10);
        assert_eq!(parent.class_consumed(CheckpointClass::PackSweep), 45);
    }

    #[test]
    fn map_reduce_conserves_work_across_a_worker_panic() {
        use crate::budget::CheckpointClass;
        let items: Vec<u64> = (0..8).collect();
        let parent = Budget::unlimited();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map_reduce_isolated(&parent, &items, 2, |x, b| {
                let _ = b.checkpoint(CheckpointClass::DpRow, 1);
                if *x == 5 {
                    panic!("item down");
                }
                Ok(())
            })
        }));
        assert!(caught.is_err());
        // The panicking item's checkpoint (and any sibling's) was absorbed
        // by the merge guard during unwinding, not dropped.
        assert!(parent.consumed() >= 1);
        assert_eq!(parent.consumed(), parent.checkpoints_passed());
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn map_propagates_panics() {
        let items: Vec<u32> = (0..64).collect();
        let _ = parallel_map(&items, |x| {
            if *x == 33 {
                panic!("worker boom");
            }
            *x
        });
    }
}
