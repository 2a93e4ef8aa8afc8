//! Exact maximum-weight independent set for top-drawn rectangles.
//!
//! This plays the role of Theorem 7 (Bonsma et al.'s `O(n⁴)` optimal
//! rectangle packing for families `R(J)`). The structure it exploits:
//!
//! * Every rectangle `R(j)` has its top at `b(j)`, the minimum capacity
//!   over `j`'s span.
//! * Let `e*` be a minimum-capacity edge of the (sub-)path. Every
//!   rectangle whose span contains `e*` has top exactly `c_{e*}`, so any
//!   two of them intersect — **at most one can be selected**.
//! * Once the crossing rectangle `j*` is fixed (or none), the remaining
//!   candidates split into the sub-paths left and right of `e*`,
//!   independent up to a *floor constraint*: within `I_{j*}`, selected
//!   rectangles must have bottom `≥ c_{e*}` (they live above `j*`'s top,
//!   which is possible because their own bottlenecks are `≥ c_{e*}`).
//!
//! The recursion memoises on `(range, canonical floor profile)`. For the
//! `1/k`-large instances the paper feeds it, the profile stays shallow and
//! the measured running time is polynomial (see the `T3` runtime
//! experiment); a state budget keeps adversarial inputs from running away.
//!
//! Memo keys are **interned**: every canonical constraint set is stored
//! once in a hash-consed arena and the memo maps `(lo, hi, set-id)`
//! instead of owning a `Vec<Constraint>` clone per state. Combined with
//! reused canonicalisation scratch buffers, the recursion performs one
//! arena allocation per *distinct* constraint set instead of four-plus
//! allocations per *visit*; the telemetry counter `mwis.allocs` exposes
//! the deterministic allocation count, so a regression is measurable
//! without allocator hooks.

use std::collections::HashMap;

use sap_core::budget::{Budget, CheckpointClass};
use sap_core::error::{SapError, SapResult};
use sap_core::{EdgeId, Instance, TaskId};

use crate::reduction::{is_valid_packing, rect_of};

/// Budget knobs for the exact solver.
#[derive(Debug, Clone, Copy)]
pub struct MwisConfig {
    /// Maximum number of distinct memoised states before giving up.
    pub max_states: usize,
}

impl Default for MwisConfig {
    fn default() -> Self {
        MwisConfig { max_states: 2_000_000 }
    }
}

/// A floor constraint: tasks whose span overlaps `lo..hi` must have
/// `ℓ(j) ≥ floor`.
type Constraint = (usize, usize, u64);

/// Interned id of a canonical constraint set (dense arena index).
type ConsId = u64;

/// Memo key: sub-range plus the interned id of the canonicalised
/// constraints clipped to it.
type StateKey = (usize, usize, ConsId);

/// Hash-consed arena of canonical constraint sets: each distinct set is
/// boxed exactly once and addressed by a dense [`ConsId`]. Memo keys
/// carry the id, so probing and inserting the memo never clones a
/// constraint vector.
struct ConstraintPool {
    arena: Vec<Box<[Constraint]>>,
    /// FNV hash → arena ids with that hash (collision chain; collisions
    /// only lengthen the probe, they never change observable output).
    index: HashMap<u64, Vec<ConsId>>,
    /// Arena insertions — the actual allocation count of the interned
    /// scheme (one per distinct set, ever).
    allocs: u64,
}

impl ConstraintPool {
    fn new() -> Self {
        ConstraintPool { arena: Vec::new(), index: HashMap::new(), allocs: 0 }
    }

    /// The interned set for `id`. Ids are only minted by
    /// [`ConstraintPool::intern`], so the lookup cannot miss; an
    /// out-of-range id degrades to the empty set rather than panicking.
    fn get(&self, id: ConsId) -> &[Constraint] {
        self.arena.get(id as usize).map_or(&[], |b| b.as_ref())
    }

    /// FNV-1a over the constraint words — hermetic and deterministic
    /// run-to-run (no `RandomState` seeding).
    fn hash(cons: &[Constraint]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &(lo, hi, f) in cons {
            for v in [lo as u64, hi as u64, f] {
                h ^= v;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }

    /// Returns the id of `cons`, inserting it into the arena on first
    /// sight. Sets must already be canonical (sorted, dominance-pruned).
    fn intern(&mut self, cons: &[Constraint]) -> ConsId {
        let h = Self::hash(cons);
        if let Some(ids) = self.index.get(&h) {
            for &id in ids {
                if self.arena.get(id as usize).is_some_and(|b| b.as_ref() == cons) {
                    return id;
                }
            }
        }
        let id = self.arena.len() as ConsId;
        self.arena.push(cons.into());
        self.allocs += 1;
        self.index.entry(h).or_default().push(id);
        id
    }
}

struct Solver<'a> {
    inst: &'a Instance,
    ids: &'a [TaskId],
    memo: HashMap<StateKey, (u64, Option<TaskId>)>,
    pool: ConstraintPool,
    /// Reused canonicalisation output buffer.
    canon_buf: Vec<Constraint>,
    /// Reused dominance-pruning marks.
    keep_buf: Vec<bool>,
    /// Scratch-buffer growths (counted like arena insertions, so the
    /// `mwis.allocs` gauge covers every allocation the scheme performs).
    scratch_allocs: u64,
    max_states: usize,
    exhausted: bool,
    budget: &'a Budget,
    budget_tripped: bool,
}

/// Computes a maximum-weight subset of `ids` whose rectangles `R(j)` are
/// pairwise disjoint, charging one `PackSweep` work unit per recursive
/// sweep against `budget` (pass [`Budget::unlimited`] for no limit).
///
/// `Err(BudgetExhausted)` is the cooperative budget tripping; `Ok(None)`
/// is the solver's own memo-state budget giving up (never observed on the
/// paper's workloads; see `MwisConfig`).
pub fn max_weight_packing(
    instance: &Instance,
    ids: &[TaskId],
    config: MwisConfig,
    budget: &Budget,
) -> SapResult<Option<Vec<TaskId>>> {
    if ids.is_empty() {
        return Ok(Some(Vec::new()));
    }
    let mut solver = Solver {
        inst: instance,
        ids,
        memo: HashMap::new(),
        pool: ConstraintPool::new(),
        canon_buf: Vec::new(),
        keep_buf: Vec::new(),
        scratch_allocs: 0,
        max_states: config.max_states,
        exhausted: false,
        budget,
        budget_tripped: false,
    };
    let m = instance.num_edges();
    let root = solver.pool.intern(&[]);
    let value = solver.solve(0, m, root, None);
    let tele = budget.telemetry();
    tele.gauge_max("mwis.memo_states", solver.memo.len() as u64);
    tele.count("mwis.allocs", solver.pool.allocs + solver.scratch_allocs);
    if solver.budget_tripped {
        return Err(SapError::BudgetExhausted);
    }
    if solver.exhausted {
        return Ok(None);
    }
    let mut chosen = Vec::new();
    solver.reconstruct(0, m, root, None, &mut chosen);
    debug_assert!(is_valid_packing(instance, &chosen));
    debug_assert_eq!(instance.total_weight(&chosen), value);
    Ok(Some(chosen))
}

impl<'a> Solver<'a> {
    /// Canonicalises the interned set `parent` (plus an optional extra
    /// floor from a crossing branch) for the sub-range `lo..hi` and
    /// interns the result: clip, drop non-overlapping, sort, merge
    /// dominated entries. Runs entirely in the reused scratch buffers —
    /// the only allocation is the arena insertion on a first-seen set.
    ///
    /// Interned sets are stored sorted, so after clipping the buffer is
    /// usually still sorted (clipping is monotone); the O(k log k) sort
    /// only runs when clipping collapsed distinct endpoints out of order
    /// or an extra floor was appended.
    fn canonicalize(
        &mut self,
        lo: usize,
        hi: usize,
        parent: ConsId,
        extra: Option<Constraint>,
    ) -> ConsId {
        let mut buf = std::mem::take(&mut self.canon_buf);
        let mut keep = std::mem::take(&mut self.keep_buf);
        let (buf_cap, keep_cap) = (buf.capacity(), keep.capacity());
        buf.clear();
        {
            let cons = self.pool.get(parent);
            for &(clo, chi, f) in cons.iter().chain(extra.iter()) {
                let nlo = clo.max(lo);
                let nhi = chi.min(hi);
                if nlo < nhi && f > 0 {
                    buf.push((nlo, nhi, f));
                }
            }
        }
        if !buf.windows(2).all(|pair| pair[0] <= pair[1]) {
            buf.sort_unstable();
        }
        debug_assert!(buf.windows(2).all(|pair| pair[0] <= pair[1]));
        // Remove entries dominated by another (contained x-range with a
        // floor no larger).
        keep.clear();
        keep.resize(buf.len(), true);
        for i in 0..buf.len() {
            for j in 0..buf.len() {
                if i != j && keep[i] && keep[j] {
                    let (ilo, ihi, fi) = buf[i];
                    let (jlo, jhi, fj) = buf[j];
                    let contained = jlo <= ilo && ihi <= jhi;
                    let tie_break = fi < fj || (fi == fj && (jlo, jhi) != (ilo, ihi));
                    if contained && fi <= fj && (tie_break || j < i) {
                        keep[i] = false;
                    }
                }
            }
        }
        let mut idx = 0;
        buf.retain(|_| {
            let k = keep.get(idx).copied().unwrap_or(true);
            idx += 1;
            k
        });
        let id = self.pool.intern(&buf);
        self.scratch_allocs += u64::from(buf.capacity() > buf_cap);
        self.scratch_allocs += u64::from(keep.capacity() > keep_cap);
        self.canon_buf = buf;
        self.keep_buf = keep;
        id
    }

    /// True when task `j` (span within `lo..hi`) satisfies all floors.
    fn eligible(&self, j: TaskId, lo: usize, hi: usize, cons: &[Constraint]) -> bool {
        let span = self.inst.span(j);
        if span.lo < lo || span.hi > hi {
            return false;
        }
        let ell = self.inst.bottleneck(j) - self.inst.demand(j);
        cons.iter()
            .all(|&(clo, chi, f)| !(span.lo < chi && clo < span.hi) || ell >= f)
    }

    fn split_edge(&self, lo: usize, hi: usize) -> EdgeId {
        self.inst
            .network()
            .bottleneck_edge(sap_core::Span { lo, hi })
    }

    /// Solves the sub-range `lo..hi` under the interned parent set plus
    /// an optional crossing floor (applied during canonicalisation, so
    /// the floor-extended set is never materialised as an owned clone).
    fn solve(&mut self, lo: usize, hi: usize, parent: ConsId, extra: Option<Constraint>) -> u64 {
        if lo >= hi || self.exhausted {
            return 0;
        }
        if self.budget.checkpoint(CheckpointClass::PackSweep, 1).is_err() {
            // Unwind the whole recursion; the caller maps this to
            // Err(BudgetExhausted), so the bogus 0 value is never used.
            self.exhausted = true;
            self.budget_tripped = true;
            return 0;
        }
        let id = self.canonicalize(lo, hi, parent, extra);
        let key = (lo, hi, id);
        if let Some(&(v, _)) = self.memo.get(&key) {
            return v;
        }
        if self.memo.len() >= self.max_states {
            self.exhausted = true;
            return 0;
        }

        let e = self.split_edge(lo, hi);
        let cap = self.inst.network().capacity(e);
        // One pass over the ids: does any candidate exist, and which
        // candidates cross the split edge?
        let mut any_candidate = false;
        let mut crossing: Vec<TaskId> = Vec::new();
        {
            let cons = self.pool.get(id);
            for &j in self.ids {
                if self.eligible(j, lo, hi, cons) {
                    any_candidate = true;
                    if self.inst.span(j).contains(e) {
                        crossing.push(j);
                    }
                }
            }
        }
        if !any_candidate {
            self.memo.insert(key, (0, None));
            return 0;
        }

        // Branch: no task crosses e.
        let mut best = self.solve(lo, e, id, None) + self.solve(e + 1, hi, id, None);
        let mut best_choice: Option<TaskId> = None;

        // Branch: j* crosses e.
        for j in crossing {
            let span = self.inst.span(j);
            debug_assert_eq!(self.inst.bottleneck(j), cap);
            let floor = Some((span.lo, span.hi, cap));
            let v = self.inst.weight(j)
                + self.solve(lo, e, id, floor)
                + self.solve(e + 1, hi, id, floor);
            if v > best {
                best = v;
                best_choice = Some(j);
            }
        }

        self.memo.insert(key, (best, best_choice));
        best
    }

    fn reconstruct(
        &mut self,
        lo: usize,
        hi: usize,
        parent: ConsId,
        extra: Option<Constraint>,
        out: &mut Vec<TaskId>,
    ) {
        if lo >= hi {
            return;
        }
        let id = self.canonicalize(lo, hi, parent, extra);
        let key = (lo, hi, id);
        let Some(&(v, choice)) = self.memo.get(&key) else {
            return;
        };
        if v == 0 && choice.is_none() {
            // Could still be the "no crossing task" branch with zero value;
            // nothing to collect either way.
            return;
        }
        let e = self.split_edge(lo, hi);
        match choice {
            None => {
                self.reconstruct(lo, e, id, None, out);
                self.reconstruct(e + 1, hi, id, None, out);
            }
            Some(j) => {
                out.push(j);
                let span = self.inst.span(j);
                let cap = self.inst.network().capacity(e);
                let floor = Some((span.lo, span.hi, cap));
                self.reconstruct(lo, e, id, floor, out);
                self.reconstruct(e + 1, hi, id, floor, out);
            }
        }
    }
}

/// Brute-force MWIS over rectangles, `O(2ⁿ·n²)` — the oracle for tests.
///
/// # Panics
///
/// Panics when more than 22 ids are given.
pub fn max_weight_packing_bruteforce(instance: &Instance, ids: &[TaskId]) -> Vec<TaskId> {
    let n = ids.len();
    assert!(n <= 22, "brute force limited to 22 tasks");
    let rects: Vec<_> = ids.iter().map(|&j| rect_of(instance, j)).collect();
    let mut best_mask = 0u32;
    let mut best_w = 0u64;
    'mask: for mask in 0u32..(1u32 << n) {
        let mut w = 0u64;
        for i in 0..n {
            if mask & (1 << i) == 0 {
                continue;
            }
            for k in (i + 1)..n {
                if mask & (1 << k) != 0 && !crate::reduction::rects_disjoint(&rects[i], &rects[k])
                {
                    continue 'mask;
                }
            }
            w += instance.weight(ids[i]);
        }
        if w > best_w {
            best_w = w;
            best_mask = mask;
        }
    }
    (0..n).filter(|&i| best_mask & (1 << i) != 0).map(|i| ids[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sap_core::{PathNetwork, Task};

    /// Unbudgeted packing with the default state budget.
    fn pack(inst: &Instance, ids: &[TaskId]) -> Option<Vec<TaskId>> {
        max_weight_packing(inst, ids, MwisConfig::default(), &Budget::unlimited()).unwrap()
    }

    fn solve_both(inst: &Instance) -> (u64, u64) {
        let ids = inst.all_ids();
        let exact = pack(inst, &ids).expect("budget");
        assert!(is_valid_packing(inst, &exact));
        let brute = max_weight_packing_bruteforce(inst, &ids);
        (inst.total_weight(&exact), inst.total_weight(&brute))
    }

    #[test]
    fn single_task() {
        let net = PathNetwork::uniform(3, 5).unwrap();
        let inst = Instance::new(net, vec![Task::of(0, 3, 2, 7)]).unwrap();
        let (a, b) = solve_both(&inst);
        assert_eq!(a, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn crossing_min_edge_excludes_all_but_one() {
        // All three tasks cross the min edge: tops all equal ⇒ pick max w.
        let net = PathNetwork::new(vec![9, 3, 9]).unwrap();
        let tasks = vec![
            Task::of(0, 3, 1, 5),
            Task::of(1, 2, 2, 7),
            Task::of(0, 2, 3, 6),
        ];
        let inst = Instance::new(net, tasks).unwrap();
        let (a, b) = solve_both(&inst);
        assert_eq!(a, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn stacking_above_the_crossing_task() {
        // j* crosses the valley (top 4); side tasks with high residual can
        // sit above it, low-residual ones cannot.
        let net = PathNetwork::new(vec![10, 4, 10]).unwrap();
        let tasks = vec![
            Task::of(0, 3, 2, 10), // R = [0,3) × [2,4) — crosses valley
            Task::of(0, 1, 5, 4),  // R = [0,1) × [5,10) — above, compatible
            Task::of(2, 3, 7, 4),  // R = [2,3) × [3,10) — bottom 3 < 4 ⇒ conflict
        ];
        let inst = Instance::new(net, tasks).unwrap();
        let ids = inst.all_ids();
        let exact = pack(&inst, &ids).unwrap();
        let mut sorted = exact.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1]);
        let (a, b) = solve_both(&inst);
        assert_eq!(a, b);
    }

    #[test]
    fn matches_bruteforce_on_random_instances() {
        let mut s = 0xC0FFEEu64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for case in 0..60 {
            let m = 2 + (next() % 7) as usize;
            let caps: Vec<u64> = (0..m).map(|_| 2 + next() % 14).collect();
            let net = PathNetwork::new(caps).unwrap();
            let n = 1 + (next() % 12) as usize;
            let mut tasks = Vec::new();
            for _ in 0..n {
                let lo = (next() % m as u64) as usize;
                let hi = (lo + 1 + (next() % (m as u64 - lo as u64)) as usize).min(m);
                let span = sap_core::Span { lo, hi };
                let b = net.bottleneck(span);
                let d = 1 + next() % b;
                tasks.push(Task::of(lo, hi, d, 1 + next() % 20));
            }
            let inst = Instance::new(net, tasks).unwrap();
            let (a, b) = solve_both(&inst);
            assert_eq!(a, b, "case {case}");
        }
    }

    #[test]
    fn large_task_family_solves_fast() {
        // 1/2-large workload, n = 60: must finish within the state budget.
        let mut s = 0xBEEF123u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let m = 30usize;
        let caps: Vec<u64> = (0..m).map(|_| 16 + next() % 240).collect();
        let net = PathNetwork::new(caps).unwrap();
        let mut tasks = Vec::new();
        for _ in 0..60 {
            let lo = (next() % m as u64) as usize;
            let hi = (lo + 1 + (next() % 6) as usize).min(m);
            let span = sap_core::Span { lo, hi };
            let b = net.bottleneck(span);
            let d = b / 2 + 1 + next() % (b - b / 2); // strictly 1/2-large
            tasks.push(Task::of(lo, hi, d.min(b), 1 + next() % 50));
        }
        let inst = Instance::new(net, tasks).unwrap();
        let ids = inst.all_ids();
        let sol = pack(&inst, &ids).expect("budget");
        assert!(is_valid_packing(&inst, &sol));
        assert!(!sol.is_empty());
    }

    #[test]
    fn empty_input() {
        let net = PathNetwork::uniform(2, 4).unwrap();
        let inst = Instance::new(net, vec![]).unwrap();
        assert_eq!(
            pack(&inst, &[]).unwrap(),
            Vec::<TaskId>::new()
        );
    }

    #[test]
    fn interned_allocs_are_pinned_on_a_fixed_large_family() {
        // The deterministic allocation gauge is pinned exactly on fixed
        // 1/2-large instances, so any extra allocation in the memo-key
        // scheme fails here.
        let allocs = |inst: &Instance| {
            let rec = sap_core::Recorder::new();
            let budget = Budget::unlimited().with_telemetry(rec.handle());
            max_weight_packing(inst, &inst.all_ids(), MwisConfig::default(), &budget)
                .unwrap()
                .unwrap();
            rec.handle().counter("mwis.allocs")
        };
        let mut s = 0xBEEF123u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let m = 30usize;
        let caps: Vec<u64> = (0..m).map(|_| 16 + next() % 240).collect();
        let net = PathNetwork::new(caps).unwrap();
        let mut tasks = Vec::new();
        for _ in 0..60 {
            let lo = (next() % m as u64) as usize;
            let hi = (lo + 1 + (next() % 6) as usize).min(m);
            let span = sap_core::Span { lo, hi };
            let b = net.bottleneck(span);
            let d = b / 2 + 1 + next() % (b - b / 2);
            tasks.push(Task::of(lo, hi, d.min(b), 1 + next() % 50));
        }
        assert_eq!(allocs(&Instance::new(net, tasks).unwrap()), 144);
        // Two generated k = 2 instances on 14 edges.
        for (seed, pinned) in [(9500, 55), (9501, 52)] {
            let inst = sap_gen::generate(
                &sap_gen::GenConfig {
                    num_edges: 14,
                    num_tasks: 40,
                    profile: sap_gen::CapacityProfile::Random { lo: 16, hi: 255 },
                    regime: sap_gen::DemandRegime::Large { k: 2 },
                    max_span: 6,
                    max_weight: 50,
                },
                seed,
            );
            assert_eq!(allocs(&inst), pinned, "seed {seed}");
        }
    }

    #[test]
    fn tight_budget_trips() {
        let net = PathNetwork::new(vec![10, 4, 10]).unwrap();
        let tasks = vec![Task::of(0, 3, 2, 10), Task::of(0, 1, 5, 4), Task::of(2, 3, 7, 4)];
        let inst = Instance::new(net, tasks).unwrap();
        let ids = inst.all_ids();
        let tight = Budget::unlimited().with_work_units(1);
        assert!(matches!(
            max_weight_packing(&inst, &ids, MwisConfig::default(), &tight),
            Err(SapError::BudgetExhausted)
        ));
    }
}
