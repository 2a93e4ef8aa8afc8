//! Zero-dependency observability: a deterministic recorder of nested
//! spans, named counters, monotonic gauges and log2 histograms.
//!
//! The portfolio driver is a best-of-three race whose arms each burn work
//! in very different places (simplex pivots, DP rows, rectangle sweeps).
//! A [`Recorder`] collects *where* that work went without perturbing the
//! race: the [`Telemetry`] handle threaded through the solvers (it rides
//! inside [`crate::budget::Budget`]) is an `Option<Arc<..>>` — the
//! default handle is **off** and every operation returns after one null
//! check, with no allocation and no locking on the hot path.
//!
//! Work is attributed by construction: every
//! [`Budget::checkpoint`](crate::budget::Budget::checkpoint) adds its
//! units to the budget's phase, so per-phase work sums to the budget
//! meter. A finished tree is read out once, as an
//! [`ObsNode`] ([`Recorder::snapshot`]), and every export renders from
//! that snapshot: the JSON export through the workspace's one writer
//! ([`crate::json::Json`]), the tree view as text.
//!
//! ## Determinism contract
//!
//! The JSON export ([`Recorder::to_json_string`]) follows the same rules
//! as [`crate::budget::SolveReport`]: no wall-clock fields, children and
//! metric names sorted, counters accumulated with commutative updates
//! (atomic adds / maxes). Two runs of the same instance under the same
//! budget therefore export **byte-identical** documents regardless of
//! thread interleaving. Wall-clock timings exist but are opt-in
//! ([`Recorder::with_timings`]) and clearly marked (`busy_ns`, emitted
//! only when nonzero), so a deterministic export never contains them.
//!
//! ## Adding a counter
//!
//! Pick the node whose phase you are in (usually
//! `budget.telemetry()`), and call [`Telemetry::count`] /
//! [`Telemetry::gauge_max`] / [`Telemetry::observe`] with a `'static`
//! identifier-like name. Only record
//! values that are functions of the input — never of thread scheduling —
//! or the determinism gate in `scripts/ci.sh` will catch the drift.
//! Register the name in the DESIGN.md §9 counter registry (the `t2`
//! lint rejects counter names that no test or exported doc mentions).
//!
//! Per-solve recorders are not the only producers: long-lived engines
//! (the serve engine, its admission controller) accumulate plain `u64`
//! stats across requests and replay them onto a fresh recorder at
//! shutdown via `count` — cumulative families like `serve.*` follow the
//! same static-name and determinism rules as per-solve counters, with
//! "dynamic" dimensions (arm names, tenants) folded onto fixed names
//! (`serve.winner.*`, `serve.tenant.*`) rather than interpolated.

use std::fmt::Write;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::budget::CheckpointClass;
use crate::json::Json;
use crate::obs::{Histogram, ObsNode};

/// Schema version emitted as the leading `"v"` field of the telemetry
/// JSON export.
pub const TELEMETRY_SCHEMA_VERSION: u64 = 1;

/// Mutex lock that shrugs off poisoning: telemetry must keep working
/// while the driver unwinds a panicked arm (partial metrics are exactly
/// what the report needs then), and every protected value stays
/// internally consistent under a mid-update unwind (plain vecs of PODs).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// One node of the phase tree: entry count, per-class work units, and
/// the node's own counters / gauges / histograms / children.
#[derive(Debug)]
struct SpanNode {
    name: &'static str,
    /// Wall-clock collection on/off, inherited from the [`Recorder`].
    timings: bool,
    entries: AtomicU64,
    busy_nanos: AtomicU64,
    work: [AtomicU64; CheckpointClass::ALL.len()],
    counters: Mutex<Vec<(&'static str, u64)>>,
    gauges: Mutex<Vec<(&'static str, u64)>>,
    hists: Mutex<Vec<(&'static str, Histogram)>>,
    children: Mutex<Vec<Arc<SpanNode>>>,
}

impl SpanNode {
    fn new(name: &'static str, timings: bool) -> SpanNode {
        SpanNode {
            name,
            timings,
            entries: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            work: std::array::from_fn(|_| AtomicU64::new(0)),
            counters: Mutex::new(Vec::new()),
            gauges: Mutex::new(Vec::new()),
            hists: Mutex::new(Vec::new()),
            children: Mutex::new(Vec::new()),
        }
    }

    /// Find-or-create the child named `name` (one node per distinct name:
    /// concurrent spans of the same phase share a node, which is what
    /// keeps the export independent of interleaving).
    fn child(self: &Arc<SpanNode>, name: &'static str) -> Arc<SpanNode> {
        let mut kids = lock(&self.children);
        if let Some(k) = kids.iter().find(|k| k.name == name) {
            return Arc::clone(k);
        }
        let node = Arc::new(SpanNode::new(name, self.timings));
        kids.push(Arc::clone(&node));
        node
    }

    fn work_units(&self, class: CheckpointClass) -> u64 {
        self.work.get(class.index()).map_or(0, |w| w.load(Ordering::Relaxed))
    }

    fn work_total(&self) -> u64 {
        self.work.iter().fold(0u64, |acc, w| acc.saturating_add(w.load(Ordering::Relaxed)))
    }

    /// The finished tree below (and including) this node.
    fn snapshot(&self) -> ObsNode {
        let kids: Vec<Arc<SpanNode>> = lock(&self.children).clone();
        ObsNode {
            name: self.name,
            entries: self.entries.load(Ordering::Relaxed),
            busy_ns: self.busy_nanos.load(Ordering::Relaxed),
            work: std::array::from_fn(|i| {
                self.work.get(i).map_or(0, |w| w.load(Ordering::Relaxed))
            }),
            counters: lock(&self.counters).iter().copied().collect(),
            gauges: lock(&self.gauges).iter().copied().collect(),
            hists: lock(&self.hists).iter().cloned().collect(),
            children: kids.iter().map(|k| (k.name, k.snapshot())).collect(),
        }
    }
}

/// Adds `n` to the named slot of a `(name, value)` metric vec.
fn slot_add(slot: &Mutex<Vec<(&'static str, u64)>>, name: &'static str, n: u64) {
    let mut v = lock(slot);
    match v.iter_mut().find(|(k, _)| *k == name) {
        Some((_, val)) => *val = val.saturating_add(n),
        None => v.push((name, n)),
    }
}

/// Raises the named slot to at least `n` (monotonic gauge).
fn slot_max(slot: &Mutex<Vec<(&'static str, u64)>>, name: &'static str, n: u64) {
    let mut v = lock(slot);
    match v.iter_mut().find(|(k, _)| *k == name) {
        Some((_, val)) => *val = (*val).max(n),
        None => v.push((name, n)),
    }
}

/// A cheap, cloneable handle to one node of a [`Recorder`]'s phase tree
/// — or the **off** handle ([`Telemetry::off`], also the `Default`),
/// whose every method is a null-check no-op.
///
/// Handles are explicit-parent: nesting is expressed by carrying the
/// child handle (usually inside a child [`crate::budget::Budget`])
/// rather than through thread-local state, so parallel arms can never
/// mis-attribute work.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    node: Option<Arc<SpanNode>>,
}

impl Telemetry {
    /// The disabled handle: all operations are no-ops, all queries
    /// return zero / `None`.
    pub fn off() -> Telemetry {
        Telemetry { node: None }
    }

    /// True when this handle records into a live [`Recorder`].
    pub fn is_enabled(&self) -> bool {
        self.node.is_some()
    }

    /// Handle to the child phase `name`, created on first use. Does not
    /// count an entry — use [`Telemetry::span`] for that.
    pub fn child(&self, name: &'static str) -> Telemetry {
        Telemetry { node: self.node.as_ref().map(|n| n.child(name)) }
    }

    /// Enters the child phase `name`: bumps its entry count and returns
    /// an RAII [`Span`] guard that (with timings enabled) adds the
    /// elapsed wall-clock to the phase on drop.
    pub fn span(&self, name: &'static str) -> Span {
        self.child(name).enter()
    }

    /// Enters *this* phase (see [`Telemetry::span`]): bumps the entry
    /// count and returns the RAII guard.
    pub fn enter(&self) -> Span {
        let mut started = None;
        if let Some(node) = &self.node {
            node.entries.fetch_add(1, Ordering::Relaxed);
            if node.timings {
                // lint:allow(n1) — guarded by the `timings` opt-in:
                // durations are recorded only when the caller asked for
                // wall-clock data and accepts the nondeterminism.
                started = Some(Instant::now());
            }
        }
        Span { tele: self.clone(), started }
    }

    /// Adds `n` to the counter `name` on this phase.
    pub fn count(&self, name: &'static str, n: u64) {
        if let Some(node) = &self.node {
            slot_add(&node.counters, name, n);
        }
    }

    /// Raises the monotonic gauge `name` to at least `v`.
    pub fn gauge_max(&self, name: &'static str, v: u64) {
        if let Some(node) = &self.node {
            slot_max(&node.gauges, name, v);
        }
    }

    /// Records `v` into the log2 histogram `name` (bucket 0 = zero,
    /// bucket k = `[2^(k-1), 2^k)`).
    pub fn observe(&self, name: &'static str, v: u64) {
        let Some(node) = &self.node else { return };
        let mut hs = lock(&node.hists);
        if !hs.iter().any(|(k, _)| *k == name) {
            hs.push((name, Histogram::new()));
        }
        if let Some((_, h)) = hs.iter_mut().find(|(k, _)| *k == name) {
            h.record(v);
        }
    }

    /// Attributes `units` work units of `class` to this phase. This is
    /// what [`crate::budget::Budget::checkpoint`] calls, so the per-phase
    /// sums reconcile with the budget meter (the conservation test pins
    /// it).
    pub fn work(&self, class: CheckpointClass, units: u64) {
        if let Some(node) = &self.node {
            if let Some(w) = node.work.get(class.index()) {
                w.fetch_add(units, Ordering::Relaxed);
            }
        }
    }

    /// Times this phase entered (via [`Telemetry::enter`] /
    /// [`Telemetry::span`]); 0 when off.
    pub fn entries(&self) -> u64 {
        self.node.as_ref().map_or(0, |n| n.entries.load(Ordering::Relaxed))
    }

    /// Work units of `class` attributed to this phase; 0 when off.
    pub fn work_units(&self, class: CheckpointClass) -> u64 {
        self.node.as_ref().map_or(0, |n| n.work_units(class))
    }

    /// Total work units attributed to this phase (its own, children not
    /// included); 0 when off.
    pub fn work_total(&self) -> u64 {
        self.node.as_ref().map_or(0, |n| n.work_total())
    }

    /// Current value of the counter `name`; 0 when absent or off.
    pub fn counter(&self, name: &str) -> u64 {
        let Some(node) = &self.node else { return 0 };
        lock(&node.counters).iter().find(|(k, _)| *k == name).map_or(0, |&(_, v)| v)
    }

    /// Current value of the gauge `name`; 0 when absent or off.
    pub fn gauge(&self, name: &str) -> u64 {
        let Some(node) = &self.node else { return 0 };
        lock(&node.gauges).iter().find(|(k, _)| *k == name).map_or(0, |&(_, v)| v)
    }

    /// Handle to the existing child phase `name`, without creating it.
    pub fn get_child(&self, name: &str) -> Option<Telemetry> {
        let node = self.node.as_ref()?;
        let kids = lock(&node.children);
        kids.iter()
            .find(|k| k.name == name)
            .map(|k| Telemetry { node: Some(Arc::clone(k)) })
    }
}

/// RAII guard for an entered phase. Derefs to the phase's [`Telemetry`]
/// handle so nested metrics read naturally
/// (`let sp = tele.span("lp.solve"); sp.count("solves", 1);`).
#[derive(Debug)]
pub struct Span {
    tele: Telemetry,
    started: Option<Instant>,
}

impl Span {
    /// An owned handle to this span's phase, e.g. for attaching to a
    /// child [`crate::budget::Budget`] that outlives the guard.
    pub fn telemetry(&self) -> Telemetry {
        self.tele.clone()
    }
}

impl Deref for Span {
    type Target = Telemetry;

    fn deref(&self) -> &Telemetry {
        &self.tele
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let (Some(t0), Some(node)) = (self.started, self.tele.node.as_ref()) {
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            node.busy_nanos.fetch_add(ns, Ordering::Relaxed);
        }
    }
}

/// Owns the root of a phase tree and renders the exports.
///
/// Typical use: create a recorder, attach its [`Recorder::handle`] to a
/// [`crate::budget::Budget`] via
/// [`with_telemetry`](crate::budget::Budget::with_telemetry), run the
/// solve, then export.
#[derive(Debug)]
pub struct Recorder {
    root: Arc<SpanNode>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder with wall-clock timings **off** (the deterministic
    /// default).
    pub fn new() -> Recorder {
        Recorder { root: Arc::new(SpanNode::new("root", false)) }
    }

    /// A recorder that additionally accumulates per-span wall-clock time
    /// (`busy_ns` in the JSON export, `busy_ms` in the tree). Timed
    /// exports are **not** byte-reproducible across runs.
    pub fn with_timings() -> Recorder {
        Recorder { root: Arc::new(SpanNode::new("root", true)) }
    }

    /// The handle to the root phase.
    pub fn handle(&self) -> Telemetry {
        Telemetry { node: Some(Arc::clone(&self.root)) }
    }

    /// Deterministic single-line JSON export of [`Recorder::snapshot`]
    /// (see the module docs for the determinism contract and
    /// [`telemetry_json`] for the layout).
    pub fn to_json_string(&self) -> String {
        telemetry_json(&self.snapshot()).to_string_compact()
    }

    /// Human-readable phase-tree summary of [`Recorder::snapshot`],
    /// two-space indented, one line per phase:
    ///
    /// ```text
    /// root  n=0  work=241 (driver=1 ...)
    ///   small  n=1  work=120 (lp_pivot=113 driver=7)  lp.solves=4
    /// ```
    pub fn to_tree_string(&self) -> String {
        let mut out = String::with_capacity(256);
        write_tree(&self.snapshot(), 0, &mut out);
        out
    }

    /// An owned, sorted snapshot of the whole phase tree — the one
    /// finished-tree type every export renders from, and the handoff
    /// format for cumulative aggregation ([`crate::obs`]): a long-lived
    /// engine merges the snapshots of finished per-request recorders into
    /// one profile.
    pub fn snapshot(&self) -> ObsNode {
        self.root.snapshot()
    }
}

/// The telemetry export document for a snapshot root:
///
/// ```json
/// {"v":1,"spans":{"name":"root","n":0,"work":{..},"counters":{..},
///  "gauges":{..},"hist":{"k":[[bucket,count],..]},"children":[..]}}
/// ```
///
/// `spans` is [`ObsNode::to_json`]: empty sections are omitted, and
/// `busy_ns` appears only when a [`Recorder::with_timings`] measured it.
pub fn telemetry_json(root: &ObsNode) -> Json {
    Json::Object(vec![
        ("v".into(), Json::UInt(TELEMETRY_SCHEMA_VERSION)),
        ("spans".into(), root.to_json()),
    ])
}

/// Appends one indented line per phase of `node`'s subtree (the
/// [`Recorder::to_tree_string`] view).
fn write_tree(node: &ObsNode, depth: usize, out: &mut String) {
    // Writing into a `String` cannot fail.
    let indent = 2 * depth;
    let _ = write!(out, "{:indent$}{}  n={}", "", node.name, node.entries);
    let _ = write!(out, "  work={}", node.work_total());
    if node.work_total() > 0 {
        let classes = CheckpointClass::ALL.iter().filter(|&&c| node.work_units(c) > 0);
        let split: Vec<String> =
            classes.map(|&c| format!("{}={}", c.as_str(), node.work_units(c))).collect();
        let _ = write!(out, " ({})", split.join(" "));
    }
    if node.busy_ns > 0 {
        let _ = write!(out, "  busy_ms={}", node.busy_ns / 1_000_000);
    }
    for (k, v) in &node.counters {
        let _ = write!(out, "  {k}={v}");
    }
    for (k, v) in &node.gauges {
        let _ = write!(out, "  max:{k}={v}");
    }
    for (k, h) in &node.hists {
        let _ = write!(out, "  {k}~{}", h.total());
    }
    out.push('\n');
    for child in node.children.values() {
        write_tree(child, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_is_a_noop() {
        let t = Telemetry::off();
        assert!(!t.is_enabled());
        t.count("x", 5);
        t.gauge_max("g", 9);
        t.observe("h", 3);
        t.work(CheckpointClass::DpRow, 7);
        let sp = t.span("phase");
        sp.count("y", 1);
        drop(sp);
        assert_eq!(t.counter("x"), 0);
        assert_eq!(t.entries(), 0);
        assert_eq!(t.work_total(), 0);
        assert!(t.get_child("phase").is_none());
        assert!(Telemetry::default().node.is_none(), "Default must be the off handle");
    }

    #[test]
    fn counters_gauges_and_work_accumulate() {
        let rec = Recorder::new();
        let t = rec.handle();
        t.count("a", 2);
        t.count("a", 3);
        t.gauge_max("g", 4);
        t.gauge_max("g", 2);
        t.work(CheckpointClass::LpPivot, 10);
        t.work(CheckpointClass::Driver, 1);
        assert_eq!(t.counter("a"), 5);
        assert_eq!(t.gauge("g"), 4);
        assert_eq!(t.work_units(CheckpointClass::LpPivot), 10);
        assert_eq!(t.work_total(), 11);
    }

    #[test]
    fn log2_buckets() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(255), 8);
        assert_eq!(Histogram::bucket_of(256), 9);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        let rec = Recorder::new();
        let t = rec.handle();
        for v in [0, 1, 2, 3, 8] {
            t.observe("h", v);
        }
        let json = rec.to_json_string();
        assert!(json.contains("\"hist\":{\"h\":[[0,1],[1,1],[2,2],[4,1]]}"), "{json}");
    }

    #[test]
    fn spans_nest_and_share_nodes_by_name() {
        let rec = Recorder::new();
        let t = rec.handle();
        {
            let arm = t.span("arm");
            let _inner = arm.span("lp");
            let _inner2 = arm.span("lp");
        }
        let arm = t.get_child("arm").expect("created");
        assert_eq!(arm.entries(), 1);
        assert_eq!(arm.get_child("lp").expect("created").entries(), 2);
        assert!(arm.get_child("missing").is_none());
    }

    #[test]
    fn json_is_sorted_and_insertion_order_independent() {
        let build = |order: &[&'static str]| {
            let rec = Recorder::new();
            let t = rec.handle();
            for name in order {
                t.child(name).count("hits", 1);
                t.count(name, 2);
            }
            rec.to_json_string()
        };
        let a = build(&["beta", "alpha", "gamma"]);
        let b = build(&["gamma", "beta", "alpha"]);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"v\":1,\"spans\":{\"name\":\"root\""), "{a}");
        assert!(!a.contains('\n'));
        assert!(!a.contains("busy_ns"), "timings are opt-in: {a}");
    }

    #[test]
    fn timings_flag_adds_busy_fields() {
        let rec = Recorder::with_timings();
        let t = rec.handle();
        drop(t.span("work"));
        let json = rec.to_json_string();
        assert!(json.contains("\"busy_ns\":"), "{json}");
        assert!(rec.to_tree_string().contains("busy_ms="));
    }

    #[test]
    fn tree_export_lists_phases() {
        let rec = Recorder::new();
        let t = rec.handle();
        t.work(CheckpointClass::Driver, 1);
        let arm = t.span("small");
        arm.count("lp.solves", 3);
        arm.gauge_max("peak", 7);
        arm.observe("sizes", 4);
        drop(arm);
        let tree = rec.to_tree_string();
        assert!(tree.starts_with("root  n=0  work=1 (driver=1)\n"), "{tree}");
        assert!(tree.contains("  small  n=1  work=0  lp.solves=3  max:peak=7  sizes~1"), "{tree}");
    }

    #[test]
    fn tree_export_order_is_insertion_independent() {
        // Regression for the counter/child ordering contract: a child
        // created *after* its parent's counters (and counters added
        // after the child) must render identically to the reverse
        // insertion order — the exporters sort at render time.
        let build = |counters_first: bool| {
            let rec = Recorder::new();
            let t = rec.handle();
            if counters_first {
                t.count("zeta", 1);
                t.count("alpha", 2);
                t.child("kid").count("hits", 1);
            } else {
                t.child("kid").count("hits", 1);
                t.count("alpha", 2);
                t.count("zeta", 1);
            }
            rec.to_tree_string()
        };
        let a = build(true);
        let b = build(false);
        assert_eq!(a, b);
        assert!(a.starts_with("root  n=0  work=0  alpha=2  zeta=1\n"), "{a}");
        assert!(a.contains("  kid  n=0  work=0  hits=1"), "{a}");
    }

    #[test]
    fn snapshot_captures_the_sorted_tree() {
        let rec = Recorder::new();
        let t = rec.handle();
        t.work(CheckpointClass::Driver, 3);
        let arm = t.span("beta");
        arm.count("hits", 2);
        arm.observe("sizes", 5);
        drop(arm);
        t.child("alpha").gauge_max("peak", 9);
        let snap = rec.snapshot();
        assert_eq!(snap.name, "root");
        assert_eq!(snap.work_total(), 3);
        // Children sorted by name regardless of creation order.
        let names: Vec<&str> = snap.children.values().map(|c| c.name).collect();
        assert_eq!(names, vec!["alpha", "beta"]);
        let beta = snap.child("beta").expect("captured");
        assert_eq!(beta.entries, 1);
        assert_eq!(beta.counters.get("hits"), Some(&2));
        assert_eq!(beta.hists.len(), 1);
        assert_eq!(beta.hists.get("sizes").map(Histogram::total), Some(1));
        assert_eq!(snap.child("alpha").expect("captured").gauges.get("peak"), Some(&9));
        assert!(snap.child("missing").is_none());
    }
}
