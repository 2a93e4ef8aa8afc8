//! `sap serve` — a deterministic NDJSON batch solve service.
//!
//! The engine behind the `sap serve` subcommand: it reads one JSON
//! request per line, solves each instance through the budgeted driver
//! ([`sap_algs::try_solve`] / [`sap_algs::try_solve_practical`]), and
//! emits one schema-versioned JSON response per line, in input order.
//! Everything is hermetic — stdin/stdout, no network.
//!
//! ## Request format
//!
//! A request line is either a bare instance document (the same
//! [`InstanceDto`] format `sap solve` reads from disk) or an envelope
//! with per-request overrides:
//!
//! ```json
//! {"instance": {"capacities": [4], "tasks": [...]},
//!  "algo": "combined", "work_units": 50000, "workers": 2,
//!  "tenant": "team-a"}
//! ```
//!
//! Envelope keys other than `instance` / `algo` / `work_units` /
//! `workers` / `tenant` are rejected (this is a strict interchange
//! format, like the rest of [`crate::io`]). The optional `tenant`
//! string keys the per-tenant admission quota (below); it never affects
//! the solve itself or the response cache key.
//!
//! ## Response format
//!
//! One single-line JSON document per request, `{"v": 1, ...}`:
//!
//! * success — `{"v":1,"status":"ok","weight":W,"solution":{...},
//!   "report":{...},"telemetry":{...}}` embedding the solution DTO, the
//!   driver's [`sap_core::SolveReport`], and the per-request telemetry
//!   export;
//! * failure — `{"v":1,"status":"error","error":"..."}`. A malformed
//!   line, an invalid instance, or a panicking solver arm produces an
//!   error response for *that line only*; the batch keeps going
//!   (requests run panic-isolated via [`sap_core::run_isolated`]);
//! * shed — `{"v":1,"status":"shed","reason":"capacity"}` (or
//!   `"quota"`): the admission controller refused the request and no
//!   solver ran. Only emitted when admission limits are configured.
//!
//! ## Admission control and graceful degradation
//!
//! When `--max-inflight-units` and/or `--tenant-quota` are set, a
//! deterministic [`crate::admission::AdmissionController`] meters every
//! decodable request *before* the cache is consulted: the request's
//! full work-unit cost (its explicit `work_units`, or
//! [`crate::admission::estimate_units`] of its task count) must fit the
//! global per-batch pool and its tenant's token bucket. Requests that
//! don't fit walk the degradation ladder — admitted at a quarter of the
//! cost (the reduced rung), then at the greedy floor, each enforced as
//! the solve's actual work-unit budget, so an arm with tasks that runs
//! out of it makes the driver add greedy first-fit as a candidate — and
//! only when even the floor doesn't fit is the request shed. Admission
//! decisions happen in the sequential classification pass and charge the
//! pools even when the response is later served from cache, so the
//! admit/degrade/shed sequence is a pure function of the request stream
//! and configuration: cache warmth and worker width cannot shift it.
//! Tenant buckets refill on batch ticks (logical time, never wall
//! clock). See DESIGN.md §13 for the full semantics.
//!
//! ## Determinism and caching
//!
//! Responses are a pure function of the request line and its solve
//! parameters. Each request gets its **own independent budget and
//! telemetry recorder** — batch composition, worker width, and cache
//! warmth never shift a budget trip point. Batches fan out across
//! [`sap_core::map_reduce_isolated`] workers with an index-order merge,
//! so stdout is byte-identical at any `--workers` width.
//!
//! Identical requests are answered from a bounded LRU cache
//! ([`sap_core::LruCache`]) keyed by (instance fingerprint, algo,
//! work-unit budget); the fingerprint is FNV-1a over the canonical
//! field order ([`sap_core::Fnv1a`]), so two lines that spell the same
//! instance with different key order or whitespace share one cache
//! entry. Cached payloads are the exact response bytes, which makes
//! warm-cache output byte-identical to cold-cache output. Duplicates
//! *within* a batch are solved once: the first occurrence leads, later
//! occurrences copy its response at merge time. Hit/miss/eviction
//! counts are exposed as telemetry counters (`serve.cache.*`).
//!
//! ## Observability
//!
//! With the obs plane on (`--obs`, `--snapshot-every`, or `--trace`),
//! an [`sap_core::Aggregator`] folds every request's finished recorder
//! tree into a service-lifetime hierarchical profile, flat counters,
//! per-tenant rows, and log-2 work histograms. Aggregation happens in
//! the sequential index-order merge pass — never on worker threads —
//! and cache replays contribute the *cached solve's* meters (winner,
//! per-class [`sap_core::WorkProfile`], span snapshot ride along with
//! the payload in the LRU), so the snapshot stream emitted by
//! [`ServeEngine::maybe_snapshot`] is byte-identical at any worker
//! width, any cache warmth, and on replay. Warmth-variant facts
//! (solved vs replayed counts, amortized-work histograms) live in a
//! segregated ops plane that only the shutdown [`ServeEngine::obs_json`]
//! export shows. [`ServeEngine::trace_json`] renders the lifetime
//! profile as Chrome trace-event JSON on the deterministic work-unit
//! clock. See DESIGN.md §9.1.

use std::collections::HashMap;
use std::sync::Arc;

use crate::admission::{
    estimate_units, AdmissionConfig, AdmissionController, Decision, Rung, ShedReason,
};
use crate::io::{InstanceDto, JsonDto, SolutionDto};
use sap_algs::SapParams;
#[cfg(feature = "fault-injection")]
use sap_core::FaultPlan;
use sap_core::json::{self, Json};
use sap_core::obs::{chrome_trace, Aggregator, TraceClock};
use sap_core::{
    map_reduce_isolated, run_isolated, telemetry_json, Budget, Fnv1a, ObsNode, Recorder,
    ShardedLru, SolveReport, Telemetry, WorkProfile,
};

/// Response schema version, bumped on breaking changes to the line
/// format.
pub const SERVE_SCHEMA_VERSION: u64 = 1;

/// Which driver front-end serves the requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServeAlgo {
    /// The paper's combined `(9+ε)` portfolio ([`sap_algs::try_solve`]).
    Combined,
    /// Combined ∨ greedy, best-of ([`sap_algs::try_solve_practical`]).
    Practical,
}

impl ServeAlgo {
    /// Parses the wire/CLI name.
    pub fn from_name(name: &str) -> Option<ServeAlgo> {
        match name {
            "combined" => Some(ServeAlgo::Combined),
            "practical" => Some(ServeAlgo::Practical),
            _ => None,
        }
    }
}

/// Engine configuration (CLI flags map 1:1 onto these).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Default algorithm for requests that don't override it.
    pub algo: ServeAlgo,
    /// Batch fan-out width (`0` = auto). Output-invariant.
    pub workers: usize,
    /// Intra-solve worker width passed to [`SapParams`] (`0` = auto).
    /// Output-invariant.
    pub solve_workers: usize,
    /// Default per-request work-unit budget (`None` = unlimited).
    pub work_units: Option<u64>,
    /// Solution cache capacity in entries (`0` disables caching).
    pub cache_size: usize,
    /// Number of independent cache shards (entries route by canonical
    /// fingerprint, `shard = fp % N`). Output-invariant: shard count
    /// changes lock granularity and eviction locality, never response
    /// bytes. Clamped to at least 1.
    pub cache_shards: usize,
    /// Global admission pool per batch tick (`None` = unlimited).
    pub max_inflight_units: Option<u64>,
    /// Per-tenant token-bucket refill per batch tick (`None` = tenants
    /// unmetered).
    pub tenant_quota: Option<u64>,
    /// Emit a deterministic observability snapshot record every N
    /// batch ticks (`0` = no snapshot stream). Implies obs collection.
    pub snapshot_every: u64,
    /// Collect the cumulative observability aggregator
    /// ([`sap_core::obs::Aggregator`]) even without a snapshot cadence
    /// — required for the `--trace` / `--obs` shutdown exports.
    pub obs: bool,
    /// Deterministic fault plan for chaos testing (serve-level
    /// injections: `fail_admission`, `exhaust_tenant_at`,
    /// `panic_request`).
    #[cfg(feature = "fault-injection")]
    pub fault: FaultPlan,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            algo: ServeAlgo::Practical,
            workers: 0,
            solve_workers: 0,
            work_units: None,
            cache_size: 256,
            cache_shards: 8,
            max_inflight_units: None,
            tenant_quota: None,
            snapshot_every: 0,
            obs: false,
            #[cfg(feature = "fault-injection")]
            fault: FaultPlan::default(),
        }
    }
}

/// Cumulative engine counters, exported as `serve.*` telemetry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Request lines seen (including malformed ones).
    pub requests: u64,
    /// Responses with `"status":"ok"`.
    pub ok: u64,
    /// Responses with `"status":"error"`.
    pub errors: u64,
    /// Responses with `"status":"shed"` (admission refusals).
    pub shed: u64,
    /// Batches processed.
    pub batches: u64,
    /// Requests answered without launching a solve (cache hits plus
    /// within-batch duplicates of a leader).
    pub cache_hits: u64,
    /// Requests that had to solve.
    pub cache_misses: u64,
    /// Cache evictions.
    pub cache_evictions: u64,
    /// Cache hits whose verification hash disagreed with the stored
    /// entry — a primary-fingerprint collision, served as a miss.
    pub fp_conflicts: u64,
    /// Input lines rejected by the framing layer for exceeding
    /// `--max-line-bytes` (bumped by [`crate::net::process_items`]; the
    /// engine itself never sees the oversized bytes).
    pub oversized: u64,
    /// Winning-arm counts across executed solves, as
    /// (`serve.winner.*` counter name, count).
    pub winners: Vec<(&'static str, u64)>,
    /// Arm-outcome counts across executed solves, as
    /// (`serve.outcome.*` counter name, count).
    pub outcomes: Vec<(&'static str, u64)>,
}

fn bump(map: &mut Vec<(&'static str, u64)>, name: &'static str) {
    match map.iter_mut().find(|(n, _)| *n == name) {
        Some(entry) => entry.1 += 1,
        None => map.push((name, 1)),
    }
}

/// Telemetry counter names are `&'static str`, so dynamic arm names map
/// onto a fixed set here (unknown names — future arms — fold into
/// `other` rather than being dropped).
fn winner_counter(winner: &str) -> &'static str {
    match winner {
        "small" => "serve.winner.small",
        "medium" => "serve.winner.medium",
        "large" => "serve.winner.large",
        "greedy" => "serve.winner.greedy",
        _ => {
            // A renamed or brand-new arm must be added to this table,
            // not silently folded away; `other` is only the release-
            // build safety net.
            debug_assert!(false, "unmapped winner arm {winner:?}: extend winner_counter");
            "serve.winner.other"
        }
    }
}

fn outcome_counter(outcome: &str) -> &'static str {
    match outcome {
        "completed" => "serve.outcome.completed",
        "budget_exhausted" => "serve.outcome.budget_exhausted",
        "lp_non_optimal" => "serve.outcome.lp_non_optimal",
        "panicked" => "serve.outcome.panicked",
        _ => {
            debug_assert!(false, "unmapped arm outcome {outcome:?}: extend outcome_counter");
            "serve.outcome.other"
        }
    }
}

/// One decoded request: the instance plus its effective solve
/// parameters (engine defaults merged with envelope overrides).
#[derive(Debug, Clone)]
struct Request {
    dto: InstanceDto,
    algo: ServeAlgo,
    work_units: Option<u64>,
    solve_workers: usize,
    /// Admission quota key. Not part of the cache key: the tenant never
    /// influences response bytes, only whether/at what rung the request
    /// is admitted.
    tenant: Option<String>,
}

/// Cache key: canonical instance fingerprint plus every parameter that
/// can change the response bytes. `solve_workers` is deliberately
/// excluded — worker width is output-invariant by the
/// [`sap_core::map_reduce_isolated`] contract, so requests differing
/// only in width share an entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    fp: u64,
    algo: ServeAlgo,
    work_units: Option<u64>,
}

/// Feeds an instance DTO's canonical field order into a hasher, so key
/// order and whitespace in the source line don't matter.
fn feed_canonical(h: &mut Fnv1a, dto: &InstanceDto) {
    h.write_u64(dto.capacities.len() as u64);
    for &c in &dto.capacities {
        h.write_u64(c);
    }
    h.write_u64(dto.tasks.len() as u64);
    for t in &dto.tasks {
        h.write_u64(t.lo as u64);
        h.write_u64(t.hi as u64);
        h.write_u64(t.demand);
        h.write_u64(t.weight);
    }
}

/// Primary FNV-1a fingerprint of an instance DTO (the cache key and the
/// shard route).
fn fingerprint(dto: &InstanceDto) -> u64 {
    let mut h = Fnv1a::new();
    feed_canonical(&mut h, dto);
    h.finish()
}

/// Basis of the secondary verification hash: the FNV offset basis keyed
/// with a fixed odd constant, so the two digests are (near-)independent
/// functions of the same canonical stream.
const VERIFY_BASIS: u64 = 0xcbf2_9ce4_8422_2325 ^ 0x9e37_79b9_7f4a_7c15;

/// Independent verification hash stored *inside* each cache entry. A
/// 64-bit fingerprint can collide; an entry whose stored verification
/// hash disagrees with the request's is a collision, not a hit — the
/// engine treats it as a miss (and counts `serve.cache.fp_conflict`)
/// instead of silently aliasing another instance's response bytes.
fn fingerprint_verify(dto: &InstanceDto) -> u64 {
    let mut h = Fnv1a::with_basis(VERIFY_BASIS);
    feed_canonical(&mut h, dto);
    // Fold the canonical element count in again at the tail: two
    // streams that collide under both FNV bases must now also agree on
    // a length term hashed in a third position.
    h.write_u64(dto.capacities.len() as u64);
    h.write_u64(dto.tasks.len() as u64);
    h.finish()
}

/// Builds an error response line.
pub(crate) fn error_response(message: &str) -> String {
    Json::Object(vec![
        ("v".into(), Json::UInt(SERVE_SCHEMA_VERSION)),
        ("status".into(), Json::Str("error".into())),
        ("error".into(), Json::Str(message.into())),
    ])
    .to_string_compact()
}

/// Builds a shed response line (admission refusal; no solver ran).
fn shed_response(reason: ShedReason) -> String {
    Json::Object(vec![
        ("v".into(), Json::UInt(SERVE_SCHEMA_VERSION)),
        ("status".into(), Json::Str("shed".into())),
        ("reason".into(), Json::Str(reason.as_str().into())),
    ])
    .to_string_compact()
}

/// Response classification carried from classify/merge into the
/// counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RespKind {
    Ok,
    Err,
    Shed,
}

/// What the observability plane needs to know about one ok response
/// besides its bytes. Cached (and replayed) together with the payload,
/// so every aggregator update derived from it is cache-warmth- and
/// width-invariant: a replayed response contributes exactly what its
/// original solve did.
#[derive(Debug, Clone)]
struct OkMeta {
    /// Winning arm name from the report.
    winner: &'static str,
    /// The request's metered work ([`report_work_profile`]).
    work: WorkProfile,
    /// Snapshot of the request's telemetry tree (collected only while
    /// the obs plane is on; `Arc` so replays don't deep-copy).
    span: Option<Arc<ObsNode>>,
}

/// A cached ok response: the exact payload bytes plus the obs metadata
/// that must replay with them and the secondary verification hash that
/// guards the primary fingerprint against collisions.
#[derive(Debug, Clone)]
pub(crate) struct CachedOk {
    payload: String,
    verify: u64,
    meta: OkMeta,
}

/// The response cache shared by every engine of one service: a sharded
/// LRU routed by canonical fingerprint. Network mode hands one of these
/// to every connection's engine; batch mode owns a private one.
pub(crate) type SharedCache = Arc<ShardedLru<CacheKey, CachedOk>>;

/// Builds the shared response cache an engine (or a whole server) uses.
pub(crate) fn make_cache(opts: &ServeOptions) -> SharedCache {
    Arc::new(ShardedLru::new(opts.cache_size, opts.cache_shards))
}

/// What a successful solve hands back to the merge pass.
struct SolveOk {
    payload: String,
    outcomes: Vec<&'static str>,
    meta: OkMeta,
}

/// The per-request work meter folded per class from a finished report:
/// each arm's [`WorkProfile`] plus the driver's own orchestration
/// units. The cumulative `obs.work.*` counters sum exactly this
/// quantity over ok responses, and the conservation test re-derives it
/// from the response bytes (the payload embeds the same report).
fn report_work_profile(report: &SolveReport) -> WorkProfile {
    let mut w = WorkProfile::default();
    for arm in &report.arms {
        w.lp_pivot = w.lp_pivot.saturating_add(arm.work.lp_pivot);
        w.dp_row = w.dp_row.saturating_add(arm.work.dp_row);
        w.pack_sweep = w.pack_sweep.saturating_add(arm.work.pack_sweep);
        w.driver = w.driver.saturating_add(arm.work.driver);
    }
    w.driver = w.driver.saturating_add(report.driver_work);
    w
}

/// Runs one request to completion: build the instance, solve it under
/// its own budget and telemetry recorder, assemble the response line.
/// The recorder is snapshotted once; the snapshot is both the response's
/// embedded telemetry and, when `want_span` is set (the obs plane is
/// on), the tree merged into the cumulative profile.
fn solve_request(req: &Request, want_span: bool) -> Result<SolveOk, String> {
    let instance = req.dto.to_instance().map_err(|e| format!("invalid instance: {e}"))?;
    let ids = instance.all_ids();
    let params = SapParams { workers: req.solve_workers, ..Default::default() };
    let recorder = Recorder::new();
    let mut budget = Budget::unlimited();
    if let Some(units) = req.work_units {
        budget = budget.with_work_units(units);
    }
    let budget = budget.with_telemetry(recorder.handle());
    let (solution, report) = match req.algo {
        ServeAlgo::Combined => sap_algs::try_solve(&instance, &ids, &params, &budget),
        ServeAlgo::Practical => sap_algs::try_solve_practical(&instance, &ids, &params, &budget),
    }
    .map_err(|e| format!("solve failed: {e}"))?;
    let snapshot = recorder.snapshot();
    let payload = Json::Object(vec![
        ("v".into(), Json::UInt(SERVE_SCHEMA_VERSION)),
        ("status".into(), Json::Str("ok".into())),
        ("weight".into(), Json::UInt(report.weight)),
        ("solution".into(), SolutionDto::from_solution(&instance, &solution).to_json()),
        ("report".into(), report.to_json()),
        ("telemetry".into(), telemetry_json(&snapshot)),
    ])
    .to_string_compact();
    let outcomes = report.arms.iter().map(|a| a.outcome.as_str()).collect();
    let meta = OkMeta {
        winner: report.winner,
        work: report_work_profile(&report),
        span: want_span.then(|| Arc::new(snapshot)),
    };
    Ok(SolveOk { payload, outcomes, meta })
}

/// How one input line will be answered, decided by the sequential
/// classification pass before the parallel fan-out.
enum Slot {
    /// Response already known (parse error or admission shed), with its
    /// classification.
    Ready(String, RespKind),
    /// Cross-batch cache hit: the stored payload plus the obs metadata
    /// that replays with it.
    Hit(CachedOk),
    /// First occurrence of a novel request — index into the job list.
    Leader(usize),
    /// Within-batch duplicate — index of its leader's *line*.
    Follower(usize),
}

/// What the admission/decode step decided about one line — the obs
/// attribution recorded during the sequential classification pass.
#[derive(Debug, Clone)]
enum ObsOutcome {
    /// The line never decoded to a request.
    ParseErr,
    /// Admission refused the request.
    Shed(ShedReason),
    /// Admitted at this degradation-ladder rung.
    Admitted(Rung),
}

/// Per-line obs attribution (collected only while the obs plane is on).
#[derive(Debug, Clone)]
struct ObsAttr {
    tenant: Option<String>,
    outcome: ObsOutcome,
}

/// Folds a dynamic winner-arm name onto the fixed `obs.winner.*`
/// counter set (same contract as [`winner_counter`]).
fn obs_winner_counter(winner: &str) -> &'static str {
    match winner {
        "small" => "obs.winner.small",
        "medium" => "obs.winner.medium",
        "large" => "obs.winner.large",
        "greedy" => "obs.winner.greedy",
        _ => {
            debug_assert!(false, "unmapped winner arm {winner:?}: extend obs_winner_counter");
            "obs.winner.other"
        }
    }
}

/// Applies one resolved response line to the cumulative aggregator.
///
/// Runs in the sequential merge pass, in input order. Every snapshot
/// counter updated here is a pure function of the request stream:
/// admission attribution was fixed in the classification pass, and
/// replayed responses carry their original solve's winner/work/span in
/// [`OkMeta`]. Only the `count_ops` solves/replayed split (and the
/// amortization histogram) may vary with cache warmth — those stay out
/// of the snapshot stream by construction.
fn note_obs(
    agg: &mut Aggregator,
    attr: &ObsAttr,
    kind: RespKind,
    meta: Option<&OkMeta>,
    replayed: bool,
) {
    agg.count("obs.requests", 1);
    match attr.outcome {
        ObsOutcome::Admitted(Rung::Full) => agg.count("obs.rung.full", 1),
        ObsOutcome::Admitted(Rung::Reduced) => agg.count("obs.rung.reduced", 1),
        ObsOutcome::Admitted(Rung::Greedy) => agg.count("obs.rung.greedy", 1),
        ObsOutcome::Shed(ShedReason::Capacity) => agg.count("obs.shed.capacity", 1),
        ObsOutcome::Shed(ShedReason::Quota) => agg.count("obs.shed.quota", 1),
        ObsOutcome::ParseErr => {}
    }
    match kind {
        RespKind::Ok => agg.count("obs.ok", 1),
        RespKind::Err => agg.count("obs.err", 1),
        RespKind::Shed => agg.count("obs.shed", 1),
    }
    let total = meta.map_or(0, |m| m.work.total());
    // Per-request work distribution. Error and shed lines observe a
    // literal 0 — the histogram's dedicated zero bucket, never an alias
    // of the [1,2) bucket.
    agg.observe("obs.req.work", total);
    if let Some(m) = meta {
        agg.count("obs.work.lp_pivot", m.work.lp_pivot);
        agg.count("obs.work.dp_row", m.work.dp_row);
        agg.count("obs.work.pack_sweep", m.work.pack_sweep);
        agg.count("obs.work.driver", m.work.driver);
        agg.count(obs_winner_counter(m.winner), 1);
        if let Some(span) = &m.span {
            agg.merge_span(span);
        }
        if replayed {
            agg.count_ops("obs.replayed", 1);
            // Work units the replay did *not* spend, thanks to the
            // cache / within-batch dedup.
            agg.observe("obs.cache.amortized", total);
        } else {
            agg.count_ops("obs.solves", 1);
        }
    }
    if let Some(tenant) = &attr.tenant {
        let t = agg.tenant_mut(tenant);
        t.requests = t.requests.saturating_add(1);
        match kind {
            RespKind::Ok => t.ok = t.ok.saturating_add(1),
            RespKind::Err => t.err = t.err.saturating_add(1),
            RespKind::Shed => t.shed = t.shed.saturating_add(1),
        }
        t.work = t.work.saturating_add(total);
        if matches!(attr.outcome, ObsOutcome::Admitted(Rung::Reduced | Rung::Greedy)) {
            t.degraded = t.degraded.saturating_add(1);
        }
    }
}

/// The serve engine: decode → admit → classify → fan out → merge, one
/// batch at a time, with the solution cache, admission pools, and
/// counters living across batches.
pub struct ServeEngine {
    opts: ServeOptions,
    cache: SharedCache,
    admission: AdmissionController,
    /// The cumulative observability plane (`None` = not collecting).
    obs: Option<Aggregator>,
    /// Solves dispatched over the engine's lifetime (the address space
    /// of the `panic_request` fault injection).
    solve_seq: u64,
    /// Cumulative counters (exported via
    /// [`ServeEngine::record_telemetry`]).
    pub stats: ServeStats,
}

impl ServeEngine {
    /// A fresh engine with an empty cache and full admission pools.
    pub fn new(opts: ServeOptions) -> Self {
        let cache = make_cache(&opts);
        Self::with_cache(opts, cache)
    }

    /// An engine wired to an existing shared response cache (network
    /// mode: one cache across every connection's engine). Admission
    /// pools, counters, and the obs plane stay per-engine — only the
    /// cache is shared, and cached payloads are exact response bytes,
    /// so sharing cannot change what any engine emits.
    pub(crate) fn with_cache(opts: ServeOptions, cache: SharedCache) -> Self {
        let cfg = AdmissionConfig {
            max_inflight_units: opts.max_inflight_units,
            tenant_quota: opts.tenant_quota,
        };
        let admission = AdmissionController::new(cfg);
        #[cfg(feature = "fault-injection")]
        let admission = admission.with_fault_plan(opts.fault);
        let obs = (opts.obs || opts.snapshot_every > 0).then(Aggregator::new);
        ServeEngine { opts, cache, admission, obs, solve_seq: 0, stats: ServeStats::default() }
    }

    /// Read access to the cumulative admission counters.
    pub fn admission_stats(&self) -> crate::admission::AdmissionStats {
        self.admission.stats
    }

    /// Decodes one parsed request line (bare instance or envelope).
    fn decode_request(&self, value: &Json) -> Result<Request, String> {
        if value.get("instance").is_none() {
            // Bare instance document.
            let dto = InstanceDto::from_json(value)?;
            return Ok(Request {
                dto,
                algo: self.opts.algo,
                work_units: self.opts.work_units,
                solve_workers: self.opts.solve_workers,
                tenant: None,
            });
        }
        let Json::Object(pairs) = value else {
            return Err("request must be a JSON object".to_string());
        };
        let mut req = Request {
            dto: InstanceDto { capacities: Vec::new(), tasks: Vec::new() },
            algo: self.opts.algo,
            work_units: self.opts.work_units,
            solve_workers: self.opts.solve_workers,
            tenant: None,
        };
        for (key, val) in pairs {
            match key.as_str() {
                "instance" => req.dto = InstanceDto::from_json(val)?,
                "tenant" => {
                    let name = val.as_str().ok_or("field \"tenant\" must be a string")?;
                    if name.is_empty() {
                        return Err("field \"tenant\" must be non-empty".to_string());
                    }
                    req.tenant = Some(name.to_string());
                }
                "algo" => {
                    let name = val.as_str().ok_or("field \"algo\" must be a string")?;
                    req.algo = ServeAlgo::from_name(name)
                        .ok_or_else(|| format!("unknown algo {name:?} (combined|practical)"))?;
                }
                "work_units" => {
                    let units = val
                        .as_u64()
                        .ok_or("field \"work_units\" must be a non-negative integer")?;
                    req.work_units = Some(units);
                }
                "workers" => {
                    req.solve_workers = val
                        .as_usize()
                        .ok_or("field \"workers\" must be a non-negative integer")?;
                }
                other => return Err(format!("unknown request field {other:?}")),
            }
        }
        Ok(req)
    }

    /// Processes one batch of request lines, returning one response
    /// line per input line, in order. Output is byte-identical for any
    /// `workers` width and for cold vs warm cache.
    pub fn process_batch(&mut self, lines: &[&str]) -> Vec<String> {
        self.stats.batches += 1;
        let collect_obs = self.obs.is_some();
        if let Some(agg) = &mut self.obs {
            agg.count("obs.batches", 1);
        }
        // One logical admission tick per batch: replenish the global
        // pool and refill tenant buckets (no wall clock involved).
        self.admission.tick();
        // Sequential classification: parse, decode, admit, fingerprint,
        // and consult the cache in input order, so the admit/degrade/
        // shed/hit/miss/leader pattern is independent of worker
        // scheduling. Admission charges happen *before* the cache
        // lookup — a cache hit pays the same as a solve, which keeps
        // the decision sequence invariant under cache warmth. Obs
        // attribution (tenant, rung) is fixed here too, for the same
        // reason.
        let mut slots: Vec<Slot> = Vec::with_capacity(lines.len());
        let mut attrs: Vec<ObsAttr> = Vec::new();
        let mut jobs: Vec<(Request, CacheKey, u64, u64)> = Vec::new();
        // Within-batch dedup keys on (cache key, verify hash): two lines
        // whose primary fingerprints collide must not follower-alias.
        let mut pending: HashMap<(CacheKey, u64), usize> = HashMap::new();
        for (idx, line) in lines.iter().enumerate() {
            self.stats.requests += 1;
            let decoded = json::parse(line)
                .map_err(|e| format!("bad request: {e}"))
                .and_then(|v| self.decode_request(&v).map_err(|e| format!("bad request: {e}")));
            let slot = match decoded {
                Err(msg) => {
                    if collect_obs {
                        attrs.push(ObsAttr { tenant: None, outcome: ObsOutcome::ParseErr });
                    }
                    Slot::Ready(error_response(&msg), RespKind::Err)
                }
                Ok(mut req) => {
                    let full_cost = req
                        .work_units
                        .unwrap_or_else(|| estimate_units(req.dto.tasks.len()));
                    match self.admission.decide(full_cost, req.tenant.as_deref()) {
                        Decision::Shed(reason) => {
                            if collect_obs {
                                attrs.push(ObsAttr {
                                    tenant: req.tenant.clone(),
                                    outcome: ObsOutcome::Shed(reason),
                                });
                            }
                            Slot::Ready(shed_response(reason), RespKind::Shed)
                        }
                        Decision::Admit { rung, cost } => {
                            if collect_obs {
                                attrs.push(ObsAttr {
                                    tenant: req.tenant.clone(),
                                    outcome: ObsOutcome::Admitted(rung),
                                });
                            }
                            // Degraded rungs enforce the admitted cost
                            // as the solve's actual budget; the full
                            // rung keeps the request's own (possibly
                            // unlimited) budget.
                            if rung != Rung::Full {
                                req.work_units = Some(cost);
                            }
                            let key = CacheKey {
                                fp: fingerprint(&req.dto),
                                algo: req.algo,
                                work_units: req.work_units,
                            };
                            let verify = fingerprint_verify(&req.dto);
                            // A stored entry whose verification hash
                            // disagrees is another instance that collided
                            // on the primary fingerprint — miss, never
                            // alias.
                            let hit = match self.cache.get(key.fp, &key) {
                                Some(cached) if cached.verify == verify => Some(cached),
                                Some(_) => {
                                    self.stats.fp_conflicts += 1;
                                    None
                                }
                                None => None,
                            };
                            if let Some(cached) = hit {
                                // Only ok payloads are ever cached.
                                self.stats.cache_hits += 1;
                                Slot::Hit(cached)
                            } else if let Some(&leader) = pending.get(&(key.clone(), verify)) {
                                self.stats.cache_hits += 1;
                                Slot::Follower(leader)
                            } else {
                                self.stats.cache_misses += 1;
                                pending.insert((key.clone(), verify), idx);
                                self.solve_seq = self.solve_seq.saturating_add(1);
                                jobs.push((req, key, verify, self.solve_seq));
                                Slot::Leader(jobs.len() - 1)
                            }
                        }
                    }
                }
            };
            slots.push(slot);
        }
        // Parallel fan-out over the novel requests. Each request solves
        // under its own budget; the unlimited parent budget here only
        // provides the deterministic dispatch/merge structure. Panics
        // are absorbed per request, not propagated. Solve sequence
        // numbers were assigned in input order during classification,
        // so the `panic_request` injection hits the same request at any
        // worker width.
        #[cfg(feature = "fault-injection")]
        let fault = self.opts.fault;
        let want_span = collect_obs;
        let results = map_reduce_isolated(
            &Budget::unlimited(),
            &jobs,
            self.opts.workers,
            |(req, _key, _verify, _seq), _b| {
                Ok(match run_isolated(|| {
                    #[cfg(feature = "fault-injection")]
                    if fault.panic_request == Some(*_seq) {
                        panic!("injected panic_request #{_seq}");
                    }
                    solve_request(req, want_span)
                }) {
                    Ok(inner) => inner,
                    Err(panic_msg) => Err(format!("solver panicked: {panic_msg}")),
                })
            },
        );
        // Sequential index-order merge: responses, counter updates,
        // cache insertions, and obs aggregation all happen in input
        // order, so aggregate state is identical at any worker width.
        let mut out: Vec<(String, RespKind, Option<OkMeta>)> = Vec::with_capacity(slots.len());
        for (idx, slot) in slots.iter().enumerate() {
            let (line, kind, meta, replayed) = match slot {
                Slot::Ready(line, kind) => (line.clone(), *kind, None, false),
                Slot::Hit(cached) => {
                    (cached.payload.clone(), RespKind::Ok, Some(cached.meta.clone()), true)
                }
                Slot::Follower(leader_line) => {
                    // The leader always precedes its followers.
                    match out.get(*leader_line) {
                        Some((line, kind, meta)) => (line.clone(), *kind, meta.clone(), true),
                        None => (
                            error_response("internal error: missing leader"),
                            RespKind::Err,
                            None,
                            false,
                        ),
                    }
                }
                Slot::Leader(job_idx) => {
                    let outcome = results
                        .get(*job_idx)
                        .map(|r| match r {
                            Ok(solved) => match solved {
                                Ok(ok) => Ok(ok),
                                Err(msg) => Err(msg.clone()),
                            },
                            Err(e) => Err(format!("solve failed: {e}")),
                        })
                        .unwrap_or_else(|| Err("internal error: missing result".to_string()));
                    match outcome {
                        Ok(solved) => {
                            bump(&mut self.stats.winners, winner_counter(solved.meta.winner));
                            for o in &solved.outcomes {
                                bump(&mut self.stats.outcomes, outcome_counter(o));
                            }
                            if let Some((_, key, verify, _)) = jobs.get(*job_idx) {
                                let cached = CachedOk {
                                    payload: solved.payload.clone(),
                                    verify: *verify,
                                    meta: solved.meta.clone(),
                                };
                                if self.cache.insert(key.fp, key.clone(), cached) {
                                    self.stats.cache_evictions += 1;
                                }
                            }
                            (solved.payload.clone(), RespKind::Ok, Some(solved.meta.clone()), false)
                        }
                        Err(msg) => (error_response(&msg), RespKind::Err, None, false),
                    }
                }
            };
            match kind {
                RespKind::Ok => self.stats.ok += 1,
                RespKind::Err => self.stats.errors += 1,
                RespKind::Shed => self.stats.shed += 1,
            }
            if let Some(agg) = &mut self.obs {
                if let Some(attr) = attrs.get(idx) {
                    note_obs(agg, attr, kind, meta.as_ref(), replayed);
                }
            }
            out.push((line, kind, meta));
        }
        out.into_iter().map(|(line, _, _)| line).collect()
    }

    /// Emits the cumulative counters onto a telemetry handle
    /// (`serve.requests`, `serve.cache.hits`, `serve.winner.*`, …).
    pub fn record_telemetry(&self, tele: &Telemetry) {
        tele.count("serve.requests", self.stats.requests);
        tele.count("serve.ok", self.stats.ok);
        tele.count("serve.err", self.stats.errors);
        tele.count("serve.batches", self.stats.batches);
        tele.count("serve.cache.hits", self.stats.cache_hits);
        tele.count("serve.cache.misses", self.stats.cache_misses);
        tele.count("serve.cache.evictions", self.stats.cache_evictions);
        tele.count("serve.cache.entries", self.cache.len() as u64);
        tele.count("serve.cache.fp_conflict", self.stats.fp_conflicts);
        tele.count("serve.oversized", self.stats.oversized);
        tele.count("serve.shard.count", self.cache.shard_count() as u64);
        let max_shard = self.cache.shard_lens().into_iter().max().unwrap_or(0);
        tele.count("serve.shard.max_entries", max_shard as u64);
        let adm = &self.admission.stats;
        tele.count("serve.admitted", adm.admitted);
        tele.count("serve.degraded.reduced", adm.degraded_reduced);
        tele.count("serve.degraded.greedy", adm.degraded_greedy);
        tele.count("serve.shed.quota", adm.shed_quota);
        tele.count("serve.shed.capacity", adm.shed_capacity);
        tele.count("serve.tenant.buckets", self.admission.tenant_buckets() as u64);
        tele.count("serve.tenant.refills", adm.refills);
        tele.count("serve.tenant.throttled", adm.tenant_throttled);
        for &(name, n) in &self.stats.winners {
            tele.count(name, n);
        }
        for &(name, n) in &self.stats.outcomes {
            tele.count(name, n);
        }
    }

    /// Whether the observability aggregator is active for this engine.
    pub fn obs_enabled(&self) -> bool {
        self.obs.is_some()
    }

    /// Emits a snapshot line if the batch counter has reached the next
    /// `--snapshot-every` boundary (and obs is enabled). The tick is
    /// the cumulative batch count, so the snapshot cadence — like every
    /// other service decision — is a function of the input stream only.
    pub fn maybe_snapshot(&mut self) -> Option<String> {
        let every = self.opts.snapshot_every;
        if every == 0 || self.stats.batches == 0 || self.stats.batches % every != 0 {
            return None;
        }
        self.snapshot_now()
    }

    /// Emits a snapshot line unconditionally (used for the final
    /// snapshot at shutdown and by `--snapshot-file` side channels).
    pub fn snapshot_now(&mut self) -> Option<String> {
        let tick = self.stats.batches;
        self.sync_tenant_buckets();
        self.obs.as_mut().map(|agg| agg.snapshot_line(tick))
    }

    /// Copies the admission controller's current per-tenant token
    /// levels into the aggregator's tenant rows, so snapshots show
    /// bucket state alongside the per-tenant traffic counters.
    fn sync_tenant_buckets(&mut self) {
        let Some(agg) = self.obs.as_mut() else { return };
        for (name, level) in self.admission.bucket_levels() {
            agg.tenant_mut(name).bucket = level;
        }
    }

    /// Full aggregator export (`kind:"obs"`), including the ops-plane
    /// counters and the hierarchical profile.
    pub fn obs_json(&mut self) -> Option<String> {
        self.sync_tenant_buckets();
        self.obs.as_ref().map(Aggregator::to_json_string)
    }

    /// Chrome trace-event export of the service-lifetime profile, on
    /// the deterministic work-unit clock.
    pub fn trace_json(&self) -> Option<String> {
        self.obs
            .as_ref()
            .map(|agg| chrome_trace(agg.profile(), TraceClock::WorkUnits))
    }

    /// Read access to the aggregator (tests and the bench suite).
    pub fn aggregator(&self) -> Option<&Aggregator> {
        self.obs.as_ref()
    }

    /// One-line human summary for stderr (deterministic).
    pub fn summary_line(&self) -> String {
        let adm = &self.admission.stats;
        format!(
            "serve: {} requests ({} ok, {} err, {} shed) in {} batches; cache {} hits / {} misses / {} evictions; admission {} admitted / {} degraded / {} throttled",
            self.stats.requests,
            self.stats.ok,
            self.stats.errors,
            self.stats.shed,
            self.stats.batches,
            self.stats.cache_hits,
            self.stats.cache_misses,
            self.stats.cache_evictions,
            adm.admitted,
            adm.degraded_reduced + adm.degraded_greedy,
            adm.tenant_throttled
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst_line() -> String {
        r#"{"capacities":[4,6,4],"tasks":[{"lo":0,"hi":2,"demand":2,"weight":10},{"lo":1,"hi":3,"demand":3,"weight":8}]}"#
            .to_string()
    }

    #[test]
    fn fingerprint_ignores_spelling_not_content() {
        let a = InstanceDto::from_json_str(&inst_line()).unwrap();
        // Same instance, different key order in the task objects.
        let b = InstanceDto::from_json_str(
            r#"{"tasks":[{"weight":10,"demand":2,"hi":2,"lo":0},{"hi":3,"lo":1,"weight":8,"demand":3}],"capacities":[4,6,4]}"#,
        )
        .unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        let mut c = a.clone();
        c.tasks[0].weight += 1;
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn envelope_rejects_unknown_fields() {
        let engine = ServeEngine::new(ServeOptions::default());
        let v = json::parse(&format!(r#"{{"instance":{},"cheat":1}}"#, inst_line())).unwrap();
        let err = engine.decode_request(&v).unwrap_err();
        assert!(err.contains("cheat"), "{err}");
    }

    #[test]
    fn envelope_overrides_defaults() {
        let engine = ServeEngine::new(ServeOptions::default());
        let v = json::parse(&format!(
            r#"{{"instance":{},"algo":"combined","work_units":9,"workers":2}}"#,
            inst_line()
        ))
        .unwrap();
        let req = engine.decode_request(&v).unwrap();
        assert_eq!(req.algo, ServeAlgo::Combined);
        assert_eq!(req.work_units, Some(9));
        assert_eq!(req.solve_workers, 2);
    }

    #[test]
    fn malformed_lines_do_not_kill_the_batch() {
        let mut engine = ServeEngine::new(ServeOptions::default());
        let good = inst_line();
        let lines = vec!["{oops", good.as_str(), r#"{"capacities":[],"tasks":[]}"#];
        let out = engine.process_batch(&lines);
        assert_eq!(out.len(), 3);
        assert!(out[0].starts_with(r#"{"v":1,"status":"error""#), "{}", out[0]);
        assert!(out[1].starts_with(r#"{"v":1,"status":"ok""#), "{}", out[1]);
        // Empty capacities is an invalid instance → structured error.
        assert!(out[2].starts_with(r#"{"v":1,"status":"error""#), "{}", out[2]);
        assert_eq!(engine.stats.ok, 1);
        assert_eq!(engine.stats.errors, 2);
    }

    #[test]
    fn known_arm_names_map_to_dedicated_counters() {
        for arm in ["small", "medium", "large", "greedy"] {
            assert_ne!(winner_counter(arm), "serve.winner.other", "{arm}");
        }
        for outcome in ["completed", "budget_exhausted", "lp_non_optimal", "panicked"] {
            assert_ne!(outcome_counter(outcome), "serve.outcome.other", "{outcome}");
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "unmapped winner arm"))]
    fn unknown_winner_trips_the_debug_assert() {
        // In release builds the fold-to-other fallback must still hold.
        assert_eq!(winner_counter("warp-drive"), "serve.winner.other");
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "unmapped arm outcome"))]
    fn unknown_outcome_trips_the_debug_assert() {
        assert_eq!(outcome_counter("teleported"), "serve.outcome.other");
    }

    #[test]
    fn tenant_field_decodes_and_rejects_non_strings() {
        let engine = ServeEngine::new(ServeOptions::default());
        let v = json::parse(&format!(r#"{{"instance":{},"tenant":"team-a"}}"#, inst_line()))
            .unwrap();
        let req = engine.decode_request(&v).unwrap();
        assert_eq!(req.tenant.as_deref(), Some("team-a"));
        let bad = json::parse(&format!(r#"{{"instance":{},"tenant":7}}"#, inst_line())).unwrap();
        assert!(engine.decode_request(&bad).unwrap_err().contains("tenant"));
        let empty =
            json::parse(&format!(r#"{{"instance":{},"tenant":""}}"#, inst_line())).unwrap();
        assert!(engine.decode_request(&empty).unwrap_err().contains("tenant"));
    }

    #[test]
    fn overload_walks_the_ladder_then_sheds() {
        // Pool of 250 per batch; every request declares cost 200, so a
        // batch of three admits: full(200), reduced(50), then sheds.
        let opts = ServeOptions {
            max_inflight_units: Some(250),
            cache_size: 0,
            ..Default::default()
        };
        let mut engine = ServeEngine::new(opts);
        let line = format!(r#"{{"instance":{},"work_units":200}}"#, inst_line());
        let lines = vec![line.as_str(), line.as_str(), line.as_str()];
        let out = engine.process_batch(&lines);
        assert!(out[0].starts_with(r#"{"v":1,"status":"ok""#), "{}", out[0]);
        assert!(out[1].starts_with(r#"{"v":1,"status":"ok""#), "{}", out[1]);
        assert_eq!(out[2], r#"{"v":1,"status":"shed","reason":"capacity"}"#);
        let adm = engine.admission_stats();
        assert_eq!(adm.admitted, 2);
        assert_eq!(adm.degraded_reduced, 1);
        assert_eq!(adm.shed_capacity, 1);
        assert_eq!(engine.stats.shed, 1);
        assert_eq!(engine.stats.ok, 2);
        // The degraded request really ran under the reduced budget:
        // its cache key (work_units=Some(50)) differs from the leader's,
        // which is why both were misses rather than duplicates.
        assert_eq!(engine.stats.cache_misses, 2);
        // Next batch: the pool refilled, full admission resumes.
        let out2 = engine.process_batch(&[line.as_str()]);
        assert!(out2[0].starts_with(r#"{"v":1,"status":"ok""#), "{}", out2[0]);
    }

    #[test]
    fn admission_decisions_are_cache_warmth_invariant() {
        // Same stream against a cold and a warm engine: the response
        // bytes must match line for line, because admission charges
        // before the cache lookup.
        let opts = ServeOptions { max_inflight_units: Some(400), ..Default::default() };
        let line = format!(r#"{{"instance":{},"work_units":180}}"#, inst_line());
        let lines = vec![line.as_str(), line.as_str(), line.as_str()];
        let mut cold = ServeEngine::new(opts.clone());
        let cold_out = cold.process_batch(&lines);
        let mut warm = ServeEngine::new(opts);
        let _ = warm.process_batch(&[line.as_str()]); // warm the cache
        let warm_out = warm.process_batch(&lines);
        assert_eq!(cold_out, warm_out);
    }

    #[test]
    fn fingerprint_collision_is_a_miss_not_an_alias() {
        // Constructed collision: poison the cache with an entry stored
        // under this instance's primary fingerprint but carrying a
        // different verification hash (as another colliding instance
        // would). The engine must treat the hit as a miss and re-solve
        // instead of serving the alien payload.
        let opts = ServeOptions::default();
        let cache = make_cache(&opts);
        let mut engine = ServeEngine::with_cache(opts, Arc::clone(&cache));
        let line = inst_line();
        let out1 = engine.process_batch(&[line.as_str()]);
        assert!(out1[0].starts_with(r#"{"v":1,"status":"ok""#), "{}", out1[0]);
        assert_eq!(engine.stats.cache_misses, 1);

        let dto = InstanceDto::from_json_str(&line).unwrap();
        let key = CacheKey {
            fp: fingerprint(&dto),
            algo: ServeAlgo::Practical,
            work_units: None,
        };
        let poison = CachedOk {
            payload: r#"{"v":1,"status":"ok","weight":0,"poison":true}"#.to_string(),
            verify: fingerprint_verify(&dto) ^ 1,
            meta: OkMeta { winner: "greedy", work: WorkProfile::default(), span: None },
        };
        cache.insert(key.fp, key, poison);

        let out2 = engine.process_batch(&[line.as_str()]);
        assert_eq!(out2[0], out1[0], "collision must not alias the poisoned payload");
        assert_eq!(engine.stats.fp_conflicts, 1);
        assert_eq!(engine.stats.cache_misses, 2);
        assert_eq!(engine.stats.cache_hits, 0);

        // The re-solve overwrote the poisoned entry: clean hit now.
        let out3 = engine.process_batch(&[line.as_str()]);
        assert_eq!(out3[0], out1[0]);
        assert_eq!(engine.stats.cache_hits, 1);
        assert_eq!(engine.stats.fp_conflicts, 1);
    }

    #[test]
    fn shard_count_never_changes_bytes_or_totals() {
        // Duplicate-heavy stream over three distinct instances, run at
        // shard counts 1/2/8: response bytes and hit/miss/eviction
        // totals must be identical (the working set fits every shard
        // layout, so eviction totals are comparable: all zero).
        let a = inst_line();
        let b = r#"{"capacities":[5,5],"tasks":[{"lo":0,"hi":2,"demand":2,"weight":7}]}"#;
        let c = r#"{"capacities":[9],"tasks":[{"lo":0,"hi":1,"demand":4,"weight":3}]}"#;
        let stream = [a.as_str(), b, a.as_str(), c, b, a.as_str(), c, c];
        let mut baseline: Option<(Vec<String>, ServeStats)> = None;
        for shards in [1usize, 2, 8] {
            let opts = ServeOptions { cache_shards: shards, ..Default::default() };
            let mut engine = ServeEngine::new(opts);
            let mut out = engine.process_batch(&stream[..4]);
            out.extend(engine.process_batch(&stream[4..]));
            assert_eq!(engine.stats.cache_evictions, 0, "shards={shards}");
            match &baseline {
                None => baseline = Some((out, engine.stats.clone())),
                Some((bytes, stats)) => {
                    assert_eq!(&out, bytes, "shards={shards}");
                    assert_eq!(&engine.stats, stats, "shards={shards}");
                }
            }
        }
    }

    #[test]
    fn duplicates_share_one_solve_and_identical_bytes() {
        let mut engine = ServeEngine::new(ServeOptions::default());
        let good = inst_line();
        let lines = vec![good.as_str(), good.as_str(), good.as_str()];
        let out = engine.process_batch(&lines);
        assert_eq!(out[0], out[1]);
        assert_eq!(out[1], out[2]);
        assert_eq!(engine.stats.cache_misses, 1);
        assert_eq!(engine.stats.cache_hits, 2);
        // Next batch hits the cache proper.
        let out2 = engine.process_batch(&[good.as_str()]);
        assert_eq!(out2[0], out[0]);
        assert_eq!(engine.stats.cache_misses, 1);
        assert_eq!(engine.stats.cache_hits, 3);
    }
}
