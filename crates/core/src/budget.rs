//! Cooperative budgets, solve reports, and deterministic fault injection.
//!
//! The portfolio driver in `sap-algs` is a best-of-three race (Theorem 4:
//! small / medium / large). Each arm is given a [`Budget`] — a wall-clock
//! deadline plus a work-unit counter plus a shared cancellation flag — and
//! is expected to call [`Budget::checkpoint`] at its natural loop
//! boundaries (simplex pivots, DP rows, rectangle-packing sweeps). A
//! checkpoint that trips returns [`SapError::BudgetExhausted`], which the
//! driver turns into a fallback to greedy first-fit rather than a hard
//! failure.
//!
//! Determinism contract: the wall clock is consulted **only** when a
//! deadline was explicitly set. A budget limited purely by work units
//! (see [`Budget::with_work_units`]) trips at a point that depends only on
//! the sequence of checkpoints executed, so two runs with the same
//! instance and the same work-unit limit degrade identically.
//!
//! Every checkpoint also attributes its units to the budget's telemetry
//! phase ([`Budget::with_telemetry`]) before it checks any limit, so the
//! per-phase work in a telemetry export equals the budget meter by
//! construction — including the units of a checkpoint that trips.
//!
//! The [`SolveReport`] returned alongside every driver solution records
//! per-arm outcomes, fired fallbacks and budget consumption. It contains
//! no timing fields, so reports from deterministic runs are byte-identical.
//!
//! With the `fault-injection` cargo feature enabled, a [`FaultPlan`] can be
//! attached to a budget to deterministically fail the Nth LP solve, panic
//! the Nth portfolio worker, or exhaust the budget at the Nth checkpoint
//! of a given class. With the feature off the plan type does not exist and
//! the hooks compile to no-ops.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{SapError, SapResult};
use crate::json::Json;
use crate::telemetry::Telemetry;

/// Where in an algorithm a [`Budget::checkpoint`] call sits.
///
/// The class is part of the fault-injection addressing scheme (a
/// [`FaultPlan`] can exhaust the budget at the Nth checkpoint of one
/// specific class) and is otherwise only informational.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckpointClass {
    /// One simplex pivot in the LP solver.
    LpPivot,
    /// One row (or frontier expansion) of a dynamic program — the exact
    /// Elevator search or the subset-sum height enumeration (and the
    /// reference Lemma 13 DP in `sap-bench`).
    DpRow,
    /// One recursive sweep of the rectangle-packing (MWIS) solver.
    PackSweep,
    /// A coarse checkpoint in driver / orchestration code, between arms
    /// or strata.
    Driver,
}

impl CheckpointClass {
    /// Every class, in the stable order used by reports and telemetry.
    pub const ALL: [CheckpointClass; 4] = [
        CheckpointClass::LpPivot,
        CheckpointClass::DpRow,
        CheckpointClass::PackSweep,
        CheckpointClass::Driver,
    ];

    /// Stable lower-case name, used in reports and CLI flags.
    pub fn as_str(self) -> &'static str {
        match self {
            CheckpointClass::LpPivot => "lp_pivot",
            CheckpointClass::DpRow => "dp_row",
            CheckpointClass::PackSweep => "pack_sweep",
            CheckpointClass::Driver => "driver",
        }
    }

    /// Position of this class in [`CheckpointClass::ALL`] (dense array
    /// index for per-class counters).
    pub fn index(self) -> usize {
        match self {
            CheckpointClass::LpPivot => 0,
            CheckpointClass::DpRow => 1,
            CheckpointClass::PackSweep => 2,
            CheckpointClass::Driver => 3,
        }
    }
}

/// Work-unit consumption split by [`CheckpointClass`] — the per-arm
/// metrics block of a [`SolveReport`] (`"work"` in the JSON encoding).
///
/// The split is maintained inside [`Budget::checkpoint`] itself, so
/// `total()` equals [`Budget::consumed`] by construction and the block is
/// present (and exact) whether or not a telemetry recorder is attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkProfile {
    /// Simplex pivots ([`CheckpointClass::LpPivot`]).
    pub lp_pivot: u64,
    /// DP rows / state expansions ([`CheckpointClass::DpRow`]).
    pub dp_row: u64,
    /// Rectangle-packing sweeps ([`CheckpointClass::PackSweep`]).
    pub pack_sweep: u64,
    /// Driver / orchestration checkpoints ([`CheckpointClass::Driver`]).
    pub driver: u64,
}

impl WorkProfile {
    /// Work units of one class.
    pub fn get(&self, class: CheckpointClass) -> u64 {
        match class {
            CheckpointClass::LpPivot => self.lp_pivot,
            CheckpointClass::DpRow => self.dp_row,
            CheckpointClass::PackSweep => self.pack_sweep,
            CheckpointClass::Driver => self.driver,
        }
    }

    /// Total across all classes; equals the owning budget's
    /// [`Budget::consumed`].
    pub fn total(&self) -> u64 {
        CheckpointClass::ALL
            .iter()
            .fold(0u64, |acc, &c| acc.saturating_add(self.get(c)))
    }

    /// Deterministic JSON object, all four classes in stable order.
    pub fn to_json(&self) -> Json {
        Json::Object(
            CheckpointClass::ALL
                .iter()
                .map(|&c| (c.as_str().into(), Json::UInt(self.get(c))))
                .collect(),
        )
    }
}

/// Deterministic fault plan: which injected failures fire during a solve.
///
/// All counters are 1-based and counted per [`Budget`] (a [`Budget::child`]
/// starts fresh), so a plan addresses e.g. "the 2nd LP solve performed by
/// the small arm" deterministically even when arms run in parallel.
#[cfg(feature = "fault-injection")]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Fail the Nth LP solve (1-based) as if the solver returned a
    /// non-optimal status.
    pub fail_lp_solve: Option<u64>,
    /// Fail the Nth basis refactorization (1-based) inside the sparse
    /// simplex, which then reports a singular basis. Every LP solve
    /// refactorizes before its first pivot, so `Some(1)` fires on the
    /// first budgeted solve deterministically.
    pub fail_refactor: Option<u64>,
    /// Panic inside the portfolio worker with this index (0 = small,
    /// 1 = medium, 2 = large).
    pub panic_worker: Option<usize>,
    /// Exhaust the budget at the Nth checkpoint (1-based), optionally
    /// restricted to one [`CheckpointClass`] (`None` matches any class).
    pub exhaust_at: Option<(Option<CheckpointClass>, u64)>,
    /// Serve-level injection: force the admission controller to reject
    /// the Nth admission decision (1-based, counted per engine across
    /// batches) as if the global capacity pool were empty — the request
    /// sheds with `reason:"capacity"` even when capacity is plentiful.
    pub fail_admission: Option<u64>,
    /// Serve-level injection: at the Nth tenant-bucket refill tick
    /// (1-based, one tick per served batch when quotas are configured),
    /// drain every bucket to zero instead of refilling it, so quota'd
    /// tenants degrade or shed on that batch.
    pub exhaust_tenant_at: Option<u64>,
    /// Serve-level injection: panic inside the worker executing the Nth
    /// solved request (1-based, counted over *executed* solves in input
    /// order — cache hits and shed requests don't count). Exercises the
    /// serve engine's per-request panic isolation.
    pub panic_request: Option<u64>,
}

#[cfg(feature = "fault-injection")]
impl FaultPlan {
    /// Derives a plan from a `u64` seed with the same splitmix64 expansion
    /// used to seed the in-repo `Rng64` (`sap-gen`), re-implemented here
    /// because `sap-gen` depends on `sap-core`.
    ///
    /// Each of the three *solver* fault dimensions independently fires
    /// with probability 1/2, so seed sweeps exercise single and combined
    /// faults. Seed 0 yields the empty plan. The serve-level dimensions
    /// (`fail_admission`, `exhaust_tenant_at`, `panic_request`) and
    /// `fail_refactor` are not seeded — the serve and refactorization
    /// chaos tests address them explicitly.
    pub fn from_seed(seed: u64) -> FaultPlan {
        if seed == 0 {
            return FaultPlan::default();
        }
        fn splitmix64(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        let mut state = seed;
        let r0 = splitmix64(&mut state);
        let r1 = splitmix64(&mut state);
        let r2 = splitmix64(&mut state);
        let fail_lp_solve = (r0 & 1 == 0).then(|| 1 + (r0 >> 8) % 4);
        let panic_worker = (r1 & 1 == 0).then(|| ((r1 >> 8) % 3) as usize);
        let exhaust_at = (r2 & 1 == 0).then(|| {
            let class = match (r2 >> 8) % 5 {
                0 => Some(CheckpointClass::LpPivot),
                1 => Some(CheckpointClass::DpRow),
                2 => Some(CheckpointClass::PackSweep),
                3 => Some(CheckpointClass::Driver),
                _ => None,
            };
            (class, 1 + (r2 >> 16) % 64)
        });
        FaultPlan { fail_lp_solve, panic_worker, exhaust_at, ..FaultPlan::default() }
    }

    /// True when no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        *self == FaultPlan::default()
    }
}

/// The fault plan a [`Budget`] carries: a [`FaultPlan`] with the
/// `fault-injection` feature, nothing without it.
#[cfg(feature = "fault-injection")]
type Faults = FaultPlan;
#[cfg(not(feature = "fault-injection"))]
type Faults = ();

/// Cooperative execution budget shared down one solver call chain.
///
/// A budget combines three independent limits:
///
/// * a **wall-clock deadline** ([`Budget::with_deadline_ms`]), checked at
///   every checkpoint *only when set*;
/// * a **work-unit limit** ([`Budget::with_work_units`]), a deterministic
///   abstract-cost counter incremented by checkpoints;
/// * a **cancellation flag**, shared between a budget and all its
///   [children](Budget::child), so a deadline trip (or an explicit
///   [`Budget::cancel`]) stops sibling arms at their next checkpoint.
///
/// Solvers treat a trip as [`SapError::BudgetExhausted`] and unwind to the
/// driver, which falls back to a cheaper algorithm. A budget is `Sync`;
/// checkpoints are lock-free atomic updates.
#[derive(Debug)]
pub struct Budget {
    deadline: Option<Instant>,
    work_limit: u64,
    consumed: AtomicU64,
    checkpoints: AtomicU64,
    by_class: [AtomicU64; 4],
    cancelled: Arc<AtomicBool>,
    tele: Telemetry,
    fault: Faults,
    #[cfg(feature = "fault-injection")]
    lp_solves: AtomicU64,
    #[cfg(feature = "fault-injection")]
    refactors: AtomicU64,
}

impl Default for Budget {
    fn default() -> Budget {
        Budget::unlimited()
    }
}

impl Budget {
    /// A budget with no deadline and no work-unit limit. Checkpoints only
    /// observe the cancellation flag.
    pub fn unlimited() -> Budget {
        Budget::from_parts(
            None,
            u64::MAX,
            Arc::new(AtomicBool::new(false)),
            Telemetry::off(),
            Faults::default(),
        )
    }

    /// The one constructor: the given limits, flag, telemetry handle and
    /// fault plan, with every counter at zero.
    fn from_parts(
        deadline: Option<Instant>,
        work_limit: u64,
        cancelled: Arc<AtomicBool>,
        tele: Telemetry,
        fault: Faults,
    ) -> Budget {
        Budget {
            deadline,
            work_limit,
            consumed: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            by_class: std::array::from_fn(|_| AtomicU64::new(0)),
            cancelled,
            tele,
            fault,
            #[cfg(feature = "fault-injection")]
            lp_solves: AtomicU64::new(0),
            #[cfg(feature = "fault-injection")]
            refactors: AtomicU64::new(0),
        }
    }

    /// Adds a wall-clock deadline `ms` milliseconds from now.
    ///
    /// Deadline checks read [`Instant::now`], so deadline-limited runs are
    /// *not* deterministic; combine with care in tests that compare runs.
    pub fn with_deadline_ms(mut self, ms: u64) -> Budget {
        // lint:allow(n1) — deadlines are a documented opt-out of
        // determinism (see the doc comment above).
        self.deadline = Some(Instant::now() + Duration::from_millis(ms));
        self
    }

    /// Limits the budget to `units` work units. `u64::MAX` means
    /// unmetered. The trip point depends only on the checkpoint sequence,
    /// never on the wall clock.
    pub fn with_work_units(mut self, units: u64) -> Budget {
        self.work_limit = units;
        self
    }

    /// Attaches a deterministic fault plan (testing only).
    #[cfg(feature = "fault-injection")]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Budget {
        self.fault = plan;
        self
    }

    /// A child budget for one portfolio arm: same limits and fault plan,
    /// fresh counters, **shared** cancellation flag.
    ///
    /// Fresh counters keep metered runs deterministic when arms race in
    /// parallel — each arm trips based only on its own work, while a
    /// deadline trip in any arm still cancels the siblings.
    pub fn child(&self) -> Budget {
        self.sibling(self.work_limit)
    }

    /// A fresh-counter budget sharing this one's deadline, cancellation
    /// flag, telemetry handle and fault plan, limited to `work_limit`.
    fn sibling(&self, work_limit: u64) -> Budget {
        Budget::from_parts(
            self.deadline,
            work_limit,
            Arc::clone(&self.cancelled),
            self.tele.clone(),
            self.fault,
        )
    }

    /// Splits the budget's *remaining* work units into `n` fixed per-item
    /// child meters, in index order (item `i` of a fan-out gets share `i`).
    ///
    /// The shares are computed **before** any fan-out runs, from the
    /// work remaining at the call (`work_limit − consumed`), divided as
    /// evenly as integer division allows: the first `remaining % n` items
    /// receive one extra unit, so every remaining unit is allocated and
    /// the split depends only on `(remaining, n)` — never on thread
    /// scheduling. An unmetered budget yields unmetered children.
    ///
    /// Each child has fresh counters and a fresh LP-solve fault counter
    /// (fault addressing becomes per-item, still deterministic), shares
    /// the cancellation flag, and carries the same telemetry handle, so
    /// every child's checkpoints land on the same phase node. Pair with
    /// [`Budget::absorb`] to fold the children's meters back into this
    /// budget — [`sap_core::map_reduce_isolated`](crate::map_reduce_isolated)
    /// does both.
    pub fn split_shares(&self, n: usize) -> Vec<Budget> {
        let remaining = if self.work_limit == u64::MAX {
            u64::MAX
        } else {
            self.work_limit.saturating_sub(self.consumed())
        };
        (0..n)
            .map(|i| {
                let share = if remaining == u64::MAX {
                    u64::MAX
                } else {
                    let extra = u64::from((i as u64) < remaining % n as u64);
                    remaining / n as u64 + extra
                };
                self.sibling(share)
            })
            .collect()
    }

    /// Folds a child meter back into this budget: consumed units,
    /// checkpoints, and the per-class split are added to this budget's
    /// counters (the merge is commutative addition, so any absorption
    /// order yields the same totals).
    ///
    /// After absorbing every share of a [`Budget::split_shares`] fan-out,
    /// this budget's meter reads exactly what it would have read had the
    /// items charged it directly — conservation audits
    /// ([`SolveReport::work_is_attributed`]) see no difference.
    pub fn absorb(&self, child: &Budget) {
        self.consumed.fetch_add(child.consumed(), Ordering::Relaxed);
        self.checkpoints.fetch_add(child.checkpoints_passed(), Ordering::Relaxed);
        for (slot, class) in self.by_class.iter().zip(CheckpointClass::ALL) {
            slot.fetch_add(child.class_consumed(class), Ordering::Relaxed);
        }
    }

    /// Attaches a telemetry handle; every [`Budget::checkpoint`] through
    /// this budget (and through [children](Budget::child), which inherit
    /// the handle) attributes its work to that phase. The default handle
    /// is the no-op [`Telemetry::off`], which keeps the hot path
    /// allocation-free.
    pub fn with_telemetry(mut self, tele: Telemetry) -> Budget {
        self.tele = tele;
        self
    }

    /// The telemetry handle carried by this budget (no-op by default).
    /// Solvers use it to open phase spans and record domain counters.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tele
    }

    /// Does nothing: [`Budget::checkpoint`] attributes its own units to
    /// the telemetry phase. Kept only because the end-to-end benchmark
    /// (`e2ebench/`) still calls it; delete it when the benchmark is next
    /// revised.
    #[doc(hidden)]
    #[deprecated(note = "Budget::checkpoint attributes telemetry work itself")]
    pub fn tick(&self, _class: CheckpointClass, _units: u64) {}

    /// Records `units` of work at a loop boundary, attributes them to the
    /// budget's telemetry phase, and checks every limit.
    ///
    /// The meter and the telemetry phase count the units before any limit
    /// is checked, so the units of a checkpoint that trips are still
    /// attributed.
    ///
    /// Returns [`SapError::BudgetExhausted`] when the budget is cancelled,
    /// over its work-unit limit, past its deadline, or hits an injected
    /// exhaustion fault. Algorithms must propagate the error upward
    /// without producing a partial answer.
    pub fn checkpoint(&self, class: CheckpointClass, units: u64) -> SapResult<()> {
        let passed = self.checkpoints.fetch_add(1, Ordering::Relaxed).saturating_add(1);
        let used = self.consumed.fetch_add(units, Ordering::Relaxed).saturating_add(units);
        if let Some(slot) = self.by_class.get(class.index()) {
            slot.fetch_add(units, Ordering::Relaxed);
        }
        self.tele.work(class, units);
        if self.cancelled.load(Ordering::Relaxed) {
            return Err(SapError::BudgetExhausted);
        }
        #[cfg(feature = "fault-injection")]
        if let Some((want_class, nth)) = self.fault.exhaust_at {
            if passed >= nth && want_class.map_or(true, |c| c == class) {
                return Err(SapError::BudgetExhausted);
            }
        }
        #[cfg(not(feature = "fault-injection"))]
        let _ = passed;
        if used > self.work_limit {
            return Err(SapError::BudgetExhausted);
        }
        if let Some(deadline) = self.deadline {
            // lint:allow(n1) — only reachable when with_deadline_ms was
            // called, which documents the determinism opt-out.
            if Instant::now() >= deadline {
                // Deadline trips cancel the whole solve, not just this arm.
                self.cancelled.store(true, Ordering::Relaxed);
                return Err(SapError::BudgetExhausted);
            }
        }
        Ok(())
    }

    /// Work units consumed through this budget (children not included).
    pub fn consumed(&self) -> u64 {
        self.consumed.load(Ordering::Relaxed)
    }

    /// Work units consumed through this budget in one class (children not
    /// included).
    pub fn class_consumed(&self, class: CheckpointClass) -> u64 {
        self.by_class
            .get(class.index())
            .map_or(0, |slot| slot.load(Ordering::Relaxed))
    }

    /// The per-class split of [`Budget::consumed`], for the report's
    /// per-arm metrics block. `work_profile().total() == consumed()` holds
    /// by construction.
    pub fn work_profile(&self) -> WorkProfile {
        WorkProfile {
            lp_pivot: self.class_consumed(CheckpointClass::LpPivot),
            dp_row: self.class_consumed(CheckpointClass::DpRow),
            pack_sweep: self.class_consumed(CheckpointClass::PackSweep),
            driver: self.class_consumed(CheckpointClass::Driver),
        }
    }

    /// Checkpoints passed through this budget (children not included).
    pub fn checkpoints_passed(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }

    /// Cancels this budget and every budget sharing its flag; they trip at
    /// their next checkpoint.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Fault-injection hook at the top of portfolio worker `idx`
    /// (0 = small, 1 = medium, 2 = large): panics when the plan targets
    /// this worker. No-op without the `fault-injection` feature.
    #[cfg(feature = "fault-injection")]
    pub fn worker_fault(&self, idx: usize) {
        if self.fault.panic_worker == Some(idx) {
            // lint:allow(p1) — deliberate injected panic; the driver's
            // catch_unwind isolation is exactly what is under test.
            panic!("injected fault: portfolio worker {idx} panicked");
        }
    }

    /// Fault-injection hook at the top of portfolio worker `idx`;
    /// compiled out without the `fault-injection` feature.
    #[cfg(not(feature = "fault-injection"))]
    pub fn worker_fault(&self, _idx: usize) {}

    /// Fault-injection hook counting LP solves: returns `true` when this
    /// solve (1-based, per budget) is planned to fail and should be
    /// treated as non-optimal. Always `false` without the feature.
    #[cfg(feature = "fault-injection")]
    pub fn lp_solve_fault(&self) -> bool {
        let nth = self.lp_solves.fetch_add(1, Ordering::Relaxed).saturating_add(1);
        self.fault.fail_lp_solve == Some(nth)
    }

    /// Fault-injection hook counting LP solves; compiled out without the
    /// `fault-injection` feature.
    #[cfg(not(feature = "fault-injection"))]
    pub fn lp_solve_fault(&self) -> bool {
        false
    }

    /// Fault-injection hook counting basis refactorizations: returns
    /// `true` when this refactorization (1-based, per budget) is planned
    /// to fail and the simplex should report a singular basis. Always
    /// `false` without the feature.
    #[cfg(feature = "fault-injection")]
    pub fn refactor_fault(&self) -> bool {
        let nth = self.refactors.fetch_add(1, Ordering::Relaxed).saturating_add(1);
        self.fault.fail_refactor == Some(nth)
    }

    /// Fault-injection hook counting basis refactorizations; compiled
    /// out without the `fault-injection` feature.
    #[cfg(not(feature = "fault-injection"))]
    pub fn refactor_fault(&self) -> bool {
        false
    }
}

/// How one portfolio arm (or fallback stage) ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArmOutcome {
    /// The arm produced its intended solution.
    Completed,
    /// The arm tripped its budget (work units, deadline, or cancellation).
    BudgetExhausted,
    /// An LP inside the arm returned a non-optimal status; the partial LP
    /// solution was discarded.
    LpNonOptimal,
    /// The arm panicked and was isolated by the driver.
    Panicked,
}

impl ArmOutcome {
    /// Stable name used in the JSON report.
    pub fn as_str(self) -> &'static str {
        match self {
            ArmOutcome::Completed => "completed",
            ArmOutcome::BudgetExhausted => "budget_exhausted",
            ArmOutcome::LpNonOptimal => "lp_non_optimal",
            ArmOutcome::Panicked => "panicked",
        }
    }
}

impl fmt::Display for ArmOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Outcome of one portfolio arm, as recorded in a [`SolveReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArmReport {
    /// Arm name: `"small"`, `"medium"`, `"large"`, `"greedy"`.
    pub arm: &'static str,
    /// How the arm ended.
    pub outcome: ArmOutcome,
    /// Weight of the feasible solution this arm contributed (0 when it
    /// contributed none).
    pub weight: u64,
    /// Work units the arm consumed from its child budget.
    pub work_consumed: u64,
    /// Per-class split of `work_consumed` (simplex pivots, DP rows,
    /// packing sweeps, driver checkpoints).
    pub work: WorkProfile,
    /// Name of the within-arm fallback that produced the arm's solution,
    /// when the primary algorithm did not (e.g. `"greedy"` for the small
    /// arm after a non-optimal LP).
    pub fallback: Option<&'static str>,
}

/// Schema version of the [`SolveReport`] JSON encoding, emitted as the
/// leading `"v"` field. Bump when a field is renamed or removed; adding
/// fields is backward-compatible and keeps the version.
pub const REPORT_SCHEMA_VERSION: u64 = 1;

/// Machine-readable account of a driver solve: per-arm outcomes, the
/// fallback that fired, and budget consumption.
///
/// The report deliberately contains **no timing fields**, so byte-identical
/// reports certify deterministic degradation (see the budget-determinism
/// test suite).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveReport {
    /// One entry per arm and fallback stage that ran, in execution order.
    pub arms: Vec<ArmReport>,
    /// Stage-level fallbacks fired by the driver: `[]` or `["greedy"]`.
    pub fallbacks: Vec<&'static str>,
    /// Name of the arm whose solution was returned.
    pub winner: &'static str,
    /// Weight of the returned solution.
    pub weight: u64,
    /// Total work units consumed across all child budgets.
    pub work_consumed: u64,
    /// Work units consumed by the driver's own (root) budget — the
    /// orchestration share of `work_consumed` not attributed to any arm.
    pub driver_work: u64,
    /// Total checkpoints passed across all child budgets.
    pub checkpoints: u64,
}

impl SolveReport {
    /// Work units accounted for by the report itself: the driver's own
    /// share plus every arm's `work_consumed`.
    pub fn attributed_work(&self) -> u64 {
        self.arms
            .iter()
            .fold(self.driver_work, |acc, a| acc.saturating_add(a.work_consumed))
    }

    /// True when the report loses no work: [`SolveReport::attributed_work`]
    /// equals the total meter. Holds for every driver path, including arms
    /// that panicked or starved (their child budgets are still read).
    pub fn work_is_attributed(&self) -> bool {
        self.attributed_work() == self.work_consumed
    }
    /// True when every arm completed and no fallback fired.
    pub fn is_clean(&self) -> bool {
        self.fallbacks.is_empty()
            && self.arms.iter().all(|a| a.outcome == ArmOutcome::Completed && a.fallback.is_none())
    }

    /// The report for `arm`, if that arm ran.
    pub fn arm(&self, arm: &str) -> Option<&ArmReport> {
        self.arms.iter().find(|a| a.arm == arm)
    }

    /// The deterministic JSON document: `"v"` first, then every field in
    /// declaration order.
    pub fn to_json(&self) -> Json {
        let text = |s: &str| Json::Str(s.into());
        let arm = |a: &ArmReport| {
            Json::Object(vec![
                ("arm".into(), text(a.arm)),
                ("outcome".into(), text(a.outcome.as_str())),
                ("weight".into(), Json::UInt(a.weight)),
                ("work_consumed".into(), Json::UInt(a.work_consumed)),
                ("work".into(), a.work.to_json()),
                ("fallback".into(), a.fallback.map_or(Json::Null, text)),
            ])
        };
        Json::Object(vec![
            ("v".into(), Json::UInt(REPORT_SCHEMA_VERSION)),
            ("arms".into(), Json::Array(self.arms.iter().map(arm).collect())),
            ("fallbacks".into(), Json::Array(self.fallbacks.iter().map(|f| text(f)).collect())),
            ("winner".into(), text(self.winner)),
            ("weight".into(), Json::UInt(self.weight)),
            ("work_consumed".into(), Json::UInt(self.work_consumed)),
            ("driver_work".into(), Json::UInt(self.driver_work)),
            ("checkpoints".into(), Json::UInt(self.checkpoints)),
        ])
    }

    /// [`SolveReport::to_json`] as one compact line.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_compact()
    }
}

impl fmt::Display for SolveReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "winner={} weight={}", self.winner, self.weight)?;
        for a in &self.arms {
            write!(f, " {}={}", a.arm, a.outcome)?;
            if let Some(fb) = a.fallback {
                write!(f, "(fallback={fb})")?;
            }
        }
        if !self.fallbacks.is_empty() {
            write!(f, " driver_fallbacks={}", self.fallbacks.join(","))?;
        }
        write!(f, " work={} checkpoints={}", self.work_consumed, self.checkpoints)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            b.checkpoint(CheckpointClass::DpRow, 17).unwrap();
        }
        assert_eq!(b.consumed(), 170_000);
        assert_eq!(b.checkpoints_passed(), 10_000);
    }

    #[test]
    fn work_units_trip_deterministically() {
        for _ in 0..3 {
            let b = Budget::unlimited().with_work_units(100);
            let mut passed = 0u64;
            while b.checkpoint(CheckpointClass::LpPivot, 7).is_ok() {
                passed += 1;
            }
            // trips on the first checkpoint pushing consumed past 100
            assert_eq!(passed, 14);
        }
    }

    #[test]
    fn cancel_stops_children() {
        let parent = Budget::unlimited();
        let child = parent.child();
        child.checkpoint(CheckpointClass::Driver, 1).unwrap();
        parent.cancel();
        assert_eq!(
            child.checkpoint(CheckpointClass::Driver, 1),
            Err(SapError::BudgetExhausted)
        );
    }

    #[test]
    fn child_counters_are_fresh() {
        let parent = Budget::unlimited().with_work_units(10);
        parent.checkpoint(CheckpointClass::Driver, 10).unwrap();
        let child = parent.child();
        assert_eq!(child.consumed(), 0);
        child.checkpoint(CheckpointClass::Driver, 10).unwrap();
        assert_eq!(
            child.checkpoint(CheckpointClass::Driver, 1),
            Err(SapError::BudgetExhausted)
        );
    }

    #[test]
    fn split_shares_allocates_every_remaining_unit() {
        let b = Budget::unlimited().with_work_units(10);
        b.checkpoint(CheckpointClass::Driver, 3).unwrap();
        // 7 remaining over 3 items: shares 3, 2, 2 — index order, exact.
        let shares = b.split_shares(3);
        let limits: Vec<u64> = shares
            .iter()
            .map(|c| {
                let mut used = 0;
                while c.checkpoint(CheckpointClass::DpRow, 1).is_ok() {
                    used += 1;
                }
                used
            })
            .collect();
        assert_eq!(limits, vec![3, 2, 2]);
    }

    #[test]
    fn split_shares_of_unmetered_budget_are_unmetered() {
        let b = Budget::unlimited();
        let shares = b.split_shares(2);
        for c in &shares {
            for _ in 0..1000 {
                c.checkpoint(CheckpointClass::PackSweep, 100).unwrap();
            }
        }
    }

    #[test]
    fn absorb_reconstructs_the_direct_charging_meter() {
        let direct = Budget::unlimited();
        direct.checkpoint(CheckpointClass::LpPivot, 5).unwrap();
        direct.checkpoint(CheckpointClass::DpRow, 2).unwrap();

        let parent = Budget::unlimited();
        let shares = parent.split_shares(2);
        shares[0].checkpoint(CheckpointClass::LpPivot, 5).unwrap();
        shares[1].checkpoint(CheckpointClass::DpRow, 2).unwrap();
        for c in &shares {
            parent.absorb(c);
        }
        assert_eq!(parent.consumed(), direct.consumed());
        assert_eq!(parent.checkpoints_passed(), direct.checkpoints_passed());
        assert_eq!(parent.work_profile(), direct.work_profile());
    }

    #[test]
    fn split_shares_share_the_cancel_flag() {
        let parent = Budget::unlimited();
        let shares = parent.split_shares(2);
        parent.cancel();
        assert_eq!(
            shares[1].checkpoint(CheckpointClass::Driver, 1),
            Err(SapError::BudgetExhausted)
        );
    }

    #[test]
    fn deadline_zero_trips_and_cancels_siblings() {
        let parent = Budget::unlimited().with_deadline_ms(0);
        let a = parent.child();
        let b = parent.child();
        assert_eq!(a.checkpoint(CheckpointClass::DpRow, 1), Err(SapError::BudgetExhausted));
        // the deadline trip in `a` cancelled the shared flag
        assert_eq!(b.checkpoint(CheckpointClass::DpRow, 1), Err(SapError::BudgetExhausted));
    }

    #[test]
    fn per_class_meter_splits_consumed_exactly() {
        let b = Budget::unlimited();
        b.checkpoint(CheckpointClass::LpPivot, 5).unwrap();
        b.checkpoint(CheckpointClass::LpPivot, 5).unwrap();
        b.checkpoint(CheckpointClass::DpRow, 3).unwrap();
        b.checkpoint(CheckpointClass::Driver, 1).unwrap();
        let profile = b.work_profile();
        assert_eq!(profile.lp_pivot, 10);
        assert_eq!(profile.dp_row, 3);
        assert_eq!(profile.pack_sweep, 0);
        assert_eq!(profile.driver, 1);
        assert_eq!(profile.total(), b.consumed());
    }

    #[test]
    fn tripping_checkpoint_units_are_still_counted_per_class() {
        let b = Budget::unlimited().with_work_units(4);
        b.checkpoint(CheckpointClass::PackSweep, 3).unwrap();
        assert!(b.checkpoint(CheckpointClass::PackSweep, 3).is_err());
        // the meter counts tripped units, and so does the class split
        assert_eq!(b.consumed(), 6);
        assert_eq!(b.class_consumed(CheckpointClass::PackSweep), 6);
        assert_eq!(b.work_profile().total(), b.consumed());
    }

    #[test]
    fn checkpoints_attribute_work_to_attached_telemetry() {
        let rec = crate::telemetry::Recorder::new();
        let b = Budget::unlimited().with_work_units(7).with_telemetry(rec.handle().child("arm"));
        b.checkpoint(CheckpointClass::DpRow, 4).unwrap();
        let child = b.child();
        child.checkpoint(CheckpointClass::LpPivot, 2).unwrap();
        // A tripping checkpoint's units are attributed too.
        assert!(child.checkpoint(CheckpointClass::LpPivot, 6).is_err());
        let arm = rec.handle().get_child("arm").expect("arm phase recorded");
        assert_eq!(arm.work_units(CheckpointClass::DpRow), 4);
        assert_eq!(arm.work_units(CheckpointClass::LpPivot), 8);
        // telemetry attribution equals the two budgets' own meters
        assert_eq!(arm.work_total(), b.consumed() + child.consumed());
    }

    #[test]
    fn report_json_is_deterministic() {
        let report = SolveReport {
            arms: vec![
                ArmReport {
                    arm: "small",
                    outcome: ArmOutcome::LpNonOptimal,
                    weight: 4,
                    work_consumed: 12,
                    work: WorkProfile { lp_pivot: 7, dp_row: 0, pack_sweep: 0, driver: 5 },
                    fallback: Some("greedy"),
                },
                ArmReport {
                    arm: "large",
                    outcome: ArmOutcome::Completed,
                    weight: 9,
                    work_consumed: 3,
                    work: WorkProfile { lp_pivot: 0, dp_row: 0, pack_sweep: 3, driver: 0 },
                    fallback: None,
                },
            ],
            fallbacks: vec![],
            winner: "large",
            weight: 9,
            work_consumed: 15,
            driver_work: 0,
            checkpoints: 6,
        };
        let json = report.to_json_string();
        assert_eq!(
            json,
            "{\"v\":1,\"arms\":[{\"arm\":\"small\",\"outcome\":\"lp_non_optimal\",\"weight\":4,\
             \"work_consumed\":12,\"work\":{\"lp_pivot\":7,\"dp_row\":0,\"pack_sweep\":0,\
             \"driver\":5},\"fallback\":\"greedy\"},{\"arm\":\"large\",\
             \"outcome\":\"completed\",\"weight\":9,\"work_consumed\":3,\"work\":{\"lp_pivot\":0,\
             \"dp_row\":0,\"pack_sweep\":3,\"driver\":0},\"fallback\":null}],\
             \"fallbacks\":[],\"winner\":\"large\",\"weight\":9,\"work_consumed\":15,\
             \"driver_work\":0,\"checkpoints\":6}"
        );
        assert!(!report.is_clean());
        assert!(report.work_is_attributed());
        assert_eq!(report.arm("small").map(|a| a.outcome), Some(ArmOutcome::LpNonOptimal));
    }

    #[cfg(feature = "fault-injection")]
    mod fault {
        use super::*;

        #[test]
        fn from_seed_zero_is_empty() {
            assert!(FaultPlan::from_seed(0).is_empty());
        }

        #[test]
        fn from_seed_is_deterministic_and_varied() {
            let mut any_lp = false;
            let mut any_panic = false;
            let mut any_exhaust = false;
            for seed in 1..=64 {
                let plan = FaultPlan::from_seed(seed);
                assert_eq!(plan, FaultPlan::from_seed(seed));
                any_lp |= plan.fail_lp_solve.is_some();
                any_panic |= plan.panic_worker.is_some();
                any_exhaust |= plan.exhaust_at.is_some();
            }
            assert!(any_lp && any_panic && any_exhaust);
        }

        #[test]
        fn exhaust_at_nth_checkpoint_of_class() {
            let plan = FaultPlan {
                exhaust_at: Some((Some(CheckpointClass::DpRow), 3)),
                ..FaultPlan::default()
            };
            let b = Budget::unlimited().with_fault_plan(plan);
            b.checkpoint(CheckpointClass::DpRow, 1).unwrap();
            b.checkpoint(CheckpointClass::DpRow, 1).unwrap();
            assert_eq!(b.checkpoint(CheckpointClass::DpRow, 1), Err(SapError::BudgetExhausted));
            // a different class at/after the trip index keeps running
            let b2 = Budget::unlimited().with_fault_plan(plan);
            for _ in 0..5 {
                b2.checkpoint(CheckpointClass::LpPivot, 1).unwrap();
            }
        }

        #[test]
        fn lp_solve_fault_counts_per_budget() {
            let plan = FaultPlan { fail_lp_solve: Some(2), ..FaultPlan::default() };
            let b = Budget::unlimited().with_fault_plan(plan);
            assert!(!b.lp_solve_fault());
            assert!(b.lp_solve_fault());
            assert!(!b.lp_solve_fault());
            let child = b.child();
            assert!(!child.lp_solve_fault());
            assert!(child.lp_solve_fault());
        }

        #[test]
        fn refactor_fault_counts_per_budget() {
            let plan = FaultPlan { fail_refactor: Some(2), ..FaultPlan::default() };
            let b = Budget::unlimited().with_fault_plan(plan);
            assert!(!b.refactor_fault());
            assert!(b.refactor_fault());
            assert!(!b.refactor_fault());
            let child = b.child();
            assert!(!child.refactor_fault());
            assert!(child.refactor_fault());
        }

        #[test]
        #[should_panic(expected = "injected fault")]
        fn worker_fault_panics_on_target() {
            let plan = FaultPlan { panic_worker: Some(1), ..FaultPlan::default() };
            let b = Budget::unlimited().with_fault_plan(plan);
            b.worker_fault(0);
            b.worker_fault(1);
        }
    }
}
