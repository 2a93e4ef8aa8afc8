//! Deterministic admission control for the serve engine.
//!
//! `sap serve` (PR 5) accepted every request unconditionally: one
//! pathological instance — or one chatty tenant — could monopolize a
//! batch while well-behaved tenants starved. This module puts a
//! deterministic admission controller in front of
//! [`crate::serve::ServeEngine`]. Every decoded request is metered
//! against two pools before it may solve:
//!
//! * a **global in-flight work-unit pool** (`--max-inflight-units`),
//!   replenished to its configured size at every batch tick — the
//!   bound on how much solve work one batch may admit; and
//! * a **per-tenant token bucket** (`--tenant-quota`), keyed by the
//!   optional `tenant` field of the request envelope. A bucket holds at
//!   most `quota × 2` tokens (the burst), starts full, and refills by
//!   `quota` tokens at every batch tick. Requests without a tenant are
//!   only subject to the global pool.
//!
//! Time is **logical**: a tick is one [`AdmissionController::tick`]
//! call (the serve engine issues one per batch), never a wall-clock
//! read, so a replayed request stream reproduces the identical
//! admit/degrade/shed sequence (lint `n1` stays clean).
//!
//! ## The degradation ladder
//!
//! An over-quota or over-capacity request is not dropped outright — it
//! walks a ladder of cheaper work-unit budgets, taking the first rung
//! both pools can pay for:
//!
//! 1. **Full** — the request's own cost: its explicit `work_units`, or
//!    [`estimate_units`] when uncapped. The request solves untouched.
//! 2. **Reduced** ([`Rung::Reduced`]) — cost ÷ [`REDUCED_DIVISOR`]:
//!    the solve runs under this reduced budget. An arm with tasks that
//!    runs out of it makes the driver add greedy first-fit as a
//!    candidate, so the answer weighs at least greedy's.
//! 3. **Greedy floor** ([`Rung::Greedy`]) — [`GREEDY_FLOOR_UNITS`], the
//!    same rule at a few units: only an arm whose work fits in them (a
//!    tiny or empty task set) completes.
//! 4. **Shed** — even the greedy floor doesn't fit: the engine emits a
//!    structured `{"v":1,"status":"shed","reason":…}` line and runs no
//!    solver at all. The service degrades or sheds, it never stalls.
//!
//! The rung names the *budget tier*, not the winning arm: an easy
//! instance may still complete its portfolio inside a reduced-rung
//! budget. What the ladder guarantees is that the admitted cost is
//! bounded and that the outcome is a pure function of the request
//! stream and the configuration.
//!
//! ## Determinism contract
//!
//! Decisions are made in the engine's sequential classification pass,
//! in input order, and **charge the pools whether or not the solve is
//! later answered from the response cache**. Cache warmth and worker
//! width therefore cannot shift an admission decision: for a fixed
//! input stream and configuration the full response stream — including
//! which requests degrade or shed — is byte-identical at any
//! `--workers` width and any cache warmth.

use std::collections::BTreeMap;

#[cfg(feature = "fault-injection")]
use sap_core::FaultPlan;

/// Work-unit budget of the ladder's terminal rung: large enough for the
/// driver to dispatch, small enough that an arm with real work to do
/// runs out of it, which makes the driver add greedy as a candidate.
pub const GREEDY_FLOOR_UNITS: u64 = 8;

/// The reduced rung admits at the full cost divided by this.
pub const REDUCED_DIVISOR: u64 = 4;

/// A tenant bucket holds at most `quota × TENANT_BURST_FACTOR` tokens.
pub const TENANT_BURST_FACTOR: u64 = 2;

/// Deterministic work-unit estimate for a request with no explicit
/// `work_units` cap, as a function of its task count (LP columns, DP
/// states, and rectangles all scale with it). Calibrated on a 24-task
/// mixed instance, which meters ≈150 units against a charge of 320.
///
/// It is **not** an upper bound on what a request meters: the measured
/// `admission.charge_ratio` (metered ÷ charged) is 50 on the `mixed80`
/// benchmark workload, whose medium arm meters 68k–196k units against
/// a 3232-unit charge, and 0.023 on `cheap_rpc`. An uncapped request can
/// therefore under-pay the pools. ROADMAP item 6 replaces this with a
/// bound derived from the classify pass.
pub fn estimate_units(tasks: usize) -> u64 {
    let t = tasks as u64;
    t.saturating_mul(t).saturating_div(2).saturating_add(32)
}

/// Which rung of the degradation ladder admitted a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// Admitted at the request's own cost; the solve runs untouched.
    Full,
    /// Admitted at a quarter of the full cost; on hard instances an arm
    /// runs out of it and greedy joins the candidates.
    Reduced,
    /// Admitted at the greedy floor, [`GREEDY_FLOOR_UNITS`].
    Greedy,
}

impl Rung {
    /// Stable lower-case name, used in counters and docs.
    pub fn as_str(self) -> &'static str {
        match self {
            Rung::Full => "full",
            Rung::Reduced => "reduced",
            Rung::Greedy => "greedy",
        }
    }
}

/// Why a request was shed (the `reason` field of a shed response).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The global in-flight pool cannot pay even the greedy floor.
    Capacity,
    /// The request's tenant bucket cannot pay even the greedy floor.
    Quota,
}

impl ShedReason {
    /// Stable wire name (`"capacity"` / `"quota"`).
    pub fn as_str(self) -> &'static str {
        match self {
            ShedReason::Capacity => "capacity",
            ShedReason::Quota => "quota",
        }
    }
}

/// Outcome of one admission decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Run the solve. `cost` is what both pools were charged; for
    /// degraded rungs it is also the work-unit budget the solve must
    /// run under ([`Rung::Full`] keeps the request's own budget).
    Admit {
        /// The ladder rung that fit.
        rung: Rung,
        /// Work units charged (and, below [`Rung::Full`], enforced).
        cost: u64,
    },
    /// Emit a structured shed response; run nothing.
    Shed(ShedReason),
}

/// Static admission configuration (CLI flags map 1:1 onto these).
#[derive(Debug, Clone, Default)]
pub struct AdmissionConfig {
    /// Global work-unit pool per batch tick (`None` = unlimited).
    pub max_inflight_units: Option<u64>,
    /// Tokens refilled into every tenant bucket per batch tick
    /// (`None` = tenants are unmetered).
    pub tenant_quota: Option<u64>,
}

impl AdmissionConfig {
    /// True when any limit is configured; an unconfigured controller
    /// admits everything at [`Rung::Full`] without bookkeeping.
    pub fn is_enabled(&self) -> bool {
        self.max_inflight_units.is_some() || self.tenant_quota.is_some()
    }
}

/// Cumulative admission counters, exported as `serve.*` telemetry by
/// the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Requests admitted (any rung).
    pub admitted: u64,
    /// Requests admitted at the reduced rung.
    pub degraded_reduced: u64,
    /// Requests admitted at the greedy floor.
    pub degraded_greedy: u64,
    /// Requests shed because the global pool was exhausted.
    pub shed_capacity: u64,
    /// Requests shed because their tenant bucket was exhausted.
    pub shed_quota: u64,
    /// Requests degraded or shed where the tenant bucket (not just the
    /// global pool) blocked a higher rung.
    pub tenant_throttled: u64,
    /// Batch ticks that refilled tenant buckets.
    pub refills: u64,
}

/// The admission controller: global pool + per-tenant token buckets +
/// the degradation ladder. Owned by the serve engine; all calls happen
/// in its sequential classification pass, in input order.
#[derive(Debug)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    /// Remaining global work units this batch (`u64::MAX` = unlimited).
    pool: u64,
    /// Tenant buckets, keyed by tenant name. A `BTreeMap` so telemetry
    /// and debug output iterate deterministically.
    buckets: BTreeMap<String, u64>,
    /// Admission decisions taken (the fault-injection address space).
    decisions: u64,
    /// Cumulative counters.
    pub stats: AdmissionStats,
    #[cfg(feature = "fault-injection")]
    fault: FaultPlan,
}

impl AdmissionController {
    /// A fresh controller; call [`AdmissionController::tick`] before
    /// the first batch.
    pub fn new(cfg: AdmissionConfig) -> Self {
        AdmissionController {
            cfg,
            pool: u64::MAX,
            buckets: BTreeMap::new(),
            decisions: 0,
            stats: AdmissionStats::default(),
            #[cfg(feature = "fault-injection")]
            fault: FaultPlan::default(),
        }
    }

    /// Attaches a deterministic fault plan (testing only): see
    /// [`FaultPlan::fail_admission`] and [`FaultPlan::exhaust_tenant_at`].
    #[cfg(feature = "fault-injection")]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// Number of live tenant buckets.
    pub fn tenant_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Current `(tenant, token level)` pairs in tenant-name order —
    /// the observability plane syncs these into its per-tenant snapshot
    /// section. Deterministic: bucket levels are a pure function of the
    /// request stream and the tick sequence.
    pub fn bucket_levels(&self) -> impl Iterator<Item = (&str, u64)> {
        self.buckets.iter().map(|(name, &level)| (name.as_str(), level))
    }

    /// One batch tick: replenish the global pool to its configured size
    /// and refill every tenant bucket by one quota (capped at the
    /// burst). Purely logical time — no clock is read.
    pub fn tick(&mut self) {
        self.pool = self.cfg.max_inflight_units.unwrap_or(u64::MAX);
        let Some(quota) = self.cfg.tenant_quota else {
            return;
        };
        self.stats.refills = self.stats.refills.saturating_add(1);
        #[cfg(feature = "fault-injection")]
        if self.fault.exhaust_tenant_at == Some(self.stats.refills) {
            for level in self.buckets.values_mut() {
                *level = 0;
            }
            return;
        }
        let burst = quota.saturating_mul(TENANT_BURST_FACTOR);
        for level in self.buckets.values_mut() {
            *level = level.saturating_add(quota).min(burst);
        }
    }

    /// Level of `tenant`'s bucket, creating it full (at burst) on first
    /// sight. `None` when tenants are unmetered or the request carries
    /// no tenant.
    fn bucket_level(&mut self, tenant: Option<&str>) -> Option<u64> {
        let quota = self.cfg.tenant_quota?;
        let tenant = tenant?;
        let burst = quota.saturating_mul(TENANT_BURST_FACTOR);
        Some(*self.buckets.entry(tenant.to_string()).or_insert(burst))
    }

    /// Charges `cost` to the global pool and (when constrained) the
    /// tenant bucket. Callers check affordability first.
    fn charge(&mut self, tenant: Option<&str>, cost: u64) {
        self.pool = self.pool.saturating_sub(cost);
        if self.cfg.tenant_quota.is_some() {
            if let Some(level) = tenant.and_then(|t| self.buckets.get_mut(t)) {
                *level = level.saturating_sub(cost);
            }
        }
    }

    /// Decides one request: walk the degradation ladder from the full
    /// cost down and admit at the first rung both pools can pay, else
    /// shed. `full_cost` is the request's explicit work-unit budget or
    /// [`estimate_units`] of its task count; `tenant` is the envelope's
    /// optional tenant key.
    ///
    /// Deterministic: the outcome depends only on the configuration and
    /// the sequence of prior `tick`/`decide` calls.
    pub fn decide(&mut self, full_cost: u64, tenant: Option<&str>) -> Decision {
        self.decisions = self.decisions.saturating_add(1);
        #[cfg(feature = "fault-injection")]
        let injected = self.fault.fail_admission == Some(self.decisions);
        #[cfg(not(feature = "fault-injection"))]
        let injected = false;

        let full = full_cost.max(1);
        let bucket = self.bucket_level(tenant);
        // The ladder, highest rung first. Rungs whose cost is not
        // strictly below the previous rung's are skipped (a tiny full
        // cost collapses the ladder).
        let reduced = (full / REDUCED_DIVISOR).max(GREEDY_FLOOR_UNITS.saturating_mul(2));
        let greedy = GREEDY_FLOOR_UNITS;
        let mut rungs: Vec<(Rung, u64)> = vec![(Rung::Full, full)];
        if reduced < full {
            rungs.push((Rung::Reduced, reduced));
        }
        if greedy < rungs[rungs.len() - 1].1 {
            rungs.push((Rung::Greedy, greedy));
        }

        let mut bucket_blocked = false;
        for &(rung, cost) in &rungs {
            let pool_ok = !injected && cost <= self.pool;
            let bucket_ok = bucket.map_or(true, |level| cost <= level);
            if pool_ok && bucket_ok {
                self.charge(tenant, cost);
                self.stats.admitted = self.stats.admitted.saturating_add(1);
                match rung {
                    Rung::Full => {}
                    Rung::Reduced => {
                        self.stats.degraded_reduced =
                            self.stats.degraded_reduced.saturating_add(1);
                    }
                    Rung::Greedy => {
                        self.stats.degraded_greedy =
                            self.stats.degraded_greedy.saturating_add(1);
                    }
                }
                if bucket_blocked {
                    self.stats.tenant_throttled =
                        self.stats.tenant_throttled.saturating_add(1);
                }
                return Decision::Admit { rung, cost };
            }
            if !bucket_ok {
                bucket_blocked = true;
            }
        }
        // Even the cheapest rung didn't fit. An empty global pool (or
        // an injected admission failure) sheds as a capacity problem;
        // otherwise the tenant bucket was the binding constraint.
        let floor = rungs[rungs.len() - 1].1;
        let reason = if injected || floor > self.pool {
            ShedReason::Capacity
        } else {
            ShedReason::Quota
        };
        match reason {
            ShedReason::Capacity => {
                self.stats.shed_capacity = self.stats.shed_capacity.saturating_add(1);
            }
            ShedReason::Quota => {
                self.stats.shed_quota = self.stats.shed_quota.saturating_add(1);
                self.stats.tenant_throttled = self.stats.tenant_throttled.saturating_add(1);
            }
        }
        Decision::Shed(reason)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admitted(d: Decision) -> (Rung, u64) {
        match d {
            Decision::Admit { rung, cost } => (rung, cost),
            Decision::Shed(r) => panic!("expected admit, got shed({})", r.as_str()),
        }
    }

    #[test]
    fn unconfigured_controller_admits_everything_at_full() {
        let mut ac = AdmissionController::new(AdmissionConfig::default());
        ac.tick();
        for i in 0..100u64 {
            let (rung, cost) = admitted(ac.decide(1_000_000 * (i + 1), Some("t")));
            assert_eq!(rung, Rung::Full);
            assert_eq!(cost, 1_000_000 * (i + 1));
        }
        assert_eq!(ac.stats.admitted, 100);
        assert_eq!(ac.tenant_buckets(), 0, "unmetered tenants get no buckets");
    }

    #[test]
    fn global_pool_walks_the_ladder_then_sheds() {
        let cfg = AdmissionConfig { max_inflight_units: Some(1000), tenant_quota: None };
        let mut ac = AdmissionController::new(cfg);
        ac.tick();
        // 800 fits fully; the next 800 only at 800/4 = 200 — wait, pool
        // is 200 after the first: 800 > 200, 200 == 200 fits (reduced).
        assert_eq!(admitted(ac.decide(800, None)), (Rung::Full, 800));
        assert_eq!(admitted(ac.decide(800, None)), (Rung::Reduced, 200));
        // Pool is now 0: only shedding is left, greedy floor included.
        assert_eq!(ac.decide(800, None), Decision::Shed(ShedReason::Capacity));
        assert_eq!(ac.stats.admitted, 2);
        assert_eq!(ac.stats.degraded_reduced, 1);
        assert_eq!(ac.stats.shed_capacity, 1);
        // A fresh tick replenishes the pool.
        ac.tick();
        assert_eq!(admitted(ac.decide(800, None)), (Rung::Full, 800));
    }

    #[test]
    fn greedy_floor_is_the_last_resort_before_shedding() {
        let cfg = AdmissionConfig { max_inflight_units: Some(10), tenant_quota: None };
        let mut ac = AdmissionController::new(cfg);
        ac.tick();
        // 400 → reduced 100 → greedy 8: only the floor fits the pool.
        assert_eq!(admitted(ac.decide(400, None)), (Rung::Greedy, GREEDY_FLOOR_UNITS));
        assert_eq!(ac.stats.degraded_greedy, 1);
        // 2 units left: nothing fits.
        assert_eq!(ac.decide(400, None), Decision::Shed(ShedReason::Capacity));
    }

    #[test]
    fn tenant_buckets_start_at_burst_and_refill_per_tick() {
        let cfg = AdmissionConfig { max_inflight_units: None, tenant_quota: Some(100) };
        let mut ac = AdmissionController::new(cfg);
        ac.tick();
        // Burst = 200: two 100-unit requests pass at full.
        assert_eq!(admitted(ac.decide(100, Some("a"))), (Rung::Full, 100));
        assert_eq!(admitted(ac.decide(100, Some("a"))), (Rung::Full, 100));
        // Bucket empty: 100 → reduced 25 doesn't fit either → greedy 8
        // doesn't fit → quota shed.
        assert_eq!(ac.decide(100, Some("a")), Decision::Shed(ShedReason::Quota));
        assert_eq!(ac.stats.shed_quota, 1);
        assert_eq!(ac.stats.tenant_throttled, 1);
        // Another tenant is unaffected; tenant-less requests too.
        assert_eq!(admitted(ac.decide(100, Some("b"))), (Rung::Full, 100));
        assert_eq!(admitted(ac.decide(100, None)), (Rung::Full, 100));
        // One refill: 100 tokens — full fits again.
        ac.tick();
        assert_eq!(admitted(ac.decide(100, Some("a"))), (Rung::Full, 100));
        assert_eq!(ac.tenant_buckets(), 2);
        assert_eq!(ac.stats.refills, 2);
        // bucket_levels iterates in name order with current levels:
        // "a" paid 100 from its refilled 100; "b" paid 100 from its
        // initial burst 200 and refilled back to the 200 cap.
        let levels: Vec<(String, u64)> =
            ac.bucket_levels().map(|(n, l)| (n.to_string(), l)).collect();
        assert_eq!(levels, vec![("a".to_string(), 0), ("b".to_string(), 200)]);
    }

    #[test]
    fn tenant_degradation_takes_the_reduced_rung_when_it_fits() {
        let cfg = AdmissionConfig { max_inflight_units: None, tenant_quota: Some(150) };
        let mut ac = AdmissionController::new(cfg);
        ac.tick();
        // Burst 300: full 280 fits; then full 280 > 20 left, reduced
        // 280/4 = 70 > 20, greedy 8 fits.
        assert_eq!(admitted(ac.decide(280, Some("a"))), (Rung::Full, 280));
        assert_eq!(admitted(ac.decide(280, Some("a"))), (Rung::Greedy, 8));
        assert_eq!(ac.stats.tenant_throttled, 1);
        // After a refill (level 12 + 150 = 162): reduced 70 fits.
        ac.tick();
        assert_eq!(admitted(ac.decide(280, Some("a"))), (Rung::Reduced, 70));
        assert_eq!(ac.stats.degraded_reduced, 1);
        assert_eq!(ac.stats.degraded_greedy, 1);
    }

    #[test]
    fn tiny_full_costs_collapse_the_ladder() {
        let cfg = AdmissionConfig { max_inflight_units: Some(4), tenant_quota: None };
        let mut ac = AdmissionController::new(cfg);
        ac.tick();
        // full = 3 < greedy floor: the ladder is the single full rung.
        assert_eq!(admitted(ac.decide(3, None)), (Rung::Full, 3));
        assert_eq!(ac.decide(3, None), Decision::Shed(ShedReason::Capacity));
    }

    #[test]
    fn estimate_grows_with_task_count_and_never_overflows() {
        assert!(estimate_units(0) > 0);
        assert!(estimate_units(24) > estimate_units(8));
        assert_eq!(estimate_units(24), 320);
        let _ = estimate_units(usize::MAX); // saturates, no panic
    }

    #[test]
    fn decisions_are_replayable() {
        let run = || {
            let cfg = AdmissionConfig {
                max_inflight_units: Some(500),
                tenant_quota: Some(120),
            };
            let mut ac = AdmissionController::new(cfg);
            let mut log = Vec::new();
            for batch in 0..4u64 {
                ac.tick();
                for i in 0..6u64 {
                    let tenant = ["a", "b"][(i % 2) as usize];
                    let d = ac.decide(60 + 40 * ((batch + i) % 5), Some(tenant));
                    log.push(format!("{d:?}"));
                }
            }
            (log, ac.stats)
        };
        assert_eq!(run(), run());
    }
}
