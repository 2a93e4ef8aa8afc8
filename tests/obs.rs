//! Determinism and conservation tests for the observability plane
//! (`sap_core::obs` wired through the serve engine).
//!
//! The ISSUE-8 acceptance bar enforced here: snapshot lines are
//! byte-identical across `--workers 1/2/8`, across cold-cache vs
//! warm-cache runs, and across repeats; the aggregator's per-class work
//! totals exactly equal the fold of the per-request `SolveReport` work
//! meters embedded in the ok responses (work-unit conservation on a
//! mixed ok/error/shed/degraded stream); and `Histogram` survives an
//! `entries()`/`from_entries` round trip on `Rng64`-driven inputs.

use storage_alloc::json;
use storage_alloc::sap_core::{chrome_trace, Histogram, TraceClock};
use storage_alloc::sap_gen::Rng64;
use storage_alloc::serve::{ServeEngine, ServeOptions};

fn inst_small() -> String {
    r#"{"capacities":[4,6,4],"tasks":[{"lo":0,"hi":2,"demand":2,"weight":10},{"lo":1,"hi":3,"demand":3,"weight":8}]}"#.to_string()
}

fn inst_other() -> String {
    r#"{"capacities":[8,8],"tasks":[{"lo":0,"hi":1,"demand":3,"weight":5},{"lo":1,"hi":2,"demand":8,"weight":9},{"lo":0,"hi":2,"demand":4,"weight":7}]}"#.to_string()
}

/// Overloaded two-tenant stream: per batch, three 300-unit "hog"
/// requests, one 40-unit "mouse" request, one malformed line, and one
/// untenanted request. Under a 700-unit pool and a 330-unit quota the
/// hog is degraded and shed while the mouse keeps flowing — every
/// response kind (ok / error / shed) and every admission rung shows up.
fn overload_batches(n: usize) -> Vec<Vec<String>> {
    (0..n)
        .map(|_| {
            vec![
                format!(r#"{{"instance":{},"tenant":"hog","work_units":300}}"#, inst_small()),
                format!(r#"{{"instance":{},"tenant":"hog","work_units":300}}"#, inst_other()),
                format!(r#"{{"instance":{},"tenant":"hog","work_units":300}}"#, inst_small()),
                format!(r#"{{"instance":{},"tenant":"mouse","work_units":40}}"#, inst_other()),
                "{not json".to_string(),
                inst_small(),
            ]
        })
        .collect()
}

fn overload_opts(workers: usize, cache_size: usize) -> ServeOptions {
    ServeOptions {
        workers,
        cache_size,
        max_inflight_units: Some(700),
        tenant_quota: Some(330),
        snapshot_every: 1,
        obs: true,
        ..Default::default()
    }
}

/// Runs the batches and returns (responses, snapshot lines, engine).
fn run_with_snapshots(
    opts: ServeOptions,
    batches: &[Vec<String>],
) -> (Vec<String>, Vec<String>, ServeEngine) {
    let mut engine = ServeEngine::new(opts);
    let mut responses = Vec::new();
    let mut snapshots = Vec::new();
    for batch in batches {
        let refs: Vec<&str> = batch.iter().map(String::as_str).collect();
        responses.extend(engine.process_batch(&refs));
        if let Some(line) = engine.maybe_snapshot() {
            snapshots.push(line);
        }
    }
    (responses, snapshots, engine)
}

#[test]
fn snapshot_stream_is_byte_identical_across_worker_widths() {
    let batches = overload_batches(4);
    let (base_resp, base_snap, _) = run_with_snapshots(overload_opts(1, 64), &batches);
    assert_eq!(base_snap.len(), 4);
    for workers in [2, 8] {
        let (resp, snap, _) = run_with_snapshots(overload_opts(workers, 64), &batches);
        assert_eq!(resp, base_resp, "workers={workers} responses diverged");
        assert_eq!(snap, base_snap, "workers={workers} snapshots diverged");
    }
}

#[test]
fn snapshot_stream_is_byte_identical_across_cache_warmth() {
    let batches = overload_batches(4);
    let (base_resp, base_snap, base_engine) = run_with_snapshots(overload_opts(1, 64), &batches);
    // cache_size 0 disables the cross-batch cache entirely: every
    // request re-solves, yet the snapshot stream must not move.
    let (resp, snap, engine) = run_with_snapshots(overload_opts(1, 0), &batches);
    assert_eq!(resp, base_resp, "cold-cache responses diverged");
    assert_eq!(snap, base_snap, "cold-cache snapshots diverged");
    let trace = |e: &ServeEngine| {
        chrome_trace(e.aggregator().unwrap().profile(), TraceClock::WorkUnits)
    };
    assert_eq!(trace(&engine), trace(&base_engine), "cold-cache trace diverged");
}

#[test]
fn obs_plane_never_changes_a_response() {
    let batches = overload_batches(4);
    let (observed, _, _) = run_with_snapshots(overload_opts(1, 64), &batches);
    let plain = ServeOptions { obs: false, snapshot_every: 0, ..overload_opts(1, 64) };
    let (unobserved, snaps, engine) = run_with_snapshots(plain, &batches);
    assert!(snaps.is_empty() && engine.aggregator().is_none());
    assert_eq!(observed, unobserved, "turning the obs plane on changed a response");
}

#[test]
fn snapshot_stream_is_byte_identical_on_repeat_runs() {
    let batches = overload_batches(3);
    let (r1, s1, _) = run_with_snapshots(overload_opts(2, 64), &batches);
    let (r2, s2, _) = run_with_snapshots(overload_opts(2, 64), &batches);
    assert_eq!(r1, r2);
    assert_eq!(s1, s2);
}

#[test]
fn snapshot_lines_are_single_line_v1_records() {
    let batches = overload_batches(2);
    let (_, snaps, _) = run_with_snapshots(overload_opts(1, 64), &batches);
    for (i, line) in snaps.iter().enumerate() {
        assert!(!line.contains('\n'), "snapshot {i} spans lines");
        let v = json::parse(line).expect("snapshot must be valid JSON");
        assert_eq!(v.get("v").and_then(json::Json::as_u64), Some(1));
        assert_eq!(v.get("kind").and_then(json::Json::as_str), Some("snapshot"));
        assert_eq!(v.get("tick").and_then(json::Json::as_u64), Some(i as u64 + 1));
        assert!(v.get("counters").is_some());
        assert!(v.get("delta").is_some());
        assert!(v.get("tenants").is_some());
    }
}

/// Folds the per-class work meters out of an ok response's embedded
/// `report` object, the same way the engine derives its obs counters:
/// each arm's `work` block, plus `driver_work` into the driver class.
fn fold_report_work(response: &str, totals: &mut [u64; 4]) {
    let v = json::parse(response).expect("response must be valid JSON");
    if v.get("status").and_then(json::Json::as_str) != Some("ok") {
        return;
    }
    let report = v.get("report").expect("ok response embeds a report");
    let arms = report.get("arms").and_then(json::Json::as_array).expect("report.arms");
    for arm in arms {
        let work = arm.get("work").expect("arm.work");
        for (i, class) in ["lp_pivot", "dp_row", "pack_sweep", "driver"].iter().enumerate() {
            totals[i] += work.get(class).and_then(json::Json::as_u64).unwrap_or(0);
        }
    }
    totals[3] += report.get("driver_work").and_then(json::Json::as_u64).unwrap_or(0);
}

#[test]
fn aggregator_work_totals_equal_fold_of_response_reports() {
    // Mixed ok/error/shed/degraded stream, with the cache on so some ok
    // responses are replays — conservation must hold through replay
    // amortization too.
    let batches = overload_batches(5);
    let (responses, _, engine) = run_with_snapshots(overload_opts(2, 64), &batches);
    let mut expected = [0u64; 4];
    for r in &responses {
        fold_report_work(r, &mut expected);
    }
    let agg = engine.aggregator().expect("obs enabled");
    let got = [
        agg.counter("obs.work.lp_pivot"),
        agg.counter("obs.work.dp_row"),
        agg.counter("obs.work.pack_sweep"),
        agg.counter("obs.work.driver"),
    ];
    assert_eq!(got, expected, "aggregator work totals must equal the response-report fold");
    assert!(expected.iter().sum::<u64>() > 0, "stream must meter nonzero work");
    // The aggregator's request counters agree with the engine's own,
    // and the response kinds partition the stream.
    let stats = &engine.stats;
    assert_eq!(agg.counter("obs.requests"), stats.requests);
    assert_eq!(agg.counter("obs.ok"), stats.ok);
    assert_eq!(stats.ok + stats.errors + stats.shed, stats.requests);
    // The stream mixes every response class; the conservation claim is
    // only interesting if it actually did.
    assert!(agg.counter("obs.ok") > 0);
    assert!(agg.counter("obs.err") > 0);
    assert!(agg.counter("obs.shed") > 0);
    assert!(agg.counter("obs.rung.full") > 0);
    assert!(
        agg.counter("obs.rung.reduced") + agg.counter("obs.rung.greedy") > 0,
        "quota pressure must degrade at least one request"
    );
}

#[test]
fn per_tenant_rows_sum_to_the_global_counters() {
    let batches = overload_batches(4);
    let (_, _, engine) = run_with_snapshots(overload_opts(1, 64), &batches);
    let agg = engine.aggregator().expect("obs enabled");
    let mut requests = 0;
    let mut ok = 0;
    let mut shed = 0;
    for (_, t) in agg.tenants() {
        requests += t.requests;
        ok += t.ok;
        shed += t.shed;
    }
    // Untenanted and malformed lines are global-only, so tenant rows
    // are a lower bound on requests and an exact partition of sheds
    // (only tenanted requests can trip the quota here).
    assert!(requests > 0 && requests < agg.counter("obs.requests"));
    assert!(ok <= agg.counter("obs.ok"));
    assert_eq!(shed, agg.counter("obs.shed"));
}

#[test]
fn replayed_responses_contribute_identical_work() {
    // Same batch twice with a warm cache: batch 2 is all replays, yet
    // the snapshot-plane counters must advance by exactly the same
    // deltas as batch 1.
    let batch = vec![inst_small(), inst_other()];
    let opts = ServeOptions { snapshot_every: 1, obs: true, ..Default::default() };
    let (_, snaps, engine) = run_with_snapshots(opts, &[batch.clone(), batch]);
    let agg = engine.aggregator().expect("obs enabled");
    assert_eq!(agg.op("obs.solves"), 2);
    assert_eq!(agg.op("obs.replayed"), 2);
    for class in ["lp_pivot", "dp_row", "pack_sweep", "driver"] {
        let name = format!("obs.work.{class}");
        assert_eq!(agg.counter(&name) % 2, 0, "{name} must double exactly on replay");
    }
    // The two snapshot deltas must be byte-identical (tick aside).
    let d1 = snaps[0].split("\"delta\":").nth(1).unwrap();
    let d2 = snaps[1].split("\"delta\":").nth(1).unwrap();
    assert_eq!(d1, d2, "replay batch produced a different delta than the original");
}

#[test]
fn service_trace_export_is_nonvacuous_and_deterministic() {
    let batches = overload_batches(2);
    let (_, _, engine) = run_with_snapshots(overload_opts(1, 64), &batches);
    let trace = chrome_trace(engine.aggregator().unwrap().profile(), TraceClock::WorkUnits);
    let begins = trace.matches("\"ph\":\"B\"").count();
    let ends = trace.matches("\"ph\":\"E\"").count();
    assert_eq!(begins, ends);
    assert!(begins > 1, "trace must contain child spans, not just the root: {trace}");
    json::parse(&trace).expect("trace must be valid JSON");
    let (_, _, engine2) = run_with_snapshots(overload_opts(8, 64), &batches);
    let trace2 = chrome_trace(engine2.aggregator().unwrap().profile(), TraceClock::WorkUnits);
    assert_eq!(trace, trace2, "trace diverged across worker widths");
}

#[test]
fn histogram_survives_an_entries_round_trip() {
    // Property test under the in-repo deterministic RNG: for arbitrary
    // value streams, (a) every recorded value lands in exactly one
    // bucket, (b) entries()/from_entries round-trips, (c) merge equals
    // recording the concatenated stream. v=0 exercises the dedicated
    // zero bucket.
    let mut rng = Rng64::seed_from_u64(0x0b5e_55ab_1e5e_ed01);
    for _ in 0..50 {
        let n = rng.gen_range(0u64..200);
        let mut h1 = Histogram::new();
        let mut h2 = Histogram::new();
        let mut both = Histogram::new();
        let mut total = 0u64;
        for _ in 0..n {
            // Mix magnitudes: zeros, small counts, and full-width u64s.
            let v = match rng.gen_range(0u64..4) {
                0 => 0,
                1 => rng.gen_range(1u64..100),
                2 => rng.next_u64() >> rng.gen_range(0u64..64) as u32,
                _ => rng.next_u64(),
            };
            if rng.gen_bool(0.5) {
                h1.record(v);
            } else {
                h2.record(v);
            }
            both.record(v);
            total += 1;
        }
        assert_eq!(h1.total() + h2.total(), total);
        let mut merged = h1.clone();
        merged.merge(&h2);
        assert_eq!(merged, both, "merge must equal recording the concatenated stream");
        let entries: Vec<(usize, u64)> = merged.entries().collect();
        let rebuilt = Histogram::from_entries(&entries).expect("round trip");
        assert_eq!(rebuilt, merged, "entries()/from_entries must round-trip");
        // Sparse encoding is canonical: no zero-count buckets.
        assert!(entries.iter().all(|&(_, c)| c > 0));
    }
    // Out-of-range bucket indices are rejected, not wrapped.
    assert!(Histogram::from_entries(&[(65, 1)]).is_none());
}
