//! Exact-byte pins of the telemetry and observability exports.
//!
//! The determinism gates compare two runs of the same build, so they
//! cannot notice a writer change that shifts every run the same way.
//! These tests pin the bytes of each export for a hand-built recorder
//! and aggregator covering every shape the writers handle: nested
//! children, counters and gauges, a histogram with a zero bucket, a node
//! with zero work (its `work` key is omitted), and a tenant name that
//! needs escaping.

use sap_core::{chrome_trace, Aggregator, CheckpointClass, Recorder, TraceClock};

/// root (driver work, a counter)
/// ├── large (entered never, a gauge, zero work)
/// └── small (entered once, two work classes, counter, gauge, histogram)
///     └── lp.solve (entered twice, a counter, zero work)
fn sample_recorder() -> Recorder {
    let rec = Recorder::new();
    let root = rec.handle();
    root.work(CheckpointClass::Driver, 2);
    root.count("solves", 1);
    {
        let arm = root.span("small");
        arm.work(CheckpointClass::LpPivot, 5);
        arm.work(CheckpointClass::Driver, 1);
        arm.count("lp.solves", 3);
        arm.gauge_max("lp.rows", 12);
        for v in [0, 5, 6] {
            arm.observe("lp.pivots", v);
        }
        for _ in 0..2 {
            let inner = arm.span("lp.solve");
            inner.count("refactors", 1);
        }
    }
    root.child("large").gauge_max("rects", 4);
    rec
}

fn sample_aggregator() -> Aggregator {
    let mut agg = Aggregator::new();
    agg.count("obs.requests", 3);
    agg.count("obs.ok", 2);
    agg.count_ops("obs.solves", 2);
    for v in [0, 1, 9] {
        agg.observe("obs.req.work", v);
    }
    let t = agg.tenant_mut("we\"ird\\name");
    t.requests = 2;
    t.ok = 1;
    t.shed = 1;
    t.work = 8;
    agg.tenant_mut("plain").degraded = 1;
    let rec = sample_recorder();
    agg.merge_span(&rec.snapshot());
    agg.merge_span(&rec.snapshot());
    agg
}

#[test]
fn recorder_json_bytes_are_pinned() {
    assert_eq!(
        sample_recorder().to_json_string(),
        concat!(
            r#"{"v":1,"spans":{"name":"root","n":0,"work":{"driver":2},"counters":{"solves":1},"#,
            r#""children":[{"name":"large","n":0,"gauges":{"rects":4}},"#,
            r#"{"name":"small","n":1,"work":{"lp_pivot":5,"driver":1},"counters":{"lp.solves":3},"#,
            r#""gauges":{"lp.rows":12},"hist":{"lp.pivots":[[0,1],[3,2]]},"#,
            r#""children":[{"name":"lp.solve","n":2,"counters":{"refactors":2}}]}]}}"#,
        )
    );
}

#[test]
fn recorder_tree_bytes_are_pinned() {
    assert_eq!(
        sample_recorder().to_tree_string(),
        concat!(
            "root  n=0  work=2 (driver=2)  solves=1\n",
            "  large  n=0  work=0  max:rects=4\n",
            "  small  n=1  work=6 (lp_pivot=5 driver=1)  lp.solves=3  max:lp.rows=12  lp.pivots~3\n",
            "    lp.solve  n=2  work=0  refactors=2\n",
        )
    );
}

#[test]
fn aggregator_export_bytes_are_pinned() {
    assert_eq!(
        sample_aggregator().to_json_string(),
        concat!(
            r#"{"v":1,"kind":"obs","counters":{"obs.ok":2,"obs.requests":3},"ops":{"obs.solves":2},"#,
            r#""hist":{"obs.req.work":[[0,1],[1,1],[4,1]]},"#,
            r#""tenants":{"plain":{"requests":0,"ok":0,"err":0,"shed":0,"degraded":1,"work":0,"bucket":0},"#,
            r#""we\"ird\\name":{"requests":2,"ok":1,"err":0,"shed":1,"degraded":0,"work":8,"bucket":0}},"#,
            r#""profile":{"name":"root","n":0,"work":{"driver":4},"counters":{"solves":2},"#,
            r#""children":[{"name":"large","n":0,"gauges":{"rects":4}},"#,
            r#"{"name":"small","n":2,"work":{"lp_pivot":10,"driver":2},"counters":{"lp.solves":6},"#,
            r#""gauges":{"lp.rows":12},"hist":{"lp.pivots":[[0,2],[3,4]]},"#,
            r#""children":[{"name":"lp.solve","n":4,"counters":{"refactors":4}}]}]}}"#,
        )
    );
}

#[test]
fn snapshot_line_bytes_are_pinned() {
    assert_eq!(
        sample_aggregator().snapshot_line(7),
        concat!(
            r#"{"v":1,"kind":"snapshot","tick":7,"counters":{"obs.ok":2,"obs.requests":3},"#,
            r#""delta":{"obs.ok":2,"obs.requests":3},"#,
            r#""tenants":{"plain":{"requests":0,"ok":0,"err":0,"shed":0,"degraded":1,"work":0,"bucket":0},"#,
            r#""we\"ird\\name":{"requests":2,"ok":1,"err":0,"shed":1,"degraded":0,"work":8,"bucket":0}}}"#,
        )
    );
}

#[test]
fn chrome_trace_bytes_are_pinned() {
    assert_eq!(
        chrome_trace(sample_aggregator().profile(), TraceClock::WorkUnits),
        concat!(
            r#"{"traceEvents":["#,
            r#"{"name":"root","ph":"B","ts":0,"pid":1,"tid":1,"args":{"n":0,"work":4,"solves":2}},"#,
            r#"{"name":"large","ph":"B","ts":0,"pid":1,"tid":1,"args":{"n":0,"work":0}},"#,
            r#"{"name":"large","ph":"E","ts":0,"pid":1,"tid":1},"#,
            r#"{"name":"small","ph":"B","ts":0,"pid":1,"tid":1,"args":{"n":2,"work":12,"lp.solves":6}},"#,
            r#"{"name":"lp.solve","ph":"B","ts":0,"pid":1,"tid":1,"args":{"n":4,"work":0,"refactors":4}},"#,
            r#"{"name":"lp.solve","ph":"E","ts":0,"pid":1,"tid":1},"#,
            r#"{"name":"small","ph":"E","ts":12,"pid":1,"tid":1},"#,
            r#"{"name":"root","ph":"E","ts":16,"pid":1,"tid":1}]}"#,
        )
    );
}
