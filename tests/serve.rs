//! End-to-end and determinism tests for the `sap serve` batch solve
//! service — both the library engine (`storage_alloc::serve`) and the
//! actual binary driven over pipes.
//!
//! The ISSUE-5 acceptance bar enforced here: batch output is
//! byte-identical across `--workers 1/2/8` and across cold-cache vs
//! warm-cache runs, malformed lines degrade to structured error
//! responses without killing the batch, and the cache counters are
//! visible in `--telemetry=json`.

use std::io::Write;
use std::process::{Command, Stdio};

use storage_alloc::io::{InstanceDto, JsonDto, SolutionDto};
use storage_alloc::json;
use storage_alloc::sap_gen::{generate, CapacityProfile, DemandRegime, GenConfig};
use storage_alloc::serve::{ServeAlgo, ServeEngine, ServeOptions};

fn inst_a() -> String {
    r#"{"capacities":[4,6,4],"tasks":[{"lo":0,"hi":2,"demand":2,"weight":10},{"lo":1,"hi":3,"demand":3,"weight":8}]}"#.to_string()
}

fn inst_b() -> String {
    r#"{"capacities":[8,8],"tasks":[{"lo":0,"hi":1,"demand":3,"weight":5},{"lo":1,"hi":2,"demand":8,"weight":9},{"lo":0,"hi":2,"demand":4,"weight":7}]}"#.to_string()
}

/// `inst_a` spelled with different key order and whitespace — the same
/// canonical instance, so it must share a cache entry with `inst_a`.
fn inst_a_respelled() -> String {
    r#"{ "tasks": [ {"weight":10,"demand":2,"hi":2,"lo":0}, {"hi":3,"weight":8,"lo":1,"demand":3} ], "capacities": [4, 6, 4] }"#.to_string()
}

fn mixed_batch() -> Vec<String> {
    vec![
        inst_a(),
        "{definitely not json".to_string(),
        inst_b(),
        inst_a_respelled(),
        r#"{"capacities":[],"tasks":[]}"#.to_string(),
        format!(r#"{{"instance":{},"algo":"combined"}}"#, inst_a()),
        inst_b(),
    ]
}

fn run_engine(opts: ServeOptions, batches: &[Vec<String>]) -> (Vec<String>, ServeEngine) {
    let mut engine = ServeEngine::new(opts);
    let mut out = Vec::new();
    for batch in batches {
        let refs: Vec<&str> = batch.iter().map(String::as_str).collect();
        out.extend(engine.process_batch(&refs));
    }
    (out, engine)
}

#[test]
fn output_is_byte_identical_across_worker_widths() {
    let batches = vec![mixed_batch(), vec![inst_a(), inst_b()]];
    let (base, _) = run_engine(ServeOptions { workers: 1, ..Default::default() }, &batches);
    for workers in [2, 8] {
        let (out, _) = run_engine(ServeOptions { workers, ..Default::default() }, &batches);
        assert_eq!(out, base, "workers={workers} diverged from workers=1");
    }
}

#[test]
fn output_is_byte_identical_cold_vs_warm() {
    let batch = mixed_batch();
    let batches = vec![batch.clone(), batch];
    let (out, engine) = run_engine(ServeOptions::default(), &batches);
    let (cold, warm) = out.split_at(out.len() / 2);
    assert_eq!(cold, warm, "warm-cache replay changed the bytes");
    // Batch 1: the respelled duplicate and the second inst_b ride as
    // followers (2 hits); batch 2: every request that solved ok hits
    // (5 hits). Error responses are never cached, so the invalid
    // instance re-misses on replay: 4 cold misses + 1 warm re-miss.
    assert_eq!(engine.stats.cache_hits, 7);
    assert_eq!(engine.stats.cache_misses, 5);
    assert_eq!(engine.stats.cache_evictions, 0);
}

#[test]
fn respelled_instance_shares_a_cache_entry() {
    let (_, engine) =
        run_engine(ServeOptions::default(), &[vec![inst_a()], vec![inst_a_respelled()]]);
    assert_eq!(engine.stats.cache_misses, 1);
    assert_eq!(engine.stats.cache_hits, 1);
}

#[test]
fn algo_override_is_part_of_the_cache_key() {
    let combined = format!(r#"{{"instance":{},"algo":"combined"}}"#, inst_a());
    let practical = format!(r#"{{"instance":{},"algo":"practical"}}"#, inst_a());
    let (_, engine) =
        run_engine(ServeOptions::default(), &[vec![combined.clone()], vec![practical], vec![combined]]);
    // Two distinct keys solved once each; the replay hits.
    assert_eq!(engine.stats.cache_misses, 2);
    assert_eq!(engine.stats.cache_hits, 1);
}

#[test]
fn budgeted_requests_degrade_deterministically() {
    // A starvation budget forces the driver down its fallback chain; the
    // response must still be ok (greedy is budget-free) and identical at
    // any width and on replay.
    let line = format!(r#"{{"instance":{},"work_units":1,"algo":"combined"}}"#, inst_b());
    let batches = vec![vec![line.clone(), line.clone()], vec![line]];
    let (base, engine) = run_engine(ServeOptions { workers: 1, ..Default::default() }, &batches);
    assert!(base[0].starts_with(r#"{"v":1,"status":"ok""#), "{}", base[0]);
    assert!(base[0].contains("budget_exhausted"), "report should record the trip: {}", base[0]);
    assert_eq!(base[0], base[1]);
    assert_eq!(base[0], base[2]);
    assert_eq!(engine.stats.cache_misses, 1);
    let (wide, _) = run_engine(ServeOptions { workers: 8, ..Default::default() }, &batches);
    assert_eq!(base, wide);
}

#[test]
fn cache_evictions_are_counted_and_bounded() {
    // One shard pins the classic single-LRU behaviour; with N shards a
    // 1-entry cache rounds up to 1 entry per shard (capacity is a floor,
    // never silently lowered — see the sharded rounding tests in
    // sap_core::cache).
    let opts = ServeOptions { cache_size: 1, cache_shards: 1, ..Default::default() };
    let (_, engine) = run_engine(opts, &[vec![inst_a()], vec![inst_b()], vec![inst_a()]]);
    // inst_b evicts inst_a, the second inst_a evicts inst_b: 2 evictions,
    // 3 misses, 0 hits.
    assert_eq!(engine.stats.cache_evictions, 2);
    assert_eq!(engine.stats.cache_misses, 3);
    assert_eq!(engine.stats.cache_hits, 0);
}

#[test]
fn disabled_cache_never_hits_but_output_is_unchanged() {
    let batches = vec![vec![inst_a()], vec![inst_a()]];
    let (cached, _) = run_engine(ServeOptions::default(), &batches);
    let (uncached, engine) =
        run_engine(ServeOptions { cache_size: 0, ..Default::default() }, &batches);
    assert_eq!(cached, uncached);
    assert_eq!(engine.stats.cache_hits, 0);
    assert_eq!(engine.stats.cache_misses, 2);
}

// ---------------------------------------------------------------------
// Admission control, per-tenant quotas, and the degradation ladder
// (ISSUE 7). Counter names asserted here double as the `t2` lint
// registration for the serve.admitted / serve.degraded.* /
// serve.shed.* / serve.tenant.* families.
// ---------------------------------------------------------------------

/// A multi-tenant stream that overruns both the global pool and tenant
/// "hog"'s bucket: hog declares three 300-unit solves per batch while
/// "mouse" asks for modest ones.
fn overload_batch() -> Vec<String> {
    let mut lines = Vec::new();
    for _ in 0..3 {
        lines.push(format!(
            r#"{{"instance":{},"work_units":300,"tenant":"hog"}}"#,
            inst_b()
        ));
        lines.push(format!(
            r#"{{"instance":{},"work_units":40,"tenant":"mouse"}}"#,
            inst_a()
        ));
    }
    lines
}

fn overload_opts(workers: usize) -> ServeOptions {
    ServeOptions {
        workers,
        max_inflight_units: Some(700),
        tenant_quota: Some(330),
        cache_size: 0,
        ..Default::default()
    }
}

#[test]
fn overload_stream_degrades_and_sheds_deterministically() {
    let batches = vec![overload_batch(), overload_batch()];
    let (base, engine) = run_engine(overload_opts(1), &batches);
    // The stream is genuinely overloaded: some requests shed, some
    // degrade, and the well-behaved tenant keeps full service.
    let adm = engine.admission_stats();
    assert!(engine.stats.shed > 0, "stream should overrun the quota: {adm:?}");
    assert!(
        adm.degraded_lemma13 + adm.degraded_greedy > 0,
        "ladder should engage before shedding: {adm:?}"
    );
    assert!(adm.admitted > 0, "{adm:?}");
    assert_eq!(
        adm.admitted + adm.shed_quota + adm.shed_capacity,
        engine.stats.requests,
        "every decodable request gets exactly one admission decision: {adm:?}"
    );
    // Byte-identical on a second run and at any worker width.
    let (rerun, _) = run_engine(overload_opts(1), &batches);
    assert_eq!(base, rerun, "overload replay diverged");
    for workers in [2, 8] {
        let (wide, wide_engine) = run_engine(overload_opts(workers), &batches);
        assert_eq!(base, wide, "workers={workers} shifted admission decisions");
        assert_eq!(engine.admission_stats(), wide_engine.admission_stats());
    }
}

#[test]
fn non_shed_overload_responses_stay_validator_feasible() {
    let batches = vec![overload_batch()];
    let (out, _) = run_engine(overload_opts(1), &batches);
    let requests = overload_batch();
    let mut checked = 0;
    for (req_line, resp_line) in requests.iter().zip(&out) {
        if !resp_line.starts_with(r#"{"v":1,"status":"ok""#) {
            assert!(
                resp_line.starts_with(r#"{"v":1,"status":"shed""#),
                "unexpected non-ok line: {resp_line}"
            );
            continue;
        }
        // Re-derive the instance from the request and check the embedded
        // solution against the exact validator — degraded budgets may
        // change the answer but never its feasibility.
        let req = json::parse(req_line).unwrap();
        let inst_dto = InstanceDto::from_json(req.get("instance").unwrap()).unwrap();
        let instance = inst_dto.to_instance().unwrap();
        let resp = json::parse(resp_line).unwrap();
        let sol_dto = SolutionDto::from_json(resp.get("solution").unwrap()).unwrap();
        let solution = sol_dto.to_solution_verified(&instance).unwrap();
        solution.validate(&instance).unwrap();
        checked += 1;
    }
    assert!(checked > 0, "no ok responses to check:\n{out:?}");
}

#[test]
fn shed_response_schema_is_exact() {
    // Quota 30 with burst 60: the third 30-unit request from one tenant
    // in one batch cannot afford even the greedy floor (8 > 0) while
    // the global pool stays plentiful → a quota shed, single line,
    // exact schema.
    let opts = ServeOptions {
        max_inflight_units: Some(1_000_000),
        tenant_quota: Some(30),
        ..Default::default()
    };
    let mut engine = ServeEngine::new(opts);
    let line = format!(r#"{{"instance":{},"work_units":30,"tenant":"t"}}"#, inst_a());
    let lines = vec![line.as_str(), line.as_str(), line.as_str()];
    let out = engine.process_batch(&lines);
    assert_eq!(out[2], r#"{"v":1,"status":"shed","reason":"quota"}"#);
    // A shed is not an error; the summary separates the three kinds.
    assert_eq!(engine.stats.shed, 1);
    assert_eq!(engine.stats.errors, 0);
    assert!(engine.summary_line().contains("1 shed"), "{}", engine.summary_line());
}

#[test]
fn tenant_bucket_refills_restore_service() {
    // Burst 2×60 = 120 drains in batch 1 (two 60-unit solves); batch 2
    // refills +60, so exactly one full-cost solve fits again.
    let opts = ServeOptions {
        max_inflight_units: None,
        tenant_quota: Some(60),
        cache_size: 0,
        ..Default::default()
    };
    let mut engine = ServeEngine::new(opts);
    let line = format!(r#"{{"instance":{},"work_units":60,"tenant":"t"}}"#, inst_a());
    let lines = vec![line.as_str(), line.as_str(), line.as_str()];
    let first = engine.process_batch(&lines);
    assert!(first[0].starts_with(r#"{"v":1,"status":"ok""#));
    assert!(first[1].starts_with(r#"{"v":1,"status":"ok""#));
    // Third request: bucket empty → lemma13 (16) and greedy (8) don't
    // fit either → quota shed.
    assert_eq!(first[2], r#"{"v":1,"status":"shed","reason":"quota"}"#);
    let second = engine.process_batch(&lines);
    assert!(second[0].starts_with(r#"{"v":1,"status":"ok""#), "{}", second[0]);
    let adm = engine.admission_stats();
    assert_eq!(adm.refills, 2);
    assert!(adm.tenant_throttled >= 1, "{adm:?}");
}

#[test]
fn tenantless_requests_bypass_quotas_but_not_capacity() {
    let opts = ServeOptions {
        max_inflight_units: Some(100),
        tenant_quota: Some(10),
        cache_size: 0,
        ..Default::default()
    };
    let mut engine = ServeEngine::new(opts);
    let line = format!(r#"{{"instance":{},"work_units":90}}"#, inst_a());
    let lines = vec![line.as_str(), line.as_str()];
    let out = engine.process_batch(&lines);
    // No tenant: the 10-unit quota never applies, only the pool does.
    assert!(out[0].starts_with(r#"{"v":1,"status":"ok""#), "{}", out[0]);
    // Pool has 10 left: full 90 and lemma13 22 don't fit, greedy 8 does.
    assert!(out[1].starts_with(r#"{"v":1,"status":"ok""#), "{}", out[1]);
    let adm = engine.admission_stats();
    assert_eq!(adm.degraded_greedy, 1);
    assert_eq!(adm.tenant_throttled, 0);
    assert_eq!(engine.admission_stats().shed_quota, 0);
}

/// Three batches at offered-load `level`: per batch, `level` requests
/// from each of three tenants plus one untenanted control, all declaring
/// 60 work units. Every line is a distinct generated instance, so
/// in-batch dedup never hides a solve.
fn ladder_stream(level: usize) -> Vec<Vec<String>> {
    let mut seed = 9000;
    let mut line = |tenant: Option<&str>| {
        seed += 1;
        let config = GenConfig {
            num_edges: 6,
            num_tasks: 12,
            profile: CapacityProfile::Random { lo: 16, hi: 64 },
            regime: DemandRegime::Mixed,
            max_span: 4,
            max_weight: 30,
        };
        let instance = InstanceDto::from_instance(&generate(&config, seed)).to_json_string();
        let tenant = tenant.map_or(String::new(), |t| format!(r#","tenant":"{t}""#));
        format!(r#"{{"instance":{instance},"work_units":60{tenant}}}"#)
    };
    (0..3)
        .map(|_| {
            let mut batch = Vec::new();
            for tenant in ["alpha", "beta", "gamma"] {
                for _ in 0..level {
                    batch.push(line(Some(tenant)));
                }
            }
            batch.push(line(None));
            batch
        })
        .collect()
}

#[test]
fn offered_load_ladder_walks_admission_then_sheds_monotonically() {
    // Pool 600/tick, quota 150/tick (burst 300), cost 60: as the level
    // rises the stream crosses the tenant refill, the tenant burst and
    // the global pool in turn, so the levels walk the whole ladder.
    let opts = ServeOptions {
        max_inflight_units: Some(600),
        tenant_quota: Some(150),
        cache_size: 0,
        ..Default::default()
    };
    // (requests, ok, shed, lemma13, greedy, shed_quota, shed_capacity)
    // per level; level 1 is fully admitted with no degradation.
    let pinned = [
        (1, (12, 12, 0, 0, 0, 0, 0)),
        (4, (39, 36, 3, 8, 1, 0, 3)),
        (8, (75, 37, 38, 7, 4, 26, 12)),
    ];
    let mut prev_shed = 0;
    for (level, counts) in pinned {
        let (_, engine) = run_engine(opts.clone(), &ladder_stream(level));
        let (stats, adm) = (&engine.stats, engine.admission_stats());
        let got = (
            stats.requests,
            stats.ok,
            stats.shed,
            adm.degraded_lemma13,
            adm.degraded_greedy,
            adm.shed_quota,
            adm.shed_capacity,
        );
        assert_eq!(got, counts, "level {level}");
        assert_eq!(stats.ok + stats.errors + stats.shed, stats.requests, "level {level}");
        assert_eq!(stats.errors, 0, "level {level}: errors in a well-formed stream");
        assert_eq!(stats.shed, adm.shed_quota + adm.shed_capacity, "level {level}");
        assert_eq!(adm.admitted + adm.shed_quota + adm.shed_capacity, stats.requests);
        assert!(stats.shed >= prev_shed, "level {level}: shed fell as load rose");
        prev_shed = stats.shed;
    }
    assert!(prev_shed > 0, "the top level must shed");
}

#[test]
fn serve_binary_overload_flags_and_admission_counters() {
    // Two batches (blank line = batch boundary): the hog tenant's debt
    // carries into batch 2, where its bucket runs dry and sheds.
    let round = overload_batch().join("\n");
    let input = format!("{round}\n\n{round}\n");
    let (stdout, stderr) = run_serve_binary(
        &[
            "--max-inflight-units",
            "700",
            "--tenant-quota",
            "330",
            "--cache-size",
            "0",
            "--telemetry=json",
        ],
        &input,
    );
    assert!(stdout.contains(r#""status":"shed""#), "no shed line:\n{stdout}");
    for needle in [
        "serve.admitted",
        "serve.degraded.lemma13",
        "serve.degraded.greedy",
        "serve.shed.quota",
        "serve.shed.capacity",
        "serve.tenant.buckets",
        "serve.tenant.refills",
        "serve.tenant.throttled",
    ] {
        assert!(stderr.contains(needle), "stderr missing {needle}:\n{stderr}");
    }
    // Width-invariance through the real binary.
    let (w8, _) = run_serve_binary(
        &[
            "--max-inflight-units",
            "700",
            "--tenant-quota",
            "330",
            "--cache-size",
            "0",
            "--workers",
            "8",
        ],
        &input,
    );
    let (w1, _) = run_serve_binary(
        &[
            "--max-inflight-units",
            "700",
            "--tenant-quota",
            "330",
            "--cache-size",
            "0",
            "--workers",
            "1",
        ],
        &input,
    );
    assert_eq!(w1, w8);
    assert_eq!(stdout, w1);
}

#[test]
fn serve_binary_rejects_zero_admission_flags() {
    for flag in ["--max-inflight-units", "--tenant-quota"] {
        let out = Command::new(env!("CARGO_BIN_EXE_sap"))
            .args(["serve", flag, "0"])
            .stdin(Stdio::null())
            .stderr(Stdio::piped())
            .output()
            .expect("run sap serve");
        assert!(!out.status.success(), "{flag}=0 should be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{stderr}");
    }
}

// ---------------------------------------------------------------------
// Binary end-to-end, over real pipes.
// ---------------------------------------------------------------------

fn run_serve_binary(args: &[&str], input: &str) -> (String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sap"))
        .arg("serve")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sap serve");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(input.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("sap serve exit");
    assert!(out.status.success(), "sap serve failed: {out:?}");
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
    )
}

#[test]
fn serve_binary_end_to_end_mixed_batch() {
    let input = mixed_batch().join("\n") + "\n";
    let (stdout, stderr) = run_serve_binary(&["--telemetry=json"], &input);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 7, "one response per request line:\n{stdout}");
    for (i, ok) in [true, false, true, true, false, true, true].iter().enumerate() {
        let want = if *ok { r#"{"v":1,"status":"ok""# } else { r#"{"v":1,"status":"error""# };
        assert!(lines[i].starts_with(want), "line {i}: {}", lines[i]);
    }
    // Responses embed solution, report, and telemetry.
    assert!(lines[0].contains("\"solution\":{"), "{}", lines[0]);
    assert!(lines[0].contains("\"report\":{"), "{}", lines[0]);
    assert!(lines[0].contains("\"telemetry\":{"), "{}", lines[0]);
    // The duplicate spelled differently copies the leader byte-for-byte.
    assert_eq!(lines[0], lines[3]);
    // Cache counters are first-class telemetry on stderr.
    for needle in [
        "serve.cache.hits",
        "serve.cache.misses",
        "serve.cache.evictions",
        "serve.cache.entries",
        "serve.requests",
        "serve.batches",
        r#""serve.ok":5"#,
        r#""serve.err":2"#,
    ] {
        assert!(stderr.contains(needle), "stderr missing {needle}:\n{stderr}");
    }
    assert!(stderr.contains("serve: 7 requests (5 ok, 2 err, 0 shed)"), "{stderr}");
}

#[test]
fn serve_binary_stdout_identical_across_widths_and_cache_warmth() {
    // Two copies of the batch in one stream: the second half replays the
    // first against a warm cache. Workers 1 vs 8 and cold vs warm must
    // all be byte-identical.
    let one_round = mixed_batch().join("\n") + "\n";
    let input = format!("{one_round}{one_round}");
    let (w1, _) = run_serve_binary(&["--workers", "1"], &input);
    let (w2, _) = run_serve_binary(&["--workers", "2"], &input);
    let (w8, _) = run_serve_binary(&["--workers", "8"], &input);
    assert_eq!(w1, w2);
    assert_eq!(w1, w8);
    let lines: Vec<&str> = w1.lines().collect();
    assert_eq!(lines.len(), 14);
    let (cold, warm) = lines.split_at(7);
    assert_eq!(cold, warm, "warm replay diverged from cold");
    // Small batch sizes slice the stream differently but cannot change it.
    let (b2, _) = run_serve_binary(&["--batch", "2"], &input);
    assert_eq!(w1, b2);
}

#[test]
fn serve_binary_rejects_bad_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_sap"))
        .args(["serve", "--algo", "greedy"])
        .stdin(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .expect("run sap serve");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--algo accepts combined or practical"), "{stderr}");
}

#[test]
fn serve_engine_algo_names_round_trip() {
    assert_eq!(ServeAlgo::from_name("combined"), Some(ServeAlgo::Combined));
    assert_eq!(ServeAlgo::from_name("practical"), Some(ServeAlgo::Practical));
    assert_eq!(ServeAlgo::from_name("exact"), None);
}

// ---------------------------------------------------------------------
// Input-path hardening (ISSUE 10), over real pipes: CRLF and missing
// final newlines frame like LF, oversized lines get the structured
// error, and the sharded cache is output-invariant. The counter names
// asserted here double as the `t2` registration for
// serve.cache.fp_conflict / serve.oversized / serve.shard.*.
// ---------------------------------------------------------------------

#[test]
fn crlf_and_missing_final_newline_frame_like_lf() {
    let lf = format!("{}\n{}\n", inst_a(), inst_b());
    let (base, _) = run_serve_binary(&[], &lf);
    let variants = [
        ("crlf", format!("{}\r\n{}\r\n", inst_a(), inst_b())),
        ("no_final_newline", format!("{}\n{}", inst_a(), inst_b())),
        ("crlf_no_final_newline", format!("{}\r\n{}", inst_a(), inst_b())),
    ];
    for (name, input) in variants {
        let (out, _) = run_serve_binary(&[], &input);
        assert_eq!(out, base, "{name} framing diverged from LF");
    }
}

#[test]
fn oversized_stdin_lines_answer_the_structured_error() {
    // A 10 KiB junk line between two good requests, capped at 256 bytes:
    // the junk is answered in stream order and never buffered whole.
    let junk = "x".repeat(10 * 1024);
    let input = format!("{}\n{junk}\n{}\n", inst_a(), inst_b());
    let (stdout, stderr) =
        run_serve_binary(&["--max-line-bytes", "256", "--telemetry=json"], &input);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    assert!(lines[0].starts_with(r#"{"v":1,"status":"ok""#), "{}", lines[0]);
    assert_eq!(lines[1], r#"{"v":1,"status":"error","reason":"oversized"}"#);
    assert!(lines[2].starts_with(r#"{"v":1,"status":"ok""#), "{}", lines[2]);
    assert!(stderr.contains(r#""serve.oversized":1"#), "{stderr}");
    // The good lines are unaffected by the cap.
    let (clean, _) = run_serve_binary(&[], &format!("{}\n{}\n", inst_a(), inst_b()));
    let clean_lines: Vec<&str> = clean.lines().collect();
    assert_eq!(lines[0], clean_lines[0]);
    assert_eq!(lines[2], clean_lines[1]);
}

#[test]
fn serve_binary_rejects_zero_framing_and_shard_flags() {
    for flag in ["--max-line-bytes", "--cache-shards"] {
        let out = Command::new(env!("CARGO_BIN_EXE_sap"))
            .args(["serve", flag, "0"])
            .stdin(Stdio::null())
            .stderr(Stdio::piped())
            .output()
            .expect("run sap serve");
        assert!(!out.status.success(), "{flag}=0 should be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{stderr}");
    }
}

#[test]
fn shard_count_is_output_invariant_through_the_binary() {
    // Duplicate-heavy stream across two batches; shard counts 1/2/8
    // must produce identical stdout AND identical cache totals (the
    // stderr summary carries hits/misses/evictions).
    let round = [inst_a(), inst_b(), inst_a_respelled(), inst_b(), inst_a()].join("\n");
    let input = format!("{round}\n\n{round}\n");
    let mut baseline: Option<(String, String)> = None;
    for shards in ["1", "2", "8"] {
        let (stdout, stderr) = run_serve_binary(&["--cache-shards", shards], &input);
        match &baseline {
            None => baseline = Some((stdout, stderr)),
            Some((base_out, base_err)) => {
                assert_eq!(&stdout, base_out, "shards={shards} changed response bytes");
                assert_eq!(&stderr, base_err, "shards={shards} changed cache totals");
            }
        }
    }
}

#[test]
fn shard_telemetry_counters_are_exported() {
    let input = format!("{}\n{}\n", inst_a(), inst_b());
    let (_, stderr) =
        run_serve_binary(&["--cache-shards", "4", "--telemetry=json"], &input);
    for needle in [
        r#""serve.shard.count":4"#,
        "serve.shard.max_entries",
        r#""serve.cache.fp_conflict":0"#,
        r#""serve.oversized":0"#,
    ] {
        assert!(stderr.contains(needle), "stderr missing {needle}:\n{stderr}");
    }
}
