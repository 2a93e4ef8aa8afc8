//! End-to-end tests for `sap serve --listen` — the persistent network
//! mode — driven against the real binary over real loopback sockets.
//!
//! The ISSUE-10 acceptance bar enforced here: each connection's
//! response stream is byte-identical to running the same lines through
//! batch-mode serve, with ≥3 concurrent connections writing
//! interleaved chunks, at `--workers` 1 vs 8, across shard counts, and
//! with the cache warmed by *other* connections. Plus the input-path
//! hardening over sockets: CRLF framing, a final line without a
//! trailing newline, and the `--max-line-bytes` cap.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn inst_a() -> String {
    r#"{"capacities":[4,6,4],"tasks":[{"lo":0,"hi":2,"demand":2,"weight":10},{"lo":1,"hi":3,"demand":3,"weight":8}]}"#.to_string()
}

fn inst_b() -> String {
    r#"{"capacities":[8,8],"tasks":[{"lo":0,"hi":1,"demand":3,"weight":5},{"lo":1,"hi":2,"demand":8,"weight":9},{"lo":0,"hi":2,"demand":4,"weight":7}]}"#.to_string()
}

/// `inst_a` spelled with different key order — same canonical instance.
fn inst_a_respelled() -> String {
    r#"{ "tasks": [ {"weight":10,"demand":2,"hi":2,"lo":0}, {"hi":3,"weight":8,"lo":1,"demand":3} ], "capacities": [4, 6, 4] }"#.to_string()
}

struct Server {
    child: Child,
    addr: SocketAddr,
}

/// Spawns `sap serve --listen 127.0.0.1:0` with a unique port file and
/// waits for the bound address.
fn spawn_server(tag: &str, extra: &[&str]) -> Server {
    let port_file: PathBuf =
        std::env::temp_dir().join(format!("sap-net-{}-{tag}.addr", std::process::id()));
    let _ = std::fs::remove_file(&port_file);
    let child = Command::new(env!("CARGO_BIN_EXE_sap"))
        .arg("serve")
        .args(["--listen", "127.0.0.1:0", "--port-file"])
        .arg(&port_file)
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sap serve --listen");
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(contents) = std::fs::read_to_string(&port_file) {
            if let Ok(addr) = contents.trim().parse::<SocketAddr>() {
                break addr;
            }
        }
        assert!(Instant::now() < deadline, "server never wrote {port_file:?}");
        std::thread::sleep(Duration::from_millis(10));
    };
    let _ = std::fs::remove_file(&port_file);
    Server { child, addr }
}

/// Waits for the server to exit (it stops after `--max-conns`) and
/// returns its stderr.
fn finish_server(server: Server) -> String {
    let out = server.child.wait_with_output().expect("server exit");
    assert!(out.status.success(), "server failed: {out:?}");
    String::from_utf8(out.stderr).expect("utf8 stderr")
}

/// One client conversation: write the byte chunks (pausing between them
/// so concurrent connections genuinely interleave on the accept side),
/// half-close, and read the full response stream.
fn converse(addr: SocketAddr, chunks: &[&[u8]], pause: Duration) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    for (i, chunk) in chunks.iter().enumerate() {
        stream.write_all(chunk).expect("write");
        stream.flush().expect("flush");
        if !pause.is_zero() && i + 1 < chunks.len() {
            std::thread::sleep(pause);
        }
    }
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read responses");
    response
}

/// Batch-mode reference: the same bytes through `sap serve` on stdin.
fn batch_reference(args: &[&str], input: &[u8]) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sap"))
        .arg("serve")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sap serve");
    child.stdin.take().expect("stdin").write_all(input).expect("write stdin");
    let out = child.wait_with_output().expect("sap serve exit");
    assert!(out.status.success(), "sap serve failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

/// Splits a byte stream into chunks that deliberately cut lines in
/// half, so TCP segmentation never aligns with line boundaries.
fn misaligned_chunks(bytes: &[u8]) -> Vec<&[u8]> {
    let step = (bytes.len() / 5).max(1) | 1; // odd step ≠ line length
    bytes.chunks(step).collect()
}

#[test]
fn three_concurrent_connections_match_batch_mode_at_w1_and_w8() {
    // Three different duplicate-heavy streams: the shared cache gets
    // warmed by *other* connections mid-flight, worker width varies,
    // and every write is chopped mid-line. None of it may change bytes.
    let streams: Vec<String> = vec![
        format!("{}\n{}\n{}\n", inst_a(), inst_b(), inst_a()),
        format!("{}\n{}\n{}\n", inst_b(), inst_a_respelled(), inst_b()),
        format!("{}\n{{oops\n{}\n", inst_a(), inst_b()),
    ];
    for workers in ["1", "8"] {
        let expected: Vec<String> = streams
            .iter()
            .map(|s| batch_reference(&["--workers", workers], s.as_bytes()))
            .collect();
        let server =
            spawn_server(&format!("conc-w{workers}"), &["--max-conns", "3", "--workers", workers]);
        let addr = server.addr;
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                let bytes = stream.clone().into_bytes();
                std::thread::spawn(move || {
                    converse(addr, &misaligned_chunks(&bytes), Duration::from_millis(15))
                })
            })
            .collect();
        let got: Vec<String> =
            handles.into_iter().map(|h| h.join().expect("client thread")).collect();
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(g, e, "workers={workers} conn {i} diverged from batch mode");
        }
        let stderr = finish_server(server);
        assert!(stderr.contains("net: 3 conns"), "{stderr}");
    }
}

#[test]
fn crlf_and_final_unterminated_line_over_a_socket() {
    let lf = format!("{}\n{}\n", inst_a(), inst_b());
    let expected = batch_reference(&[], lf.as_bytes());
    let crlf_no_final = format!("{}\r\n{}", inst_a(), inst_b());
    let server = spawn_server("crlf", &["--max-conns", "1"]);
    let got = converse(server.addr, &[crlf_no_final.as_bytes()], Duration::ZERO);
    assert_eq!(got, expected, "CRLF + missing final newline diverged over the socket");
    finish_server(server);
}

#[test]
fn oversized_socket_line_is_answered_in_order_and_discarded() {
    // 64 KiB of junk streamed between two good lines with a 256-byte
    // cap: the server answers all three in order without buffering the
    // junk, and the oversized count reaches the shutdown summary.
    let junk = vec![b'z'; 64 * 1024];
    let first = format!("{}\n", inst_a());
    let last = format!("{}\n", inst_b());
    let server = spawn_server("oversized", &["--max-conns", "1", "--max-line-bytes", "256"]);
    let mut chunks: Vec<&[u8]> = vec![first.as_bytes()];
    chunks.extend(junk.chunks(8 * 1024));
    let newline = b"\n";
    chunks.push(newline);
    chunks.push(last.as_bytes());
    let got = converse(server.addr, &chunks, Duration::ZERO);
    let lines: Vec<&str> = got.lines().collect();
    assert_eq!(lines.len(), 3, "{got}");
    assert!(lines[0].starts_with(r#"{"v":1,"status":"ok""#), "{}", lines[0]);
    assert_eq!(lines[1], r#"{"v":1,"status":"error","reason":"oversized"}"#);
    assert!(lines[2].starts_with(r#"{"v":1,"status":"ok""#), "{}", lines[2]);
    let stderr = finish_server(server);
    assert!(stderr.contains("1 oversized"), "{stderr}");
}

#[test]
fn cache_warmth_from_another_connection_never_changes_bytes() {
    // Connection 2 replays connection 1's request against the shared
    // sharded cache: identical bytes, and the shutdown summary proves
    // the second answer was a cross-connection cache hit.
    let line = format!("{}\n", inst_a());
    let expected = batch_reference(&[], line.as_bytes());
    let server = spawn_server("warm", &["--max-conns", "2"]);
    let first = converse(server.addr, &[line.as_bytes()], Duration::ZERO);
    let second = converse(server.addr, &[line.as_bytes()], Duration::ZERO);
    assert_eq!(first, expected);
    assert_eq!(second, expected, "warm cross-connection replay diverged");
    let stderr = finish_server(server);
    assert!(stderr.contains("cache 1 hits / 1 misses"), "{stderr}");
}

#[test]
fn shard_count_is_invariant_over_the_socket() {
    let stream = format!("{}\n{}\n{}\n{}\n", inst_a(), inst_b(), inst_a_respelled(), inst_a());
    let expected = batch_reference(&[], stream.as_bytes());
    for shards in ["1", "2", "8"] {
        let server =
            spawn_server(&format!("shards{shards}"), &["--max-conns", "1", "--cache-shards", shards]);
        let got = converse(server.addr, &[stream.as_bytes()], Duration::ZERO);
        assert_eq!(got, expected, "cache-shards={shards} diverged over the socket");
        finish_server(server);
    }
}

#[test]
fn blank_line_flushes_a_batch_mid_connection() {
    // A client that needs answers *before* half-closing: write a batch,
    // terminate it with a blank line, and read the responses while the
    // connection stays open for writing.
    let batch = format!("{}\n{}\n\n", inst_a(), inst_b());
    let expected = batch_reference(&[], batch.as_bytes());
    let server = spawn_server("flush", &["--max-conns", "1"]);
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    stream.write_all(batch.as_bytes()).expect("write");
    stream.flush().expect("flush");
    let mut got = Vec::new();
    let mut byte = [0u8; 1];
    let mut newlines = 0;
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    while newlines < 2 {
        let n = stream.read(&mut byte).expect("read");
        assert!(n > 0, "server closed before both responses");
        got.extend_from_slice(&byte[..n]);
        if byte[0] == b'\n' {
            newlines += 1;
        }
    }
    assert_eq!(String::from_utf8(got).expect("utf8"), expected);
    stream.shutdown(Shutdown::Write).expect("half-close");
    drop(stream);
    finish_server(server);
}

#[test]
fn net_telemetry_counters_are_exported() {
    let stream = format!("{}\n{}\n", inst_a(), inst_b());
    let server = spawn_server("tele", &["--max-conns", "1", "--telemetry=json"]);
    let _ = converse(server.addr, &[stream.as_bytes()], Duration::ZERO);
    let stderr = finish_server(server);
    for needle in [
        r#""net.conns":1"#,
        r#""net.lines":2"#,
        r#""net.responses":2"#,
        r#""net.oversized":0"#,
        "net.bytes_in",
        "net.bytes_out",
    ] {
        assert!(stderr.contains(needle), "stderr missing {needle}:\n{stderr}");
    }
    assert!(stderr.contains("net: 1 conns"), "{stderr}");
    assert!(stderr.contains("(2 ok, 0 err, 0 shed, 0 oversized)"), "{stderr}");
}

#[test]
fn sequential_connections_are_all_served() {
    // Eight back-to-back connections on one server: every finished
    // connection thread is reaped before the next is spawned, and each
    // one's totals still reach the shutdown summary.
    let line = format!("{}\n", inst_a());
    let expected = batch_reference(&[], line.as_bytes());
    let server = spawn_server("sequential", &["--max-conns", "8"]);
    for i in 0..8 {
        let got = converse(server.addr, &[line.as_bytes()], Duration::ZERO);
        assert_eq!(got, expected, "connection {i} diverged from batch mode");
    }
    let stderr = finish_server(server);
    assert!(stderr.contains("net: 8 conns, 8 lines in / 8 responses out (8 ok,"), "{stderr}");
}

#[test]
fn listen_rejects_the_obs_plane_flags() {
    for flag in ["--obs", "--snapshot-every"] {
        let mut args = vec!["serve", "--listen", "127.0.0.1:0", flag];
        if flag == "--snapshot-every" {
            args.push("1");
        }
        let out = Command::new(env!("CARGO_BIN_EXE_sap"))
            .args(&args)
            .stdin(Stdio::null())
            .stderr(Stdio::piped())
            .output()
            .expect("run sap serve");
        assert!(!out.status.success(), "{flag} must be rejected in net mode");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--listen is incompatible"), "{stderr}");
    }
}

#[test]
fn listen_rejects_zero_max_conns() {
    let out = Command::new(env!("CARGO_BIN_EXE_sap"))
        .args(["serve", "--listen", "127.0.0.1:0", "--max-conns", "0"])
        .stdin(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .expect("run sap serve");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--max-conns"), "{stderr}");
}
