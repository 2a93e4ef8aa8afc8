//! `sap serve --listen` — the persistent network front-end.
//!
//! This module promotes the NDJSON batch engine ([`crate::serve`]) into
//! a long-running socket service while keeping the repository's
//! zero-dependency invariant: a [`std::net::TcpListener`] accept loop
//! with one thread per connection, no async runtime.
//!
//! ## Architecture
//!
//! Every accepted connection gets its **own** [`ServeEngine`] —
//! admission pools, counters, and solve sequencing stay per-connection —
//! wired to **one shared** sharded response cache
//! ([`sap_core::ShardedLru`], routed by canonical fingerprint,
//! `shard = fp % N`). Cached payloads are exact response bytes and a hit
//! is verified against a second independent hash before reuse, so cache
//! sharing across connections can change *when* a response is cheap but
//! never *what* bytes a connection receives.
//!
//! ## Determinism contract
//!
//! A connection's response stream is byte-identical to piping the same
//! lines through batch-mode `sap serve`, at any connection interleaving,
//! any `--workers` width, any shard count, and any cache warmth. The
//! contract holds by construction: both modes run the identical
//! [`LineFramer`] → [`BatchPump`] → [`ServeEngine::process_batch`]
//! path, batch boundaries depend only on the line stream (blank line,
//! `--batch` size, EOF — never on TCP segmentation or read timing), and
//! per-connection engines share nothing whose state can leak into
//! response bytes.
//!
//! ## Input hardening
//!
//! The framer is the only code that touches raw socket bytes. It
//! normalises CRLF and LF line endings to the same line, delivers a
//! final line that lacks a trailing newline, and enforces
//! `--max-line-bytes`: a line that exceeds the cap is answered with the
//! structured `{"v":1,"status":"error","reason":"oversized"}` response
//! (in stream order) and its bytes are discarded as they arrive —
//! the server never buffers an unbounded line.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::thread;

use crate::serve::{make_cache, ServeEngine, ServeOptions, SERVE_SCHEMA_VERSION};
use sap_core::json::Json;
use sap_core::Telemetry;

/// Default cap on a single request line, in bytes (1 MiB).
pub const DEFAULT_MAX_LINE_BYTES: usize = 1 << 20;

/// One framed item from the byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Framed {
    /// A complete line (terminator and any trailing `\r` stripped).
    /// May be blank — the [`BatchPump`] decides what blank means.
    Line(String),
    /// A line that exceeded the configured byte cap. Its content was
    /// discarded as it streamed in; only this marker keeps its place in
    /// the response order.
    Oversized,
}

/// Incremental NDJSON line framer over arbitrary byte chunks.
///
/// Feed it whatever the transport hands you — single bytes, 8 KiB
/// reads, a whole file — and it emits the same [`Framed`] sequence:
/// framing is a pure function of the byte stream, never of chunk
/// boundaries. `\r\n` and `\n` terminate identically (the `\r` is
/// stripped), and [`LineFramer::finish`] delivers a final line that has
/// no trailing newline.
#[derive(Debug)]
pub struct LineFramer {
    max: usize,
    buf: Vec<u8>,
    /// Inside an oversized line: the marker was already emitted, bytes
    /// are being discarded until the next `\n`.
    discarding: bool,
}

impl LineFramer {
    /// A framer enforcing `max_line_bytes` per line (clamped to ≥ 1).
    pub fn new(max_line_bytes: usize) -> Self {
        LineFramer { max: max_line_bytes.max(1), buf: Vec::new(), discarding: false }
    }

    /// Consumes one chunk, returning the items it completed.
    pub fn push(&mut self, chunk: &[u8]) -> Vec<Framed> {
        let mut out = Vec::new();
        let mut rest = chunk;
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            let (head, tail) = rest.split_at(nl);
            rest = &tail[1..];
            if self.discarding {
                // The oversized marker for this line is already out.
                self.discarding = false;
            } else {
                self.append_checked(head, &mut out);
                if !self.discarding {
                    out.push(Self::take_line(&mut self.buf));
                }
                self.discarding = false;
            }
            self.buf.clear();
        }
        if self.discarding {
            return out;
        }
        self.append_checked(rest, &mut out);
        out
    }

    /// Flushes a final unterminated line, if any.
    pub fn finish(&mut self) -> Option<Framed> {
        if self.discarding {
            self.discarding = false;
            self.buf.clear();
            return None;
        }
        if self.buf.is_empty() {
            return None;
        }
        Some(Self::take_line(&mut self.buf))
    }

    /// Appends bytes to the current line, emitting the oversized marker
    /// and switching to discard mode the moment the cap is crossed.
    fn append_checked(&mut self, bytes: &[u8], out: &mut Vec<Framed>) {
        if bytes.is_empty() {
            return;
        }
        if self.buf.len().saturating_add(bytes.len()) > self.max {
            out.push(Framed::Oversized);
            self.buf.clear();
            self.discarding = true;
            return;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Converts the accumulated bytes into a [`Framed::Line`], stripping
    /// one trailing `\r` (CRLF normalisation) and replacing invalid
    /// UTF-8 deterministically (the JSON layer rejects it anyway).
    fn take_line(buf: &mut Vec<u8>) -> Framed {
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        let line = String::from_utf8_lossy(buf).into_owned();
        buf.clear();
        Framed::Line(line)
    }
}

/// The structured response for a line that exceeded `--max-line-bytes`.
pub fn oversized_response() -> String {
    Json::Object(vec![
        ("v".into(), Json::UInt(SERVE_SCHEMA_VERSION)),
        ("status".into(), Json::Str("error".into())),
        ("reason".into(), Json::Str("oversized".into())),
    ])
    .to_string_compact()
}

/// A line waiting in the pump: either real request bytes or the spliced
/// placeholder for an oversized line.
#[derive(Debug)]
enum PendItem {
    Line(String),
    Oversized,
}

/// Accumulates framed items into engine batches, preserving the batch
/// semantics of stdin mode exactly: a flush happens on a blank line, on
/// reaching `batch_size`, or at EOF ([`BatchPump::finish`]) — never on
/// read-boundary timing. Both the stdin path and every connection
/// thread drive one of these, which is what makes network output
/// byte-identical to batch-mode output by construction.
pub struct BatchPump {
    engine: ServeEngine,
    batch_size: usize,
    pending: Vec<PendItem>,
}

impl BatchPump {
    /// A pump flushing every `batch_size` lines (clamped to ≥ 1).
    pub fn new(engine: ServeEngine, batch_size: usize) -> Self {
        BatchPump { engine, batch_size: batch_size.max(1), pending: Vec::new() }
    }

    /// Feeds one framed item. Returns `Some(responses)` when the item
    /// triggered a flush (blank separator or a full batch); the caller
    /// writes the lines and handles any snapshot cadence.
    pub fn feed(&mut self, item: Framed) -> Option<Vec<String>> {
        match item {
            Framed::Line(line) => {
                if line.trim().is_empty() {
                    // Blank lines separate batches without a response.
                    return self.flush();
                }
                self.pending.push(PendItem::Line(line));
            }
            Framed::Oversized => self.pending.push(PendItem::Oversized),
        }
        if self.pending.len() >= self.batch_size {
            return self.flush();
        }
        None
    }

    /// Flushes whatever is pending (EOF).
    pub fn finish(&mut self) -> Option<Vec<String>> {
        self.flush()
    }

    /// Hands the engine back (shutdown reporting).
    pub fn into_engine(self) -> ServeEngine {
        self.engine
    }

    /// Read access to the engine (tests, snapshot cadence).
    pub fn engine(&self) -> &ServeEngine {
        &self.engine
    }

    /// Mutable access to the engine (snapshot cadence lives there).
    pub fn engine_mut(&mut self) -> &mut ServeEngine {
        &mut self.engine
    }

    /// Runs the pending lines through the engine and splices the
    /// oversized placeholders back into their stream positions.
    fn flush(&mut self) -> Option<Vec<String>> {
        if self.pending.is_empty() {
            return None;
        }
        let lines: Vec<&str> = self
            .pending
            .iter()
            .filter_map(|item| match item {
                PendItem::Line(line) => Some(line.as_str()),
                PendItem::Oversized => None,
            })
            .collect();
        // A batch of only-oversized lines never reaches the engine: no
        // admission tick, no batch count — identical in both modes.
        let mut solved = if lines.is_empty() {
            Vec::new()
        } else {
            self.engine.process_batch(&lines)
        }
        .into_iter();
        let mut out = Vec::with_capacity(self.pending.len());
        for item in &self.pending {
            match item {
                PendItem::Line(_) => out.push(match solved.next() {
                    Some(response) => response,
                    None => crate::serve::error_response("internal error: missing response"),
                }),
                PendItem::Oversized => {
                    let stats = &mut self.engine.stats;
                    stats.requests += 1;
                    stats.errors += 1;
                    stats.oversized += 1;
                    out.push(oversized_response());
                }
            }
        }
        self.pending.clear();
        Some(out)
    }
}

/// Network-mode configuration (`sap serve --listen …`).
#[derive(Debug, Clone)]
pub struct NetOptions {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub listen: String,
    /// Per-line byte cap enforced by the framer.
    pub max_line_bytes: usize,
    /// Lines per engine batch (same meaning as stdin-mode `--batch`).
    pub batch_size: usize,
    /// Exit after serving this many connections (`None` = run forever).
    /// Tests and CI gates use this for a deterministic shutdown.
    pub max_conns: Option<u64>,
    /// Write the bound socket address to this file once listening —
    /// port discovery for `--listen 127.0.0.1:0`.
    pub port_file: Option<String>,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            listen: "127.0.0.1:0".to_string(),
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            batch_size: 64,
            max_conns: None,
            port_file: None,
        }
    }
}

/// Cumulative service totals across all connections, exported as
/// `net.*` telemetry and merged `serve.*` scalars.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetSummary {
    /// Connections accepted and served to completion.
    pub conns: u64,
    /// Request lines framed across all connections (including blank
    /// separators' siblings — i.e. every line that produced a response).
    pub lines: u64,
    /// Response lines written.
    pub responses: u64,
    /// Lines rejected by the framer for exceeding the byte cap.
    pub oversized: u64,
    /// Raw bytes read off sockets.
    pub bytes_in: u64,
    /// Response bytes written to sockets (including newlines).
    pub bytes_out: u64,
    /// Merged engine scalars (per-connection engines, summed).
    pub requests: u64,
    /// `"status":"ok"` responses.
    pub ok: u64,
    /// `"status":"error"` responses.
    pub errors: u64,
    /// `"status":"shed"` responses.
    pub shed: u64,
    /// Cross-connection cache hits (shared sharded LRU).
    pub cache_hits: u64,
    /// Cache misses (solves).
    pub cache_misses: u64,
    /// Cache evictions.
    pub cache_evictions: u64,
    /// Verification-hash mismatches served as misses.
    pub fp_conflicts: u64,
}

impl NetSummary {
    /// Folds one finished connection into the totals.
    fn absorb(&mut self, conn: &ConnTotals, stats: &crate::serve::ServeStats) {
        self.conns = self.conns.saturating_add(1);
        self.lines = self.lines.saturating_add(stats.requests);
        self.responses = self.responses.saturating_add(conn.responses);
        self.bytes_in = self.bytes_in.saturating_add(conn.bytes_in);
        self.bytes_out = self.bytes_out.saturating_add(conn.bytes_out);
        self.oversized = self.oversized.saturating_add(stats.oversized);
        self.requests = self.requests.saturating_add(stats.requests);
        self.ok = self.ok.saturating_add(stats.ok);
        self.errors = self.errors.saturating_add(stats.errors);
        self.shed = self.shed.saturating_add(stats.shed);
        self.cache_hits = self.cache_hits.saturating_add(stats.cache_hits);
        self.cache_misses = self.cache_misses.saturating_add(stats.cache_misses);
        self.cache_evictions = self.cache_evictions.saturating_add(stats.cache_evictions);
        self.fp_conflicts = self.fp_conflicts.saturating_add(stats.fp_conflicts);
    }

    /// Emits the service totals onto a telemetry handle (`net.*`).
    pub fn record_telemetry(&self, tele: &Telemetry) {
        tele.count("net.conns", self.conns);
        tele.count("net.lines", self.lines);
        tele.count("net.responses", self.responses);
        tele.count("net.oversized", self.oversized);
        tele.count("net.bytes_in", self.bytes_in);
        tele.count("net.bytes_out", self.bytes_out);
    }

    /// One-line human summary for stderr (deterministic given the
    /// request streams).
    pub fn summary_line(&self) -> String {
        format!(
            "net: {} conns, {} lines in / {} responses out ({} ok, {} err, {} shed, {} oversized); cache {} hits / {} misses / {} evictions / {} fp-conflicts; {} bytes in / {} bytes out",
            self.conns,
            self.lines,
            self.responses,
            self.ok,
            self.errors,
            self.shed,
            self.oversized,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.fp_conflicts,
            self.bytes_in,
            self.bytes_out
        )
    }
}

/// Byte/response accounting for one connection (framing-layer facts the
/// engine doesn't see).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnTotals {
    responses: u64,
    bytes_in: u64,
    bytes_out: u64,
}

fn lock_summary(summary: &Mutex<NetSummary>) -> std::sync::MutexGuard<'_, NetSummary> {
    match summary.lock() {
        Ok(guard) => guard,
        // A panicked connection thread cannot corrupt a counter struct;
        // recover the totals instead of abandoning the summary.
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Writes one flush: the responses, each followed by `\n`, assembled in
/// `buf` (reused across flushes) and handed to `out` in a single
/// `write_all`. On a socket that is one `write` per flush, so Nagle
/// never holds a batch's tail behind the peer's delayed ACK (DESIGN
/// §15). The totals count a flush only once all its bytes were written.
fn write_flush<W: Write>(
    out: &mut W,
    buf: &mut Vec<u8>,
    responses: &[String],
    totals: &mut ConnTotals,
) -> std::io::Result<()> {
    buf.clear();
    for response in responses {
        buf.extend_from_slice(response.as_bytes());
        buf.push(b'\n');
    }
    out.write_all(buf)?;
    totals.responses = totals.responses.saturating_add(responses.len() as u64);
    totals.bytes_out = totals.bytes_out.saturating_add(buf.len() as u64);
    Ok(())
}

/// Serves one stream to completion: read `input`, frame its bytes, pump
/// batches, write each flush to `output` in `write_flush`'s single
/// `write_all`. Stdin mode and every network connection run this one
/// loop, so CRLF/final-line/oversized handling and batch boundaries
/// (blank line, `--batch`, EOF — never read timing) are identical in
/// both.
///
/// After a flush whose batch reached the engine (not one of only
/// oversized lines), `on_flush` sees the engine and the flush's lines
/// before they are written, and may append lines of its own that go out
/// in the same write (stdin mode's `--snapshot-every` lines); network
/// connections pass a no-op.
///
/// A transport error ends the stream (a partial line is dropped);
/// `totals` and the pump's engine keep what was served up to that point.
pub fn serve_conn<R: Read, W: Write>(
    mut input: R,
    mut output: W,
    pump: &mut BatchPump,
    max_line_bytes: usize,
    totals: &mut ConnTotals,
    mut on_flush: impl FnMut(&mut ServeEngine, &mut Vec<String>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut framer = LineFramer::new(max_line_bytes);
    let mut buf = Vec::new();
    // `None` is end of input: the pump flushes its last partial batch.
    let mut step = |pump: &mut BatchPump,
                    totals: &mut ConnTotals,
                    item: Option<Framed>|
     -> std::io::Result<()> {
        let batches = pump.engine().stats.batches;
        let flushed = match item {
            Some(item) => pump.feed(item),
            None => pump.finish(),
        };
        let Some(mut lines) = flushed else {
            return Ok(());
        };
        if pump.engine().stats.batches != batches {
            on_flush(pump.engine_mut(), &mut lines)?;
        }
        write_flush(&mut output, &mut buf, &lines, totals)?;
        output.flush()
    };
    let mut chunk = [0u8; 8192];
    loop {
        let n = match input.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        totals.bytes_in = totals.bytes_in.saturating_add(n as u64);
        for item in framer.push(&chunk[..n]) {
            step(pump, totals, Some(item))?;
        }
    }
    // EOF: a final unterminated line still gets an answer.
    if let Some(item) = framer.finish() {
        step(pump, totals, Some(item))?;
    }
    step(pump, totals, None)
}

/// Runs the network service: bind, accept, one thread per connection,
/// one shared sharded response cache across all of them. Returns the
/// cumulative [`NetSummary`] once `max_conns` connections have been
/// served (and never returns when `max_conns` is `None`).
pub fn run_server(opts: &ServeOptions, net: &NetOptions) -> Result<NetSummary, String> {
    let listener =
        TcpListener::bind(&net.listen).map_err(|e| format!("bind {}: {e}", net.listen))?;
    let addr = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;
    if let Some(path) = &net.port_file {
        std::fs::write(path, format!("{addr}\n")).map_err(|e| format!("{path}: {e}"))?;
    }
    eprintln!("serve: listening on {addr}");
    let cache = make_cache(opts);
    let summary = Arc::new(Mutex::new(NetSummary::default()));
    let mut handles: Vec<thread::JoinHandle<()>> = Vec::new();
    let mut accepted: u64 = 0;
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(s) => s,
            // Transient accept errors (e.g. ECONNABORTED) are not fatal
            // to the service.
            Err(_) => continue,
        };
        accepted = accepted.saturating_add(1);
        let conn_opts = opts.clone();
        let (max_line_bytes, batch_size) = (net.max_line_bytes, net.batch_size);
        let conn_cache = crate::serve::SharedCache::clone(&cache);
        let conn_summary = Arc::clone(&summary);
        // Drop the handles of connections that already finished: each
        // exited but never-joined thread keeps its stack until joined or
        // detached, so an unbounded server would otherwise grow without
        // limit. A finished thread has already absorbed its totals.
        handles.retain(|h| !h.is_finished());
        handles.push(thread::spawn(move || {
            let engine = ServeEngine::with_cache(conn_opts, conn_cache);
            let mut pump = BatchPump::new(engine, batch_size);
            let mut totals = ConnTotals::default();
            // A transport error ends only this connection, quietly.
            let _ = serve_conn(&stream, &stream, &mut pump, max_line_bytes, &mut totals, |_, _| {
                Ok(())
            });
            lock_summary(&conn_summary).absorb(&totals, &pump.engine().stats);
        }));
        if net.max_conns.is_some_and(|max| accepted >= max) {
            break;
        }
    }
    for handle in handles {
        // A connection thread that panicked already lost only its own
        // connection; the service result is the surviving totals.
        let _ = handle.join();
    }
    let result = *lock_summary(&summary);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framer_is_chunking_invariant() {
        let input = b"alpha\nbeta\r\n\ngamma";
        let mut whole = LineFramer::new(64);
        let mut all = whole.push(input);
        all.extend(whole.finish());
        for chunk_size in [1usize, 2, 3, 5, 64] {
            let mut framer = LineFramer::new(64);
            let mut items = Vec::new();
            for chunk in input.chunks(chunk_size) {
                items.extend(framer.push(chunk));
            }
            items.extend(framer.finish());
            assert_eq!(items, all, "chunk={chunk_size}");
        }
        assert_eq!(
            all,
            vec![
                Framed::Line("alpha".into()),
                Framed::Line("beta".into()),
                Framed::Line(String::new()),
                Framed::Line("gamma".into()),
            ]
        );
    }

    #[test]
    fn framer_strips_crlf_and_delivers_final_unterminated_line() {
        let mut framer = LineFramer::new(64);
        let mut items = framer.push(b"a\r\nb\nc\r");
        items.extend(framer.finish());
        // The final "c\r" has no newline; its carriage return is still
        // treated as line-ending decoration.
        assert_eq!(
            items,
            vec![
                Framed::Line("a".into()),
                Framed::Line("b".into()),
                Framed::Line("c".into()),
            ]
        );
    }

    #[test]
    fn framer_caps_line_length_without_buffering() {
        let mut framer = LineFramer::new(8);
        let mut items = framer.push(b"short\n");
        // 32 bytes stream in over several pushes; the marker appears
        // once, at the line's position, and the rest is discarded.
        for _ in 0..4 {
            items.extend(framer.push(b"12345678"));
        }
        items.extend(framer.push(b"\nafter\n"));
        items.extend(framer.finish());
        assert_eq!(
            items,
            vec![
                Framed::Line("short".into()),
                Framed::Oversized,
                Framed::Line("after".into()),
            ]
        );
    }

    #[test]
    fn framer_oversized_final_line_without_newline() {
        let mut framer = LineFramer::new(4);
        let mut items = framer.push(b"123456789");
        items.extend(framer.finish());
        assert_eq!(items, vec![Framed::Oversized]);
    }

    #[test]
    fn framer_exact_cap_is_not_oversized() {
        let mut framer = LineFramer::new(4);
        let mut items = framer.push(b"1234\n12345\n");
        items.extend(framer.finish());
        assert_eq!(items, vec![Framed::Line("1234".into()), Framed::Oversized]);
    }

    #[test]
    fn pump_splices_oversized_responses_in_order() {
        let engine = ServeEngine::new(ServeOptions::default());
        let mut pump = BatchPump::new(engine, 64);
        let inst = r#"{"capacities":[4,6,4],"tasks":[{"lo":0,"hi":2,"demand":2,"weight":10}]}"#;
        assert!(pump.feed(Framed::Line(inst.into())).is_none());
        assert!(pump.feed(Framed::Oversized).is_none());
        assert!(pump.feed(Framed::Line(inst.into())).is_none());
        let out = pump.feed(Framed::Line(String::new())).expect("blank line flushes");
        assert_eq!(out.len(), 3);
        assert!(out[0].starts_with(r#"{"v":1,"status":"ok""#), "{}", out[0]);
        assert_eq!(out[1], r#"{"v":1,"status":"error","reason":"oversized"}"#);
        assert_eq!(out[2], out[0]);
        let stats = &pump.engine().stats;
        assert_eq!(stats.oversized, 1);
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.errors, 1);
    }

    #[test]
    fn pump_flushes_on_batch_size_and_eof() {
        let engine = ServeEngine::new(ServeOptions::default());
        let mut pump = BatchPump::new(engine, 2);
        let inst = r#"{"capacities":[4],"tasks":[{"lo":0,"hi":1,"demand":1,"weight":5}]}"#;
        assert!(pump.feed(Framed::Line(inst.into())).is_none());
        let batch = pump.feed(Framed::Line(inst.into())).expect("second line fills the batch");
        assert_eq!(batch.len(), 2);
        assert!(pump.feed(Framed::Line(inst.into())).is_none());
        let tail = pump.finish().expect("EOF flushes the remainder");
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0], batch[0]);
        assert!(pump.finish().is_none(), "nothing pending after EOF");
        assert_eq!(pump.engine().stats.batches, 2);
    }

    #[test]
    fn pump_only_oversized_batch_skips_the_engine() {
        let engine = ServeEngine::new(ServeOptions::default());
        let mut pump = BatchPump::new(engine, 64);
        assert!(pump.feed(Framed::Oversized).is_none());
        let out = pump.feed(Framed::Line(String::new())).expect("flush");
        assert_eq!(out, vec![oversized_response()]);
        assert_eq!(pump.engine().stats.batches, 0, "no admission tick for pure junk");
        assert_eq!(pump.engine().stats.oversized, 1);
    }

    #[test]
    fn net_summary_records_all_registered_counters() {
        let summary = NetSummary {
            conns: 3,
            lines: 10,
            responses: 10,
            oversized: 1,
            bytes_in: 1000,
            bytes_out: 2000,
            ..Default::default()
        };
        let recorder = sap_core::Recorder::new();
        summary.record_telemetry(&recorder.handle());
        let json = recorder.to_json_string();
        for name in [
            "net.conns",
            "net.lines",
            "net.responses",
            "net.oversized",
            "net.bytes_in",
            "net.bytes_out",
        ] {
            assert!(json.contains(name), "{name} missing from {json}");
        }
    }

    /// A `Write` that records its bytes and counts `write` calls, or
    /// fails every call.
    #[derive(Default)]
    struct Counting {
        bytes: Vec<u8>,
        writes: usize,
        fail: bool,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            if self.fail {
                return Err(ErrorKind::BrokenPipe.into());
            }
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A scripted input: reads replay `reads` in order, then EOF.
    struct Scripted {
        reads: std::collections::VecDeque<std::io::Result<Vec<u8>>>,
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.reads.pop_front() {
                None => Ok(0),
                Some(Err(e)) => Err(e),
                Some(Ok(bytes)) => {
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
            }
        }
    }

    /// Runs `reads` through `serve_conn` on a fresh engine, writing to a
    /// [`Counting`] sink.
    fn run_scripted(
        reads: Vec<std::io::Result<Vec<u8>>>,
    ) -> (std::io::Result<()>, Counting, ConnTotals) {
        let mut pump = BatchPump::new(ServeEngine::new(ServeOptions::default()), 64);
        let input = Scripted { reads: reads.into() };
        let mut out = Counting::default();
        let mut totals = ConnTotals::default();
        let no_hook = |_: &mut ServeEngine, _: &mut Vec<String>| Ok(());
        let res =
            serve_conn(input, &mut out, &mut pump, DEFAULT_MAX_LINE_BYTES, &mut totals, no_hook);
        (res, out, totals)
    }

    const INST: &str =
        r#"{"capacities":[4,6,4],"tasks":[{"lo":0,"hi":2,"demand":2,"weight":10}]}"#;

    #[test]
    fn flush_is_one_write_of_the_concatenated_lines() {
        // Eight ~2.5 KB responses: more than a default 8 KiB BufWriter
        // holds, so a buffered writer would need several writes.
        let responses: Vec<String> =
            (0..8).map(|i| format!(r#"{{"v":1,"pad":"{}"}}"#, "x".repeat(2500 + i))).collect();
        let want: Vec<u8> = responses.iter().flat_map(|r| r.bytes().chain([b'\n'])).collect();
        let mut out = Counting::default();
        let mut buf = Vec::new();
        let mut totals = ConnTotals::default();
        write_flush(&mut out, &mut buf, &responses, &mut totals).unwrap();
        assert_eq!(out.writes, 1);
        assert_eq!(out.bytes, want);
        assert_eq!(totals.responses, 8);
        assert_eq!(totals.bytes_out, want.len() as u64);
        // The buffer is reused: a second flush is again one write.
        write_flush(&mut out, &mut buf, &responses[..2], &mut totals).unwrap();
        assert_eq!(out.writes, 2);
        assert_eq!(totals.responses, 10);
    }

    #[test]
    fn failed_flush_counts_nothing() {
        let mut out = Counting { fail: true, ..Counting::default() };
        let mut totals = ConnTotals::default();
        let res = write_flush(&mut out, &mut Vec::new(), &[INST.to_string()], &mut totals);
        assert!(res.is_err());
        assert_eq!(totals, ConnTotals::default(), "the peer received nothing");
    }

    #[test]
    fn interrupted_read_is_retried() {
        let line = format!("{INST}\n");
        let whole = format!("{line}{line}\n").into_bytes();
        let (res, clean, clean_totals) = run_scripted(vec![Ok(whole.clone())]);
        res.unwrap();
        let (res, out, totals) = run_scripted(vec![
            Ok(line.clone().into_bytes()),
            Err(ErrorKind::Interrupted.into()),
            Ok(format!("{line}\n").into_bytes()),
        ]);
        res.unwrap();
        assert_eq!(out.bytes, clean.bytes, "an interrupted read loses nothing");
        assert_eq!(out.writes, 1, "both responses leave in the blank line's flush");
        assert_eq!(totals, clean_totals);
        assert_eq!(totals.responses, 2);
        assert_eq!(totals.bytes_in, whole.len() as u64);
    }

    #[test]
    fn dead_peer_ends_the_connection_without_answering_the_partial_line() {
        let (res, out, totals) = run_scripted(vec![
            Ok(format!("{INST}\n\n{INST}").into_bytes()),
            Err(ErrorKind::ConnectionReset.into()),
        ]);
        assert!(res.is_err());
        assert_eq!(totals.responses, 1, "only the flushed batch was answered");
        assert_eq!(out.writes, 1);
        assert_eq!(out.bytes.iter().filter(|&&b| b == b'\n').count(), 1);
    }

    #[test]
    fn eof_flushes_the_final_unterminated_line() {
        // A full batch, then a final line with no newline: the first is
        // one write at its blank line, the second one write at EOF.
        let (res, out, totals) = run_scripted(vec![Ok(format!("{INST}\n\n{INST}").into_bytes())]);
        res.unwrap();
        assert_eq!(out.writes, 2);
        assert_eq!(totals.responses, 2);
        assert_eq!(totals.bytes_out, out.bytes.len() as u64);
    }
}
