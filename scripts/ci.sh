#!/usr/bin/env bash
# Tier-1 gate: everything a clean offline checkout must pass.
#
#   1. release build of the default workspace (path-only dependencies,
#      so this succeeds with no registry and no lockfile),
#   2. the root package's test suite, then every workspace member's
#      tests (`cargo test -q` alone covers only the root package),
#   3. the chaos suite: the same tests plus deterministic fault injection
#      (worker panics, failed LP solves, injected budget exhaustion),
#   4. the in-repo static-analysis pass with every lint denied,
#   5. the telemetry determinism gate: the same instance solved twice with
#      each of `--telemetry=json`, `--telemetry=tree` and `--trace` must
#      export byte-identical phase trees, tree views and Chrome traces.
#   6. the anytime Elevator gate: the `mixed80` seed-1 instance solved
#      `combined` twice with `--telemetry=json` must export byte-identical
#      phase trees, and the export must count capped classes
#      (`classes.capped` > 0), so the path where a class's exact search
#      hits its state cap and keeps its incumbent actually runs.
#   7. the serve determinism gate: the same NDJSON request stream (valid,
#      malformed, and duplicate lines mixed) fed through `sap serve` at
#      --workers 1 and --workers 8 must produce byte-identical stdout.
#   8. the lint baseline gate: `cargo xtask lint --format json` run twice
#      must be byte-identical (the export is schema-versioned and sorted),
#      and must match the committed `lint-baseline.json` — so CI fails on
#      *new* findings only, and a stale baseline is itself a failure.
#   9. the overload determinism gate: a mixed multi-tenant stream that
#      overruns both the global admission pool and one tenant's quota is
#      replayed twice at --workers 1 and once at --workers 8; all three
#      stdouts must be byte-identical (admission, degradation, and shed
#      decisions are width- and replay-invariant) and the stream must
#      actually shed (the gate must not pass vacuously). Its starved
#      medium arms must make greedy join as the driver's only fallback
#      (`"fallbacks":["greedy"]`), and no response may name `lemma13`.
#  10. the observability determinism gate: the same overloaded stream run
#      with per-batch snapshots interleaved into stdout, a snapshot side
#      channel, and a shutdown Chrome trace — twice at --workers 1 and
#      once at --workers 8. Stdout (responses + snapshot lines), the
#      snapshot file, and the trace must all be byte-identical across
#      the three runs, snapshots must actually appear, and the trace
#      must contain a non-vacuous span pair (more than the bare root).
#  11. the network serve gate: `sap serve --listen` loopback e2e over
#      bash's /dev/tcp — three concurrent connections with interleaved
#      line-by-line writes (one stream includes a malformed line, one
#      repeats an instance so the shared cache crosses connections).
#      Each connection's response stream must be byte-identical to
#      feeding the same lines through batch-mode serve on stdin at both
#      --workers 1 and --workers 8, and the server must report exactly
#      three connections served.
#  12. the benchmark compile gate: `e2ebench/` is a workspace of its own
#      that builds this crate by path, so `cargo build` above never
#      compiles it. Checking all its targets here makes an API change the
#      benchmark depends on fail in CI, not only in the bench pipeline.
#
# Solver-level invariants that need no binary (work-unit conservation and
# byte-identical telemetry across fan-out widths, the pinned MWIS
# allocation gauges, sparse-vs-dense LP agreement, warm/cold pivot-trace
# identity) are tier-1 tests and run in step 2.
#
# Run from anywhere inside the repository.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo test -q --features fault-injection"
cargo test -q --features fault-injection

echo "==> cargo run -p xtask -- lint --deny all"
cargo run --release -p xtask -- lint --deny all

echo "==> telemetry determinism gate"
tmpdir="$(mktemp -d)"
net_pid=""
trap '[ -n "$net_pid" ] && kill "$net_pid" 2>/dev/null; rm -rf "$tmpdir"' EXIT
./target/release/sap generate --edges 10 --tasks 40 --seed 7 > "$tmpdir/inst.json"
./target/release/sap solve "$tmpdir/inst.json" --algo combined --telemetry=json \
    2>"$tmpdir/tele-a.json" >/dev/null
./target/release/sap solve "$tmpdir/inst.json" --algo combined --telemetry=json \
    2>"$tmpdir/tele-b.json" >/dev/null
diff "$tmpdir/tele-a.json" "$tmpdir/tele-b.json" \
    || { echo "telemetry export is not deterministic" >&2; exit 1; }
for run in a b; do
    ./target/release/sap solve "$tmpdir/inst.json" --algo combined --telemetry=tree \
        2>"$tmpdir/tree-$run.txt" >/dev/null
    ./target/release/sap solve "$tmpdir/inst.json" --algo combined \
        --trace "$tmpdir/trace-$run.json" >/dev/null 2>&1
done
diff "$tmpdir/tree-a.txt" "$tmpdir/tree-b.txt" \
    || { echo "telemetry tree view is not deterministic" >&2; exit 1; }
diff "$tmpdir/trace-a.json" "$tmpdir/trace-b.json" \
    || { echo "solve trace export is not deterministic" >&2; exit 1; }

echo "==> anytime Elevator gate"
./target/release/sap generate --edges 12 --tasks 80 --regime mixed --seed 1 \
    > "$tmpdir/mixed80-1.json"
for run in a b; do
    ./target/release/sap solve "$tmpdir/mixed80-1.json" --algo combined --telemetry=json \
        2>"$tmpdir/capped-$run.json" >/dev/null
done
diff "$tmpdir/capped-a.json" "$tmpdir/capped-b.json" \
    || { echo "capped-class telemetry export is not deterministic" >&2; exit 1; }
grep -Eq '"classes\.capped":[1-9]' "$tmpdir/capped-a.json" \
    || { echo "no class hit the state cap — gate is vacuous" >&2; exit 1; }

echo "==> serve determinism gate"
# Each pretty-printed instance is flattened to one NDJSON line (instance
# documents contain no string values, so stripping whitespace is safe).
{
    ./target/release/sap generate --edges 8 --tasks 24 --seed 11 | tr -d ' \n'; echo
    echo '{not even json'
    ./target/release/sap generate --edges 6 --tasks 18 --seed 12 | tr -d ' \n'; echo
    ./target/release/sap generate --edges 8 --tasks 24 --seed 11 | tr -d ' \n'; echo
} > "$tmpdir/serve-req.ndjson"
./target/release/sap serve --workers 1 < "$tmpdir/serve-req.ndjson" \
    2>/dev/null > "$tmpdir/serve-w1.ndjson"
./target/release/sap serve --workers 8 < "$tmpdir/serve-req.ndjson" \
    2>/dev/null > "$tmpdir/serve-w8.ndjson"
diff "$tmpdir/serve-w1.ndjson" "$tmpdir/serve-w8.ndjson" \
    || { echo "serve output depends on the worker width" >&2; exit 1; }

echo "==> lint baseline gate"
cargo run --release -p xtask -- lint --format json > "$tmpdir/lint-a.json"
cargo run --release -p xtask -- lint --format json > "$tmpdir/lint-b.json"
diff "$tmpdir/lint-a.json" "$tmpdir/lint-b.json" \
    || { echo "lint json export is not deterministic" >&2; exit 1; }
diff "$tmpdir/lint-a.json" lint-baseline.json \
    || { echo "lint findings diverge from lint-baseline.json" >&2; \
         echo "regenerate with: cargo xtask lint --write-baseline lint-baseline.json" >&2; \
         exit 1; }

echo "==> overload determinism gate"
# A two-batch multi-tenant stream (blank line = batch boundary): tenant
# "hog" declares three 300-unit solves per batch against a 330/tick
# quota, tenant "mouse" stays modest, and the 700-unit global pool is
# oversubscribed — so the stream exercises full admission, both
# degradation rungs, and quota shedding.
hog_inst="$(./target/release/sap generate --edges 8 --tasks 24 --seed 21 | tr -d ' \n')"
mouse_inst="$(./target/release/sap generate --edges 6 --tasks 18 --seed 22 | tr -d ' \n')"
{
    for _ in 1 2; do
        for _ in 1 2 3; do
            echo "{\"instance\":$hog_inst,\"work_units\":300,\"tenant\":\"hog\"}"
            echo "{\"instance\":$mouse_inst,\"work_units\":40,\"tenant\":\"mouse\"}"
        done
        echo
    done
} > "$tmpdir/overload-req.ndjson"
overload_serve() {
    ./target/release/sap serve --workers "$1" --cache-size 0 \
        --max-inflight-units 700 --tenant-quota 330 \
        < "$tmpdir/overload-req.ndjson" 2>/dev/null
}
overload_serve 1 > "$tmpdir/overload-w1a.ndjson"
overload_serve 1 > "$tmpdir/overload-w1b.ndjson"
overload_serve 8 > "$tmpdir/overload-w8.ndjson"
diff "$tmpdir/overload-w1a.ndjson" "$tmpdir/overload-w1b.ndjson" \
    || { echo "overload replay is not deterministic" >&2; exit 1; }
diff "$tmpdir/overload-w1a.ndjson" "$tmpdir/overload-w8.ndjson" \
    || { echo "shed/degrade decisions depend on the worker width" >&2; exit 1; }
grep -q '"status":"shed"' "$tmpdir/overload-w1a.ndjson" \
    || { echo "overload stream never shed — gate is vacuous" >&2; exit 1; }
grep -q '"fallbacks":\["greedy"\]' "$tmpdir/overload-w1a.ndjson" \
    || { echo "no starved request fell back to greedy — gate is vacuous" >&2; exit 1; }
if grep -q 'lemma13' "$tmpdir/overload-w1a.ndjson"; then
    echo "a response names the removed lemma13 fallback" >&2; exit 1
fi

echo "==> observability determinism gate"
# The gate-9 overload stream again, now with the obs plane on: snapshot
# lines interleave into stdout every batch, mirror into a side file, and
# the service-lifetime profile exports as a Chrome trace at shutdown.
# All three artifacts must be byte-identical across a replay and across
# worker widths — cache warmth is already covered by the engine tests.
obs_serve() {
    ./target/release/sap serve --workers "$1" --cache-size 0 \
        --max-inflight-units 700 --tenant-quota 330 \
        --snapshot-every 1 --snapshot-file "$tmpdir/obs-snap-$2.ndjson" \
        --trace "$tmpdir/obs-trace-$2.json" \
        < "$tmpdir/overload-req.ndjson" 2>/dev/null
}
obs_serve 1 w1a > "$tmpdir/obs-w1a.ndjson"
obs_serve 1 w1b > "$tmpdir/obs-w1b.ndjson"
obs_serve 8 w8 > "$tmpdir/obs-w8.ndjson"
diff "$tmpdir/obs-w1a.ndjson" "$tmpdir/obs-w1b.ndjson" \
    || { echo "obs stdout (responses + snapshots) is not replay-deterministic" >&2; exit 1; }
diff "$tmpdir/obs-w1a.ndjson" "$tmpdir/obs-w8.ndjson" \
    || { echo "obs stdout depends on the worker width" >&2; exit 1; }
diff "$tmpdir/obs-snap-w1a.ndjson" "$tmpdir/obs-snap-w1b.ndjson" \
    || { echo "snapshot side channel is not replay-deterministic" >&2; exit 1; }
diff "$tmpdir/obs-snap-w1a.ndjson" "$tmpdir/obs-snap-w8.ndjson" \
    || { echo "snapshot side channel depends on the worker width" >&2; exit 1; }
diff "$tmpdir/obs-trace-w1a.json" "$tmpdir/obs-trace-w1b.json" \
    || { echo "trace export is not replay-deterministic" >&2; exit 1; }
diff "$tmpdir/obs-trace-w1a.json" "$tmpdir/obs-trace-w8.json" \
    || { echo "trace export depends on the worker width" >&2; exit 1; }
grep -q '"kind":"snapshot"' "$tmpdir/obs-w1a.ndjson" \
    || { echo "no snapshot lines on stdout — gate is vacuous" >&2; exit 1; }
grep -q '"kind":"snapshot"' "$tmpdir/obs-snap-w1a.ndjson" \
    || { echo "snapshot side channel is empty — gate is vacuous" >&2; exit 1; }
# A non-vacuous trace nests at least one named child span under root.
grep -q '"name":"medium","ph":"B"' "$tmpdir/obs-trace-w1a.json" \
    || { echo "trace holds no solver span pair — gate is vacuous" >&2; exit 1; }

echo "==> network serve gate"
# Three concurrent /dev/tcp connections with interleaved writes. Bash
# cannot half-close a socket, so each stream ends with a blank line (a
# batch boundary, which flushes) and the expected number of responses is
# read back with a timeout before the fd is closed.
net_a="$(./target/release/sap generate --edges 8 --tasks 24 --seed 31 | tr -d ' \n')"
net_b="$(./target/release/sap generate --edges 6 --tasks 18 --seed 32 | tr -d ' \n')"
net_c="$(./target/release/sap generate --edges 7 --tasks 20 --seed 33 | tr -d ' \n')"
printf '%s\n%s\n' "$net_a" "$net_b"            > "$tmpdir/net-c1.ndjson"
printf '%s\n{oops\n%s\n' "$net_b" "$net_a"     > "$tmpdir/net-c2.ndjson"
printf '%s\n%s\n' "$net_c" "$net_c"            > "$tmpdir/net-c3.ndjson"
./target/release/sap serve --listen 127.0.0.1:0 --max-conns 3 \
    --port-file "$tmpdir/net-port" --workers 8 2>"$tmpdir/net-server.log" &
net_pid=$!
for _ in $(seq 1 200); do [ -s "$tmpdir/net-port" ] && break; sleep 0.05; done
[ -s "$tmpdir/net-port" ] || { echo "server never published its port" >&2; exit 1; }
net_addr="$(cat "$tmpdir/net-port")"
net_port="${net_addr##*:}"
exec 3<>"/dev/tcp/127.0.0.1/$net_port"
exec 4<>"/dev/tcp/127.0.0.1/$net_port"
exec 5<>"/dev/tcp/127.0.0.1/$net_port"
mapfile -t net_l1 < "$tmpdir/net-c1.ndjson"
mapfile -t net_l2 < "$tmpdir/net-c2.ndjson"
mapfile -t net_l3 < "$tmpdir/net-c3.ndjson"
for ((i = 0; i < 3; i++)); do
    [ "$i" -lt "${#net_l1[@]}" ] && printf '%s\n' "${net_l1[$i]}" >&3
    [ "$i" -lt "${#net_l2[@]}" ] && printf '%s\n' "${net_l2[$i]}" >&4
    [ "$i" -lt "${#net_l3[@]}" ] && printf '%s\n' "${net_l3[$i]}" >&5
    sleep 0.02
done
printf '\n' >&3
printf '\n' >&4
printf '\n' >&5
read_responses() { # fd count out
    local fd="$1" count="$2" out="$3" j line
    : > "$out"
    for ((j = 0; j < count; j++)); do
        IFS= read -t 15 -r -u "$fd" line \
            || { echo "timed out reading response $((j + 1)) on fd $fd" >&2; exit 1; }
        printf '%s\n' "$line" >> "$out"
    done
}
read_responses 3 2 "$tmpdir/net-r1.ndjson"
read_responses 4 3 "$tmpdir/net-r2.ndjson"
read_responses 5 2 "$tmpdir/net-r3.ndjson"
exec 3<&- 3>&- 4<&- 4>&- 5<&- 5>&-
wait "$net_pid" || { echo "serve --listen exited nonzero" >&2; exit 1; }
net_pid=""
grep -q 'net: 3 conns' "$tmpdir/net-server.log" \
    || { echo "server did not report 3 connections — gate is vacuous" >&2; exit 1; }
for w in 1 8; do
    for c in 1 2 3; do
        ./target/release/sap serve --workers "$w" < "$tmpdir/net-c$c.ndjson" \
            2>/dev/null > "$tmpdir/net-ref-w$w-c$c.ndjson"
        diff "$tmpdir/net-r$c.ndjson" "$tmpdir/net-ref-w$w-c$c.ndjson" \
            || { echo "connection $c stream diverges from batch mode at --workers $w" >&2; exit 1; }
    done
done

echo "==> benchmark compile gate"
cargo check --release --manifest-path e2ebench/Cargo.toml --all-targets

echo "ci: all gates passed"
