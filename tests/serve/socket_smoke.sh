#!/usr/bin/env bash
# µtrace socket smoke: the unix-socket twin of pipe_smoke.sh, with the
# observability surface on. Boots the daemon on a socket with tracing
# and NDJSON logging enabled, runs a traced request end-to-end (client
# stamps an id, fetches the trace, renders the waterfall), fetches the
# full TRACE document, shuts down cleanly, and asserts the log tells
# the same story the trace does.
#
# usage: socket_smoke.sh <muir-serve> <muir-client> <script-dir> [outdir]
#
# When [outdir] is given, the TRACE document and the NDJSON event log
# are copied there (CI uploads them as artifacts).
set -u

SERVE=$1
CLIENT=$2
SRCDIR=$3
OUTDIR=${4:-}
TMP=$(mktemp -d)
SOCK="$TMP/serve.sock"
SERVE_PID=

cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null
    rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
    echo "socket_smoke: $1" >&2
    [ -f "$TMP/log" ] && sed 's/^/  serve: /' "$TMP/log" >&2
    [ -f "$TMP/run.out" ] && sed 's/^/  run: /' "$TMP/run.out" >&2
    exit 1
}

"$SERVE" --socket "$SOCK" --trace-sample 1 --slow-ms 1 \
    --log-json "$TMP/events.ndjson" --log-level info \
    --stats-json "$TMP/stats.json" 2> "$TMP/log" &
SERVE_PID=$!

for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || fail "daemon died on startup"
    sleep 0.1
done
[ -S "$SOCK" ] || fail "socket never appeared"

# A traced run: the client stamps a seed-derived trace id, the reply
# comes back OK, and the waterfall renders the whole request story.
"$CLIENT" --socket "$SOCK" --trace --seed 7 \
    run workload=fib passes=queue:4 > "$TMP/run.out"
rc=$?
[ "$rc" -eq 0 ] || fail "traced run exited $rc, want 0"
grep -q "^OK$" "$TMP/run.out" || fail "missing OK reply"
grep -q "cycles=" "$TMP/run.out" || fail "missing cycles in OK payload"
grep -q "^trace [0-9a-f]\{16\} 'run fib passes=queue:4'" \
    "$TMP/run.out" || fail "missing waterfall header"
grep -q "retain=stamped" "$TMP/run.out" \
    || fail "stamped trace not retained as such"
for stage in admission queue-wait compile run; do
    grep -q "$stage" "$TMP/run.out" \
        || fail "waterfall missing the '$stage' stage"
done
grep -q "#" "$TMP/run.out" || fail "waterfall has no bars"

# Calls with one --seed stamp one trace id, so the ring holds every
# earlier request with it. Two traced runs of one design with the
# default seed must each print one waterfall, their own: the first
# compiles the design (cache=miss), the second hits it.
for n in 1 2; do
    "$CLIENT" --socket "$SOCK" --trace run workload=fib \
        > "$TMP/again$n.out" || fail "traced run $n failed"
    count=$(grep -c "^trace [0-9a-f]\{16\} " "$TMP/again$n.out")
    [ "$count" -eq 1 ] \
        || fail "traced run $n printed $count waterfalls, want 1"
done
grep -q "cache=miss" "$TMP/again1.out" \
    || fail "first default-seed run is not the design's miss"
grep -q "cache=hit" "$TMP/again2.out" \
    || fail "second default-seed run did not print its own (hit) trace"

# The TRACE document itself: one line of muir.trace.v1 JSON.
"$CLIENT" --socket "$SOCK" trace > "$TMP/trace.out" \
    || fail "trace fetch failed"
grep -q '"muir.trace.v1"' "$TMP/trace.out" \
    || fail "TRACE reply is not a muir.trace.v1 document"
grep -q '"retained":' "$TMP/trace.out" \
    || fail "TRACE document missing decision counters"

# Clean shutdown over the socket: BYE now, exit 0 after the drain.
"$CLIENT" --socket "$SOCK" shutdown > "$TMP/bye.out" \
    || fail "shutdown request failed"
grep -q "^BYE$" "$TMP/bye.out" || fail "missing BYE"
wait "$SERVE_PID"
rc=$?
SERVE_PID=
[ "$rc" -eq 0 ] || fail "daemon exited $rc, want 0 (graceful drain)"

# The NDJSON log corroborates: the OK carries the same trace id the
# waterfall rendered, and the drain bookends are present.
TRACE_HEX=$(sed -n "s/^trace \([0-9a-f]\{16\}\) .*/\1/p" \
    "$TMP/run.out" | head -n 1)
grep -q "\"event\":\"request.ok\".*\"trace\":\"$TRACE_HEX\"" \
    "$TMP/events.ndjson" \
    || fail "log has no request.ok correlated with trace $TRACE_HEX"
grep -q '"event":"shutdown.requested"' "$TMP/events.ndjson" \
    || fail "log missing shutdown.requested"
grep -q '"event":"drain.end"' "$TMP/events.ndjson" \
    || fail "log missing drain.end"

# Final flushed stats snapshot counts the trace decisions.
grep -q '"trace":{"started":' "$TMP/stats.json" \
    || fail "stats snapshot missing trace counters"

if [ -n "$OUTDIR" ]; then
    mkdir -p "$OUTDIR"
    # trace.out is "TRACE" then the one-line document; keep the JSON.
    grep '"muir.trace.v1"' "$TMP/trace.out" \
        > "$OUTDIR/trace_document.json"
    cp "$TMP/events.ndjson" "$OUTDIR/events.ndjson"
    cp "$TMP/run.out" "$OUTDIR/waterfall.txt"
fi

echo "socket_smoke: ok"
