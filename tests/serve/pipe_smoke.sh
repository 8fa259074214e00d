#!/usr/bin/env bash
# µserve stdio pipe smoke: encode a mixed request script, run it
# through the daemon with no networking, decode the replies, and
# assert the exact reply kinds plus a clean (exit 0) daemon shutdown.
#
# usage: pipe_smoke.sh <muir-serve> <muir-client> <script-dir>
set -u

SERVE=$1
CLIENT=$2
SRCDIR=$3
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail() {
    echo "pipe_smoke: $1" >&2
    [ -f "$TMP/log" ] && sed 's/^/  serve: /' "$TMP/log" >&2
    [ -f "$TMP/decoded" ] && sed 's/^/  reply: /' "$TMP/decoded" >&2
    exit 1
}

"$CLIENT" --encode "$SRCDIR/mixed.script" > "$TMP/frames" \
    || fail "encode failed"

# Tracing fully on and the NDJSON log active: neither may change a
# single reply byte (the greps below are the same as before µtrace).
"$SERVE" --stdio --stats-json "$TMP/stats.json" \
    --trace-sample 1 --log-json "$TMP/events.ndjson" \
    < "$TMP/frames" > "$TMP/replies" 2> "$TMP/log"
rc=$?
[ "$rc" -eq 0 ] || fail "daemon exited $rc, want 0 (graceful drain)"
# The daemon is quiet: no µopt pass chatter per design-cache miss.
if grep -q "µopt:" "$TMP/log"; then
    fail "daemon stderr carries µopt pass chatter"
fi

"$CLIENT" --decode < "$TMP/replies" > "$TMP/decoded"
drc=$?
# The script deliberately includes one hostile request, so decode's
# "saw an ERROR reply" exit code must be exactly 1.
[ "$drc" -eq 1 ] || fail "decode exited $drc, want 1 (one ERROR reply)"

grep -q "^1 PONG hello$" "$TMP/decoded" || fail "missing PONG"
[ "$(grep -c " OK cycles=" "$TMP/decoded")" -eq 3 ] \
    || fail "want exactly 3 OK replies"
grep -q " ERROR error code=unknown-workload" "$TMP/decoded" \
    || fail "missing unknown-workload ERROR"
# The tight fib budget trips although fib is cached and answered from
# its OK reply, and so does the gemm one.
[ "$(grep -c " DEADLINE deadline reason=cycle-budget" "$TMP/decoded")" \
    -eq 2 ] || fail "want exactly 2 cycle-budget DEADLINEs"
# The fib miss and the fib hit answer the same bytes.
[ "$(grep -E "^(2|3) OK " "$TMP/decoded" | cut -d' ' -f2- | sort -u \
    | wc -l)" -eq 1 ] || fail "the two fib OK replies differ"
grep -q ' TRACE {"muir.trace.v1"' "$TMP/decoded" \
    || fail "missing muir.trace.v1 TRACE reply"
grep -q ' STATS {"muir.serve.v1"' "$TMP/decoded" \
    || fail "missing STATS reply"
grep -q " BYE" "$TMP/decoded" || fail "missing BYE"

# The structured log saw the traffic: at least one OK with a trace
# correlation id, and the ERROR the hostile request provoked.
grep -q '"event":"request.ok".*"trace":"' "$TMP/events.ndjson" \
    || fail "log missing a trace-correlated request.ok"
grep -q '"event":"request.error"' "$TMP/events.ndjson" \
    || fail "log missing the request.error event"

# Identical designs hit the compile-once cache: 3 fib runs = 1 miss +
# 2 hits, visible in the final flushed snapshot.
grep -q '"muir.serve.v1"' "$TMP/stats.json" \
    || fail "final stats snapshot not flushed"
grep -q '"cache_hits":2,' "$TMP/stats.json" \
    || fail "expected exactly two design-cache hits"

echo "pipe_smoke: ok"
