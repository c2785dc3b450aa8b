#!/usr/bin/env bash
# Black-box smoke of the real `psta serve` binary: start the daemon,
# drive it with `psta client`, then SIGTERM it under load and require a
# clean drain (exit 0) within the grace window.
set -euo pipefail

BIN=${1:-target/release/psta}
ADDR=127.0.0.1:8521
LOG=$(mktemp)

"$BIN" serve --addr "$ADDR" --workers 2 --queue 8 --grace-ms 10000 >"$LOG" 2>&1 &
PID=$!
cleanup() { kill -9 "$PID" 2>/dev/null || true; cat "$LOG"; rm -f "$LOG"; }
trap cleanup EXIT

# Wait for the daemon to come up.
for _ in $(seq 1 100); do
  if "$BIN" client health --addr "$ADDR" >/dev/null 2>&1; then break; fi
  sleep 0.1
done

[ "$("$BIN" client health --addr "$ADDR")" = ok ]
[ "$("$BIN" client ready --addr "$ADDR")" = ready ]
"$BIN" client metrics --addr "$ADDR" | grep -q '^pep_serve_queue_depth 0$'

# Synchronous analysis round-trips.
"$BIN" client analyze sample:c17 --seed 7 --addr "$ADDR" | grep -q '"state":"done"'

# Retain → delta round trip: the retained digest equals a plain
# analysis of the same circuit, a repeated delta digests the same, and
# reply assembly shows up as its own phase in /metrics.
json_field() { # json_field <key> — first string/number value of key on stdin
  sed -n "s/.*\"$1\":\"\{0,1\}\([0-9a-zA-Z_-]*\)\"\{0,1\}[,}].*/\1/p" | head -1
}
fail() { echo "serve smoke: FAIL: $*" >&2; exit 1; }
PLAIN=$("$BIN" client analyze sample:c17 --seed 7 --addr "$ADDR" | json_field groups_digest)
RETAINED=$("$BIN" client analyze sample:c17 --seed 7 --retain --addr "$ADDR")
BASE=$(printf '%s' "$RETAINED" | json_field base)
[ -n "$PLAIN" ] && [ -n "$BASE" ] || fail "retain returned no digest or base"
[ "$(printf '%s' "$RETAINED" | json_field groups_digest)" = "$PLAIN" ] \
  || fail "retained digest differs from a plain analysis"
delta() {
  "$BIN" client analyze --base "$BASE" --override gate=16,scale=1.3 --addr "$ADDR" \
    | json_field groups_digest
}
DELTA1=$(delta)
DELTA2=$(delta)
[ -n "$DELTA1" ] && [ "$DELTA1" != "$PLAIN" ] || fail "delta digest missing or unchanged"
[ "$DELTA1" = "$DELTA2" ] || fail "repeated delta digests differ ($DELTA1 != $DELTA2)"
METRICS=$("$BIN" client metrics --addr "$ADDR")
grep -q '^pep_serve_phase_seconds{phase="result-assembly"} ' <<<"$METRICS" \
  || fail "no result-assembly phase in /metrics"

# Detach, poll, cancel: the cancel of a queued/running job succeeds.
DETACHED=$("$BIN" client analyze profile:s15850 --samples 40 --detach --addr "$ADDR")
ID=$(printf '%s' "$DETACHED" | sed -n 's/.*"id":\([0-9]*\).*/\1/p')
"$BIN" client job "$ID" --addr "$ADDR" >/dev/null
"$BIN" client cancel "$ID" --addr "$ADDR" | grep -q '"state"'

# A short keep-alive bench against the live daemon completes with zero
# transport errors (deeper scale/failover coverage: serve_scale.sh).
BENCH=$("$BIN" client bench --addr "$ADDR" --conns 8 --duration-ms 1000)
printf '%s\n' "$BENCH" | grep -q 'latency us: p50'
printf '%s\n' "$BENCH" | grep -q 'transport errors: none'

# Leave slow work in flight, then send the polite kill.
"$BIN" client analyze profile:s15850 --samples 40 --detach --addr "$ADDR" >/dev/null
"$BIN" client analyze profile:s15850 --samples 40 --detach --addr "$ADDR" >/dev/null
kill -TERM "$PID"

# The drain must finish inside the grace window and exit 0.
wait "$PID"

# The final run report made it out with the job accounting.
grep -q 'serve.jobs_submitted' "$LOG"
grep -q 'pep-serve listening' "$LOG"
echo "serve smoke: OK"
