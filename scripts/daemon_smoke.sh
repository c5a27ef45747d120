#!/bin/sh
# Daemon smoke test: boot ftfabricd, wait for /healthz, exercise the
# read and write paths once each, then SIGTERM and require a clean
# graceful exit. Used by `make daemon-smoke` and the CI daemon job.
set -eu

ADDR=${ADDR:-127.0.0.1:7474}
TOPO=${TOPO:-128}
BIN=${BIN:-./ftfabricd.smoke}
LOG=${LOG:-ftfabricd.smoke.log}

fail() {
    echo "daemon-smoke: $1" >&2
    [ -f "$LOG" ] && sed 's/^/daemon-smoke: ftfabricd: /' "$LOG" >&2
    exit 1
}

go build -o "$BIN" ./cmd/ftfabricd
"$BIN" -topo "$TOPO" -addr "$ADDR" >"$LOG" 2>&1 &
PID=$!
trap 'kill "$PID" 2>/dev/null || true; rm -f "$BIN" "$LOG"' EXIT

# Readiness: /healthz must come up within ~5s.
i=0
until curl -fs "http://$ADDR/healthz" 2>/dev/null | grep -q '"ok": *true'; do
    i=$((i + 1))
    [ "$i" -le 50 ] || fail "/healthz never came up"
    kill -0 "$PID" 2>/dev/null || fail "daemon died during startup"
    sleep 0.1
done

# Read path: a route query returns the schema-stamped document.
curl -fsS "http://$ADDR/v1/route?src=0&dst=17" | grep -q '"schema": *"fattree-route/v1"' \
    || fail "route query failed"

# Placement: a job is served when the POST returns — listed by the very
# next read, no waiting (a placement opens no debounce window).
JOB=$(curl -fsS -X POST "http://$ADDR/v1/jobs" -d '{"size":8}' | sed -n 's/.*"id": *\([0-9][0-9]*\).*/\1/p')
[ -n "$JOB" ] || fail "job placement rejected"
curl -fsS "http://$ADDR/v1/jobs" | grep -q "\"id\": *$JOB\b" \
    || fail "job $JOB not listed right after its placement returned"

# One engine per daemon: a job body naming an engine is refused (400,
# an unknown field), and so is a route under another engine (404).
CODE=$(curl -sS -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/v1/jobs" -d '{"size":8,"engine":"minhop-random"}')
[ "$CODE" = 400 ] || fail "job naming an engine got $CODE, want 400"
CODE=$(curl -sS -o /dev/null -w '%{http_code}' "http://$ADDR/v1/route?src=0&dst=17&engine=minhop-random")
[ "$CODE" = 404 ] || fail "route under another engine got $CODE, want 404"

# Write path: inject random faults, then the fabric document must
# eventually report them (the reroute is debounced).
curl -fsS -X POST "http://$ADDR/v1/faults" -d '{"fail_random":2}' | grep -q '"accepted": *[1-9]' \
    || fail "fault injection rejected"
i=0
until curl -fsS "http://$ADDR/v1/fabric" | grep -q '"failed_links": *\[ *[0-9]'; do
    i=$((i + 1))
    [ "$i" -le 50 ] || fail "reroute never surfaced in /v1/fabric"
    sleep 0.1
done

# Metrics: the swap must have bumped the epoch gauge past the initial 1.
curl -fsS "http://$ADDR/metrics" | grep -q '"fmgr_epoch"' || fail "metrics missing fmgr_epoch"

# Graceful shutdown: SIGTERM drains and exits zero.
kill -TERM "$PID"
i=0
while kill -0 "$PID" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -le 100 ] || fail "daemon did not exit after SIGTERM"
    sleep 0.1
done
wait "$PID" || fail "daemon exited non-zero after SIGTERM"
grep -q "shutting down" "$LOG" || fail "missing graceful-shutdown log line"
echo "daemon-smoke: ok"
