#!/bin/sh
# Replica smoke: boot TWO ftfabricd replicas from the same topology and
# fault seed, feed both the same fault stream, verify they converge to
# the same epoch, then sweep the binary route protocol across both with
# ftload — whose epoch-mix guard must stay silent: the client may bounce
# between replicas but must never observe a route set that rolls its
# epoch backwards. Also runs a JSON sweep so the rendered report carries
# the p99-vs-load curve for both protocols.
#
# Tunables (environment): ADDR_A, ADDR_B, TOPO, LEVELS, DURATION, OUT.
set -eu

ADDR_A=${ADDR_A:-127.0.0.1:7494}
ADDR_B=${ADDR_B:-127.0.0.1:7495}
TOPO=${TOPO:-324}
LEVELS=${LEVELS:-1,2}
DURATION=${DURATION:-1s}
SEED=${SEED:-7}
OUT=${OUT:-replica}
BIN=${BIN:-./ftfabricd.replica}
LOG_A=${LOG_A:-ftfabricd.replica.a.log}
LOG_B=${LOG_B:-ftfabricd.replica.b.log}

fail() {
    echo "replica-smoke: $1" >&2
    [ -f "$LOG_A" ] && sed 's/^/replica-smoke: replica-a: /' "$LOG_A" >&2
    [ -f "$LOG_B" ] && sed 's/^/replica-smoke: replica-b: /' "$LOG_B" >&2
    exit 1
}

go build -o "$BIN" ./cmd/ftfabricd
"$BIN" -topo "$TOPO" -addr "$ADDR_A" -seed "$SEED" >"$LOG_A" 2>&1 &
PID_A=$!
"$BIN" -topo "$TOPO" -addr "$ADDR_B" -seed "$SEED" >"$LOG_B" 2>&1 &
PID_B=$!
trap 'kill "$PID_A" "$PID_B" 2>/dev/null || true; rm -f "$BIN" "$LOG_A" "$LOG_B"' EXIT

wait_up() {
    i=0
    until curl -fs "http://$1/healthz" 2>/dev/null | grep -q '"ok": *true'; do
        i=$((i + 1))
        [ "$i" -le 50 ] || fail "$1 /healthz never came up"
        sleep 0.1
    done
}
wait_up "$ADDR_A"
wait_up "$ADDR_B"

epoch_of() {
    curl -fs "http://$1/v1/order" 2>/dev/null \
        | grep -o '"epoch": *[0-9]*' | grep -o '[0-9]*' || echo -1
}

# The same fault stream onto both replicas. Identical seeds make the
# fail_random draws identical, so both must compute identical tables.
for n in 2 1; do
    curl -fsS -X POST "http://$ADDR_A/v1/faults" -d "{\"fail_random\":$n}" >/dev/null \
        || fail "fault injection rejected by replica A"
    curl -fsS -X POST "http://$ADDR_B/v1/faults" -d "{\"fail_random\":$n}" >/dev/null \
        || fail "fault injection rejected by replica B"
    sleep 0.2
done

# Epoch reconciliation: both replicas must land on the same epoch.
i=0
while :; do
    EA=$(epoch_of "$ADDR_A")
    EB=$(epoch_of "$ADDR_B")
    [ "$EA" = "$EB" ] && [ "$EA" -ge 3 ] && break
    i=$((i + 1))
    [ "$i" -le 100 ] || fail "replicas never converged (epochs $EA vs $EB)"
    sleep 0.1
done
echo "replica-smoke: both replicas at epoch $EA after the shared fault stream"

# JSON sweep against replica A — the per-pair baseline curve.
go run ./cmd/ftload -addr "http://$ADDR_A" -mode closed -levels "$LEVELS" \
    -duration "$DURATION" -out "$OUT.http.json" \
    || fail "JSON sweep failed"

# Binary sweep across BOTH replicas. ftload exits non-zero and prints
# an epoch-mix line if any response rolled the epoch backwards; the
# grep below keeps the guarantee visible even if exit codes get lost
# in a pipeline someday.
go run ./cmd/ftload -addr "http://$ADDR_A,http://$ADDR_B" -proto binary -batch 32 \
    -mode closed -levels "$LEVELS" -duration "$DURATION" -out "$OUT.wire.json" \
    2>"$OUT.ftload.err" \
    || { cat "$OUT.ftload.err" >&2; fail "binary sweep failed"; }
if grep -q "epoch-mix" "$OUT.ftload.err"; then
    cat "$OUT.ftload.err" >&2
    fail "client observed mixed epochs across replicas"
fi
rm -f "$OUT.ftload.err"
grep -q '"protocol": *"binary"' "$OUT.wire.json" || fail "binary sweep missing protocol stamp"
grep -q '"epoch_regressions"' "$OUT.wire.json" && fail "binary sweep recorded epoch regressions"

# One report, both protocols: a curve section each.
go run ./cmd/ftreport html -load "$OUT.http.json,$OUT.wire.json" -o "$OUT.html"
grep -q "binary, batch 32" "$OUT.html" || fail "report missing the binary curve section"
grep -q "GET /v1/route" "$OUT.html" || fail "report missing the JSON curve section"

kill -TERM "$PID_A" "$PID_B"
for PID in "$PID_A" "$PID_B"; do
    i=0
    while kill -0 "$PID" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -le 100 ] || fail "a replica did not exit after SIGTERM"
        sleep 0.1
    done
done
echo "replica-smoke: ok ($OUT.http.json, $OUT.wire.json, $OUT.html)"
