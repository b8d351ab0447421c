#!/usr/bin/env bash
# End-to-end smoke of the tsperrd daemon: start it with a tiny scenario
# budget, wait for the model to warm, run one sync estimate, fire a burst of
# identical requests (dedup + cache must keep the computation count at one
# per distinct request), then SIGTERM and require a clean drain.
SMOKE_NAME=smoke
. "$(dirname "$0")/smoke-lib.sh"

PORT="${TSPERRD_PORT:-18321}"
ADDR="127.0.0.1:$PORT"

start_daemon daemon "$ADDR"
PID=$DAEMON_PID
wait_http "http://$ADDR/healthz" || fail "daemon never became healthy (last /healthz: $HTTP_CODE)"

body=$(curl -sf -X POST "http://$ADDR/v1/estimate" \
    -d '{"benchmark":"typeset","scenarios":2}') || fail "sync estimate failed"
echo "$body" | grep -q '"name": "typeset"' || fail "estimate response missing report: $body"

# Burst of identical requests: all must succeed, and the daemon must compute
# dijkstra exactly once (the burst dedups or hits the cache).
pids=()
for _ in $(seq 1 16); do
    curl -sf -X POST "http://$ADDR/v1/estimate" \
        -d '{"benchmark":"dijkstra","scenarios":2}' >/dev/null &
    pids+=("$!")
done
for p in "${pids[@]}"; do
    wait "$p" || fail "burst request failed"
done

comp=$(metric "$ADDR" tsperrd_computations_total)
[ "$comp" = 2 ] || fail "expected 2 computations (typeset + dijkstra burst), got '$comp'"

drain "$PID" daemon
echo "smoke: OK (2 computations for 17 requests; clean drain)"
