#!/usr/bin/env bash
# End-to-end smoke of the operating-point search: start tsperrd, wait for the
# model to warm, POST /v1/oppoint with a 2x2 voltage/temperature grid, check
# the response carries a frontier and that a warm re-run answers every
# bisection probe from the cache (sub-request dedup visible in /metrics),
# then SIGTERM and require a clean drain.
SMOKE_NAME=oppoint-smoke
. "$(dirname "$0")/smoke-lib.sh"

PORT="${TSPERRD_PORT:-18325}"
ADDR="127.0.0.1:$PORT"

start_daemon daemon "$ADDR"
PID=$DAEMON_PID
wait_http "http://$ADDR/healthz" || fail "daemon never became healthy (last /healthz: $HTTP_CODE)"

req='{"benchmark":"typeset","scenarios":2,"target_error_rate":0.02,
      "voltages":[1.1,1.05],"temps_c":[25,85],"min_ratio":1.0,"max_ratio":1.2,"steps":3}'

# Cold search: every bisection probe is a fresh computation.
body=$(curl -sf -X POST "http://$ADDR/v1/oppoint" -d "$req") \
    || fail "cold oppoint search failed"
echo "$body" | grep -q '"frontier"' || fail "response missing frontier: $body"
echo "$body" | grep -q '"voltage": 1.05' || fail "grid condition missing from points: $body"

subs_cold=$(metric "$ADDR" tsperrd_oppoint_subrequests_total)
hits_cold=$(metric "$ADDR" tsperrd_oppoint_subrequest_cache_hits_total)
[ -n "$subs_cold" ] && [ "$subs_cold" -gt 0 ] \
    || fail "no oppoint sub-requests counted: '$subs_cold'"

# Warm re-run of the identical grid: same sub-request count again, and every
# single one must be a cache hit — zero new computations.
warm=$(curl -sf -X POST "http://$ADDR/v1/oppoint" -d "$req") \
    || fail "warm oppoint search failed"
[ "$(echo "$body" | grep -c '"ratio"')" = "$(echo "$warm" | grep -c '"ratio"')" ] \
    || fail "warm re-run changed the point set"

subs_warm=$(metric "$ADDR" tsperrd_oppoint_subrequests_total)
hits_warm=$(metric "$ADDR" tsperrd_oppoint_subrequest_cache_hits_total)
new_subs=$((subs_warm - subs_cold))
new_hits=$((hits_warm - hits_cold))
[ "$new_subs" -gt 0 ] || fail "warm run issued no sub-requests"
[ "$new_hits" = "$new_subs" ] \
    || fail "warm run recomputed: $new_hits cache hits for $new_subs sub-requests"

searches=$(metric "$ADDR" tsperrd_oppoint_searches_total)

drain "$PID" daemon
echo "oppoint-smoke: OK ($searches per-condition searches; warm run $new_hits/$new_subs from cache; clean drain)"
