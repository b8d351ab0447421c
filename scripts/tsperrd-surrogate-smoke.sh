#!/usr/bin/env bash
# End-to-end smoke of the surrogate fast tier: start tsperrd in serve mode
# with a tiny training threshold, verify that every pre-model request
# escalates as untrained while its exact result trains the model, wait for
# the background training to land, verify shadow residuals accumulate from
# forced-exact (mc_trials) requests, check that responses carry the tier
# field, then SIGTERM and require a clean drain.
SMOKE_NAME=surrogate-smoke
. "$(dirname "$0")/smoke-lib.sh"

PORT="${TSPERRD_PORT:-18323}"
ADDR="127.0.0.1:$PORT"
SMOKE_METRICS_ADDR="$ADDR"

start_daemon daemon "$ADDR" \
    -surrogate serve -surrogate-min-train 4 -surrogate-retrain 4
PID=$DAEMON_PID
wait_http "http://$ADDR/healthz" || fail "daemon never became healthy (last /healthz: $HTTP_CODE)"

# Phase 1 — untrained gate honesty: with no model yet, every distinct request
# must escalate to the exact tier (reason untrained) and be answered exactly,
# while its result is fed back as training data.
for b in typeset dijkstra patricia stringsearch; do
    body=$(curl -sf -X POST "http://$ADDR/v1/estimate" \
        -d "{\"benchmark\":\"$b\",\"scenarios\":2}") || fail "estimate $b failed"
    echo "$body" | grep -q '"tier": *"exact"' || fail "$b pre-model response not exact tier: $body"
done

esc=$(metric "$ADDR" 'tsperrd_surrogate_escalations_total{reason="untrained"}')
[ "$esc" = 4 ] || fail "expected 4 untrained escalations, got '$esc'"
obs=$(metric "$ADDR" 'tsperrd_surrogate_observations_total')
[ "$obs" = 4 ] || fail "expected 4 observations, got '$obs'"

# The 4th observation crosses -surrogate-min-train and triggers a background
# training; wait for it to land.
trainings=""
for _ in $(seq 1 100); do
    trainings=$(metric "$ADDR" 'tsperrd_surrogate_trainings_total')
    [ -n "$trainings" ] && [ "$trainings" -ge 1 ] && break
    sleep 0.2
done
[ -n "$trainings" ] && [ "$trainings" -ge 1 ] || fail "surrogate never trained (trainings='$trainings')"
ver=$(metric "$ADDR" 'tsperrd_surrogate_model_version')
[ -n "$ver" ] && [ "$ver" -ge 1 ] || fail "model version still '$ver' after training"

# Phase 2 — shadow accuracy: mc_trials requests always run exact (Monte Carlo
# is exact-tier-only), but with a model present each exact result now also
# yields an out-of-sample residual in the shadow histogram.
for b in typeset dijkstra patricia; do
    curl -sf -X POST "http://$ADDR/v1/estimate" \
        -d "{\"benchmark\":\"$b\",\"scenarios\":2,\"mc_trials\":50}" >/dev/null \
        || fail "mc estimate $b failed"
done
resid=$(metric "$ADDR" 'tsperrd_surrogate_residual_log10_count')
[ -n "$resid" ] && [ "$resid" -ge 3 ] || fail "expected >=3 shadow residuals, got '$resid'"
obs=$(metric "$ADDR" 'tsperrd_surrogate_observations_total')
[ "$obs" = 7 ] || fail "expected 7 observations after mc phase, got '$obs'"

# Phase 3 — serving plumbing: a novel request consults the trained gate; the
# response must declare its tier either way (serve or honest escalation), and
# the decision must show up in the hit/escalation counters.
serving=$(metric "$ADDR" 'tsperrd_surrogate_serving')
[ "$serving" = 1 ] || fail "serving gauge = '$serving', want 1"
body=$(curl -sf -X POST "http://$ADDR/v1/estimate" \
    -d '{"benchmark":"dijkstra","scenarios":4}') || fail "novel estimate failed"
echo "$body" | grep -q '"tier": *"' || fail "novel response missing tier field: $body"
hits=$(metric "$ADDR" 'tsperrd_surrogate_hits_total')
unc=$(metric "$ADDR" 'tsperrd_surrogate_escalations_total{reason="uncertain"}')
total=$((hits + unc + esc))
[ "$total" -ge 5 ] || fail "gate decisions unaccounted for (hits=$hits uncertain=$unc untrained=$esc)"

drain "$PID" daemon
echo "surrogate-smoke: OK (4 untrained escalations, $trainings training(s), $resid shadow residuals, tier field present; clean drain)"
