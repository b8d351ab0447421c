#!/usr/bin/env bash
# Chaos smoke of the tsperrd cluster: one coordinator fanning Monte Carlo
# chunks across two workers, one of which is SIGKILLed mid-run. The estimate
# must still return a complete, non-degraded validation (every chunk executed
# exactly once — stolen back locally or by the surviving worker), its
# deterministic Monte Carlo section must be byte-identical to a single-node
# run of the same request, and the coordinator must still drain cleanly.
SMOKE_NAME=cluster-smoke
. "$(dirname "$0")/smoke-lib.sh"

BASE="${TSPERRD_CLUSTER_PORT:-18331}"
COORD="127.0.0.1:$BASE"
WORKER_A="127.0.0.1:$((BASE + 1))"
WORKER_B="127.0.0.1:$((BASE + 2))"

# Worker A first: it trains the model and populates the shared cache, so the
# other two nodes restore from disk instead of racing the training.
start_daemon worker-a "$WORKER_A" -role worker
disown "$DAEMON_PID"
wait_http "http://$WORKER_A/healthz" || fail "worker A never became healthy"

start_daemon worker-b "$WORKER_B" -role worker
WORKER_B_PID="$DAEMON_PID"
disown "$WORKER_B_PID"

start_daemon coord "$COORD" -role coordinator -peers "http://$WORKER_A,http://$WORKER_B"
COORD_PID="$DAEMON_PID"

wait_http "http://$WORKER_B/healthz" || fail "worker B never became healthy"
wait_http "http://$COORD/readyz" || fail "coordinator never became ready"

# Wait until the coordinator's probes have admitted both peers, so the run
# below actually fans out before the chaos starts.
peers=""
for _ in $(seq 1 50); do
    peers=$(curl -s "http://$COORD/readyz" | grep -c '"healthy": true' || true)
    [ "$peers" = 2 ] && break
    sleep 0.2
done
[ "$peers" = 2 ] || fail "coordinator sees $peers healthy peers, want 2"

# Reference: the same Monte Carlo request on a single node. Its "montecarlo"
# section is fully deterministic (trials, seed, moments, CDF distance), so
# the distributed run must reproduce it byte for byte.
REQ='{"benchmark":"typeset","scenarios":2,"mc_trials":5000}'
curl -sf -X POST "http://$WORKER_A/v1/estimate" -d "$REQ" \
    >"$WORKDIR/ref.json" || fail "single-node reference estimate failed"

# Distributed run, with worker B SIGKILLed mid-flight: its in-flight chunks
# must be stolen back and re-executed by the survivors.
curl -sf -X POST "http://$COORD/v1/estimate" -d "$REQ" \
    >"$WORKDIR/dist.json" &
CURL_PID="$!"
sleep 0.5
kill -9 "$WORKER_B_PID" 2>/dev/null || true
wait "$CURL_PID" || fail "distributed estimate failed after worker kill"

mc_section() { sed -n '/"montecarlo": {/,/}/p' "$1"; }
mc_section "$WORKDIR/dist.json" >"$WORKDIR/dist.mc"
mc_section "$WORKDIR/ref.json" >"$WORKDIR/ref.mc"
[ -s "$WORKDIR/dist.mc" ] || fail "distributed response carries no montecarlo section"
grep -q '"trials": 5000' "$WORKDIR/dist.mc" || fail "validation incomplete: $(cat "$WORKDIR/dist.mc")"
diff -u "$WORKDIR/ref.mc" "$WORKDIR/dist.mc" >/dev/null \
    || fail "distributed montecarlo section diverges from single-node run: $(diff "$WORKDIR/ref.mc" "$WORKDIR/dist.mc")"

# Every chunk was delivered exactly once, wherever it ran.
chunks=$(grep -o '"chunks": [0-9]*' "$WORKDIR/dist.mc" | awk '{print $2}')
remote=$(metric "$COORD" tsperrd_cluster_remote_chunks_total)
local_=$(metric "$COORD" tsperrd_cluster_local_chunks_total)
[ "$((remote + local_))" = "$chunks" ] \
    || fail "delivered chunks $remote remote + $local_ local != $chunks total"

drain "$COORD_PID" coord coordinator

echo "cluster-smoke: OK ($chunks chunks: $remote remote + $local_ local; worker killed mid-run; montecarlo section byte-identical to single-node)"
