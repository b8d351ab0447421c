# Shared lifecycle for the tsperrd smoke scripts; source it, do not run it.
# Set SMOKE_NAME (the message prefix) first. Sourcing switches to the
# repository root, creates $WORKDIR with a cleanup trap that kills every
# daemon started via start_daemon, and builds $WORKDIR/tsperrd.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

WORKDIR="$(mktemp -d)"
PIDS=()
cleanup() {
    for p in "${PIDS[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

# fail MESSAGE: report, dump every daemon log (and the /metrics scrape of
# $SMOKE_METRICS_ADDR when set), and exit 1.
fail() {
    echo "$SMOKE_NAME: FAIL: $*" >&2
    local log
    for log in "$WORKDIR"/*.log; do
        [ -e "$log" ] || continue
        echo "--- $(basename "$log" .log) log ---" >&2
        cat "$log" >&2 || true
    done
    if [ -n "${SMOKE_METRICS_ADDR:-}" ]; then
        echo "--- metrics ---" >&2
        curl -s "http://$SMOKE_METRICS_ADDR/metrics" >&2 || true
    fi
    exit 1
}

# start_daemon LOG ADDR [FLAG...]: start tsperrd on ADDR with the shared
# model cache, logging to $WORKDIR/LOG.log; sets DAEMON_PID.
start_daemon() {
    local log="$1" addr="$2"
    shift 2
    "$WORKDIR/tsperrd" -listen "$addr" -model-cache-dir "$WORKDIR/cache" "$@" \
        >"$WORKDIR/$log.log" 2>&1 &
    DAEMON_PID=$!
    PIDS+=("$DAEMON_PID")
}

# wait_http URL [TRIES]: poll URL every 0.2 s until it answers 200; the last
# status code is left in HTTP_CODE.
wait_http() {
    local tries="${2:-150}"
    HTTP_CODE=""
    for _ in $(seq 1 "$tries"); do
        HTTP_CODE=$(curl -s -o /dev/null -w '%{http_code}' "$1" || true)
        [ "$HTTP_CODE" = 200 ] && return 0
        sleep 0.2
    done
    return 1
}

# metric ADDR PREFIX: print the value of the first /metrics line starting
# with PREFIX (a fixed string, so labeled series need no regex escaping).
metric() {
    # Buffer the scrape: awk's early exit would otherwise kill curl's pipe
    # and trip pipefail.
    local scrape
    scrape=$(curl -s "http://$1/metrics") || return 1
    awk -v p="$2" 'index($0, p) == 1 {print $2; exit}' <<<"$scrape"
}

# drain PID LOG [WHO]: SIGTERM a daemon and require a zero exit and the
# "drained cleanly" line in $WORKDIR/LOG.log.
drain() {
    local who="${3:-}"
    kill -TERM "$1"
    wait "$1" || fail "${who:-daemon} exited non-zero after SIGTERM"
    grep -q "drained cleanly" "$WORKDIR/$2.log" || fail "${who:+$who }missing clean-drain log line"
}

go build -o "$WORKDIR/tsperrd" ./cmd/tsperrd
