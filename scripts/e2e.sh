#!/usr/bin/env bash
# End-to-end exercise of the abwd daemon: build it, boot it on a chain
# scenario with an on-disk cache spill and a query deadline, drive the
# HTTP API (network install, availability query, flow admission, stats),
# then SIGTERM it and assert a clean drain — exit 0, the shutdown line
# logged, and the cache directory flushed so the next boot warms from
# disk. Run from anywhere: make e2e, or ./scripts/e2e.sh.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
cachedir="$workdir/cache"
log="$workdir/abwd.log"
bin="$workdir/abwd"
pid=""
cleanup() {
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
        kill -9 "$pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
    echo "e2e: $*" >&2
    echo "---- abwd log ----" >&2
    cat "$log" >&2 || true
    exit 1
}

go build -o "$bin" ./cmd/abwd

"$bin" -addr 127.0.0.1:0 -cachedir "$cachedir" -querytimeout 30s -slowquery 10m >"$log" 2>&1 &
pid=$!

# The daemon announces its resolved address (port 0 picks a free one).
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^abwd listening on //p' "$log" | head -1)
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || fail "abwd died during startup"
    sleep 0.1
done
[ -n "$addr" ] || fail "abwd never announced its listen address"
base="http://$addr"

# Probes: alive as soon as the listener is up, not ready until a
# network is installed.
code=$(curl -sS -o /dev/null -w '%{http_code}' "$base/healthz")
[ "$code" = "200" ] || fail "healthz answered $code"
code=$(curl -sS -o /dev/null -w '%{http_code}' "$base/readyz")
[ "$code" = "503" ] || fail "readyz before install answered $code, want 503"

# Install a 5-node 100m chain (the server tests' fixture).
out=$(curl -sS -f -X PUT -d '{"nodes":[{"x":0,"y":0},{"x":100,"y":0},{"x":200,"y":0},{"x":300,"y":0},{"x":400,"y":0}]}' "$base/v1/network")
echo "$out" | grep -q '"installed":true' || fail "network install answered: $out"
code=$(curl -sS -o /dev/null -w '%{http_code}' "$base/readyz")
[ "$code" = "200" ] || fail "readyz after install answered $code, want 200"

# Availability query end to end (routing + enumeration + LP). This
# caches the three-link set family for the 0->3 path.
out=$(curl -sS -f -X POST -d '{"src":0,"dst":3}' "$base/v1/query")
echo "$out" | grep -q '"feasible":true' || fail "query answered: $out"

# Install a flow on that path (its availability check is an exact cache
# hit) and read it back.
out=$(curl -sS -f -X POST -d '{"src":0,"dst":3,"demandMbps":1}' "$base/v1/flows")
echo "$out" | grep -q '"admitted":true' || fail "admission answered: $out"
out=$(curl -sS -f "$base/v1/flows")
echo "$out" | grep -q '"id":1' || fail "flow listing answered: $out"

# Query one hop further: the enumeration universe (background flow plus
# the 0->4 path) grows the cached family by exactly one link, so this
# query must be served by the delta path (asserted on /v1/stats below).
out=$(curl -sS -f -X POST -d '{"src":0,"dst":4}' "$base/v1/query")
echo "$out" | grep -q '"feasible":true' || fail "grown query answered: $out"

# A traced query carries the per-stage block; the answer is unchanged.
out=$(curl -sS -f -X POST -d '{"src":0,"dst":4,"trace":true}' "$base/v1/query")
echo "$out" | grep -q '"feasible":true' || fail "traced query answered: $out"
echo "$out" | grep -q '"trace"' || fail "traced query carries no trace block: $out"

# Stats surface: cache on, the install->query->install->query sequence
# above took the delta path, cancellation counter present and untouched.
out=$(curl -sS -f "$base/v1/stats")
echo "$out" | grep -q '"cacheEnabled":true' || fail "stats answered: $out"
delta_hits=$(echo "$out" | sed -n 's/.*"deltaHits":\([0-9]*\).*/\1/p' | head -1)
[ -n "$delta_hits" ] && [ "$delta_hits" -gt 0 ] \
    || fail "stats deltaHits='$delta_hits', want > 0: $out"
echo "$out" | grep -q '"cancellations":0' || fail "stats missing cancellations: $out"
echo "$out" | grep -q '"metrics"' || fail "stats missing the metrics snapshot: $out"
stats_lookups=$(echo "$out" | sed -n 's/.*"lookups":\([0-9]*\).*/\1/p' | head -1)

# Prometheus exposition: the query-latency histogram must count exactly
# the query requests served (two plain, one traced), the delta outcome
# must be on the cache gauges, and the gauges must reconcile with the
# /v1/stats counters.
metrics=$(curl -sS -f "$base/metrics")
qcount=$(echo "$metrics" | sed -n 's/^abw_http_request_seconds_count{handler="query"} //p')
[ "$qcount" = "3" ] || fail "query histogram count is '$qcount', want 3"
echo "$metrics" | grep -q '^abw_http_requests_total{code="200",handler="query"} 3$' \
    || fail "query request counter off: $(echo "$metrics" | grep abw_http_requests_total)"
echo "$metrics" | grep -q '^abw_cache_delta_hits [1-9]' \
    || fail "delta hits not on /metrics: $(echo "$metrics" | grep abw_cache_delta)"
echo "$metrics" | grep -q '^abw_stage_seconds_count{stage="enumerate"} [1-9]' \
    || fail "no enumerate stage samples: $(echo "$metrics" | grep abw_stage_seconds_count)"
m_lookups=$(echo "$metrics" | sed -n 's/^abw_cache_lookups //p')
[ -n "$stats_lookups" ] && [ "$m_lookups" = "$stats_lookups" ] \
    || fail "abw_cache_lookups=$m_lookups does not reconcile with /v1/stats lookups=$stats_lookups"

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$pid"
status=0
wait "$pid" || status=$?
[ "$status" -eq 0 ] || fail "abwd exited $status after SIGTERM"
grep -q "draining" "$log" || fail "shutdown never logged the drain"
# The structured shutdown log reports the drain duration and the final
# flushed byte counts.
grep -q '"msg":"drained"' "$log" || fail "no structured drain-complete log line"
grep -q '"drainMs"' "$log" || fail "drain log missing drainMs"
grep -q '"msg":"shutdown complete"' "$log" || fail "no structured shutdown-complete log line"
grep -q '"diskBytes"' "$log" || fail "shutdown log missing diskBytes"
pid=""

# The drain must have flushed the set-family spill to disk.
files=$(find "$cachedir" -type f | wc -l)
[ "$files" -ge 1 ] || fail "cache dir empty after shutdown: nothing was flushed"

echo "e2e: OK ($files spill file(s) flushed)"
