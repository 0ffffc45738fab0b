#!/usr/bin/env bash
# End-to-end tracing smoke: serve with the observability side channels
# on, run a query, and verify every output the tracing layer promises —
# the client-visible trace id, a flight-recorder span tree covering
# queue wait / embed / probe-or-scan / rank with the query's own counts
# under it, the Prometheus scrape
# endpoint (including the queue-wait and fused-batch-size series), and
# the slow-query log.
#
#   scripts/smoke_trace.sh                     # uses target/release
#   SKETCHQL_CLI=target/debug/sketchql-cli scripts/smoke_trace.sh
set -euo pipefail
cd "$(dirname "$0")/.."

CLI="${SKETCHQL_CLI:-target/release/sketchql-cli}"
ADDR="${SKETCHQL_TRACE_SMOKE_ADDR:-127.0.0.1:17879}"
METRICS_ADDR="${SKETCHQL_TRACE_SMOKE_METRICS_ADDR:-127.0.0.1:17989}"
METRICS_HOST="${METRICS_ADDR%:*}"
METRICS_PORT="${METRICS_ADDR##*:}"
if [ ! -x "$CLI" ]; then
    echo "missing $CLI (run cargo build --release first)" >&2
    exit 2
fi

work="$(mktemp -d)"
serve_pid=""
cleanup() {
    [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

echo "== trace smoke: fixtures"
"$CLI" generate --out "$work/video.json" --events 1 --distractors 2 --seed 3 >/dev/null
"$CLI" train --out "$work/model.json" --steps 20 >/dev/null

echo "== trace smoke: serve on $ADDR (metrics on $METRICS_ADDR)"
"$CLI" serve --model "$work/model.json" --videos "traffic=$work/video.json" \
    --addr "$ADDR" --workers 2 --oracle-tracks \
    --metrics-addr "$METRICS_ADDR" \
    --slow-query-ms 0 --slow-query-log "$work/slow.jsonl" \
    >"$work/serve.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 50); do
    grep -q "serving on" "$work/serve.log" 2>/dev/null && break
    kill -0 "$serve_pid" 2>/dev/null || { cat "$work/serve.log" >&2; exit 1; }
    sleep 0.1
done

echo "== trace smoke: query and capture the trace id"
"$CLI" client --addr "$ADDR" --action query \
    --dataset traffic --event left_turn --top-k 3 --deadline-ms 30000 \
    | tee "$work/query.out"
trace_id="$(sed -n 's/.*trace \([0-9a-f]\{12\}\)).*/\1/p' "$work/query.out")"
if [ -z "$trace_id" ]; then
    echo "query output did not include a trace id" >&2
    exit 1
fi

echo "== trace smoke: fetch the span tree for trace $trace_id"
"$CLI" client --addr "$ADDR" --action trace --trace-id "$trace_id" \
    | tee "$work/trace.out"
grep -q "trace $trace_id" "$work/trace.out" \
    || { echo "flight recorder did not return trace $trace_id" >&2; exit 1; }
for span in \
    sketchql.server.queue_wait \
    sketchql.server.execute \
    sketchql.matcher.search \
    sketchql.matcher.embed \
    sketchql.matcher.rank; do
    grep -q "$span" "$work/trace.out" \
        || { echo "span tree is missing $span" >&2; exit 1; }
done
# The dataset has no ingested store, so the scan stage must appear (a
# store-backed dataset would show sketchql.store.probe instead).
grep -Eq "sketchql\.(matcher\.scan|store\.probe)" "$work/trace.out" \
    || { echo "span tree has neither a scan nor a store probe stage" >&2; exit 1; }

# The trace carries its own counts: the counters this query moved.
grep -q "^  counts:" "$work/trace.out" \
    || { echo "trace output has no counts block" >&2; exit 1; }
for counter in \
    sketchql.matcher.windows_enumerated \
    sketchql.similarity.embeddings_computed; do
    n="$(awk -v name="$counter" '$1 == name { print $2 }' "$work/trace.out")"
    [ "${n:-0}" -gt 0 ] \
        || { echo "trace counts: expected positive $counter, got ${n:-none}" >&2; exit 1; }
done

echo "== trace smoke: scrape $METRICS_ADDR"
exec 3<>"/dev/tcp/$METRICS_HOST/$METRICS_PORT"
printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
cat <&3 >"$work/scrape.out"
exec 3<&- 3>&-
head -1 "$work/scrape.out" | grep -q "200 OK" \
    || { echo "scrape endpoint did not answer 200" >&2; head -5 "$work/scrape.out" >&2; exit 1; }
for series in \
    sketchql_server_queue_wait_ms_bucket \
    sketchql_server_fused_batch_size \
    sketchql_server_queue_depth \
    sketchql_server_queries_completed; do
    grep -q "$series" "$work/scrape.out" \
        || { echo "scrape output is missing $series" >&2; exit 1; }
done

echo "== trace smoke: slow-query log (threshold 0 logs every query)"
grep "$trace_id" "$work/slow.jsonl" | grep -q '"counts":{"sketchql' \
    || { echo "slow-query log has no line with counts for trace $trace_id" >&2; cat "$work/slow.jsonl" >&2; exit 1; }

"$CLI" client --addr "$ADDR" --action metrics | grep -q sketchql_server_requests \
    || { echo "wire metrics request failed" >&2; exit 1; }

"$CLI" client --addr "$ADDR" --action shutdown
for _ in $(seq 1 50); do
    kill -0 "$serve_pid" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$serve_pid" 2>/dev/null; then
    echo "serve did not exit after wire shutdown" >&2
    cat "$work/serve.log" >&2
    exit 1
fi
serve_pid=""

echo "ok: trace smoke passed"
