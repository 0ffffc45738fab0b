#!/usr/bin/env bash
# End-to-end CLI smoke for the query service: generate a small video,
# train a throwaway model, start `sketchql-cli serve`, and drive it with
# `sketchql-cli client` (ping, list, query, the same query again, stats,
# shutdown). Verifies the wire round trip, that a repeated scan is served
# from the index's embedding memo with byte-identical moments, and the
# graceful drain from the shipped binary, not just from the crate's
# integration tests.
#
#   scripts/smoke_server.sh                     # uses target/release
#   SKETCHQL_CLI=target/debug/sketchql-cli scripts/smoke_server.sh
set -euo pipefail
cd "$(dirname "$0")/.."

CLI="${SKETCHQL_CLI:-target/release/sketchql-cli}"
ADDR="${SKETCHQL_SMOKE_ADDR:-127.0.0.1:17878}"
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

echo "== server smoke: fixtures"
"$CLI" generate --out "$work/video.json" --events 1 --distractors 2 --seed 3 >/dev/null
"$CLI" train --out "$work/model.json" --steps 20 >/dev/null

echo "== server smoke: serve on $ADDR"
"$CLI" serve --model "$work/model.json" --videos "traffic=$work/video.json" \
    --addr "$ADDR" --workers 2 --oracle-tracks >"$work/serve.log" 2>&1 &
serve_pid=$!

# Wait for the listener to come up (the serve log announces it).
for _ in $(seq 1 50); do
    grep -q "serving on" "$work/serve.log" 2>/dev/null && break
    kill -0 "$serve_pid" 2>/dev/null || { cat "$work/serve.log" >&2; exit 1; }
    sleep 0.1
done

echo "== server smoke: client round trip"
"$CLI" client --addr "$ADDR" --action ping
"$CLI" client --addr "$ADDR" --action list
"$CLI" client --addr "$ADDR" --action query \
    --dataset traffic --event left_turn --top-k 3 --deadline-ms 30000 \
    | tee "$work/query.out"
grep -q "^1 " "$work/query.out" || { echo "query returned no moments" >&2; exit 1; }

echo "== server smoke: the same sketch again costs look-ups, not encoder passes"
# The dataset's index remembers the segment embeddings of the scans it
# served: the first trace pays one encoder row per candidate segment,
# the second finds every one of them and pays none (its one embedding
# is the sketch itself) — and the moments are the same bytes.
"$CLI" client --addr "$ADDR" --action query \
    --dataset traffic --event left_turn --top-k 3 --deadline-ms 30000 >"$work/again.out"
trace_of() { grep -o 'trace [0-9a-f]\{12\}' "$1" | cut -d' ' -f2; }
count_of() { awk -v name="$2" '$1 == name { print $2 }' "$1"; }
"$CLI" client --addr "$ADDR" --action trace --trace-id "$(trace_of "$work/query.out")" >"$work/cold.trace"
"$CLI" client --addr "$ADDR" --action trace --trace-id "$(trace_of "$work/again.out")" | tee "$work/warm.trace"
segments="$(count_of "$work/cold.trace" sketchql.matcher.embed_cache_misses)"
[ "${segments:-0}" -gt 0 ] || { echo "the first scan embedded no segment" >&2; cat "$work/cold.trace" >&2; exit 1; }
[ -z "$(count_of "$work/warm.trace" sketchql.matcher.embed_cache_misses)" ] \
    && [ "$(count_of "$work/warm.trace" sketchql.matcher.embed_cache_hits)" = "$segments" ] \
    && [ "$(count_of "$work/warm.trace" sketchql.similarity.embeddings_computed)" = 1 ] \
    || { echo "the second scan paid encoder rows (first: $segments segments)" >&2; exit 1; }
cmp <(tail -n +2 "$work/query.out") <(tail -n +2 "$work/again.out") \
    || { echo "the warm scan's moments differ from the cold scan's" >&2; exit 1; }
"$CLI" client --addr "$ADDR" --action stats
"$CLI" client --addr "$ADDR" --action shutdown

# The serve process must drain and exit on its own after the wire shutdown.
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
grep -q "server stopped" "$work/serve.log" || { cat "$work/serve.log" >&2; exit 1; }

echo "ok: server smoke passed"
