#!/usr/bin/env bash
# Profiling + resource-attribution smoke: serve, drive real queries, and
# verify the observability surfaces — the profile folded from the flight
# recorder's traces naming the execution stages, the resource line on
# the trace waterfall, per-dataset stats, and the rotating slow-query
# log.
#
#   scripts/smoke_profile.sh                     # uses target/release
#   SKETCHQL_CLI=target/debug/sketchql-cli scripts/smoke_profile.sh
set -euo pipefail
cd "$(dirname "$0")/.."

CLI="${SKETCHQL_CLI:-target/release/sketchql-cli}"
ADDR="${SKETCHQL_PROFILE_SMOKE_ADDR:-127.0.0.1:17883}"
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

echo "== profile smoke: fixtures"
"$CLI" generate --out "$work/video.json" --events 1 --distractors 2 --seed 5 >/dev/null
"$CLI" train --out "$work/model.json" --steps 20 >/dev/null

echo "== profile smoke: serve on $ADDR (64-trace flight recorder, capped slow log)"
"$CLI" serve --model "$work/model.json" --videos "traffic=$work/video.json" \
    --addr "$ADDR" --workers 2 --oracle-tracks \
    --flight-traces 64 \
    --slow-query-ms 0 --slow-query-log "$work/slow.jsonl" \
    --slow-query-log-max-bytes 2000 \
    >"$work/serve.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 50); do
    grep -q "serving on" "$work/serve.log" 2>/dev/null && break
    kill -0 "$serve_pid" 2>/dev/null || { cat "$work/serve.log" >&2; exit 1; }
    sleep 0.1
done
grep -q "flight recorder: keeping the last 64 traces" "$work/serve.log" \
    || { echo "serve did not apply --flight-traces" >&2; cat "$work/serve.log" >&2; exit 1; }

echo "== profile smoke: drive queries so the recorder holds real stages"
for i in 1 2 3 4 5 6; do
    "$CLI" client --addr "$ADDR" --action query \
        --dataset traffic --event left_turn --top-k 3 --deadline-ms 30000 \
        >"$work/query.out" 2>&1
done
trace_id="$(sed -n 's/.*trace \([0-9a-f]\{12\}\)).*/\1/p' "$work/query.out")"

echo "== profile smoke: folded traces name matcher stages"
"$CLI" client --addr "$ADDR" --action profile >"$work/profile.folded" 2>"$work/profile.err"
[ -s "$work/profile.folded" ] \
    || { echo "folded profile came back empty" >&2; cat "$work/profile.err" >&2; exit 1; }
grep -Eq "sketchql\.(matcher\.(search|scan|embed)|store\.probe)" "$work/profile.folded" \
    || { echo "folded stacks name no matcher/store stage:" >&2; cat "$work/profile.folded" >&2; exit 1; }
# Folded lines are flamegraph input: "dataset;span;...;span <self nanos>".
grep -Eq '^[^ ]+(;[^ ]+)* [0-9]+$' "$work/profile.folded" \
    || { echo "folded output is not flamegraph-shaped" >&2; cat "$work/profile.folded" >&2; exit 1; }

echo "== profile smoke: trace waterfall carries the resource line"
"$CLI" client --addr "$ADDR" --action trace --trace-id "$trace_id" >"$work/trace.out"
grep -Eq "cpu [0-9.]+ ms  allocated .* in [0-9]+ allocations" "$work/trace.out" \
    || { echo "waterfall is missing the attributed-resource line" >&2; cat "$work/trace.out" >&2; exit 1; }

echo "== profile smoke: per-dataset stats and one top iteration"
"$CLI" client --addr "$ADDR" --action stats >"$work/stats.out"
grep -q "completed" "$work/stats.out" \
    || { echo "stats request failed" >&2; exit 1; }
"$CLI" client --addr "$ADDR" --action top --interval-ms 200 --iterations 1 >"$work/top.out"
grep -q "^traffic" "$work/top.out" \
    || { echo "top view is missing the per-dataset row" >&2; cat "$work/top.out" >&2; exit 1; }

echo "== profile smoke: slow log rotated at the byte cap"
[ -f "$work/slow.jsonl.1" ] \
    || { echo "capped slow log never rotated" >&2; ls -l "$work" >&2; exit 1; }
live_bytes="$(wc -c <"$work/slow.jsonl")"
if [ "$live_bytes" -gt 4000 ]; then
    echo "live slow log exceeds the cap ($live_bytes bytes)" >&2
    exit 1
fi

"$CLI" client --addr "$ADDR" --action shutdown >/dev/null
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

echo "ok: profile smoke passed"
