#!/usr/bin/env bash
# End-to-end CLI smoke for live ingest + standing queries: sharded
# ingest of a base video, serve it with the live poller and a durable
# registry, register a standing query over the wire, then `append` a
# streamed continuation and require the standing query to fire exactly
# on the new epoch — matches arrive once (watch), a second poll drains
# nothing, and after a server restart the registration is restored
# from the registry file without re-delivering old matches. A last
# stage serves the base epoch *without* the poller, appends twice behind
# it (the second append sweeps files the server's manifest still names)
# and requires the server's first query to be served from its store.
#
#   scripts/smoke_live.sh                       # uses target/release
#   SKETCHQL_CLI=target/debug/sketchql-cli scripts/smoke_live.sh
set -euo pipefail
cd "$(dirname "$0")/.."

CLI="${SKETCHQL_CLI:-target/release/sketchql-cli}"
ADDR="${SKETCHQL_SMOKE_ADDR:-127.0.0.1:17884}"
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

# start_serve <log> [serve flags...]; no flags = the live server.
start_serve() {
    local log="$1"
    shift
    if [ $# -eq 0 ]; then
        set -- --videos "traffic=$work/live.json" --store-dir "$work/stores" \
            --registry "$work/registry.json" --live-poll-ms 200
    fi
    "$CLI" serve --model "$work/model.json" --addr "$ADDR" --workers 2 --oracle-tracks "$@" \
        >"$log" 2>&1 &
    serve_pid=$!
    for _ in $(seq 1 50); do
        grep -q "serving on" "$log" 2>/dev/null && return 0
        kill -0 "$serve_pid" 2>/dev/null || { cat "$log" >&2; return 1; }
        sleep 0.1
    done
    echo "serve did not come up" >&2
    cat "$log" >&2
    return 1
}

stop_serve() {
    "$CLI" client --addr "$ADDR" --action shutdown >/dev/null
    for _ in $(seq 1 50); do
        kill -0 "$serve_pid" 2>/dev/null || { serve_pid=""; return 0; }
        sleep 0.1
    done
    echo "serve did not exit after wire shutdown" >&2
    return 1
}

echo "== live smoke: fixtures (base video + streamed continuation)"
"$CLI" generate --out "$work/base.json" --events 1 --distractors 2 --seed 3 >/dev/null
"$CLI" generate --out "$work/grown.json" --extend "$work/base.json" \
    --events 1 --distractors 2 --seed 9 >/dev/null
"$CLI" train --out "$work/model.json" --steps 20 >/dev/null
# The serve process reads the dataset's video from one path; start it
# at the base and grow the file in place right before `append`.
cp "$work/base.json" "$work/live.json"

echo "== live smoke: sharded ingest of the base (epoch 0)"
"$CLI" ingest --video "$work/base.json" --model "$work/model.json" \
    --dataset traffic --store-dir "$work/stores" --oracle-tracks \
    --shard-frames 64 --threads 2 --verify >/dev/null

echo "== live smoke: serve with live poller + durable registry"
start_serve "$work/serve1.log"
grep -q "live ingest poller" "$work/serve1.log" \
    || { echo "serve did not start the live poller" >&2; cat "$work/serve1.log" >&2; exit 1; }

echo "== live smoke: register a standing query over the wire"
"$CLI" register --addr "$ADDR" --dataset traffic --event left_turn \
    | tee "$work/register.out"
reg_id="$(awk '/^registered standing query/ { print $4 }' "$work/register.out")"
[ -n "$reg_id" ] || { echo "register printed no id" >&2; exit 1; }
[ -f "$work/registry.json" ] || { echo "registry file was not written" >&2; exit 1; }

# Before any append the queue is empty: one poll, no match lines.
"$CLI" watch --addr "$ADDR" --registration-id "$reg_id" --iterations 1 \
    > "$work/watch0.out"
if grep -Eq '^epoch +[0-9]+ +frames' "$work/watch0.out"; then
    echo "standing query fired before anything was appended" >&2
    cat "$work/watch0.out" >&2
    exit 1
fi

echo "== live smoke: append the continuation (epoch 1) under the live server"
cp "$work/grown.json" "$work/live.json"
"$CLI" append --video "$work/grown.json" --model "$work/model.json" \
    --dataset traffic --store-dir "$work/stores" --oracle-tracks \
    --threads 2 --verify | tee "$work/append.out"
grep -q "as epoch 1:" "$work/append.out" \
    || { echo "append did not commit epoch 1" >&2; exit 1; }

echo "== live smoke: the standing query fires exactly on the new epoch"
: > "$work/watch1.out"
for _ in $(seq 1 60); do
    "$CLI" watch --addr "$ADDR" --registration-id "$reg_id" --iterations 1 \
        >> "$work/watch1.out"
    grep -Eq '^epoch +[0-9]+ +frames' "$work/watch1.out" && break
    sleep 0.2
done
grep -Eq '^epoch +1 +frames' "$work/watch1.out" \
    || { echo "no epoch-1 match arrived" >&2; cat "$work/watch1.out" "$work/serve1.log" >&2; exit 1; }
if grep -Eq '^epoch +(0|[2-9][0-9]*) +frames' "$work/watch1.out"; then
    echo "matches attributed to an epoch other than the appended one" >&2
    cat "$work/watch1.out" >&2
    exit 1
fi
grep -q "live: traffic advanced to epoch 1" "$work/serve1.log" \
    || { echo "serve log missing the live reload line" >&2; cat "$work/serve1.log" >&2; exit 1; }

# Exactly-once: the queue drained above, so another poll is silent.
"$CLI" watch --addr "$ADDR" --registration-id "$reg_id" --iterations 1 \
    > "$work/watch2.out"
if grep -Eq '^epoch +[0-9]+ +frames' "$work/watch2.out"; then
    echo "matches were delivered twice" >&2
    cat "$work/watch2.out" >&2
    exit 1
fi

echo "== live smoke: restart — the registry restores the registration"
stop_serve
start_serve "$work/serve2.log"
"$CLI" watch --addr "$ADDR" --registration-id "$reg_id" --iterations 1 \
    > "$work/watch3.out" \
    || { echo "restored server does not know registration $reg_id" >&2; cat "$work/serve2.log" >&2; exit 1; }
if grep -Eq '^epoch +[0-9]+ +frames' "$work/watch3.out"; then
    echo "restart re-delivered already-seen matches" >&2
    cat "$work/watch3.out" >&2
    exit 1
fi
stop_serve

echo "== live smoke: a server without the poller keeps the epoch it attached"
# A fresh store at the base epoch, served as it is: no --live-poll-ms, so
# the server never reloads, and --nprobe above any list count, so its
# first query touches every shard — the tail shards included, whose
# epoch-0 files the second append below unlinks.
"$CLI" generate --out "$work/grown2.json" --extend "$work/grown.json" \
    --events 1 --distractors 2 --seed 11 >/dev/null
"$CLI" ingest --video "$work/base.json" --model "$work/model.json" \
    --dataset traffic --store-dir "$work/pinned" --oracle-tracks \
    --shard-frames 64 --threads 2 >/dev/null
start_serve "$work/serve3.log" --videos "traffic=$work/base.json" \
    --store-dir "$work/pinned" --nprobe 100000
for video in grown grown2; do
    "$CLI" append --video "$work/$video.json" --model "$work/model.json" \
        --dataset traffic --store-dir "$work/pinned" --oracle-tracks --threads 2 >/dev/null
done
"$CLI" client --addr "$ADDR" --action query --dataset traffic --event left_turn >/dev/null
"$CLI" client --addr "$ADDR" --action stats > "$work/stats.out"
if ! grep -Eq '^store hits +1$' "$work/stats.out" \
    || ! grep -Eq '^store fallbacks +0$' "$work/stats.out" \
    || grep -q "shard load failed" "$work/serve3.log"; then
    echo "a query on the attached epoch was not served from its store" >&2
    cat "$work/stats.out" "$work/serve3.log" >&2
    exit 1
fi
stop_serve

echo "ok: live smoke passed"
