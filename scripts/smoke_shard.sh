#!/usr/bin/env bash
# End-to-end CLI smoke for the embedding store: generate a video, train
# a throwaway model, `ingest` it twice — `--shard-frames 64` into a
# many-shard set (with --verify re-checking every checksum) and with no
# flag into a one-shard set — then "restart": answer the same query from
# each set on disk and from a plain scan, and require byte-identical
# output. Finally serve each store directory and round-trip a query over
# the wire, proving the ingest → restart → serve path needs no
# re-embedding (and no shard payload reads) at startup.
#
#   scripts/smoke_shard.sh                      # uses target/release
#   SKETCHQL_CLI=target/debug/sketchql-cli scripts/smoke_shard.sh
set -euo pipefail
cd "$(dirname "$0")/.."

CLI="${SKETCHQL_CLI:-target/release/sketchql-cli}"
ADDR="${SKETCHQL_SMOKE_ADDR:-127.0.0.1:17881}"
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

# Restart from disk: the query answered from the store under $1 must
# match the plain scan byte for byte.
query_matches_scan() {
    "$CLI" query --video "$work/video.json" --model "$work/model.json" \
        --event left_turn --oracle-tracks --store-dir "$1" \
        | tee "$work/stored.out"
    grep -q "store: index-backed" "$work/stored.out" \
        || { echo "query did not use the store under $1" >&2; exit 1; }
    # Same ranked moments, same printed scores: compare the result tables
    # (strip the store/progress banner lines, which legitimately differ).
    grep -E "^[0-9]+ " "$work/stored.out" > "$work/stored.rows" || true
    [ -s "$work/stored.rows" ] || { echo "stored query returned no moments" >&2; exit 1; }
    diff -u "$work/scan.rows" "$work/stored.rows" \
        || { echo "stored results differ from the scan" >&2; exit 1; }
}

# Serves the store directory $1 and round-trips a query over the wire.
serve_round_trip() {
    "$CLI" serve --model "$work/model.json" --videos "traffic=$work/video.json" \
        --store-dir "$1" --addr "$ADDR" --workers 2 --oracle-tracks \
        >"$work/serve.log" 2>&1 &
    serve_pid=$!
    for _ in $(seq 1 50); do
        grep -q "serving on" "$work/serve.log" 2>/dev/null && break
        kill -0 "$serve_pid" 2>/dev/null || { cat "$work/serve.log" >&2; exit 1; }
        sleep 0.1
    done
    grep -q 'store: dataset "traffic" is index-backed' "$work/serve.log" \
        || { echo "serve did not attach the store" >&2; cat "$work/serve.log" >&2; exit 1; }
    grep -q "payloads load lazily" "$work/serve.log" \
        || { echo "serve did not report lazy attach" >&2; cat "$work/serve.log" >&2; exit 1; }

    # Startup must validate manifests and headers only — payloads and
    # their checksums are deferred to the first probe. The serve banner
    # reports the attach wall time; gate it so an accidental eager full
    # load fails the smoke.
    attach_ms="$(sed -n 's/^store: attached .* in \([0-9.]*\) ms.*/\1/p' "$work/serve.log")"
    [ -n "$attach_ms" ] || { echo "serve did not report store attach time" >&2; cat "$work/serve.log" >&2; exit 1; }
    max_ms="${SKETCHQL_STORE_ATTACH_MS_MAX:-1500}"
    awk -v got="$attach_ms" -v max="$max_ms" 'BEGIN { exit (got + 0 <= max + 0) ? 0 : 1 }' \
        || { echo "store attach took ${attach_ms} ms (bar: <=${max_ms} ms); startup is not header-only" >&2; exit 1; }
    echo "store attach: ${attach_ms} ms (bar: <=${max_ms} ms)"

    "$CLI" client --addr "$ADDR" --action list | tee "$work/list.out"
    grep -q "store" "$work/list.out" || { echo "dataset not listed as store-backed" >&2; exit 1; }
    "$CLI" client --addr "$ADDR" --action query \
        --dataset traffic --event left_turn --top-k 3 --deadline-ms 30000 \
        | tee "$work/query.out"
    grep -q "^1 " "$work/query.out" || { echo "query returned no moments" >&2; exit 1; }
    # The query's own trace says it was served by the store.
    trace_id="$(sed -n 's/.*trace \([0-9a-f]\{12\}\)).*/\1/p' "$work/query.out")"
    "$CLI" client --addr "$ADDR" --action trace --trace-id "$trace_id" | tee "$work/trace.out"
    grep -q "^    sketchql.store.hits 1$" "$work/trace.out" \
        || { echo "served query's trace does not read sketchql.store.hits 1" >&2; exit 1; }
    "$CLI" client --addr "$ADDR" --action stats | tee "$work/stats.out"
    hits="$(awk '/^store hits/ { print $3 }' "$work/stats.out")"
    [ "${hits:-0}" -ge 1 ] || { echo "expected >=1 store hit, got ${hits:-none}" >&2; exit 1; }
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
}

echo "== shard smoke: fixtures"
"$CLI" generate --out "$work/video.json" --events 1 --distractors 2 --seed 3 >/dev/null
"$CLI" train --out "$work/model.json" --steps 20 >/dev/null
"$CLI" query --video "$work/video.json" --model "$work/model.json" \
    --event left_turn --oracle-tracks \
    | tee "$work/scan.out"
grep -E "^[0-9]+ " "$work/scan.out" > "$work/scan.rows" || true

echo "== shard smoke: parallel sharded ingest with --verify"
"$CLI" ingest --video "$work/video.json" --model "$work/model.json" \
    --dataset traffic --store-dir "$work/stores" --oracle-tracks \
    --shard-frames 64 --threads 2 --verify \
    | tee "$work/ingest.out"
grep -q "wrote store" "$work/ingest.out" || { echo "sharded ingest wrote nothing" >&2; exit 1; }
grep -q "progress:" "$work/ingest.out" || { echo "ingest printed no progress" >&2; exit 1; }
grep -q "verify: manifest" "$work/ingest.out" || { echo "--verify did not run" >&2; exit 1; }
ls "$work/stores/"*.skset/manifest.json >/dev/null
[ "$(ls "$work/stores/"*.skset/*.skshard | wc -l)" -gt 1 ] \
    || { echo "--shard-frames 64 did not split the video" >&2; exit 1; }

echo "== shard smoke: ingest without --shard-frames writes a one-shard set"
"$CLI" ingest --video "$work/video.json" --model "$work/model.json" \
    --dataset traffic --store-dir "$work/stores-one" --oracle-tracks \
    | tee "$work/ingest-one.out"
grep -q "wrote store" "$work/ingest-one.out" || { echo "ingest wrote nothing" >&2; exit 1; }
[ "$(ls "$work/stores-one/"*.skset/*.skshard | wc -l)" -eq 1 ] \
    || { echo "default ingest did not write exactly one shard" >&2; exit 1; }

for dir in "$work/stores" "$work/stores-one"; do
    echo "== shard smoke: restart — answers from $dir match the plain scan byte for byte"
    query_matches_scan "$dir"
    echo "== shard smoke: serve --store-dir $dir on $ADDR (lazy attach), wire round trip"
    serve_round_trip "$dir"
done

echo "ok: shard smoke passed"
