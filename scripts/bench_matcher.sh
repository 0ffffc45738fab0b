#!/usr/bin/env bash
# Matcher hot-path check: runs the matcher bench and compares the
# multi-scale learned-similarity scan with the per-search embedding cache
# and batched encoder disabled ("uncached": one encoder forward per
# candidate) against the default cached+batched scan ("cached"). Writes
# the wall times and the ratio to BENCH_matcher.json and exits non-zero
# if it falls below $SKETCHQL_MATCHER_SPEEDUP_MIN (default 0.9).
#
# The bar was 3x while "uncached" ran every candidate through the
# autograd tape. Since PR 16 `TrajectoryEncoder::embed` is `embed_batch`
# of one — there is no tape inference path left to beat — so both scans
# run the same forward pass and the cached one keeps only its dedupe and
# batching edge (~1.1x). What is gated now is that the default path is
# not the slower one, with room for timing noise.
#
#   scripts/bench_matcher.sh                              # full samples
#   SKETCHQL_BENCH_QUICK=1 scripts/bench_matcher.sh       # fast smoke run
#
# The two scans return byte-identical moments (see
# crates/core/tests/embed_cache.rs); this script only checks the speed.
set -euo pipefail
cd "$(dirname "$0")/.."

MIN_SPEEDUP="${SKETCHQL_MATCHER_SPEEDUP_MIN:-0.9}"
OUT_JSON="${SKETCHQL_MATCHER_BENCH_JSON:-BENCH_matcher.json}"
log="$(mktemp)"
trap 'rm -f "$log"' EXIT

echo "== matcher bench (uncached vs cached+batched scan)"
cargo bench -p sketchql-bench --bench matcher -- matcher_embed_cache | tee "$log"

echo
awk -v min="$MIN_SPEEDUP" -v out="$OUT_JSON" -v quick="${SKETCHQL_BENCH_QUICK:-0}" '
    /^BENCH matcher_embed_cache\// && /median_ns=/ {
        id = $2
        sub(/^matcher_embed_cache\//, "", id)
        for (i = 3; i <= NF; i++)
            if ($i ~ /^median_ns=/) { sub(/^median_ns=/, "", $i); med[id] = $i }
    }
    END {
        if (!("uncached" in med) || !("cached" in med) || med["cached"] <= 0) {
            print "missing matcher_embed_cache/{uncached,cached} medians"
            exit 2
        }
        speedup = med["uncached"] / med["cached"]
        printf "before (uncached scan): %.1f ms\n", med["uncached"] / 1e6
        printf "after  (cached scan):   %.1f ms\n", med["cached"] / 1e6
        printf "speedup: %.2fx (bar: >=%sx)\n", speedup, min
        printf "{\n" \
               "  \"bench\": \"matcher_embed_cache\",\n" \
               "  \"quick\": %s,\n" \
               "  \"before_uncached_ns\": %.0f,\n" \
               "  \"after_cached_ns\": %.0f,\n" \
               "  \"speedup\": %.3f,\n" \
               "  \"min_speedup\": %s\n" \
               "}\n", (quick != 0) ? "true" : "false", \
               med["uncached"], med["cached"], speedup, min > out
        printf "wrote %s\n", out
        exit (speedup >= min + 0.0) ? 0 : 1
    }
' "$log"
