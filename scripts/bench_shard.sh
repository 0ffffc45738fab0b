#!/usr/bin/env bash
# Shard-set gates: runs the shard bench, which ingests a fixture video
# into a shard set, asserts bit-identical results between the scan and
# the store path, and prints attach and ingest timings. This script
# gates the numbers:
#
#   (a) store recall@10 against the scan == 1.0 (exhaustive probe)
#   (b) cold attach <= $SKETCHQL_SHARD_ATTACH_FRAC_MAX of attach + a
#       full `ShardSet::verify` — every payload mapped and checksummed,
#       what an eager attach would cost (default 0.25: an eager attach
#       reads ~1.0, a lazy one 0.05-0.12 on these small fixtures, where
#       the fixed manifest parse is a visible share of either side)
#   (c) parallel ingest >= $SKETCHQL_SHARD_INGEST_SPEEDUP_MIN x the
#       single-thread ingest; by default max(1.2, 0.5 x min(cpus,
#       threads)) — half of linear, because enumeration, quantizer
#       training and shard writes stay serial (two cores measure
#       1.3-1.9x). On a single-CPU host extra workers cannot beat one, so
#       the gate degrades to a no-regression check (multi <= single /
#       $SKETCHQL_SHARD_INGEST_NOREG, default 0.8).
#
# Writes BENCH_shard.json.
#
#   scripts/bench_shard.sh                              # full samples
#   SKETCHQL_BENCH_QUICK=1 scripts/bench_shard.sh       # fast smoke run
set -euo pipefail
cd "$(dirname "$0")/.."

ATTACH_FRAC_MAX="${SKETCHQL_SHARD_ATTACH_FRAC_MAX:-0.25}"
INGEST_SPEEDUP_MIN="${SKETCHQL_SHARD_INGEST_SPEEDUP_MIN:-}"
INGEST_NOREG="${SKETCHQL_SHARD_INGEST_NOREG:-0.8}"
OUT_JSON="${SKETCHQL_SHARD_BENCH_JSON:-BENCH_shard.json}"
log="$(mktemp)"
trap 'rm -f "$log"' EXIT

echo "== shard bench (cold attach, parallel ingest, recall parity)"
cargo bench -p sketchql-bench --bench shard -- shard_attach | tee "$log"

echo
awk -v fracmax="$ATTACH_FRAC_MAX" -v speedmin="$INGEST_SPEEDUP_MIN" \
    -v noreg="$INGEST_NOREG" -v out="$OUT_JSON" \
    -v quick="${SKETCHQL_BENCH_QUICK:-0}" '
    /^BENCH shard_attach\// && /median_ns=/ {
        id = $2
        sub(/^shard_attach\//, "", id)
        for (i = 3; i <= NF; i++)
            if ($i ~ /^median_ns=/) { sub(/^median_ns=/, "", $i); med[id] = $i }
    }
    /^SHARD shard_recall/ {
        for (i = 3; i <= NF; i++) {
            if ($i ~ /^sharded_recall_at_10=/) { sub(/^sharded_recall_at_10=/, "", $i); srec = $i }
            if ($i ~ /^shards=/)               { sub(/^shards=/, "", $i); shards = $i }
        }
    }
    /^SHARD shard_ingest/ {
        for (i = 3; i <= NF; i++) {
            if ($i ~ /^single_thread_ns=/) { sub(/^single_thread_ns=/, "", $i); single = $i }
            if ($i ~ /^multi_thread_ns=/)  { sub(/^multi_thread_ns=/, "", $i); multi = $i }
            if ($i ~ /^threads=/)          { sub(/^threads=/, "", $i); threads = $i }
            if ($i ~ /^cpus=/)             { sub(/^cpus=/, "", $i); cpus = $i }
        }
    }
    END {
        if (!("attach_sharded" in med) || !("attach_and_verify" in med) || med["attach_and_verify"] <= 0) {
            print "missing shard_attach/{attach_sharded,attach_and_verify} medians"
            exit 2
        }
        if (srec == "") { print "missing SHARD shard_recall line"; exit 2 }
        if (single == "" || multi == "" || multi <= 0) { print "missing SHARD shard_ingest line"; exit 2 }
        if (speedmin == "") {
            workers = (threads + 0 < cpus + 0) ? threads + 0 : cpus + 0
            speedmin = (0.5 * workers > 1.2) ? 0.5 * workers : 1.2
        }
        frac = med["attach_sharded"] / med["attach_and_verify"]
        ingest_speedup = single / multi
        printf "attach (cold): %.2f ms\n", med["attach_sharded"] / 1e6
        printf "attach + full verify: %.2f ms\n", med["attach_and_verify"] / 1e6
        printf "attach fraction: %.4f (bar: <=%s)\n", frac, fracmax
        printf "recall@10 against the scan: %.3f over %s shards (bar: 1.000)\n", srec, shards
        if (cpus + 0 >= 2)
            printf "ingest speedup: %.2fx on %s cpus (bar: >=%sx)\n", ingest_speedup, cpus, speedmin
        else
            printf "ingest speedup: %.2fx on %s cpu (single-CPU host; bar: >=%s no-regression)\n", ingest_speedup, cpus, noreg
        printf "{\n" \
               "  \"bench\": \"shard\",\n" \
               "  \"quick\": %s,\n" \
               "  \"attach_sharded_ns\": %.0f,\n" \
               "  \"attach_and_verify_ns\": %.0f,\n" \
               "  \"attach_fraction\": %.5f,\n" \
               "  \"max_attach_fraction\": %s,\n" \
               "  \"sharded_recall_at_10\": %s,\n" \
               "  \"ingest_single_thread_ns\": %.0f,\n" \
               "  \"ingest_multi_thread_ns\": %.0f,\n" \
               "  \"ingest_speedup\": %.3f,\n" \
               "  \"cpus\": %s\n" \
               "}\n", (quick != 0) ? "true" : "false", \
               med["attach_sharded"], med["attach_and_verify"], frac, fracmax, \
               srec, single, multi, ingest_speedup, cpus > out
        printf "wrote %s\n", out
        ok_recall = (srec + 0.0 == 1.0)
        ok_attach = (frac <= fracmax + 0.0)
        if (cpus + 0 >= 2)
            ok_ingest = (ingest_speedup >= speedmin + 0.0)
        else
            ok_ingest = (ingest_speedup >= noreg + 0.0)
        if (!ok_recall) print "FAIL: store recall@10 against the scan is below 1.0"
        if (!ok_attach) print "FAIL: cold attach exceeds the fraction bar"
        if (!ok_ingest) print "FAIL: parallel ingest too slow"
        exit (ok_recall && ok_attach && ok_ingest) ? 0 : 1
    }
' "$log"
