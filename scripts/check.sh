#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, and the tier-1 verify.
#
#   scripts/check.sh
#
# Run before sending a change. Mirrors what CI would run; everything is
# offline (the workspace vendors its dependencies under compat/).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== feature check: telemetry disabled still builds and tests"
# This runs BEFORE the tier-1 build: both build --release into the same
# target dir, and the smokes below need the default-features binary
# (flight recorder, slow log, scrape) to be the one left on disk.
cargo build --release --no-default-features
cargo test -q --no-default-features

echo "== tier-1 verify: cargo build --release && cargo test -q (whole workspace)"
cargo build --release
cargo test -q

echo "== frozen benchmark: perfbench builds untouched and every workload passes its output checks"
# perfbench/ pins public API names and compares served replies against
# direct Matcher calls; a failed check is a `FAILED:` line on stderr.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
for workload in scan sharded ingest live; do
    if ! err=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --quick --trace 0 --seed 1 2>&1 >/dev/null) \
        || grep -q 'FAILED:' <<<"$err"; then
        echo "$err" >&2
        echo "perfbench $workload: non-zero exit or a failed output check" >&2
        exit 1
    fi
done

echo "== server smoke (CLI serve/client round trip)"
scripts/smoke_server.sh

echo "== trace smoke (trace id -> span tree -> scrape -> slow log)"
scripts/smoke_trace.sh

echo "== profile smoke (folded stacks -> resource waterfall -> top -> rotation)"
scripts/smoke_profile.sh

echo "== server throughput smoke (quick load)"
# The quick load is small and noisy, so the smoke bar is looser than the
# full bench's 3x acceptance bar (run scripts/bench_server.sh for that),
# and the result goes to target/ so the committed full-run JSON survives.
SKETCHQL_BENCH_QUICK=1 SKETCHQL_SERVER_SPEEDUP_MIN=2 \
    SKETCHQL_SERVER_BENCH_JSON=target/BENCH_server_smoke.json \
    scripts/bench_server.sh

echo "== scheduler smoke (FIFO vs deadline policy, quick mixed load)"
# The quick run has few interactive samples, so the smoke p99 bar is
# looser than the full bench's 2x acceptance bar (run
# scripts/bench_sched.sh for that), and the result goes to target/ so
# the committed full-run JSON survives.
SKETCHQL_BENCH_QUICK=1 SKETCHQL_SCHED_P99_MIN=1.5 SKETCHQL_SCHED_TPUT_MIN=0.8 \
    SKETCHQL_SCHED_BENCH_JSON=target/BENCH_sched_smoke.json \
    scripts/bench_sched.sh

echo "== store smoke (ingest, sharded and one-shard -> restart -> byte-identical query -> serve)"
scripts/smoke_shard.sh

echo "== shard attach + ingest + recall smoke (quick samples)"
# Recall against the scan and the attach fraction are deterministic, so
# those bars stay at the real acceptance values even in quick mode; the
# parallel ingest bar self-adjusts to the machine (see bench_shard.sh).
SKETCHQL_BENCH_QUICK=1 \
    SKETCHQL_SHARD_BENCH_JSON=target/BENCH_shard_smoke.json \
    scripts/bench_shard.sh

echo "== live smoke (append -> standing query fires on the new epoch -> restart)"
scripts/smoke_live.sh

echo "== live append cost + equivalence smoke (quick samples)"
# Quick mode appends a much larger fraction of the video (~30% vs the
# full bench's ~10%), so the time bar is proportionally looser (run
# scripts/bench_live.sh for the real 0.20 bar); equivalence checks stay
# exact because they are deterministic.
SKETCHQL_BENCH_QUICK=1 SKETCHQL_LIVE_APPEND_FRAC=0.6 \
    SKETCHQL_LIVE_BENCH_JSON=target/BENCH_live_smoke.json \
    scripts/bench_live.sh

echo "== matcher cached-vs-uncached smoke (quick samples)"
# 3 quick samples are noisy, so the smoke bar is looser than the full
# bench's 0.9x no-regression bar (run scripts/bench_matcher.sh for that),
# and the result goes to target/ so the committed full-run JSON survives.
SKETCHQL_BENCH_QUICK=1 SKETCHQL_MATCHER_SPEEDUP_MIN=0.8 \
    SKETCHQL_MATCHER_BENCH_JSON=target/BENCH_matcher_smoke.json \
    scripts/bench_matcher.sh

echo "ok: all checks passed"
