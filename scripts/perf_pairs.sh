#!/usr/bin/env bash
# The ROADMAP's claim protocol for a performance change: perfbench on a
# parent commit and on this checkout, in alternating order, N pairs per
# workload, and per end-to-end metric the two medians, their ratio, the
# bound from BENCHMARK.json and a verdict.
#
#   scripts/perf_pairs.sh <parent-ref> [--ledger] [workload...]   # default: all four
#   SKETCHQL_PERF_PAIRS=10 scripts/perf_pairs.sh HEAD~1 sharded
#   scripts/perf_pairs.sh HEAD~1 --ledger scan     # ... and name the layer that moved
#
# The parent's committed files are unpacked (`git archive`) into
# target/perf_pairs/parent-<sha>/ and built there, so each side has its
# own target dir and nothing is registered in .git; the change is this
# working tree, committed or not. Pair i runs both sides on seed i; odd
# pairs run the parent first, even pairs the change. A run that exits
# non-zero (a failed operation or output check) stops the script.
#
# Verdicts: `improved` / `worse` = the medians differ by more than the
# metric's bound in that direction, otherwise `within bound` — or
# `unresolved` when the parent's own runs spread (`p.iqr` over their
# median) wider than the bound and the change did not win every pair:
# such a row cannot tell "unchanged" from "moved". `wins` is the number
# of pairs in which the change read better and `p.iqr` the distance
# between the quartiles of the parent's runs. A claim wants `improved`,
# wins in at least nine tenths of the pairs (ceil(0.9 n)), and medians
# further apart than `p.iqr`; the `claim` column reads `yes` exactly
# then. The script exits non-zero when any row reads `worse` or
# the change failed more operations than the parent on some workload.
#
# With `--ledger`, one `--trace 1` run per side and workload follows the
# pairs (seed 1, parent first) and a second table prints parent -> change
# -> ratio for every `per_layer` metric `BENCHMARK.json` declares that the
# workload reports, marking the rows that moved by more than 10% in either
# direction, under both sides' `bench.yardstick_slowdown` (the machine's
# speed during that run: a ledger row means little when the yardsticks
# differ by as much as the row does). One run a side is a pointer to the
# layer, not a measurement of it; the claim rests on the pairs.
#
# ~45 s per pair and workload (two 20 s runs plus set-up): about 15
# minutes for the default five pairs of all four workloads, and about 2
# minutes more per workload with `--ledger`. Not part of scripts/check.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
    echo "usage: scripts/perf_pairs.sh <parent-ref> [--ledger] [workload...]" >&2
    exit 2
fi
parent_ref="$1"
shift
ledger=0
workloads=()
for arg in "$@"; do
    if [ "$arg" = "--ledger" ]; then ledger=1; else workloads+=("$arg"); fi
done
if [ ${#workloads[@]} -eq 0 ]; then workloads=(scan sharded ingest live); fi
pairs="${SKETCHQL_PERF_PAIRS:-5}"

sha="$(git rev-parse --short "$parent_ref^{commit}")"
parent="target/perf_pairs/parent-$sha"
# A commit's files never change, so an earlier unpack (and its build) is reused.
if [ ! -d "$parent/perfbench" ]; then
    mkdir -p "$parent"
    git archive "$sha" | tar -x -C "$parent"
fi

bench=(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml --)
echo "== build perfbench: parent $sha, then this checkout" >&2
(cd "$parent" && cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml)
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml

samples="$(mktemp)"
layers="$(mktemp)"
trap 'rm -f "$samples" "$layers"' EXIT

# run_side <side> <dir> <workload> <pair>: one perfbench run, its METRIC
# lines and failed count appended to $samples as "side workload pair name value".
run_side() {
    local side="$1" dir="$2" workload="$3" pair="$4" out
    if ! out="$(cd "$dir" && "${bench[@]}" --workload "$workload" --seed "$pair" --trace 0 2>/dev/null)"; then
        echo "perfbench $workload (seed $pair) failed on the $side side; rerun it in $dir to see why" >&2
        exit 1
    fi
    awk -v side="$side" -v workload="$workload" -v pair="$pair" \
        '$1 == "METRIC" { print side, workload, pair, $2, $3 }' <<<"$out" >>"$samples"
    echo "$side $workload $pair failed $(tail -n 1 <<<"$out" | sed 's/.*"failed": \([0-9]*\).*/\1/')" >>"$samples"
}

# trace_side <side> <dir> <workload>: one traced run, every METRIC line
# appended to $layers as "side workload name value unit".
trace_side() {
    local side="$1" dir="$2" workload="$3" out
    if ! out="$(cd "$dir" && "${bench[@]}" --workload "$workload" --seed 1 --trace 1 2>/dev/null)"; then
        echo "perfbench $workload --trace 1 failed on the $side side; rerun it in $dir to see why" >&2
        exit 1
    fi
    awk -v side="$side" -v workload="$workload" \
        '$1 == "METRIC" { print side, workload, $2, $3, $4 }' <<<"$out" >>"$layers"
}

for workload in "${workloads[@]}"; do
    for pair in $(seq 1 "$pairs"); do
        echo "== $workload pair $pair/$pairs" >&2
        if [ $((pair % 2)) -eq 1 ]; then
            run_side parent "$parent" "$workload" "$pair"
            run_side change . "$workload" "$pair"
        else
            run_side change . "$workload" "$pair"
            run_side parent "$parent" "$workload" "$pair"
        fi
    done
done
if [ "$ledger" -eq 1 ]; then
    for workload in "${workloads[@]}"; do
        echo "== $workload ledger (--trace 1, one run a side)" >&2
        trace_side parent "$parent" "$workload"
        trace_side change . "$workload"
    done
fi

echo
echo "parent $sha vs this checkout, $pairs pairs per workload, $(nproc) cpus"
# Bounds: the end_to_end entries are the lines of BENCHMARK.json that
# carry a "bound".
awk '
function sort(arr, n,    i, j, t) {
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && arr[j - 1] > arr[j]; j--) { t = arr[j]; arr[j] = arr[j - 1]; arr[j - 1] = t }
}
# The q-quantile of sorted arr[1..n], interpolating between ranks.
function quantile(arr, n, q,    pos, lo) {
    pos = 1 + (n - 1) * q; lo = int(pos)
    return lo >= n ? arr[n] : arr[lo] + (pos - lo) * (arr[lo + 1] - arr[lo])
}
FNR == NR {
    if ($0 ~ /"bound"/) {
        name = $0; sub(/.*"name": *"/, "", name); sub(/".*/, "", name)
        better = $0; sub(/.*"better": *"/, "", better); sub(/".*/, "", better)
        bound = $0; sub(/.*"bound": */, "", bound); sub(/[^0-9.].*/, "", bound)
        metrics[++nmetrics] = name; lower[name] = (better == "lower"); bounds[name] = bound + 0
    }
    next
}
{
    if (!($2 in seen)) { seen[$2] = 1; workloads[++nworkloads] = $2 }
    value[$1, $2, $3, $4] = $5
    if ($3 > npairs[$2]) npairs[$2] = $3
}
END {
    printf "%-9s %-17s %12s %12s %8s %6s %10s %6s  %-12s  %s\n", "workload", "metric", "parent", "change", "ratio", "bound", "p.iqr", "wins", "verdict", "claim"
    for (w = 1; w <= nworkloads; w++) {
        wl = workloads[w]; n = npairs[wl]
        for (m = 1; m <= nmetrics; m++) {
            name = metrics[m]; wins = 0
            for (p = 1; p <= n; p++) {
                a[p] = value["parent", wl, p, name]; b[p] = value["change", wl, p, name]
                if (lower[name] ? b[p] < a[p] : b[p] > a[p]) wins++
            }
            sort(a, n); sort(b, n)
            pm = quantile(a, n, 0.5); cm = quantile(b, n, 0.5)
            iqr = quantile(a, n, 0.75) - quantile(a, n, 0.25)
            ratio = pm != 0 ? cm / pm : 0
            gain = lower[name] ? 1 - ratio : ratio - 1
            noisy = pm != 0 && iqr / pm > bounds[name] && wins < n
            verdict = gain > bounds[name] ? "improved" : (gain < -bounds[name] ? "worse" : (noisy ? "unresolved" : "within bound"))
            if (verdict == "worse") bad = 1
            # The claim rule above: improved, at least ceil(0.9 n) wins,
            # and medians further apart than the parent IQR.
            claim = (verdict == "improved" && wins * 10 >= 9 * n && (cm > pm ? cm - pm : pm - cm) > iqr) ? "yes" : "no"
            printf "%-9s %-17s %12.4g %12.4g %8.3f %6s %10.3g %4d/%d  %-12s  %s\n", wl, name, pm, cm, ratio, bounds[name], iqr, wins, n, verdict, claim
        }
        fp = 0; fc = 0
        for (p = 1; p <= n; p++) { fp += value["parent", wl, p, "failed"]; fc += value["change", wl, p, "failed"] }
        printf "%-9s %-17s %12d %12d\n", wl, "failed operations", fp, fc
        if (fc > fp) bad = 1
    }
    exit bad
}' BENCHMARK.json "$samples" || status=$?

if [ "$ledger" -eq 1 ]; then
    echo
    echo "per-layer ledger, one --trace 1 run a side on seed 1 (* = moved by more than 10%)"
    # The per_layer entries are the lines of BENCHMARK.json that carry a
    # "better" and no "bound"; a workload reports only some of them.
    awk '
    FNR == NR {
        if ($0 ~ /"better"/ && $0 !~ /"bound"/) {
            name = $0; sub(/.*"name": *"/, "", name); sub(/".*/, "", name)
            better = $0; sub(/.*"better": *"/, "", better); sub(/".*/, "", better)
            metrics[++nmetrics] = name; lower[name] = (better == "lower")
        }
        next
    }
    {
        if (!($2 in seen)) { seen[$2] = 1; workloads[++nworkloads] = $2 }
        value[$1, $2, $3] = $4; have[$1, $2, $3] = 1; unit[$3] = $5
    }
    END {
        for (w = 1; w <= nworkloads; w++) {
            wl = workloads[w]
            printf "%-9s bench.yardstick_slowdown: parent %.3f, change %.3f\n", wl, value["parent", wl, "bench.yardstick_slowdown"], value["change", wl, "bench.yardstick_slowdown"]
            printf "%-9s %-34s %12s %12s %8s  %s\n", "workload", "layer metric", "parent", "change", "ratio", "unit"
            for (m = 1; m <= nmetrics; m++) {
                name = metrics[m]
                if (!have["parent", wl, name] || !have["change", wl, name]) continue
                p = value["parent", wl, name]; c = value["change", wl, name]
                # A ratio needs two positive readings (a residual can be negative).
                if (p <= 0 || c <= 0) { ratio = "-"; mark = (p == c) ? "" : "* sign or zero" }
                else {
                    r = c / p; ratio = sprintf("%.3f", r); mark = ""
                    if (r > 1.1 || r < 0.9) mark = ((r < 1) == lower[name]) ? "* better" : "* worse"
                }
                printf "%-9s %-34s %12.4g %12.4g %8s  %-8s %s\n", wl, name, p, c, ratio, unit[name], mark
            }
        }
    }' BENCHMARK.json "$layers"
fi
exit "${status:-0}"
