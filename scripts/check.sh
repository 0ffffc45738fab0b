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

echo "== rustdoc: RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
# Broken, ambiguous or private intra-doc links fail here, including
# links to items a change deleted.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== tier-1 verify: cargo build --release && cargo test -q (whole workspace)"
cargo build --release
cargo test -q

echo "== release lane: the bit-pinned tests under the optimiser"
# The kernel differential tests, the cosine bit pins, model_bits.rs,
# the pinned step-gradient hashes (training.rs) and the encoder's
# finite-difference checks (modules.rs, loss.rs) hold arithmetic the
# optimiser may reorder; tier-1 builds tests in debug only, so run the
# two crates that own them again in release. The memo-vs-direct
# referee (tests/embed_cache.rs) lives in the root package; the memo's
# window key relies on it, so it runs under the optimiser too, as does
# the JSON codec's golden-bytes referee (tests/wire_golden.rs): number
# formatting is the codec's arithmetic.
cargo test --release -q -p sketchql-nn -p sketchql
cargo test --release -q -p sketchql-suite --test embed_cache --test wire_golden

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

echo "== frozen benchmark: its own tests (schema, same seed -> same hash)"
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "== server smoke (CLI serve/client round trip)"
scripts/smoke_server.sh

echo "== trace smoke (trace id -> span tree -> scrape -> slow log)"
scripts/smoke_trace.sh

echo "== profile smoke (folded traces -> resource waterfall -> top -> rotation)"
scripts/smoke_profile.sh

echo "== store smoke (ingest, sharded and one-shard -> restart -> byte-identical query -> serve)"
scripts/smoke_shard.sh

echo "== live smoke (append -> standing query fires on the new epoch -> restart)"
scripts/smoke_live.sh

echo "== non-test lines per crate (printed for the change's report; no threshold)"
scripts/loc.sh

echo "ok: all checks passed"
