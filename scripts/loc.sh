#!/usr/bin/env bash
# Non-test line counter: the one figure a simplicity change reports.
#
#   scripts/loc.sh            # the working tree
#   scripts/loc.sh <rev>      # a commit, unpacked with `git archive`
#
# Counts every line of each `.rs` file under `crates/*/src`, `src` (the
# root package: its library and binaries) and `examples`, up to the
# column-0 `#[cfg(test)]` whose item (after any other attributes) is a
# `mod` — a file's test module. A `#[cfg(test)]` on anything else (a
# `use`, a helper fn) does not end the count. Prints one row per crate,
# one for `src`, one for `examples`, and the total.
set -euo pipefail
cd "$(dirname "$0")/.."

root=.
if [[ $# -gt 0 ]]; then
    root=$(mktemp -d)
    trap 'rm -rf "$root"' EXIT
    git archive "$1" -- crates src examples | tar -x -C "$root"
fi

count() {
    # Lines before the test module (or all of them when there is none).
    awk '
        { line[NR] = $0 }
        END {
            n = NR
            for (i = 1; i <= NR; i++) {
                if (line[i] !~ /^#\[cfg\(test\)\][[:space:]]*$/) continue
                j = i + 1
                while (j <= NR && line[j] ~ /^#\[/) j++
                if (j <= NR && line[j] ~ /^(pub(\([a-z]+\))? )?mod /) { n = i - 1; break }
            }
            print n
        }' "$1"
}

total=0
printf '%-12s %7s\n' crate lines
for dir in "$root"/crates/*/src "$root"/src "$root"/examples; do
    [[ -d $dir ]] || continue
    name=${dir#"$root"/}
    name=${name#crates/}
    name=${name%/src}
    sum=0
    while IFS= read -r -d '' file; do
        sum=$((sum + $(count "$file")))
    done < <(find "$dir" -name '*.rs' -print0)
    printf '%-12s %7d\n' "$name" "$sum"
    total=$((total + sum))
done
printf '%-12s %7d\n' total "$total"
