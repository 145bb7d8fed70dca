#!/bin/sh
# Alternating pairs of one benchmark workload: the benchmark package of
# a parent revision against the working tree's, so both sides of every
# pair see the same weather on a shared host.
#
#   scripts/bench_pairs.sh <parent-rev> <workload> [pairs=10] [seed=1]
#
# The parent's tree is exported with `git archive` into
# target/bench_pairs/<short-rev>/ (kept for the next call), and both
# packages are built `--offline --locked`. Pair i runs the parent first
# when i is odd and the working tree first when i is even, each with
# `--seed <seed> --seconds 12 --trace 0`. Prints a markdown table, one
# row per pair: setup_s, peak_rss_mb and `correct, failed/attempted` of
# each side; then the median, q1 and q3 of each metric per side, and in
# how many pairs the working tree was lower (both metrics are
# lower-is-better). Needs jq.
set -eu
usage="usage: scripts/bench_pairs.sh <parent-rev> <workload> [pairs=10] [seed=1]"
rev=${1:?$usage}
workload=${2:?$usage}
pairs=${3:-10}
seed=${4:-1}
command -v jq >/dev/null || { echo "bench_pairs.sh needs jq" >&2; exit 1; }
cd "$(dirname "$0")/.."
here=$(pwd)
short=$(git rev-parse --short "$rev")
parent="$here/target/bench_pairs/$short"
if [ ! -d "$parent" ]; then
    mkdir -p "$parent.tmp"
    git archive "$short" | tar -x -C "$parent.tmp"
    mv "$parent.tmp" "$parent"
fi
flags="--release --offline --locked --quiet"
# shellcheck disable=SC2086 # $flags is a list of flags
cargo build $flags --manifest-path "$parent/benchmark/Cargo.toml"
# shellcheck disable=SC2086
cargo build $flags --manifest-path "$here/benchmark/Cargo.toml"

# run ROOT: one run of the workload from ROOT's benchmark; prints
# "setup_s peak_rss_mb correct failed attempted".
run() {
    line=$(cd "$1" && benchmark/target/release/benchmark --workload "$workload" \
        --seed "$seed" --seconds 12 --trace 0 | tail -n 1)
    echo "$line" | jq -r '[.metrics.setup_s.value, .metrics.peak_rss_mb.value,
        .correct, .failed, .attempted] | map(tostring) | join(" ")'
}

results=$(mktemp)
trap 'rm -f "$results"' EXIT
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        p=$(run "$parent")
        c=$(run "$here")
    else
        c=$(run "$here")
        p=$(run "$parent")
    fi
    echo "$i $p $c" >>"$results"
    i=$((i + 1))
done

echo "$workload, seed $seed, parent $short vs the working tree"
echo
echo "| pair | parent setup_s | change setup_s | parent peak_rss_mb | change peak_rss_mb | parent correct, failed/attempted | change correct, failed/attempted |"
echo "|---|---|---|---|---|---|---|"
awk '{ printf "| %s | %.3f | %.3f | %.2f | %.2f | %s, %s/%s | %s, %s/%s |\n",
       $1, $2, $7, $3, $8, $4, $5, $6, $9, $10, $11 }' "$results"
echo
echo "| metric | parent median | parent q1 / q3 | change median | change q1 / q3 | change lower in |"
echo "|---|---|---|---|---|---|"
# stats COLUMN: "median q1 q3" of one column (linear interpolation).
stats() {
    awk -v c="$1" '{ print $c }' "$results" | sort -g | awk '
        { v[NR] = $1 }
        function q(p,   h, lo) { h = (NR - 1) * p + 1; lo = int(h)
            return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
        END { printf "%.3f %.3f %.3f", q(0.5), q(0.25), q(0.75) }'
}
for m in "setup_s 2 7" "peak_rss_mb 3 8"; do
    # shellcheck disable=SC2086 # splits the triple
    set -- $m
    ps=$(stats "$2")
    cs=$(stats "$3")
    won=$(awk -v a="$2" -v b="$3" '$b < $a { n++ } END { print n + 0 }' "$results")
    echo "$ps $cs" | awk -v name="$1" -v won="$won" -v n="$pairs" \
        '{ printf "| %s | %s | %s / %s | %s | %s / %s | %d of %d |\n",
           name, $1, $2, $3, $4, $5, $6, won, n }'
done
