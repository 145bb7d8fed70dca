#!/bin/sh
# Records one PR's benchmark evidence: builds the benchmark package
# (`benchmark/`, the one BENCHMARK.json names) offline against its lock
# file, runs each of its five workloads once — seed 1, a 12 s window,
# per-layer trace on — and writes BENCH_<pr>.json at the repository
# root: the commit (`-dirty` when the tree has uncommitted changes), the
# machine, and every workload's final result line, keyed by workload.
# A workload whose oracle fails is recorded as it ended, `"correct":
# false` included.
#
#   scripts/bench_record.sh 26
set -eu
pr=${1:?usage: scripts/bench_record.sh <pr>}
cd "$(dirname "$0")/.."
bench="--release --offline --locked --quiet --manifest-path benchmark/Cargo.toml"
# shellcheck disable=SC2086 # $bench is a list of flags
cargo build $bench
out="BENCH_$pr.json"
{
    printf '{\n  "pr": %s,\n' "$pr"
    printf '  "commit": "%s",\n' "$(git describe --always --dirty 2>/dev/null || echo unknown)"
    cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -n 1)
    printf '  "machine": "%s cores, %s",\n' "$(nproc)" "${cpu:-unknown CPU}"
    printf '  "args": "--seed 1 --seconds 12 --trace 1",\n  "workloads": {'
    sep=''
    for w in hot_read cold_read paged_read mixed_rw embed_hot; do
        # shellcheck disable=SC2086
        line=$(cargo run $bench -- --workload "$w" --seed 1 --seconds 12 --trace 1 | tail -n 1)
        [ -n "$line" ] || { echo "$w printed no result line" >&2; exit 1; }
        printf '%s\n    "%s": %s' "$sep" "$w" "$line"
        sep=','
    done
    printf '\n  }\n}\n'
} >"$out.tmp"
mv "$out.tmp" "$out"
echo "wrote $out"
