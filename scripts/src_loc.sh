#!/bin/sh
# The number ROADMAP's carry-over size budget tracks: non-test source
# lines of the seven library crates under the serving stack. A file's lines count up to its
# first `#[cfg(test)]`; comments and blank lines count (deleting them is
# not a reduction, so they are not excluded). With `-v`, one line per
# file first. With `-c`, instead of the budget figure, one total per
# crate: the seven, then `graph` and `rank`, which the figure leaves out.
set -eu
cd "$(dirname "$0")/.."
# count VERBOSE DIR...: the non-test lines of every .rs file under DIRs.
count() {
    verbose=$1
    shift
    find "$@" -name '*.rs' -print0 |
        sort -z |
        xargs -0 awk -v verbose="$verbose" '
            FNR == 1 { if (file != "" && verbose == "-v") print n - start, file
                       file = FILENAME; start = n; in_tests = 0 }
            /#\[cfg\(test\)\]/ { in_tests = 1 }
            !in_tests { n++ }
            END { if (verbose == "-v") print n - start, file
                  print n }'
}
if [ "${1:-}" = -c ]; then
    for crate in util storage disk core serve cluster net graph rank; do
        echo "$(count '' "crates/$crate/src") $crate"
    done
else
    count "${1:-}" crates/util/src crates/storage/src crates/disk/src crates/core/src \
        crates/serve/src crates/cluster/src crates/net/src
fi
