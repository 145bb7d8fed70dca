#!/bin/sh
# The number ROADMAP's carry-over size budget tracks: non-test source
# lines of the seven library crates under the serving stack. A file's lines count up to its
# first `#[cfg(test)]`; comments and blank lines count (deleting them is
# not a reduction, so they are not excluded). With `-v`, one line per
# file first.
set -eu
cd "$(dirname "$0")/.."
find crates/util/src crates/storage/src crates/disk/src crates/core/src \
     crates/serve/src crates/cluster/src crates/net/src -name '*.rs' -print0 |
    sort -z |
    xargs -0 awk -v verbose="${1:-}" '
        FNR == 1 { if (file != "" && verbose == "-v") print n - start, file
                   file = FILENAME; start = n; in_tests = 0 }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests { n++ }
        END { if (verbose == "-v") print n - start, file
              print n }'
