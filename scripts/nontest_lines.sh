#!/usr/bin/env bash
# Non-test line count, the way CHANGES.md entries quote it: for every
# *.rs file under the given paths (default: crates), the lines above its
# first `#[cfg(test)]` (the whole file when it has none; none of it when
# it lives in a tests/ directory) and the lines from there on, then the
# totals.
#
#   scripts/nontest_lines.sh [path...]
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- crates
find "$@" -name '*.rs' -not -path '*/target/*' | sort | xargs awk '
  FNR == 1 { if (file != "") emit(); file = FILENAME; split_at = 0 }
  !split_at && /^[[:space:]]*#\[cfg\(test\)\]/ { split_at = FNR }
  { lines = FNR }
  END { if (file != "") emit(); printf "%7d %7d  total\n", nontest, test }
  function emit(   n) {
    n = file ~ /(^|\/)tests\// ? 0 : split_at ? split_at - 1 : lines
    printf "%7d %7d  %s\n", n, lines - n, file
    nontest += n; test += lines - n
  }
'
