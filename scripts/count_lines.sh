#!/usr/bin/env bash
# Prints the non-test lines of Rust code per crate, then the total.
#
#   ./scripts/count_lines.sh [CRATES_DIR]     # default: crates/ of this repo
#
# A crate's non-test lines are the lines of every `.rs` file under its
# directory (integration `tests/` directories excluded) that come before
# the file's first `#[cfg(test)]`, without blank lines and without lines
# that are only a `//` comment (`///` and `//!` docs included). Point it
# at another checkout's `crates/` to compare a change with its parent.
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
crates="${1:-$root/crates}"

total=0
for dir in "$crates"/*/; do
  name="$(basename "$dir")"
  n=$(find "$dir" -name '*.rs' -not -path '*/tests/*' -print0 | sort -z |
    xargs -0 -r awk '
      FNR == 1 { in_test = 0 }
      /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
      in_test { next }
      /^[[:space:]]*$/ { next }
      /^[[:space:]]*\/\// { next }
      { n++ }
      END { print n + 0 }' | awk '{ s += $1 } END { print s + 0 }')
  printf '%-12s %6d\n' "$name" "$n"
  total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
