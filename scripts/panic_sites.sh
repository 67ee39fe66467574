#!/usr/bin/env bash
# Prints the panic sites per file of the serve crate, then the total,
# and fails when the total exceeds the ceiling below.
#
#   ./scripts/panic_sites.sh [SERVE_SRC_DIR]   # default: crates/serve/src
#
# A panic site is one `.unwrap()`, `.expect(`, `panic!` or
# `unreachable!` in a `.rs` file before the file's first `#[cfg(test)]`,
# on a line that is not only a `//` comment (`///` and `//!` docs
# included). Each site counts, also two on one line. Point it at another
# checkout's `crates/serve/src` to compare a change with its parent.
set -eu

# The ratchet: lower it whenever a change removes panic sites, never
# raise it to admit new ones.
ceiling=7

root="$(cd "$(dirname "$0")/.." && pwd)"
src="${1:-$root/crates/serve/src}"

total=0
while IFS= read -r -d '' file; do
  n=$(awk '
    /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    {
      line = $0
      n += gsub(/\.unwrap\(\)/, "", line)
      n += gsub(/\.expect\(/, "", line)
      n += gsub(/panic!/, "", line)
      n += gsub(/unreachable!/, "", line)
    }
    END { print n + 0 }' "$file")
  if [ "$n" -gt 0 ]; then
    printf '%-24s %4d\n' "${file#"$src"/}" "$n"
  fi
  total=$((total + n))
done < <(find "$src" -name '*.rs' -print0 | sort -z)
printf '%-24s %4d\n' total "$total"

if [ "$total" -gt "$ceiling" ]; then
  echo "panic sites: $total exceeds the ceiling of $ceiling" >&2
  exit 1
fi
