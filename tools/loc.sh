#!/bin/sh
# Prints, per source directory, the number of non-blank .cpp/.hpp lines that
# are not `//` comment lines: the measure CHANGES.md reports as a change's
# net line delta. Run it on two checkouts and subtract.
#
#   tools/loc.sh [ROOT]    ROOT defaults to the checkout holding this script
set -eu
root=${1:-$(cd "$(dirname "$0")/.." && pwd)}
for dir in src tests bench examples fedbench; do
  count=0
  if [ -d "$root/$dir" ]; then
    count=$(find "$root/$dir" -type f \( -name '*.cpp' -o -name '*.hpp' \) \
              -exec cat {} + | grep -cv '^[[:space:]]*\(//.*\)\{0,1\}$' || true)
  fi
  printf '%-9s %7d\n' "$dir" "$count"
done
