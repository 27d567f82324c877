#!/usr/bin/env bash
# Non-test Go lines per package: the scoreboard for "the same behaviour from
# the least code" (ROADMAP aim 2). Counts the root package, cmd/*, examples/*
# and internal/**; benchmark/ and tools/ are instruments, not product.
# Usage: tools/loc.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
total=0
for d in . cmd/* examples/* $(find internal -type d | sort); do
  n=$(find "$d" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
  [ "$n" -eq 0 ] && continue
  printf '%-28s %6d\n' "$d" "$n"
  total=$((total + n))
done
printf '%-28s %6d\n' total "$total"
