#!/usr/bin/env bash
# Lists the emask:: functions that the src/ libraries define but that no
# tool, bench or example links.
#
# Builds the repository (and the bench/perf benchmark, a CMake project of
# its own) at -O0 with one section per function and links with
# --gc-sections, so every binary keeps exactly the functions it can reach.
# The defined T/W symbols of the src/ static libraries are then compared
# with the T/W symbols of every linked binary.  Two lists are printed:
#
#   1. functions linked into no tool (emask-*), each tagged with the kinds
#      of binary that do link it: bench, example, test, or none;
#   2. the subset linked into no tool, bench or example: test-only code and
#      code nothing links at all.
#
# An entry may still be reached at run time through a caller that is itself
# unlinked, or through a template; confirm each one with a grep before
# deleting it.
#
# Usage: scripts/unlinked_functions.sh [BUILD_DIR]   (default build-unlinked)
# Environment: JOBS (parallel build jobs, default 4).
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=$(realpath -m "${1:-$root/build-unlinked}")
jobs=${JOBS:-4}
flags=(-DCMAKE_CXX_FLAGS=-ffunction-sections
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)

cmake -S "$root" -B "$build/main" -DCMAKE_BUILD_TYPE=Debug \
      -DCMAKE_CXX_FLAGS_DEBUG="-O0 -g0" "${flags[@]}" > /dev/null
cmake --build "$build/main" -j "$jobs" > /dev/null
# bench/perf forces a Release build, so override the Release flags; keep
# NDEBUG, without which emask-perf refuses to run and links nothing else.
cmake -S "$root/bench/perf" -B "$build/perf" \
      -DCMAKE_CXX_FLAGS_RELEASE="-O0 -g0 -DNDEBUG" "${flags[@]}" > /dev/null
cmake --build "$build/perf" -j "$jobs" > /dev/null

# Demangled external function symbols under emask::, one per line.
functions() {
  nm -C --defined-only "$@" 2> /dev/null |
    awk '$2 == "T" || $2 == "W" { $1 = ""; $2 = ""; sub(/^  /, ""); print }' |
    grep '^emask::' | grep -v '{lambda' | sort -u
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
functions "$build"/main/src/*/lib*.a > "$tmp/defined"
functions "$build"/main/tools/emask-* > "$tmp/tool"
functions "$build"/main/bench/bench_* "$build"/perf/emask-perf > "$tmp/bench"
functions $(find "$build/main/examples" -maxdepth 1 -type f -executable) \
  > "$tmp/example"
functions "$build"/main/tests/*_test > "$tmp/test"

comm -23 "$tmp/defined" "$tmp/tool" > "$tmp/no_tool"
tag() {
  while IFS= read -r fn; do
    kinds=""
    for kind in "$@"; do
      if grep -qxF -- "$fn" "$tmp/$kind"; then kinds="$kinds,$kind"; fi
    done
    printf '%-8s %s\n' "${kinds#,}" "$fn" | sed 's/^        /none    /'
  done
}

echo "== emask:: functions linked into no tool ($(wc -l < "$tmp/no_tool") of $(wc -l < "$tmp/defined"))"
tag bench example test < "$tmp/no_tool"
comm -23 "$tmp/no_tool" <(sort -u "$tmp/bench" "$tmp/example") > "$tmp/test_only"
echo
echo "== linked into no tool, bench or example ($(wc -l < "$tmp/test_only"))"
tag test < "$tmp/test_only"
