#!/usr/bin/env bash
# Builds emask-perf from the sources of this checkout (always Release) and
# runs it.  Build output goes to .bench_build/emask-perf at the checkout
# root, run output under .bench_build/.
#
# One workload; the last line of stdout is the JSON result:
#   bench/perf/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#
# All four workloads; DIR/<workload>.json holds each result line and
# DIR/<workload>/ the log and the campaign artifacts:
#   bench/perf/run.sh [--seed=N] [--seconds=S] [--out=DIR] [--trace]
# With --trace each workload runs untraced, then traced.  The traced run
# writes DIR/<workload>/trace.json and layers.json (with trace.overhead,
# untraced over traced throughput), and both runs must print one digest.
#
# Exit status: 0 all checks passed, nonzero otherwise.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/.bench_build/emask-perf"
bin="$build/emask-perf"

# Campaign manifests record `git describe`; keep git inside the checkout.
GIT_CEILING_DIRECTORIES=$(dirname "$root")
export GIT_CEILING_DIRECTORIES

generator=()
if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
cmake -S "$here" -B "$build" ${generator[@]+"${generator[@]}"} >&2
cmake --build "$build" -j 4 >&2

for arg in "$@"; do
  if [[ $arg == --workload || $arg == --workload=* ]]; then
    cd "$root"
    exec "$bin" "$@"
  fi
done

seed=1
seconds=25
out="$root/.bench_build/perf-results"
trace=0
for arg in "$@"; do
  case $arg in
    --seed=*) seed=${arg#*=} ;;
    --seconds=*) seconds=${arg#*=} ;;
    --out=*) out=$(mkdir -p "${arg#*=}" && cd "${arg#*=}" && pwd) ;;
    --trace) trace=1 ;;
    *) echo "run.sh: unknown argument '$arg'" >&2; exit 1 ;;
  esac
done
cd "$root"

status=0
for w in encrypt_cold attack_round1 session_cbc campaign_zoo; do
  dir="$out/$w"
  mkdir -p "$dir"
  rc=0
  "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
    --out "$dir" >"$dir/run.log" || rc=$?
  grep -E '^(emask-perf|revision|digest|FAILED|ops|metric)' "$dir/run.log" ||
    true
  if [[ $rc -ne 0 ]]; then
    echo "run.sh: $w exited with status $rc" >&2
    status=1
    continue
  fi
  tail -n 1 "$dir/run.log" >"$out/$w.json"
  if [[ $trace -eq 1 ]]; then
    untraced=$(sed -n 's/.*"enc_per_s": {"value": \([^,]*\),.*/\1/p' \
      "$out/$w.json")
    rc=0
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 \
      --out "$dir" --untraced-enc-per-s "$untraced" >"$dir/trace.log" || rc=$?
    grep -E '^(FAILED|layer|wrote)' "$dir/trace.log" || true
    if [[ $rc -ne 0 ]]; then
      echo "run.sh: traced $w exited with status $rc" >&2
      status=1
    fi
    a=$(grep '^digest ' "$dir/run.log" | cut -d' ' -f2)
    b=$(grep '^digest ' "$dir/trace.log" | cut -d' ' -f2)
    if [[ -z $a || $a != "$b" ]]; then
      echo "run.sh: $w digest differs between untraced ($a) and traced ($b)" >&2
      status=1
    else
      echo "traced digest matches: $b"
    fi
  fi
done
exit $status
