#!/usr/bin/env python3
"""Paired comparison of emask-perf results from two commits.

    python3 bench/perf/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the `run.sh --out=DIR` results of one commit, one
subdirectory per run: PARENT_DIR/1/encrypt_cold.json, PARENT_DIR/2/..., and
the same subdirectory names under CHANGE_DIR.  Runs with the same name form
a pair; run at least 10 pairs, alternating which commit runs first.

For every workload and end-to-end metric of BENCHMARK.json this prints both
medians with their quartiles, the share of pairs the change won (ties count
for neither) and a verdict:

  improved      the change won at least 9 in 10 pairs and the medians differ
                by more than the parent's own quartile spread
  regressed     the change's median is worse than the parent's by more than
                the metric's bound
  unresolved    the run-to-run spread is wider than the bound, and not every
                change run beats every parent run
  within bound  otherwise

Exit status: 1 when a metric regressed or the change failed more checks
than the parent, 0 otherwise.
"""

import argparse
import json
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ["encrypt_cold", "attack_round1", "session_cbc", "campaign_zoo"]


def load_runs(directory):
    """{(run, workload): result} for every <workload>.json under directory."""
    runs = {}
    for workload in WORKLOADS:
        for path in sorted(directory.rglob(workload + ".json")):
            run = str(path.parent.relative_to(directory))
            with open(path) as f:
                runs[(run, workload)] = json.load(f)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(metric, parent, change, pairs):
    better = (lambda a, b: a < b) if metric["better"] == "lower" else (
        lambda a, b: a > b)
    bound = metric["bound"]
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    wins = sum(1 for p, c in pairs if better(c, p))
    if wins >= 0.9 * len(pairs) and better(c_med, p_med) and \
            abs(c_med - p_med) > p_q3 - p_q1:
        return wins, "improved"
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    all_better = all(better(c, p) for c in change for p in parent)
    if spread > bound and not all_better:
        return wins, "unresolved"
    worse = (c_med - p_med) if metric["better"] == "lower" else (p_med - c_med)
    if p_med and worse / abs(p_med) > bound:
        return wins, "regressed"
    return wins, "within bound"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--benchmark", type=pathlib.Path,
                        default=HERE.parent.parent / "BENCHMARK.json")
    args = parser.parse_args()

    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    paired = sorted(set(parent_runs) & set(change_runs))
    if not paired:
        sys.exit("compare.py: no run appears under both directories")

    status = 0
    header = (f"{'workload':14} {'metric':12} {'parent median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'won':>7}  verdict")
    print(header)
    for workload in WORKLOADS:
        keys = [k for k in paired if k[1] == workload]
        if not keys:
            continue
        failed = [sum(runs[k]["failed"] for k in keys)
                  for runs in (parent_runs, change_runs)]
        for metric in metrics:
            name = metric["name"]
            pairs = [(parent_runs[k]["metrics"][name]["value"],
                      change_runs[k]["metrics"][name]["value"]) for k in keys]
            parent = [p for p, _ in pairs]
            change = [c for _, c in pairs]
            wins, result = verdict(metric, parent, change, pairs)
            if result == "regressed":
                status = 1
            cells = []
            for values in (parent, change):
                q1, q3 = quartiles(values)
                cells.append(f"{statistics.median(values):.5g} "
                             f"[{q1:.5g}, {q3:.5g}]")
            print(f"{workload:14} {name:12} {cells[0]:>34} {cells[1]:>34} "
                  f"{wins:>3}/{len(pairs):<3}  {result}")
        if failed[1] > failed[0]:
            print(f"{workload:14} failed checks: parent {failed[0]}, change "
                  f"{failed[1]}: gains on this workload do not count")
            status = 1
        if len(keys) < 10:
            print(f"{workload:14} only {len(keys)} pairs; run at least 10")
    return status


if __name__ == "__main__":
    sys.exit(main())
