"""Compare the per-entry output digests of two benchmark runs.

Usage, from the repository root:

    python3 scripts/compare_outputs.py PARENT.json CHANGE.json

Both files are `.perfbench_out/outputs-<workload>-<seed>.json`, written by
`perfbench/run.py`, or the `--outputs` files of `scripts/slow_entries.py`;
digests are keyed by pool index, so runs with different seeds compare too.
Only the pool indices that both runs completed are compared.  Prints the
matched, mismatched and one-side-only counts and the first mismatched
indices; exits 1 when any digest differs, 0 otherwise.  When both files
name a `workload` (the `--outputs` files do) and the names differ, their
pool indices stand for different entries: it prints one line to stderr
and exits 2 without comparing.  If stdout closes
early (`... | head -1`), it ends with exit 1 and no traceback.

When both files carry a `solves` list, it also prints the per-entry
solve-time ratio change/parent over the pool indices that both runs
completed, each entry timed by the median of its completed solves: the
median ratio, the 90th percentile and the five pool indices of the
largest ratios, largest first.
"""

import json
import math
import os
import statistics
import sys


def load(path):
    with open(path) as fh:
        return json.load(fh)


def solve_times(solves):
    """{pool index: median seconds of its completed solves}."""
    times = {}
    for index, status, seconds in solves:
        if status == "ok":
            times.setdefault(index, []).append(seconds)
    return {index: statistics.median(seconds) for index, seconds in times.items()}


def ratio_line(parent_solves, change_solves):
    parent, change = solve_times(parent_solves), solve_times(change_solves)
    ratios = {index: change[index] / parent[index]
              for index in parent.keys() & change.keys() if parent[index] > 0}
    if not ratios:
        return "solve_time_ratio entries 0"
    ordered = sorted(ratios.values())
    worst = sorted(ratios, key=lambda index: (-ratios[index], index))[:5]
    return (f"solve_time_ratio entries {len(ordered)} median {statistics.median(ordered):.3f} "
            f"p90 {ordered[math.ceil(0.9 * len(ordered)) - 1]:.3f} "
            f"worst {' '.join(map(str, worst))}")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: compare_outputs.py PARENT.json CHANGE.json", file=sys.stderr)
        return 2
    parent_run, change_run = load(args[0]), load(args[1])
    workloads = parent_run.get("workload"), change_run.get("workload")
    if None not in workloads and workloads[0] != workloads[1]:
        print(f"compare_outputs.py: the files are of different workloads, {workloads[0]} "
              f"and {workloads[1]}", file=sys.stderr)
        return 2
    parent, change = parent_run["per_entry_sha256"], change_run["per_entry_sha256"]
    both = sorted(parent.keys() & change.keys(), key=int)
    mismatched = [index for index in both if parent[index] != change[index]]
    print(f"matched {len(both) - len(mismatched)} mismatched {len(mismatched)} "
          f"only_parent {len(parent.keys() - change.keys())} "
          f"only_change {len(change.keys() - parent.keys())}")
    if mismatched:
        print("first mismatched pool indices: " + " ".join(mismatched[:10]))
    if "solves" in parent_run and "solves" in change_run:
        print(ratio_line(parent_run["solves"], change_run["solves"]))
    return 1 if mismatched else 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader is gone: end without a traceback, and point stdout
        # at devnull so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
