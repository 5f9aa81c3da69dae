"""List the benchmark pool entries whose solve passes a time cap.

Usage, from the repository root:

    python3 scripts/slow_entries.py WORKLOAD [--cap S]

WORKLOAD is one of the benchmark's workloads (one_bin, two_bin, oracle).
The script builds that workload's fixed pool with `perfbench/corpus.py`
(item ids permuted as in a benchmark run), then solves each entry once, in
pool order, in this process, the way `perfbench/worker.py` does: under an
interval timer of S seconds, by default the workload's deadline in
`perfbench/run.py`.  It prints one line per entry that passed the cap or
raised (pool index, source spec, status and seconds) as soon as it is
found, then a summary: the entry count, the number listed, the total solve
time and the share of it spent on the slowest 1% of entries.
"""

import argparse
import math
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import worker  # noqa: E402
from corpus import build_corpus  # noqa: E402
from run import WORKLOADS  # noqa: E402


def timed_solves(entries, cap):
    """Yield (entry, reply) for each corpus entry, solved once in order by
    worker.solve under a cap-second interval timer."""
    solver = worker.Solver()
    previous = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        for entry in entries:
            request = {"id": entry["pool_index"], "kind": entry["kind"], "text": entry["text"]}
            yield entry, worker.solve(solver, request, cap)
    finally:
        signal.signal(signal.SIGALRM, previous)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--cap", type=float, help="seconds per solve (default: the deadline)")
    args = parser.parse_args(argv)
    deadline, size, _ = WORKLOADS[args.workload]
    cap = deadline if args.cap is None else args.cap
    if not cap > 0:
        parser.error("--cap must be positive")

    pool = sorted(build_corpus(args.workload, 0, size), key=lambda e: e["pool_index"])
    times, listed = [], 0
    for entry, reply in timed_solves(pool, cap):
        times.append(reply["latency_s"])
        if reply["status"] != "ok":
            listed += 1
            print(f"{entry['pool_index']} {entry['source']!r} {reply['status']} "
                  f"{reply['latency_s']:.3f}s {reply.get('error', '')}".rstrip(), flush=True)
    total = sum(times)
    slowest = sorted(times)[-math.ceil(len(times) / 100):]
    print(f"entries {len(times)} listed {listed} cap_s {cap:g} solve_s {total:.3f} "
          f"slowest_1pct_share {sum(slowest) / total if total else 0.0:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
