"""List the benchmark pool entries whose solve passes a time cap.

Usage, from the repository root:

    python3 scripts/slow_entries.py WORKLOAD [--cap S] [--outputs FILE]

WORKLOAD is one of the benchmark's workloads (one_bin, two_bin, oracle).
The script builds that workload's fixed pool with `perfbench/corpus.py`
(item ids permuted as in a benchmark run), then solves each entry once, in
pool order, in this process, the way `perfbench/worker.py` does: under an
interval timer of S seconds, by default the workload's deadline in
`perfbench/run.py`.  It prints one line per entry that passed the cap or
raised (pool index, source spec, status and seconds) as soon as it is
found, then a summary: the entry count, the number listed, the total solve
time and the share of it spent on the slowest 1% of entries.

With --outputs FILE it also writes FILE in the format of the benchmark's
`outputs-*.json`: the digest of each completed entry's output as
`per_entry_sha256`, hashed by `perfbench/run.py`'s own `digest`, and each
solve as `solves` (pool index, status, seconds).  With a generous cap,
`scripts/compare_outputs.py` then compares two commits over the whole
pool, including entries that a benchmark run completes on one side only.

If stdout closes early (`... | head -1`), the run stops at the next line it
prints, with exit 1 and no traceback, and writes no --outputs file.
"""

import argparse
import json
import math
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import worker  # noqa: E402
from corpus import build_corpus  # noqa: E402
from run import WORKLOADS, digest  # noqa: E402


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
    parser.add_argument("--outputs", metavar="FILE",
                        help="write per-entry output digests here (compare_outputs.py format)")
    args = parser.parse_args(argv)
    deadline, size, _ = WORKLOADS[args.workload]
    cap = deadline if args.cap is None else args.cap
    if not cap > 0:
        parser.error("--cap must be positive")

    pool = sorted(build_corpus(args.workload, 0, size), key=lambda e: e["pool_index"])
    replies, listed = [], 0
    for index, (entry, reply) in enumerate(timed_solves(pool, cap)):
        reply["index"] = index  # the entry's place in pool, as digest expects
        replies.append(reply)
        if reply["status"] != "ok":
            listed += 1
            print(f"{entry['pool_index']} {entry['source']!r} {reply['status']} "
                  f"{reply['latency_s']:.3f}s {reply.get('error', '')}".rstrip(), flush=True)
    if args.outputs:
        with open(args.outputs, "w") as fh:
            json.dump({"workload": args.workload, "cap_s": cap,
                       "per_entry_sha256": digest(pool, replies)[2],
                       "solves": [(entry["pool_index"], reply["status"], reply["latency_s"])
                                  for entry, reply in zip(pool, replies)]}, fh, indent=1)
    times = [reply["latency_s"] for reply in replies]
    total = sum(times)
    slowest = sorted(times)[-math.ceil(len(times) / 100):]
    print(f"entries {len(times)} listed {listed} cap_s {cap:g} solve_s {total:.3f} "
          f"slowest_1pct_share {sum(slowest) / total if total else 0.0:.3f}")
    return 0


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
