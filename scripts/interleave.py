"""Time two source trees on one benchmark pool, interleaved in one process.

Usage, from the repository root:

    python3 scripts/interleave.py OTHER_TREE WORKLOAD [--rounds R] [--limit N]

OTHER_TREE is another checkout of this repository (a parent commit made
with `git archive`, say); WORKLOAD is one of the benchmark's workloads
(one_bin, two_bin, oracle).  The script loads this tree's `src/rectbin`
as `rectbin` and OTHER_TREE's as a second package, `rectbin_other`, in
this process.  It builds the workload's fixed pool with
`perfbench/corpus.py`, in pool order, keeps the first N entries (all by
default), and in each of R rounds (3 by default) solves every entry with
both trees in turn, alternating which goes first from entry to entry and
from round to round.  A solve runs as `perfbench/worker.py` runs it: the
parse of the text, `pack_auto` with the default config (or
`exact_min_bins` for oracle entries) and the serialization of the
packing, timed phase by phase, under an interval timer set to the
workload's deadline.

Both trees meet the same load at nearly the same moment, so host drift
that moves two separate benchmark runs apart cancels out here.  Each
entry keeps, per tree, the least of its R times of each phase and of the
whole solve; a solve that passes the deadline counts at the deadline.  It
prints one line per tree: the median (p50_ms) and the mean beyond the
95th percentile (tail_ms) of the per-entry solve times in milliseconds,
and the median microseconds of parse, solve and serialize over the
entries that completed; then the ratio this/other of p50 and tail, the
count of entries that passed the deadline on either tree in the last
round, and the count of the others whose outputs differ.  An output is
the serialized packing with the branch and the guarantee (the oracle's
answer and packing), or the error raised; the script exits 1 when any
entry's outputs differ, listing the first pool indices, and 0 otherwise.
"""

import argparse
import importlib
import importlib.util
import math
import os
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from corpus import build_corpus  # noqa: E402
from run import WORKLOADS, tail  # noqa: E402


class DeadlineExceeded(BaseException):
    """Raised inside a solve by the interval timer; not an Exception, so no
    handler in the solver can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def load_tree(tree, name):
    """Import the package `src/rectbin` of checkout tree as name."""
    package = os.path.join(os.path.abspath(tree), "src", "rectbin")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)


class Side:
    """One tree's solve of an entry, phase by phase, as the worker does it."""

    def __init__(self, package):
        cli = importlib.import_module(f"{package}.cli")
        config = importlib.import_module(f"{package}.config")
        fileio = importlib.import_module(f"{package}.fileio")
        oracle = importlib.import_module(f"{package}.oracle")
        self.config = config.SolveConfig()
        self.parse, self.serialize = fileio.parse_instance, fileio.serialize_packing
        self.pack_auto, self.exact_min_bins = cli.pack_auto, oracle.exact_min_bins

    def solve(self, entry, deadline):
        """(output, [parse, solve, serialize] seconds, total seconds); a
        solve past the deadline gives ("deadline", None, deadline)."""
        start = time.perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, deadline)
                instance = self.parse(entry["text"])
                parsed = time.perf_counter()
                if entry["kind"] == "pack":
                    packing, branch, guaranteed = self.pack_auto(instance, self.config)
                    result = (branch, guaranteed)
                else:
                    found = self.exact_min_bins(instance, max_bins=4,
                                                oracle_limit=self.config.oracle_limit)
                    packing = None if found is None else found[1]
                    result = None if found is None else found[0]
                solved = time.perf_counter()
                text = "" if packing is None else self.serialize(packing)
                done = time.perf_counter()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineExceeded:
            return "deadline", None, deadline
        except Exception as exc:  # an error is an output to compare, not a crash
            return f"error {type(exc).__name__}: {exc}", None, time.perf_counter() - start
        return (result, text), [parsed - start, solved - parsed, done - solved], done - start


def side_line(label, totals, phases):
    """The printed line of one tree."""
    p50 = statistics.median(totals) * 1000
    tail_ms = tail(totals, 95)[1] * 1000
    parse_us, solve_us, serialize_us = [statistics.median(column) * 1e6
                                        for column in zip(*phases)] or [0.0] * 3
    return (f"{label} p50_ms {p50:.3f} tail_ms {tail_ms:.3f} parse_us {parse_us:.1f} "
            f"solve_us {solve_us:.1f} serialize_us {serialize_us:.1f}"), p50, tail_ms


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", metavar="OTHER_TREE", help="the checkout to compare with")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--rounds", type=int, default=3, help="solves per entry and tree")
    parser.add_argument("--limit", type=int, help="solve only the first N pool entries")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.limit is not None and args.limit < 1:
        parser.error("--limit must be at least 1")
    if not os.path.isfile(os.path.join(args.other, "src", "rectbin", "__init__.py")):
        parser.error(f"{args.other} holds no src/rectbin package")

    deadline, size, _ = WORKLOADS[args.workload]
    pool = sorted(build_corpus(args.workload, 0, size), key=lambda e: e["pool_index"])
    pool = pool[:args.limit]
    load_tree(args.other, "rectbin_other")
    sides = [Side("rectbin"), Side("rectbin_other")]  # rectbin is this tree's, from sys.path
    best = [[[math.inf] * 4 for _ in pool] for _ in sides]  # parse, solve, serialize, total
    outputs = [[None] * len(pool) for _ in sides]
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for r in range(args.rounds):
            for e, entry in enumerate(pool):
                first = (r + e) % 2
                for s in (first, 1 - first):
                    output, phases, total = sides[s].solve(entry, deadline)
                    outputs[s][e] = output
                    times = (phases or [math.inf] * 3) + [total]
                    best[s][e] = [min(pair) for pair in zip(best[s][e], times)]
    finally:
        signal.signal(signal.SIGALRM, previous)

    summary = []
    for label, rows in (("this", best[0]), ("other", best[1])):
        line, p50, tail_ms = side_line(label, [row[3] for row in rows],
                                       [row[:3] for row in rows if row[0] < math.inf])
        print(line)
        summary.append((p50, tail_ms))
    differing = [entry["pool_index"] for entry, mine, theirs in zip(pool, *outputs)
                 if "deadline" not in (mine, theirs) and mine != theirs]
    missed = sum("deadline" in pair for pair in zip(*outputs))
    (p50, tail_ms), (other_p50, other_tail) = summary
    print(f"ratio p50 {p50 / other_p50:.3f} tail {tail_ms / other_tail:.3f}")
    print(f"entries {len(pool)} rounds {args.rounds} missed {missed} differing {len(differing)}"
          + (f" first {' '.join(map(str, differing[:5]))}" if differing else ""))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
