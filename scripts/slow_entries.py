"""List the benchmark pool entries whose solve passes a time cap.

Usage, from the repository root:

    python3 scripts/slow_entries.py WORKLOAD [--cap S] [--outputs FILE] [--searches]
                                    [--profile N] [--phases]

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

With --searches it also times every exact region search of the loop, each
call of `knapsack._search_lattice`, and adds to the summary the call count
(`searches`), the count and seconds of the calls that find no layout
(`none`, `none_s`), the seconds of those that find one (`fit_s`) and the
count and seconds of those that the cap interrupts (`cut`, `cut_s`).
Before the summary it lists the 5 slowest calls that found no layout,
slowest first, as `search INDEX AxB:WxH,... MS`: the pool index, the
region and the boxes on the search's integer lattice, in search order, and
the milliseconds taken; then every call that the cap interrupted, the same
way as `cut INDEX AxB:WxH,... MS`.

With --profile N it runs the loop under cProfile and, before the summary,
lists the N functions with the most own time (time in the function itself,
not in what it calls), most first, as `profile SELF_S CALLS FUNCTION`:
the seconds, the call count and the function as `FILE:LINE(NAME)`, with
FILE relative to the repository root when it lies inside it.  cProfile
slows every Python call, so the shares are a guide and the times are not
solve times.

With --phases it times the three phases of each entry that completed in
the loop, as `perfbench/worker.py` runs them: the parse of the text, the
solve (`pack_auto` or `exact_min_bins`) and the serialization of the
packing, each the least of 3 runs, each run from a fresh parse.  Before
the summary it prints `phases N parse_us P solve_us S serialize_us Z`:
the entry count and the median microseconds of each phase over those
entries.

If stdout closes early (`... | head -1`), the run stops at the next line it
prints, with exit 1 and no traceback, and writes no --outputs file.
"""

import argparse
import contextlib
import cProfile
import json
import math
import os
import pstats
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import worker  # noqa: E402
from corpus import build_corpus  # noqa: E402
from rectbin import knapsack  # noqa: E402
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


@contextlib.contextmanager
def recorded_searches(calls):
    """Within the block, knapsack._search_lattice appends (sides, a, b,
    seconds, outcome) to calls for each call: outcome is "fit" or "none"
    for a call that returns, and "cut" for one that the interval timer
    interrupts."""
    search = knapsack._search_lattice

    def timed(sides, a, b):
        start = time.perf_counter()
        try:
            placed = search(sides, a, b)
        except worker.DeadlineExceeded:
            calls.append((tuple(sides), a, b, time.perf_counter() - start, "cut"))
            raise
        calls.append((tuple(sides), a, b, time.perf_counter() - start,
                      "none" if placed is None else "fit"))
        return placed

    knapsack._search_lattice = timed
    try:
        yield
    finally:
        knapsack._search_lattice = search


def search_report(searches):
    """The summary fields and the listed lines for searches, given as
    (pool index, sides, a, b, seconds, outcome) per call."""
    none = sorted((s for s in searches if s[5] == "none"), key=lambda s: -s[4])
    cut = [s for s in searches if s[5] == "cut"]
    fields = (f" searches {len(searches)} none {len(none)} "
              f"none_s {sum(s[4] for s in none):.3f} "
              f"fit_s {sum(s[4] for s in searches if s[5] == 'fit'):.3f} "
              f"cut {len(cut)} cut_s {sum(s[4] for s in cut):.3f}")
    lines = [f"{label} {index} {a}x{b}:{','.join(f'{w}x{h}' for w, h in sides)} "
             f"{seconds * 1000:.3f}"
             for label, listed in (("search", none[:5]), ("cut", cut))
             for index, sides, a, b, seconds, _ in listed]
    return fields, lines


@contextlib.contextmanager
def profiled(profiler):
    """Within the block, profiler records every call."""
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()


def profile_lines(profiler, top):
    """The listed lines of --profile: the top functions by own time."""
    stats = pstats.Stats(profiler).stats  # {function: (_, calls, own s, _, _)}
    rows = sorted(stats.items(), key=lambda row: -row[1][2])[:top]
    return [f"profile {own:.4f} {calls} "
            f"{pstats.func_std_string(function).removeprefix(ROOT + os.sep)}"
            for function, (_, calls, own, _, _) in rows]


PHASE_REPEATS = 3


def phase_times(solver, entry):
    """[parse, solve, serialize] seconds of one entry, each the least of
    PHASE_REPEATS runs, with the calls of worker.Solver.  Each run parses
    anew, so that no run reuses what an earlier one left on the items."""
    if entry["kind"] == "pack":
        def solve(instance):
            return solver._pack_auto(instance, solver.config)[0]
    else:
        def solve(instance):
            found = solver._oracle(instance, max_bins=4, oracle_limit=solver.config.oracle_limit)
            return None if found is None else found[1]
    best = [math.inf] * 3
    for _ in range(PHASE_REPEATS):
        start = time.perf_counter()
        instance = solver._parse(entry["text"])
        parsed = time.perf_counter()
        packing = solve(instance)
        solved = time.perf_counter()
        if packing is not None:
            solver._serialize(packing)
        done = time.perf_counter()
        best = [min(pair) for pair in zip(best, (parsed - start, solved - parsed, done - solved))]
    return best


def phases_line(times):
    """The --phases line for (parse, solve, serialize) seconds per entry."""
    parse_us, solve_us, serialize_us = [statistics.median(column) * 1e6
                                        for column in zip(*times)] or [0.0] * 3
    return (f"phases {len(times)} parse_us {parse_us:.1f} solve_us {solve_us:.1f} "
            f"serialize_us {serialize_us:.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--cap", type=float, help="seconds per solve (default: the deadline)")
    parser.add_argument("--outputs", metavar="FILE",
                        help="write per-entry output digests here (compare_outputs.py format)")
    parser.add_argument("--searches", action="store_true",
                        help="time the exact region searches and list the slowest that fail")
    parser.add_argument("--profile", type=int, metavar="N",
                        help="profile the loop and list the N functions with the most own time")
    parser.add_argument("--phases", action="store_true",
                        help="print the median microseconds of parse, solve and serialize")
    args = parser.parse_args(argv)
    deadline, size, _ = WORKLOADS[args.workload]
    cap = deadline if args.cap is None else args.cap
    if not cap > 0:
        parser.error("--cap must be positive")
    if args.profile is not None and args.profile < 1:
        parser.error("--profile must be at least 1")

    pool = sorted(build_corpus(args.workload, 0, size), key=lambda e: e["pool_index"])
    replies, listed, calls, searches = [], 0, [], []
    profiler = cProfile.Profile() if args.profile else None
    with (recorded_searches(calls) if args.searches else contextlib.nullcontext(),
          profiled(profiler) if profiler else contextlib.nullcontext()):
        for index, (entry, reply) in enumerate(timed_solves(pool, cap)):
            reply["index"] = index  # the entry's place in pool, as digest expects
            replies.append(reply)
            searches += [(entry["pool_index"], *call) for call in calls]
            calls.clear()
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
    fields, lines = search_report(searches) if args.searches else ("", [])
    if profiler:
        lines += profile_lines(profiler, args.profile)
    if args.phases:
        solver = worker.Solver()
        lines.append(phases_line([phase_times(solver, entry)
                                  for entry, reply in zip(pool, replies)
                                  if reply["status"] == "ok"]))
    for line in lines:
        print(line)
    print(f"entries {len(times)} listed {listed} cap_s {cap:g} solve_s {total:.3f} "
          f"slowest_1pct_share {sum(slowest) / total if total else 0.0:.3f}{fields}")
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
