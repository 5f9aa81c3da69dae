"""rectbin benchmark: closed-loop solves over fixed instance pools.

Usage, from the repository root:

    python3 perfbench/run.py --workload one_bin --seed 1 --seconds 38 --trace 0

One client (this process) drives one worker process (worker.py); the next
solve is sent only after the previous one has answered.  Each solve has a
per-workload deadline; a solve that passes it is abandoned, counts at the
deadline value in the latency metrics and against completed_share.
The run cycles through the corpus; an instance solved more than once
enters the latency metrics once, at the median of its solves.

latency_tail_ms is the mean latency of the instances beyond the workload's
tail percentile (its expected shortfall); the percentile itself is printed
as `tail_percentile_ms`.  Few instances lie near any one percentile in the
tail of these workloads, so the solve-time noise of a shared machine moved
the percentile by up to a fifth between runs of the same code; the mean
beyond it moved by a few hundredths.

The result line's `failed` counts solves that raised or whose output failed
a check; deadline misses are reported as `deadline_misses` and in
`fail_share`.  Outputs are checked by check.py after the timed loop.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics.  With --trace 1 the run first solves untraced for a
third of the time, then replays the same solves with span tracing, and
reports per-layer metrics, the trace overhead and whether the traced
outputs are byte-identical to the untraced ones.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import selectors
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

K = 3  # SolveConfig().k, checked at start-up
# workload -> (per-solve deadline in s, pool size, tail percentile); the
# same on every commit compared.  A pool is about 0.8 of the solves of a
# 38 s run at the seed commit, so a run solves every instance at least once
# and the percentiles cover the whole pool whatever the seed's order.  The
# deadline trades samples per run against solves cut short.  The tail
# percentile leaves at least ten instances beyond it, and enough completed
# solves among them that their mean is not just the deadline: two_bin
# misses about a fifth of its pool, so its tail starts at p75.
WORKLOADS = {
    "one_bin": (0.5, 1200, 95.0),
    "two_bin": (0.3, 400, 75.0),
    "oracle": (0.3, 1700, 95.0),
}
SETUP_REPEATS = 7
GRACE_S = 10.0  # extra wait before a silent worker is killed
DERIVED_TRACE_METRICS = ("trace.overhead_share", "trace.uncovered_share",
                         "cli.pack_auto.guaranteed_share")
WARMUP = ["items 2\n0 1/2 1/2\n1 1/4 3/4\n", "items 3\n0 3/4 1/3\n1 1/3 3/4\n2 1/8 1/8\n"]


class WorkerLost(Exception):
    """The worker did not answer in time or closed its pipe."""


class Worker:
    """One solver process and its request/reply pipes."""

    def __init__(self, deadline, trace=False, spans_out=None):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--deadline", str(deadline)]
        if trace:
            cmd.append("--trace")
        if spans_out:
            cmd += ["--spans-out", spans_out]
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        self.selector = selectors.DefaultSelector()
        self.selector.register(self.proc.stdout, selectors.EVENT_READ)
        self.buffer = b""
        try:
            self._read(60.0)  # the ready line
        except WorkerLost:
            self.close()
            raise

    def _read(self, timeout):
        end = time.monotonic() + timeout
        while b"\n" not in self.buffer:
            left = end - time.monotonic()
            if left <= 0 or not self.selector.select(left):
                raise WorkerLost("no reply before the timeout")
            chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
            if not chunk:
                raise WorkerLost("worker closed its output")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return json.loads(line)

    def request(self, message, timeout):
        try:
            self.proc.stdin.write(json.dumps(message).encode() + b"\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise WorkerLost("worker closed its input") from None
        return self._read(timeout)

    def finish(self):
        """Ask for the closing report, then wait for the process to end."""
        try:
            return self.request({"cmd": "finish"}, 120.0)
        finally:
            self.close()

    def close(self):
        """Kill the worker if it still runs and wait until it has ended."""
        if self.proc.returncode is not None:
            return
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.selector.close()
        self.proc.stdin.close()
        self.proc.stdout.close()


def solve_loop(worker_args, corpus, seconds=None, count=None):
    """Closed loop over the corpus, cycling, for `seconds` or `count` solves.

    Returns (replies, loop wall seconds, peak worker RSS in MiB, closing
    report).  A worker that stops answering is killed and replaced; its
    solve counts as a deadline miss.
    """
    deadline = worker_args["deadline"]
    worker = Worker(**worker_args)
    replies = []
    try:
        start = time.perf_counter()
        i = 0
        while (count is None or i < count) and \
                (seconds is None or time.perf_counter() - start < seconds):
            entry = corpus[i % len(corpus)]
            request = {"id": i, "kind": entry["kind"], "text": entry["text"]}
            try:
                reply = worker.request(request, deadline + GRACE_S)
            except WorkerLost:
                worker.close()
                worker = Worker(**worker_args)
                reply = {"id": i, "status": "deadline", "latency_s": deadline, "lost": True}
            reply["index"] = i % len(corpus)
            replies.append(reply)
            i += 1
        wall = time.perf_counter() - start
        report = worker.finish()
    finally:
        worker.close()
    # the largest resident set of any worker this process has waited for
    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return replies, wall, peak_mib, report


def setup(workload, seed, deadline):
    """Worker start, imports, corpus generation and warm-up, timed.

    Returns (seconds, corpus).
    """
    from corpus import build_corpus

    start = time.perf_counter()
    worker = Worker(deadline)
    try:
        corpus = build_corpus(workload, seed, WORKLOADS[workload][1])
        for i, text in enumerate(WARMUP):
            for kind in ("pack", "oracle"):
                reply = worker.request({"id": -1 - i, "kind": kind, "text": text}, 60.0)
                if reply["status"] != "ok":
                    raise RuntimeError(f"warm-up solve failed: {reply}")
        elapsed = time.perf_counter() - start
    finally:
        worker.close()
    return elapsed, corpus


def output_key(reply):
    return reply.get("summary"), reply.get("answer"), reply["output"]


def check_replies(corpus, replies):
    """Set each reply's `problems`: its status when it did not complete,
    else the checker's findings for its corpus entry, plus
    "nondeterministic" when a repeat of the entry gave other output."""
    from check import check_oracle, check_pack

    verdicts, first_output = {}, {}
    for reply in replies:
        if reply["status"] != "ok":
            reply["problems"] = [reply["status"]]
            continue
        index = reply["index"]
        entry = corpus[index]
        key = output_key(reply)
        if index not in verdicts:
            first_output[index] = key
            try:
                if entry["kind"] == "pack":
                    verdicts[index] = check_pack(entry, reply["summary"], reply["output"], K)
                else:
                    verdicts[index] = check_oracle(entry, reply["answer"], reply["output"])
            except (ValueError, IndexError, KeyError, StopIteration):
                verdicts[index] = ["unparsable_output"]
        problems = list(verdicts[index])
        if key != first_output[index]:
            problems.append("nondeterministic")
        reply["problems"] = problems


def tail(values, percentile):
    """(nearest-rank percentile of values, mean of the values beyond it,
    their count); the mean is the largest value when none lies beyond."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile * len(ordered) / 100.0))
    return ordered[rank - 1], statistics.fmean(ordered[rank:] or ordered[-1:]), \
        len(ordered) - rank


def latencies_ms(replies, deadline):
    """Solve latencies; a missed deadline counts at the deadline value."""
    return [1000.0 * (deadline if r["status"] == "deadline" else r["latency_s"])
            for r in replies]


def instance_latencies_ms(replies, deadline):
    """Per corpus entry solved, the median of its solve latencies."""
    by_index = {}
    for reply, ms in zip(replies, latencies_ms(replies, deadline)):
        by_index.setdefault(reply["index"], []).append(ms)
    return [statistics.median(values) for values in by_index.values()]


def digest(corpus, replies):
    """(sha256 over the outputs of every completed corpus entry in pool
    order, number of entries covered, {pool index: sha256 of its output});
    the same for every seed that completes the same entries."""
    by_pool = {}
    for reply in replies:
        if reply["status"] == "ok":
            by_pool.setdefault(corpus[reply["index"]]["pool_index"], reply)
    h = hashlib.sha256()
    per_entry = {}
    for index in sorted(by_pool):
        text = json.dumps(output_key(by_pool[index]))
        per_entry[index] = hashlib.sha256(text.encode()).hexdigest()
        h.update(f"{index}\n{text}\n".encode())
    return h.hexdigest(), len(per_entry), per_entry


def end_to_end(corpus, replies, wall, setup_times, peak_mb, deadline, percentile):
    """({metric: (value, unit)}, {detail: value}) for one untraced run."""
    from check import bin_counts

    attempted = len(replies)
    done = [r for r in replies if not r["problems"]]
    latencies = instance_latencies_ms(replies, deadline)
    percentile_ms, tail_ms, beyond = tail(latencies, percentile)
    bins = nonempty = witness = guaranteed = 0
    for r in done:
        entry = corpus[r["index"]]
        reported, filled = bin_counts(r["output"])
        if entry["kind"] == "oracle":
            reported = r["answer"]
        else:
            guaranteed += r["summary"].split()[3] != "shelf"
        bins += reported
        nonempty += filled
        witness += entry["witness_bins"]
    metrics = {
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "throughput_solves_per_s": (len(done) / wall, "1/s"),
        "completed_share": (len(done) / attempted, "share"),
        "bins_per_witness": (bins / witness if witness else 0.0, "ratio"),
        "nonempty_bins_per_witness": (nonempty / witness if witness else 0.0, "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_mb, "MiB"),
    }
    extra = {
        "tail_percentile": percentile,
        "tail_percentile_ms": percentile_ms,
        "samples": len(latencies),
        "attempted_solves": attempted,
        "samples_beyond_tail": beyond,
        "fail_share": 1.0 - len(done) / attempted,
        "deadline_misses": sum(1 for r in replies if r["status"] == "deadline"),
        "completed_within_2x_of_deadline": sum(
            1 for r in done if 2 * r["latency_s"] >= deadline),
        "guaranteed_share": guaranteed / len(done) if done else 0.0,
    }
    return metrics, extra


def _commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def _source_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "rectbin")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment():
    from rectbin.config import SolveConfig

    config = SolveConfig()
    if config.k != K:
        raise RuntimeError(f"SolveConfig().k is {config.k}, the benchmark assumes {K}")
    return {
        "solve_config": {k: str(v) for k, v in vars(config).items()},
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def wrong(replies):
    """Replies whose output failed a check (not a miss, not an exception)."""
    return [r for r in replies if set(r["problems"]) - {"deadline", "error"}]


def _failure_reasons(replies):
    reasons = {}
    for r in replies:
        for p in r["problems"]:
            reasons[p] = reasons.get(p, 0) + 1
    return reasons


def trace_metric_names():
    from trace_layers import metric_names

    return metric_names() + list(DERIVED_TRACE_METRICS)


def trace_unit(name):
    if name.endswith("_s"):
        return "s"
    return "share" if name.endswith("_share") else "count"


def run_untraced(args, corpus, setup_times):
    deadline, _, percentile = WORKLOADS[args.workload]
    replies, wall, peak_mb, _ = solve_loop({"deadline": deadline}, corpus, seconds=args.seconds)
    check_replies(corpus, replies)
    metrics, extra = end_to_end(corpus, replies, wall, setup_times, peak_mb, deadline,
                                percentile)
    out_digest, covered, per_entry = digest(corpus, replies)
    extra.update(output_digest=out_digest, digest_entries=covered,
                 failure_reasons=_failure_reasons(replies), wall_s=wall)
    with open(os.path.join(OUT_DIR, f"outputs-{args.workload}-{args.seed}.json"), "w") as fh:
        json.dump({**extra, "per_entry_sha256": per_entry,
                   "solves": [(corpus[r["index"]]["pool_index"], r["status"], r["latency_s"])
                              for r in replies]},
                  fh, indent=1)
    return metrics, extra, replies


def run_traced(args, corpus):
    """Untraced solves for a third of the time, then the same solves traced.

    Returns per-layer metrics from the traced solves, the trace overhead
    (traced over untraced solve time, on solves both completed) and whether
    the two produced byte-identical outputs.
    """
    deadline = WORKLOADS[args.workload][0]
    plain, _, _, _ = solve_loop({"deadline": deadline}, corpus, seconds=args.seconds / 3)
    spans_out = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json")
    traced, wall, _, report = solve_loop(
        {"deadline": deadline, "trace": True, "spans_out": spans_out}, corpus,
        count=len(plain), seconds=args.seconds * 2 / 3)
    check_replies(corpus, plain)
    check_replies(corpus, traced)
    both = [(a, b) for a, b in zip(plain, traced) if a["status"] == b["status"] == "ok"]
    plain_s = sum(a["latency_s"] for a, _ in both)
    traced_s = sum(b["latency_s"] for _, b in both)
    metrics = dict(report["layers"])
    metrics["trace.overhead_share"] = traced_s / plain_s - 1.0 if plain_s else 0.0
    coverage = report["coverage"]
    metrics["trace.uncovered_share"] = 1.0 - coverage["covered_s"] / wall
    packs = [r for r in traced if not r["problems"] and "summary" in r]
    metrics["cli.pack_auto.guaranteed_share"] = (
        sum(r["summary"].split()[3] != "shelf" for r in packs) / len(packs) if packs else 0.0)
    extra = {"compared_solves": len(both),
             "traced_output_mismatches": sum(output_key(a) != output_key(b) for a, b in both),
             "failure_reasons": _failure_reasons(traced),
             "solve_s_in_worker": coverage["solve_s"], "wall_s": wall}
    return metrics, extra, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "rectbin", "cli.py")):
        print(f"rectbin sources not found under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(OUT_DIR, exist_ok=True)
    env = environment()
    deadline = WORKLOADS[args.workload][0]

    setup_times, corpus = [], None
    for _ in range(SETUP_REPEATS if not args.trace else 1):
        elapsed, built = setup(args.workload, args.seed, deadline)
        if corpus is not None and built != corpus:
            raise RuntimeError("corpus generation is not deterministic")
        corpus = built
        setup_times.append(elapsed)
    corpus_digest = hashlib.sha256(
        json.dumps([e["text"] for e in corpus]).encode()).hexdigest()

    if args.trace:
        metrics, extra, replies = run_traced(args, corpus)
        correct = extra["traced_output_mismatches"] == 0 and not wrong(replies)
        shown = {name: {"value": metrics[name], "unit": trace_unit(name)}
                 for name in trace_metric_names()}
    else:
        metrics, extra, replies = run_untraced(args, corpus, setup_times)
        correct = not wrong(replies)
        shown = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}

    failed = sum(1 for r in replies if set(r["problems"]) - {"deadline"})
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} deadline_s {deadline:g} corpus {len(corpus)} "
          f"corpus_sha256 {corpus_digest}")
    print("environment " + json.dumps(env, sort_keys=True))
    for key, value in extra.items():
        print(f"{key} {json.dumps(value) if isinstance(value, dict) else value}")
    for name, m in shown.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": len(replies), "failed": failed,
                      "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
