"""Solver worker: one solve at a time, requests and replies as JSON lines.

Started by run.py as `python3 perfbench/worker.py --deadline S [--trace]`
from the checkout root.  Each request names a kind ("pack" or "oracle") and
an instance text; the reply carries the status, the solve latency and the
output.  A solve that runs past the deadline is interrupted by an interval
timer and answered with status "deadline".  A request {"cmd": "finish"}
makes a traced worker write its spans and reply with per-layer metrics.
"""

import argparse
import json
import os
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_ENV = ("K", "EPS_OPT1", "EXACT_LIMIT", "ENUMERATION_LIMIT", "ORACLE_LIMIT")


class DeadlineExceeded(BaseException):
    """Raised inside a solve by the interval timer; not an Exception, so no
    handler in the solver can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


class Solver:
    """Runs pack and oracle solves exactly as `rectbin pack` / `oracle` do."""

    def __init__(self):
        from rectbin.cli import pack_auto
        from rectbin.config import SolveConfig
        from rectbin.fileio import parse_instance, serialize_packing
        from rectbin.oracle import exact_min_bins

        self.config = SolveConfig()
        self._pack_auto = pack_auto
        self._parse = parse_instance
        self._serialize = serialize_packing
        self._oracle = exact_min_bins

    def pack(self, text):
        instance = self._parse(text)
        packing, provenance, guaranteed = self._pack_auto(instance, self.config)
        output = self._serialize(packing)
        summary = (f"bins {len(packing.bins)} branch {provenance} "
                   f"guaranteed {'yes' if guaranteed else 'no'}")
        return {"output": output, "summary": summary}

    def oracle(self, text):
        instance = self._parse(text)
        found = self._oracle(instance, max_bins=4,
                             oracle_limit=self.config.oracle_limit)
        if found is None:
            return {"output": "", "answer": None}
        return {"output": self._serialize(found[1]), "answer": found[0]}


def solve(solver, request, deadline, tracer=None):
    """One timed solve; the reply dict for `request`."""
    run = solver.pack if request["kind"] == "pack" else solver.oracle
    reply = {"id": request["id"]}
    if tracer is not None:
        tracer.begin_solve(request["id"])
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            result = run(request["text"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        reply["status"] = "ok"
        reply.update(result)
    except DeadlineExceeded:
        reply["status"] = "deadline"
    except Exception as exc:  # the worker must answer every request
        reply["status"] = "error"
        reply["error"] = f"{type(exc).__name__}: {exc}"
    reply["latency_s"] = time.perf_counter() - start
    if tracer is not None:
        tracer.end_solve()
    return reply


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--deadline", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    for name in CONFIG_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = None
    if args.trace:
        from trace_layers import Tracer
        tracer = Tracer()
        tracer.install()
    solver = Solver()  # binds the entry points after any wrapping

    out = sys.stdout
    out.write(json.dumps({"ready": True}) + "\n")
    out.flush()
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("cmd") == "finish":
            reply = {"finished": True}
            if tracer is not None:
                reply["layers"] = tracer.layer_metrics()
                reply["coverage"] = tracer.coverage()
                if args.spans_out:
                    tracer.write_spans(args.spans_out)
            out.write(json.dumps(reply) + "\n")
            out.flush()
            break
        out.write(json.dumps(solve(solver, request, args.deadline, tracer)) + "\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
