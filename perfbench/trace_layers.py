"""Span tracing around the public functions of rectbin's solve-path modules.

The tracer replaces each listed function with a wrapper in every module
that binds it, since modules import names directly (`validate_bin` is bound
in geometry, opt1 and steinberg).  Each call records a span: function,
start, end, parent span, solve id and outcome.  Spans stay in memory until
the run ends; per-layer metrics are derived from them.  A function's self
time is its span time minus the time of its child spans.
"""

import functools
import importlib
import inspect
import json
import time
from array import array

# module -> public functions on the solve path
LAYERS = {
    "cli": ("pack_auto", "shelf_pack"),
    "fileio": ("parse_instance", "serialize_packing"),
    "geometry": ("scalar", "validate_bin", "validate_packing", "transpose_instance",
                 "transpose_layout", "transpose_packing"),
    "classify": ("vol", "total_width", "total_height", "w_max", "h_max", "classify",
                 "delta_threshold", "find_feasible_delta"),
    "knapsack": ("max_profit_pack", "max_area_pack", "exact_pack_single_region"),
    "steinberg": ("steinberg_condition", "steinberg_pack", "pack_no_wide_half_area",
                  "pack_no_high_half_area"),
    "opt1": ("pack_small_height", "pack_wide_high", "pack_large_w", "pack_stack_plus_small",
             "pack_stack_plus_small_transposed", "pack_small_w", "pack_opt1"),
    "optconst": ("const_eps", "enumerate_large_assignments", "run_steps_1_to_4",
                 "pack_opt_const"),
    "oracle": ("exact_min_bins",),
}
# functions that can raise GuessFailed, InstanceTooLarge, ConditionViolated
# or PreconditionViolated, and those that return None for "does not fit"
CAN_FAIL = {
    "steinberg.steinberg_pack", "steinberg.pack_no_wide_half_area",
    "steinberg.pack_no_high_half_area", "opt1.pack_small_height", "opt1.pack_wide_high",
    "opt1.pack_large_w", "opt1.pack_stack_plus_small", "opt1.pack_stack_plus_small_transposed",
    "opt1.pack_small_w", "opt1.pack_opt1", "optconst.enumerate_large_assignments",
    "optconst.run_steps_1_to_4", "optconst.pack_opt_const", "knapsack.max_profit_pack",
    "knapsack.max_area_pack", "knapsack.exact_pack_single_region", "oracle.exact_min_bins",
}
CAN_BE_NONE = {"knapsack.exact_pack_single_region", "classify.find_feasible_delta",
               "oracle.exact_min_bins"}
GENERATORS = {"optconst.enumerate_large_assignments"}

OK, NONE, FAILED, ABORTED = 0, 1, 2, 3
SPAN_FIELDS = ("name", "start", "end", "parent", "solve", "outcome")


def function_names():
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def metric_names():
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for name in function_names():
        names += [f"{name}.calls", f"{name}.self_s"]
        if name in CAN_FAIL:
            names.append(f"{name}.fail_share")
        if name in CAN_BE_NONE:
            names.append(f"{name}.none_share")
        if name in GENERATORS:
            names.append(f"{name}.yielded")
    return names + ["oracle.exact_min_bins.cache_size"]


class Tracer:
    """Spans in columns (one array per field), appended as calls open."""

    def __init__(self):
        self.names = function_names()
        self.name, self.parent, self.solve = array("i"), array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self.outcome = array("b")
        self.stack = []
        self.solve_id = -1
        self.solves = []  # [solve id, start, end]
        self.generator_calls = {}
        from rectbin.errors import (ConditionViolated, GuessFailed, InstanceTooLarge,
                                    PreconditionViolated)
        self.failures = (GuessFailed, InstanceTooLarge, ConditionViolated,
                         PreconditionViolated)

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every listed function in every rectbin module that binds it."""
        modules = [importlib.import_module(f"rectbin.{m}") for m in LAYERS]
        wrappers = {}
        for index, name in enumerate(self.names):
            mod, fn = name.split(".")
            original = getattr(importlib.import_module(f"rectbin.{mod}"), fn)
            if name in GENERATORS:
                wrappers[id(original)] = self._wrap_generator(original, index)
            else:
                wrappers[id(original)] = self._wrap(original, index)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])

    def _open(self, index):
        pos = len(self.name)
        self.name.append(index)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.solve.append(self.solve_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.outcome.append(OK)
        self.stack.append(pos)
        return pos

    def _wrap(self, fn, index):
        clock = time.perf_counter
        failures = self.failures
        start, end, outcome, stack = self.start, self.end, self.outcome, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pos = self._open(index)
            try:
                start[pos] = clock()
                result = fn(*args, **kwargs)
            except failures:
                outcome[pos] = FAILED
                raise
            except BaseException:
                outcome[pos] = ABORTED
                raise
            finally:
                end[pos] = clock()
                stack.pop()
            if result is None:
                outcome[pos] = NONE
            return result

        return traced

    def _wrap_generator(self, fn, index):
        """One span per next(); a call is one generator created."""
        clock = time.perf_counter
        failures = self.failures
        start, end, outcome, stack = self.start, self.end, self.outcome, self.stack
        name = self.names[index]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.generator_calls[name] = self.generator_calls.get(name, 0) + 1
            inner = fn(*args, **kwargs)
            while True:
                pos = self._open(index)
                try:
                    start[pos] = clock()
                    value = next(inner)
                except StopIteration:
                    outcome[pos] = NONE
                    return
                except failures:
                    outcome[pos] = FAILED
                    raise
                except BaseException:
                    outcome[pos] = ABORTED
                    raise
                finally:
                    end[pos] = clock()
                    stack.pop()
                yield value

        return traced

    # -- solves ----------------------------------------------------------

    def begin_solve(self, solve_id):
        self.solve_id = solve_id
        self.stack.clear()
        self.solves.append([solve_id, time.perf_counter(), 0.0])

    def end_solve(self):
        self.solves[-1][2] = time.perf_counter()
        self.stack.clear()  # a deadline can interrupt a wrapper before it pops

    # -- results ---------------------------------------------------------

    def _durations(self):
        return [max(0.0, e - s) for s, e in zip(self.start, self.end)]

    def layer_metrics(self):
        """Per-function calls, self time and outcome shares."""
        count = len(self.names)
        calls, self_s = [0] * count, [0.0] * count
        failed, none, nexts = [0] * count, [0] * count, [0] * count
        durations = self._durations()
        child = [0.0] * len(durations)
        for pos, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += durations[pos]
        cache_size = 0
        exact_min_bins = self.names.index("oracle.exact_min_bins")
        vol = self.names.index("classify.vol")
        for pos, index in enumerate(self.name):
            calls[index] += 1
            self_s[index] += durations[pos] - child[pos]
            outcome = self.outcome[pos]
            failed[index] += outcome == FAILED
            none[index] += outcome == NONE
            nexts[index] += outcome == OK
            # the oracle computes vol once per subset it adds to its cache
            parent = self.parent[pos]
            if index == vol and parent >= 0 and self.name[parent] == exact_min_bins:
                cache_size += 1
        metrics = {}
        for index, name in enumerate(self.names):
            n = calls[index]
            if name in GENERATORS:
                n = self.generator_calls.get(name, 0)
                metrics[f"{name}.yielded"] = nexts[index]
            metrics[f"{name}.calls"] = n
            metrics[f"{name}.self_s"] = self_s[index]
            if name in CAN_FAIL:
                metrics[f"{name}.fail_share"] = failed[index] / n if n else 0.0
            if name in CAN_BE_NONE:
                metrics[f"{name}.none_share"] = none[index] / n if n else 0.0
        metrics["oracle.exact_min_bins.cache_size"] = cache_size
        return metrics

    def coverage(self):
        """Solve wall seconds, and the part of them inside top-level spans."""
        wall = sum(end - start for _, start, end in self.solves)
        durations = self._durations()
        covered = sum(d for d, parent in zip(durations, self.parent) if parent < 0)
        return {"solve_s": wall, "covered_s": covered}

    def write_spans(self, path):
        """All spans as one JSON object of columns, in SPAN_FIELDS order."""
        columns = {field: getattr(self, field).tolist() for field in SPAN_FIELDS}
        with open(path, "w") as fh:
            json.dump({"functions": self.names, "solves": self.solves, **columns}, fh)
