"""Tests of the benchmark's own parts: generator, checker, tracing, deadline.

Run from the repository root with `python3 -m pytest -q perfbench`.
"""

import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
from rectbin.fileio import parse_instance, parse_packing  # noqa: E402
from rectbin.geometry import validate_packing  # noqa: E402


def test_boundary_witnesses_validate():
    sides = set()
    for seed in range(40):
        for ell in (1, 2, 3):
            for n in range(ell, 13):
                text, witness = corpus.boundary_instance(seed, n, ell)
                items = check.parse_items(text)
                declared, bins = check.parse_bins(witness)
                assert len(items) == n and declared == ell == len(bins)
                assert check.packing_problems(items, declared, bins) == []
                assert validate_packing(parse_packing(witness), parse_instance(text)).ok
                sides.update(s for wh in items.values() for s in wh)
    for side in (Fraction(499, 1000), Fraction(501, 1000), Fraction(255, 256),
                 Fraction(1, 100)):
        assert side in sides


def test_checker_rejects_broken_packings():
    items = {0: (Fraction(1, 2), Fraction(1, 2)), 1: (Fraction(1, 2), Fraction(1))}
    ok = [[(0, Fraction(0), Fraction(0)), (1, Fraction(1, 2), Fraction(0))]]
    assert check.packing_problems(items, 1, ok) == []
    overlap = [[(0, Fraction(0), Fraction(0)), (1, Fraction(1, 4), Fraction(0))]]
    assert "overlap" in check.packing_problems(items, 1, overlap)
    outside = [[(0, Fraction(0), Fraction(0)), (1, Fraction(3, 4), Fraction(0))]]
    assert "out_of_bin" in check.packing_problems(items, 1, outside)
    missing = [[(0, Fraction(0), Fraction(0))]]
    assert "missing_item" in check.packing_problems(items, 1, missing)
    twice = [[(0, Fraction(0), Fraction(0)), (1, Fraction(1, 2), Fraction(0))],
             [(0, Fraction(0), Fraction(0))]]
    problems = check.packing_problems(items, 1, twice)
    assert "duplicate_item" in problems and "bin_count_header" in problems


def _small_corpus():
    entries = corpus.build_corpus("one_bin", 0, 10) + corpus.build_corpus("oracle", 0, 6)
    return [{**entry, "pool_index": i} for i, entry in enumerate(entries)]


def test_traced_outputs_equal_untraced():
    entries = _small_corpus()
    plain, _, _, _ = run.solve_loop({"deadline": 5.0}, entries, count=len(entries))
    traced, _, _, report = run.solve_loop({"deadline": 5.0, "trace": True}, entries,
                                          count=len(entries))
    run.check_replies(entries, plain)
    run.check_replies(entries, traced)
    both = [(a, b) for a, b in zip(plain, traced) if a["status"] == b["status"] == "ok"]
    assert len(both) >= len(entries) - 2
    digest_plain, count_plain, _ = run.digest(entries, [a for a, _ in both])
    digest_traced, count_traced, _ = run.digest(entries, [b for _, b in both])
    assert digest_plain == digest_traced and count_plain == count_traced == len(both)
    assert not run.wrong(plain) and not run.wrong(traced)
    layers = report["layers"]
    for name in ("cli.pack_auto", "fileio.parse_instance", "geometry.validate_bin",
                 "oracle.exact_min_bins", "knapsack.exact_pack_single_region"):
        assert layers[f"{name}.calls"] > 0, name
    # validate_bin is also bound in opt1 and steinberg; all bindings count
    assert layers["geometry.validate_bin.calls"] > layers["geometry.validate_packing.calls"]
    assert layers["oracle.exact_min_bins.cache_size"] > 0
    assert set(layers) == set(run.trace_metric_names()) - set(run.DERIVED_TRACE_METRICS)


def test_deadline_miss_counts_and_next_solve_runs():
    slow = corpus._generated("pack", "shrink", 4, 9, 2)  # runs for seconds
    fast = corpus.build_corpus("one_bin", 0, 1)[0]
    entries = [slow, fast]
    deadline = 0.3
    replies, _, _, _ = run.solve_loop({"deadline": deadline}, entries, count=2)
    run.check_replies(entries, replies)
    assert replies[0]["status"] == "deadline" and replies[0]["problems"] == ["deadline"]
    assert replies[1]["status"] == "ok" and replies[1]["problems"] == []
    assert run.latencies_ms(replies, deadline)[0] == 1000.0 * deadline
    metrics, extra = run.end_to_end(entries, replies, 1.0, [0.1], 10.0, deadline, 50.0)
    assert metrics["completed_share"][0] == 0.5
    assert extra["fail_share"] == 0.5 and extra["deadline_misses"] == 1


def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        [(name, run.trace_unit(name)) for name in run.trace_metric_names()]
    replies = [{"index": 0, "status": "deadline", "latency_s": 0.3, "problems": ["deadline"]}]
    metrics, _ = run.end_to_end(corpus.build_corpus("one_bin", 0, 1), replies, 1.0, [0.1],
                                10.0, 0.3, 50.0)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {name: unit for name, (_, unit) in metrics.items()}
