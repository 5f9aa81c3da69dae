"""scripts/slow_entries.py: one timed solve per benchmark pool entry."""

import hashlib
import importlib.util
import json
import time
from pathlib import Path

import pytest

from rectbin import knapsack, oracle
from rectbin.fileio import parse_instance, serialize_instance, serialize_packing
from rectbin.oracle import GeneratorSpec, exact_min_bins, gen_instance
from support import run_with_closed_stdout

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "slow_entries.py"


def load_script():
    spec = importlib.util.spec_from_file_location("slow_entries", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lists_the_entries_past_the_cap(monkeypatch, capsys):
    slow_entries = load_script()
    exact_min_bins = oracle.exact_min_bins

    def waits_on_many_items(instance, **kwargs):
        # sleeps until the interval timer interrupts it, so the tail entry
        # passes the cap however fast the machine; the single item is
        # solved for real, far below the cap
        if len(instance.items) > 1:
            time.sleep(30)
            raise AssertionError("the interval timer did not fire")
        return exact_min_bins(instance, **kwargs)

    monkeypatch.setattr(oracle, "exact_min_bins", waits_on_many_items)
    tail, _ = gen_instance(GeneratorSpec(seed=230964, n=7, ell=1, mode="shrink"))
    pool = [
        {"pool_index": 2, "kind": "pack", "source": "bad", "text": "items 1\n0 2 1\n"},
        {"pool_index": 1, "kind": "oracle", "source": "tail", "text": serialize_instance(tail)},
        {"pool_index": 0, "kind": "oracle", "source": "quick", "text": "items 1\n0 1/2 1/2\n"},
    ]
    monkeypatch.setattr(slow_entries, "build_corpus", lambda workload, seed, size: pool)
    assert slow_entries.main(["oracle", "--cap", "0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines[:-1]] == [
        ["1", "'tail'", "deadline"], ["2", "'bad'", "error"]]
    assert "ParseError" in lines[1]
    assert lines[-1].startswith("entries 3 listed 2 cap_s 0.5 ")


def test_outputs_file_holds_the_digests_of_completed_entries(monkeypatch, tmp_path, capsys):
    slow_entries = load_script()
    pool = [
        {"pool_index": 3, "kind": "oracle", "source": "pair", "text": "items 2\n0 1/2 1\n1 1/2 1\n"},
        {"pool_index": 1, "kind": "oracle", "source": "bad", "text": "items 1\n0 2 1\n"},
        {"pool_index": 0, "kind": "oracle", "source": "quick", "text": "items 1\n0 1/2 1/2\n"},
    ]
    monkeypatch.setattr(slow_entries, "build_corpus", lambda workload, seed, size: pool)
    out = tmp_path / "outputs.json"
    assert slow_entries.main(["oracle", "--cap", "5", "--outputs", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("entries 3 listed 1 cap_s 5 ")
    written = json.loads(out.read_text())
    # the benchmark hashes json.dumps([summary, answer, output]) per entry
    expected = {}
    for entry in (pool[2], pool[0]):
        count, packing = exact_min_bins(parse_instance(entry["text"]), max_bins=4)
        text = json.dumps([None, count, serialize_packing(packing)])
        expected[str(entry["pool_index"])] = hashlib.sha256(text.encode()).hexdigest()
    assert written["per_entry_sha256"] == expected
    assert [solve[:2] for solve in written["solves"]] == [[0, "ok"], [1, "error"], [3, "ok"]]


def test_searches_lists_the_slowest_that_find_no_layout(monkeypatch, capsys):
    slow_entries = load_script()
    search = knapsack._search_lattice
    pool = [
        # oracle pool entry 1405's set that no layout fits: its one
        # search finds none
        {"pool_index": 7, "kind": "oracle", "source": "none",
         "text": "items 6\n0 39/512 135/512\n1 19/64 53/256\n2 9/16 1\n4 25/64 11/64\n"
                 "5 69/512 5/8\n6 3/256 53/64\n"},
        # the first layout of items 0 and 2 leaves item 1 no corner, so
        # the set is searched, and fits
        {"pool_index": 3, "kind": "oracle", "source": "fit",
         "text": "items 3\n0 1/4 3/4\n1 1 1/4\n2 3/4 1/2\n"},
        {"pool_index": 0, "kind": "oracle", "source": "quick", "text": "items 1\n0 1/2 1/2\n"},
    ]
    monkeypatch.setattr(slow_entries, "build_corpus", lambda workload, seed, size: pool)
    assert slow_entries.main(["oracle", "--cap", "5", "--searches"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    fields = lines[0].split()
    assert fields[:3] == ["search", "7", "512x512:288x512,69x320,200x88,152x106,39x135,6x424"]
    assert float(fields[3]) > 0
    summary = lines[1].split()
    assert summary[:4] == ["entries", "3", "listed", "0"]
    assert summary[10:14] == ["searches", "2", "none", "1"]
    assert summary[14] == "none_s" and summary[16] == "fit_s"
    assert knapsack._search_lattice is search  # unwrapped after the loop
    # without the flag the summary ends at the slowest share
    assert slow_entries.main(["oracle", "--cap", "5"]) == 0
    assert capsys.readouterr().out.split()[-2] == "slowest_1pct_share"


def test_profile_lists_the_functions_with_the_most_own_time(monkeypatch, capsys):
    slow_entries = load_script()
    pool = [
        {"pool_index": 1, "kind": "oracle", "source": "fit",
         "text": "items 3\n0 1/4 3/4\n1 1 1/4\n2 3/4 1/2\n"},
        {"pool_index": 0, "kind": "oracle", "source": "quick", "text": "items 1\n0 1/2 1/2\n"},
    ]
    monkeypatch.setattr(slow_entries, "build_corpus", lambda workload, seed, size: pool)
    assert slow_entries.main(["oracle", "--cap", "5", "--profile", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and lines[-1].startswith("entries 2 listed 0 ")
    rows = [line.split(" ", 3) for line in lines[:4]]
    assert all(row[0] == "profile" and int(row[2]) > 0 for row in rows)
    own = [float(row[1]) for row in rows]
    assert own == sorted(own, reverse=True)
    # with room for every function, the solver's own show, named from the
    # repository root
    assert slow_entries.main(["oracle", "--cap", "5", "--profile", "100000"]) == 0
    functions = [line.split(" ", 3)[3] for line in capsys.readouterr().out.splitlines()[:-1]]
    assert any(f.startswith("src/rectbin/oracle.py:") and f.endswith("(exact_min_bins)")
               for f in functions)
    with pytest.raises(SystemExit):
        slow_entries.main(["oracle", "--profile", "0"])


@pytest.mark.parametrize("unbuffered", [True, False])
def test_a_closed_stdout_ends_without_a_traceback(unbuffered):
    # a 0.1 ms cap lists entries at once; the first listed line or the
    # flush after the summary meets the closed pipe
    argv = [str(SCRIPT), "oracle", "--cap", "0.0001"]
    assert run_with_closed_stdout(argv, unbuffered) == (1, "")
