"""scripts/slow_entries.py: one timed solve per benchmark pool entry."""

import hashlib
import importlib.util
import json
import time
from pathlib import Path

import pytest

from rectbin import oracle
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


@pytest.mark.parametrize("unbuffered", [True, False])
def test_a_closed_stdout_ends_without_a_traceback(unbuffered):
    # a 0.1 ms cap lists entries at once; the first listed line or the
    # flush after the summary meets the closed pipe
    argv = [str(SCRIPT), "oracle", "--cap", "0.0001"]
    assert run_with_closed_stdout(argv, unbuffered) == (1, "")
