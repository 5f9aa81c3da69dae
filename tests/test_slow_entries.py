"""scripts/slow_entries.py: one timed solve per benchmark pool entry."""

import importlib.util
import time
from pathlib import Path

from rectbin import oracle
from rectbin.fileio import serialize_instance
from rectbin.oracle import GeneratorSpec, gen_instance

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
