"""scripts/compare_outputs.py: per-entry output digests of two runs."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"


@pytest.fixture
def compare():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def outputs(tmp_path, name, digests):
    path = tmp_path / name
    path.write_text(json.dumps({"digest_entries": len(digests), "per_entry_sha256": digests}))
    return str(path)


DIGESTS = {"0": "aa", "2": "bb", "10": "cc"}


def test_identical_files_exit_0(compare, tmp_path, capsys):
    parent = outputs(tmp_path, "parent.json", DIGESTS)
    change = outputs(tmp_path, "change.json", dict(DIGESTS))
    assert compare([parent, change]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "matched 3 mismatched 0 only_parent 0 only_change 0"]


def test_a_differing_digest_exits_1_and_lists_its_index(compare, tmp_path, capsys):
    parent = outputs(tmp_path, "parent.json", DIGESTS)
    change = outputs(tmp_path, "change.json", {**DIGESTS, "10": "dd"})
    assert compare([parent, change]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "matched 2 mismatched 1 only_parent 0 only_change 0",
        "first mismatched pool indices: 10"]


def test_one_side_only_indices_are_counted_not_mismatched(compare, tmp_path, capsys):
    parent = outputs(tmp_path, "parent.json", {**DIGESTS, "5": "ee"})
    change = outputs(tmp_path, "change.json", {"0": "aa", "2": "bb", "7": "ff", "8": "00"})
    assert compare([parent, change]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "matched 2 mismatched 0 only_parent 2 only_change 2"]


@pytest.mark.parametrize("count", [0, 1, 3])
def test_wrong_argument_count_exits_2(compare, tmp_path, capsys, count):
    args = [outputs(tmp_path, f"{i}.json", DIGESTS) for i in range(count)]
    assert compare(args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: compare_outputs.py")
