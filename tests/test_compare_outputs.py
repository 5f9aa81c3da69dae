"""scripts/compare_outputs.py: per-entry output digests of two runs."""

import importlib.util
import json
from pathlib import Path

import pytest

from support import run_with_closed_stdout

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"


@pytest.fixture
def compare():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def outputs(tmp_path, name, digests, solves=None, workload=None):
    path = tmp_path / name
    run = {"digest_entries": len(digests), "per_entry_sha256": digests}
    if solves is not None:
        run["solves"] = solves
    if workload is not None:
        run["workload"] = workload
    path.write_text(json.dumps(run))
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


def test_files_of_different_workloads_exit_2_without_comparing(compare, tmp_path, capsys):
    parent = outputs(tmp_path, "parent.json", DIGESTS, workload="one_bin")
    change = outputs(tmp_path, "change.json", {**DIGESTS, "10": "dd"}, workload="oracle")
    assert compare([parent, change]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "compare_outputs.py: the files are of different workloads, one_bin and oracle"]


def test_one_workload_or_a_file_without_one_compares(compare, tmp_path, capsys):
    # perfbench's outputs-*.json files name no workload
    named = outputs(tmp_path, "named.json", DIGESTS, workload="two_bin")
    same = outputs(tmp_path, "same.json", dict(DIGESTS), workload="two_bin")
    unnamed = outputs(tmp_path, "unnamed.json", dict(DIGESTS))
    for pair in ([named, same], [named, unnamed], [unnamed, named]):
        assert compare(pair) == 0
        assert capsys.readouterr().out.splitlines() == [
            "matched 3 mismatched 0 only_parent 0 only_change 0"]


# (pool index, status, seconds) per solve, as perfbench/run.py writes them
PARENT_SOLVES = [[0, "ok", 1.0], [2, "ok", 2.0], [10, "ok", 4.0], [0, "ok", 3.0],
                 [5, "ok", 1.0], [7, "deadline", 0.3], [8, "ok", 1.0]]
CHANGE_SOLVES = [[0, "ok", 1.0], [2, "ok", 3.0], [10, "ok", 2.0], [10, "ok", 3.0],
                 [10, "ok", 7.0], [5, "error", 0.1], [7, "ok", 1.0], [8, "ok", 0.5]]


def test_solve_time_ratios_over_entries_both_runs_completed(compare, tmp_path, capsys):
    # entry 0: 1.0 / median(1.0, 3.0) = 0.5; entry 2: 1.5; entry 10: 3.0 /
    # 4.0 = 0.75; entry 8: 0.5; entries 5 and 7 failed on one side
    parent = outputs(tmp_path, "parent.json", DIGESTS, PARENT_SOLVES)
    change = outputs(tmp_path, "change.json", dict(DIGESTS), CHANGE_SOLVES)
    assert compare([parent, change]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "matched 3 mismatched 0 only_parent 0 only_change 0",
        "solve_time_ratio entries 4 median 0.625 p90 1.500 worst 2 10 0 8"]


def test_solve_time_ratios_leave_the_digest_exit_code(compare, tmp_path, capsys):
    parent = outputs(tmp_path, "parent.json", DIGESTS, PARENT_SOLVES)
    change = outputs(tmp_path, "change.json", {**DIGESTS, "2": "dd"}, CHANGE_SOLVES[:1])
    assert compare([parent, change]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "matched 2 mismatched 1 only_parent 0 only_change 0",
        "first mismatched pool indices: 2",
        "solve_time_ratio entries 1 median 0.500 p90 0.500 worst 0"]


def test_no_ratio_line_unless_both_runs_carry_solves(compare, tmp_path, capsys):
    parent = outputs(tmp_path, "parent.json", DIGESTS, PARENT_SOLVES)
    change = outputs(tmp_path, "change.json", dict(DIGESTS))
    assert compare([parent, change]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "matched 3 mismatched 0 only_parent 0 only_change 0"]
    empty = outputs(tmp_path, "empty.json", dict(DIGESTS), [[0, "deadline", 0.3]])
    assert compare([parent, empty]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "solve_time_ratio entries 0"


@pytest.mark.parametrize("unbuffered", [True, False])
def test_a_closed_stdout_ends_without_a_traceback(tmp_path, unbuffered):
    parent = outputs(tmp_path, "parent.json", DIGESTS)
    assert run_with_closed_stdout([str(SCRIPT), parent, parent], unbuffered) == (1, "")
