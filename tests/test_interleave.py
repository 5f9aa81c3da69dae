"""scripts/interleave.py: two source trees timed on one pool in one process."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "interleave.py"


def run(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                          capture_output=True, text=True, timeout=120)


def test_the_repository_against_itself_matches():
    proc = run(ROOT, "one_bin", "--limit", 20, "--rounds", 1)
    assert proc.returncode == 0, proc.stderr
    this, other, ratio, summary = proc.stdout.splitlines()
    for line, label in ((this, "this"), (other, "other")):
        fields = line.split()
        assert fields[0] == label
        assert fields[1::2] == ["p50_ms", "tail_ms", "parse_us", "solve_us", "serialize_us"]
        assert all(float(value) > 0 for value in fields[2::2])
    words = ratio.split()
    assert words[0] == "ratio" and words[1::2] == ["p50", "tail"]
    assert summary == "entries 20 rounds 1 missed 0 differing 0"


def test_by_branch_splits_the_entries_by_this_tree_s_branch():
    proc = run(ROOT, "two_bin", "--limit", 12, "--rounds", 1, "--by-branch")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[3] == "entries 12 rounds 1 missed 0 differing 0"
    branches = [line.split() for line in lines[4:]]
    assert branches and [words[1] for words in branches] == sorted(words[1] for words in branches)
    for words in branches:
        assert words[0] == "branch" and words[1] in ("opt1", "const2", "shelf")
        assert words[2::2] == ["entries", "this_p50_ms", "other_p50_ms", "ratio"]
        assert int(words[3]) > 0 and all(float(value) > 0 for value in words[5::2])
    assert sum(int(words[3]) for words in branches) == 12
    assert "const2" in [words[1] for words in branches]
    proc = run(ROOT, "oracle", "--limit", 5, "--rounds", 1, "--by-branch")
    assert proc.returncode == 0, proc.stderr
    answers = [line.split()[1] for line in proc.stdout.splitlines()[4:]]
    assert answers and all(answer.isdigit() for answer in answers)


def test_differing_outputs_exit_1(tmp_path):
    # the other tree appends a mark to every serialized packing
    shutil.copytree(ROOT / "src" / "rectbin", tmp_path / "src" / "rectbin",
                    ignore=shutil.ignore_patterns("__pycache__"))
    fileio = tmp_path / "src" / "rectbin" / "fileio.py"
    fileio.write_text(fileio.read_text() + "\n\n_serialize = serialize_packing\n\n\n"
                      "def serialize_packing(packing):\n"
                      "    return _serialize(packing) + '#'\n")
    proc = run(tmp_path, "oracle", "--limit", 3, "--rounds", 1)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("entries 3 rounds 1 missed 0 differing 3 first ")


def test_an_output_from_an_earlier_round_is_compared(tmp_path):
    # the other tree passes the oracle's 0.3 s deadline in rounds 1 and 3
    # and completes in round 2 with a marked packing: that output is the
    # one compared, so the entry differs and none counts as missed
    shutil.copytree(ROOT / "src" / "rectbin", tmp_path / "src" / "rectbin",
                    ignore=shutil.ignore_patterns("__pycache__"))
    fileio = tmp_path / "src" / "rectbin" / "fileio.py"
    fileio.write_text(fileio.read_text() + "\n\nimport time\n"
                      "_serialize = serialize_packing\n_calls = []\n\n\n"
                      "def serialize_packing(packing):\n"
                      "    _calls.append(1)\n"
                      "    if len(_calls) != 2:\n"
                      "        time.sleep(5)\n"
                      "    return _serialize(packing) + '#'\n")
    proc = run(tmp_path, "oracle", "--limit", 1, "--rounds", 3)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("entries 1 rounds 3 missed 0 differing 1 first ")


def test_a_tree_without_the_package_is_refused(tmp_path):
    proc = run(tmp_path, "oracle", "--limit", 3)
    assert proc.returncode == 2
    assert "holds no src/rectbin package" in proc.stderr
