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


def test_a_tree_without_the_package_is_refused(tmp_path):
    proc = run(tmp_path, "oracle", "--limit", 3)
    assert proc.returncode == 2
    assert "holds no src/rectbin package" in proc.stderr
