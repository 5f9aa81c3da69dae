"""scripts/demo.py: generate, pack, validate and render in one run."""

import importlib.util
from pathlib import Path

from rectbin.fileio import parse_instance, parse_packing
from rectbin.geometry import validate_packing

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "demo.py"


def load_script():
    spec = importlib.util.spec_from_file_location("demo", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demo_writes_a_valid_packing_and_its_drawings(tmp_path, capsys):
    demo = load_script()
    assert demo.main(["--out", str(tmp_path)]) == 0
    instance = parse_instance((tmp_path / "instance.txt").read_text())
    packing = parse_packing((tmp_path / "packing.txt").read_text())
    assert validate_packing(packing, instance).ok
    assert len(list(tmp_path.glob("*.svg"))) == len(packing.bins)
    assert "validator: ok" in capsys.readouterr().out
