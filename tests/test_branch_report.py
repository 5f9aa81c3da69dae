"""scripts/branch_report.py: branch tallies read from each packing's path."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "branch_report.py"


def test_delta_width_plants_report_their_branch(capsys):
    spec = importlib.util.spec_from_file_location("branch_report", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--seeds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    plant_line = next(line for line in lines if line.split()[0] == "delta_width")
    assert plant_line.split(maxsplit=1)[1] == "{'delta_width': 2}"
    assert any(line.split()[0] == "const_4" and "flipped" in line for line in lines)
