"""Every shipped config runs through the CLI, and the default route never imports scipy."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import phononbus
from phononbus.cli import main

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"

# config -> (command, artifacts besides manifest.json)
SHIPPED = {
    "virtual.ini": ("simulate", ["trajectory.csv"]),
    "resonant.ini": ("simulate", ["trajectory.csv"]),
    "double_rabi.ini": ("simulate", ["trajectory.csv"]),
    "sweep_delta_i.ini": ("sweep", ["sweep.csv", "summary.json"]),
    "hierarchy.ini": ("sweep", ["hierarchy.csv", "summary.json"]),
    "spin_field.ini": ("spin-field", ["spin_field.csv"]),
    "coupling.ini": ("coupling", ["coupling.json"]),
    "qbudget.ini": ("qbudget", ["qbudget.json"]),
}


def test_every_shipped_config_is_covered():
    assert sorted(p.name for p in CONFIGS.glob("*.ini")) == sorted(SHIPPED)


def test_readme_usage_matches_the_table():
    usage = re.findall(r"^phononbus (\S+)\s+--config configs/(\S+\.ini)", (REPO / "README.md").read_text(), re.M)
    assert usage
    for command, name in usage:
        assert SHIPPED[name][0] == command


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_config_runs(tmp_path, name):
    command, artifacts = SHIPPED[name]
    out_dir = tmp_path / "out"
    assert main([command, "--config", str(CONFIGS / name), "--out", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["outputs"] == [str(out_dir / a) for a in artifacts]
    for artifact in artifacts:
        assert (out_dir / artifact).stat().st_size > 0
        if artifact.endswith(".json"):
            json.loads((out_dir / artifact).read_text())


COLD_START = """
import sys
from phononbus.cli import main

assert main(["simulate", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
assert main(["simulate", "--config", sys.argv[3], "--out", sys.argv[4]]) == 0
print("scipy.integrate" in sys.modules)
"""


def test_default_route_runs_without_scipy(tmp_path):
    adaptive = tmp_path / "adaptive.ini"
    text = (CONFIGS / "resonant.ini").read_text()
    adaptive.write_text(text.replace("method = piecewise-exponential", "method = adaptive-stepper"))
    assert "adaptive-stepper" in adaptive.read_text()
    env = dict(os.environ, PYTHONPATH=str(Path(phononbus.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, str(CONFIGS / "virtual.ini"), str(tmp_path / "default"),
         str(adaptive), str(tmp_path / "adaptive")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True"]
    assert (tmp_path / "adaptive" / "trajectory.csv").exists()
