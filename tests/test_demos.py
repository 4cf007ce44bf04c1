import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# Lines a demo must print, so that a change in how colorings are counted,
# or in the mapping each copy carries, shows up here too.
PRINTS = {
    "03_arrows.py": (
        "arrow fails copies=10 colorings=237",
        "arrow holds copies=15 colorings=16384",
        "{a b c} -> color 0",
        "{c _h1 a} -> color 1",
    ),
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    for line in PRINTS.get(demo.name, ()):
        assert line in result.stdout
