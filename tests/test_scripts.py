"""The scripts under scripts/ run from a plain checkout, without installing
toriq or setting PYTHONPATH."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("argv", [("run_cases.py",), ("witness_stats.py", "2", "0")])
def test_script_runs_from_checkout(argv):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
