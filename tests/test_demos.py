"""Every script under demos/ runs to the end against this checkout."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import cli_invocation

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(demo, tmp_path):
    # demos write cli_demo/ and sweep.csv into the working directory
    _, env = cli_invocation()
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
