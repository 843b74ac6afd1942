"""Every script under demos/ runs to completion against the source tree."""

import subprocess
import sys
from pathlib import Path

import pytest

from helpers import child_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    cp = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=child_env())
    assert cp.returncode == 0, cp.stderr
