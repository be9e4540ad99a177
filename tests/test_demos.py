"""The demos run to completion on a fresh install."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("script,args", [
    ("01_mission_basics.py", ["--out", "out"]),
    ("02_robustness_and_influence.py", []),
    ("03_fuzzing_campaign.py", ["--executions", "2", "--out", "out"]),
])
def test_demo_exits_0(script, args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(DEMOS / script), *args],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
