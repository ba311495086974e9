"""Every demo script runs to completion against the current API.

Each demo runs in a fresh interpreter from an empty directory, because some
write output files relative to the working directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import uqregress

SRC = str(Path(uqregress.__file__).resolve().parent.parent)
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
