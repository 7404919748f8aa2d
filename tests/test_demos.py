"""Smoke test of the demos that run in under a second: each runs as a
script in an empty directory and must exit 0. `nmse_demo.py` and
`multiuser_demo.py` run Monte-Carlo experiments that take too long for
this suite and are not run here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nfbeam

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo, expected", [
    ("pattern_demo.py", "near-field region"),
    ("training_demo.py", "<- selected"),
])
def test_demo_runs(tmp_path, demo, expected):
    env = {**os.environ, "PYTHONPATH": str(Path(nfbeam.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout
