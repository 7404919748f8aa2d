"""Smoke test of the four demos: each runs as a script in an empty
directory, must exit 0 and prints its closing section. The two
Monte-Carlo demos, `nmse_demo.py` and `multiuser_demo.py`, take under a
second each with one BLAS thread. The README's library quick start runs
too, and prints what its comments claim."""

import ast
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
    ("nmse_demo.py", "distance NMSE at the top of the sweep"),
    ("multiuser_demo.py", "average rate per user"),
])
def test_demo_runs(tmp_path, demo, expected):
    env = {**os.environ, "PYTHONPATH": str(Path(nfbeam.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout


def test_readme_quick_start_prints_what_its_comments_claim(capsys):
    readme = (DEMOS.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md quick start", "exec"), {})
    bounds, estimate = capsys.readouterr().out.splitlines()
    r_fre, r_ray = ast.literal_eval(bounds)
    assert r_fre == pytest.approx(6.14, abs=0.005) and r_ray == pytest.approx(392.9, abs=0.05)
    theta_hat, r_hat, pilots = estimate.split()
    assert float(theta_hat) == pytest.approx(0.25, abs=0.005)
    assert float(r_hat) == pytest.approx(12.0, abs=0.5)
    assert int(pilots) == 515
