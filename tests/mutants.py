"""Committed mutants: wrong programs the suite must reject.

Each mutant replaces one exact text in one file under `src/` and names
the tests that must fail on the mutated program. Run, from the
repository root,

    python tests/mutants.py [NAME ...]

to copy `src/`, `tests/` and `pyproject.toml` to a temporary directory,
apply each mutant (or the named ones) in turn, run its tests there under
a per-mutant time budget, and print killed, survived, timeout or error.
The exit status is 0 only when every mutant run is killed. Tier-1 runs
none of them: `tests/test_mutants.py` checks that every old text occurs
exactly once and that every named test exists.

A change that adds an invariant adds its mutant here. A mutant that
survives is a gap in the tests; it stays on the list.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
BUDGET_S = 300.0


class Mutant(NamedTuple):
    name: str
    path: str         # relative to the repository root
    old: str          # occurs exactly once in the file
    new: str
    kills: tuple[str, ...]  # pytest ids, each of which must fail


MUTANTS = (
    Mutant("empty-grid-is-a-runtime-failure", "src/nfbeam/cli.py",
           "except (EmptyMainSetError, SingularChannelError, LinAlgError, OSError) as exc:",
           "except (EmptyMainSetError, sys.modules['nfbeam.errors'].EmptyGridError,"
           " SingularChannelError, LinAlgError, OSError) as exc:",
           ("tests/test_cli.py::TestErrors::test_an_empty_polar_grid_is_a_config_error",
            "tests/test_cli.py::TestErrors"
            "::test_a_small_array_with_a_polar_scheme_is_a_config_error")),
    Mutant("joint-fallback-at-the-fresnel-end", "src/nfbeam/estimators.py",
           "j = (-1 if width <= 2.0 / cfg.n_antennas",
           "j = (0 if width <= 2.0 / cfg.n_antennas",
           ("tests/test_estimators.py::TestJointTraining"
            "::test_a_single_bin_run_falls_back_to_the_rayleigh_end",)),
    Mutant("refinement-budget-off-by-one", "src/nfbeam/estimators.py",
           "return _pick(cfg, cands, cfg.n_antennas + len(cands), ref.evals)",
           "return _pick(cfg, cands, cfg.n_antennas + len(cands) + 1, ref.evals)",
           ("tests/test_estimators.py::TestProposedTraining::test_pilot_budget",
            "tests/test_estimators.py::TestJointTraining::test_pilot_budget_and_search_cost")),
    Mutant("central-gain-at-broadside", "src/nfbeam/beampattern.py",
           "a = codewords(cfg, [(p.theta, FAR_FIELD)])[p.theta, FAR_FIELD]",
           "a = codewords(cfg, [(0.0, FAR_FIELD)])[0.0, FAR_FIELD]",
           ("tests/test_beampattern.py::TestNormalizedPattern"
            "::test_self_normalization_on_grid_angle",
            "tests/test_beampattern.py::TestNormalizedPattern"
            "::test_one_steering_vector_gives_the_gains_and_the_central_gain")),
)


def run(mutant: Mutant, work: Path) -> str:
    """Apply `mutant` in the copy `work`, run each of its tests, restore the
    file; return "killed" only when every named test fails."""
    target = work / mutant.path
    original = target.read_text(encoding="utf-8")
    if original.count(mutant.old) != 1:
        return f"error (old text occurs {original.count(mutant.old)} times)"
    target.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    deadline = time.monotonic() + BUDGET_S
    try:
        for test in mutant.kills:
            try:
                done = subprocess.run(
                    [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
                    cwd=work, env=env, capture_output=True, text=True,
                    timeout=max(deadline - time.monotonic(), 1.0))
            except subprocess.TimeoutExpired:
                return "timeout"
            if done.returncode == 0:
                return f"survived ({test} passed)"
            if done.returncode != 1:  # not found, no tests collected, interrupted
                return f"error (pytest exit {done.returncode} on {test})"
        return "killed"
    finally:
        target.write_text(original, encoding="utf-8")


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    with tempfile.TemporaryDirectory(prefix="nfbeam-mutants-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        results = []
        for m in chosen:
            t0 = time.monotonic()
            results.append(run(m, work))
            print(f"{m.name}: {results[-1]} [{time.monotonic() - t0:.1f} s]", flush=True)
    return 0 if all(r == "killed" for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
