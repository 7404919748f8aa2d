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
    Mutant("noise-re-im-blocks", "src/nfbeam/numerics.py",
           "more = self._rng.standard_normal(2 * (end - self._units.size)).view(complex)",
           "u = self._rng.standard_normal(2 * (end - self._units.size)); "
           "more = u[:u.size // 2] + 1j * u[u.size // 2:]",
           ("tests/test_numerics.py::TestNoiseModel"
            "::test_a_sample_depends_only_on_its_key_and_position",
            "tests/test_golden.py::test_cli_outputs_match_the_committed_fingerprints")),
    Mutant("polar-read-at-the-first-polar-training", "src/nfbeam/simharness.py",
           "sc.polar  # an empty polar codebook (EmptyGridError) fails before any training",
           "pass",
           ("tests/test_cli.py::TestErrors"
            "::test_a_small_array_with_a_polar_scheme_fails_before_any_training",)),
    Mutant("codebook-generated-eq", "src/nfbeam/codebooks.py",
           "@dataclass(frozen=True, eq=False)\nclass Codebook:",
           "@dataclass(frozen=True)\nclass Codebook:",
           ("tests/test_codebooks.py::TestDftCodebook"
            "::test_a_codebook_is_a_dict_key_and_equals_only_itself",)),
    Mutant("run-walk-takes-rho-itself", "src/nfbeam/beampattern.py",
           "while lo > 0 and values[lo - 1] / scale > rho:",
           "while lo > 0 and values[lo - 1] / scale >= rho:",
           ("tests/test_beampattern.py::TestMeasureWidth"
            "::test_the_run_holds_only_entries_above_rho",)),
    Mutant("angle-ties-toward-the-larger-angle", "src/nfbeam/estimators.py",
           "nearest = sorted(zip([abs(a - theta_hat) for a in angles], angles, members))",
           "nearest = sorted(zip([abs(a - theta_hat) for a in angles], [-a for a in angles],"
           " members))",
           ("tests/test_estimators.py::TestEstimateAngle::test_tie_break_toward_smaller_angle",
            "tests/test_golden.py::test_cli_outputs_match_the_committed_fingerprints")),
    Mutant("taylor-without-the-centre-element", "src/nfbeam/beampattern.py",
           "2.0 * (amp * np.cos(q)).sum() + n % 2,",
           "2.0 * (amp * np.cos(q)).sum(),",
           ("tests/test_properties.py::test_taylor_f_pair_sum_matches_the_direct_sum",)),
    Mutant("fast-extra-plus-one", "src/nfbeam/estimators.py",
           "extra = sum(g.stop - g.start for g in groups)",
           "extra = sum(g.stop - g.start for g in groups) + 1",
           ("tests/test_simharness.py::TestOverheadReport::test_formula_match_at_64",
            "tests/test_acceptance.py::test_criterion_05_pilot_accounting")),
    Mutant("dot-block-16384", "src/nfbeam/numerics.py",
           "DOT_BLOCK = 8192",
           "DOT_BLOCK = 16384",
           ("tests/test_cli.py::TestExperiments"
            "::test_bytes_do_not_depend_on_the_blas_thread_count",)),
    Mutant("parser-built-per-call", "src/nfbeam/cli.py",
           "args = PARSER.parse_args(argv)",
           "args = build_parser().parse_args(argv)",
           ("tests/test_cli.py::TestSharedParser::test_a_call_builds_no_parser",)),
    Mutant("fold-x-plus-y-swapped", "src/nfbeam/codebooks.py",
           "return _read_only(np.concatenate(((x - y)[book._sources], x + y)))",
           "return _read_only(np.concatenate(((x + y)[book._sources], x - y)))",
           ("tests/test_codebooks.py::TestPolarCodebook"
            "::test_folded_product_matches_the_matrix_product",
            "tests/test_codebooks.py::TestPolarCodebook::test_folded_product_matches_an_exact_sum",
            "tests/test_estimators.py::TestExhaustiveTraining"
            "::test_noiseless_returns_max_true_gain_entry")),
    Mutant("dft-gemv-in-place-of-the-fft", "src/nfbeam/codebooks.py",
           'return _read_only(book._cd * np.fft.ifft(a * book._d, norm="ortho"))',
           "return _read_only(a @ book.matrix)",
           ("tests/test_codebooks.py::TestDftCodebook"
            "::test_stored_twiddles_keep_the_bits_of_the_per_call_expression",
            "tests/test_codebooks.py::TestDftCodebook::test_a_sweep_only_run_builds_no_dft_matrix",
            "tests/test_golden.py::test_cli_outputs_match_the_committed_fingerprints")),
    Mutant("lru-cache-outside-the-named-memos", "src/nfbeam/channel.py",
           "def region_boundaries(cfg: ArrayConfig) -> tuple[float, float]:",
           "@lru_cache(maxsize=1)\ndef region_boundaries(cfg: ArrayConfig) -> tuple[float, float]:",
           ("tests/test_channel.py::test_the_package_keeps_exactly_three_memos",)),
    Mutant("taylor-pairs-from-the-centre", "src/nfbeam/beampattern.py",
           "delta = cfg.element_offsets[n // 2 + n % 2:]",
           "delta = cfg.element_offsets[n // 2:]",
           ("tests/test_properties.py::test_taylor_f_pair_sum_matches_the_direct_sum",)),
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
