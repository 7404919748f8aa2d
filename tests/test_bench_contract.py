"""One short pass of every benchmark workload against the package.

`bench/tests` checks the benchmark's own logic on canned results; this
file runs each workload's builders, `setup` and the first calls of pass 0
for real, so a package change that breaks a workload (a training's
signature, `calibrate_noise`, `EstimatorConfig()`, a CLI flag) fails here
and not only when the benchmark runs.
"""

import sys
from pathlib import Path

import pytest

import nfbeam
import nfbeam.cli  # the CLI workloads call nfbeam.cli.main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402

CALLS = 8


@pytest.mark.parametrize("name", ["nmse-desk", "rate-multi", "pattern-grid", "train-xl"])
def test_workload_pass_runs_without_failures(tmp_path, name):
    workload = workloads.make_workloads(tmp_path)[name]
    built = {key: fn() for key, fn in workload.builders(nfbeam).items()}
    workload.setup(nfbeam, built)
    if isinstance(workload, workloads.LibraryWorkload):
        workload.users_per_pass = 2
    results = [call() for call in workload.pass_calls(nfbeam, 0, 0)[:CALLS]]
    assert results
    for res in results:
        assert res.error == ""
        assert res.failed == 0
        assert res.output is not None
