"""Tests of the benchmark's own logic: statistics, span arithmetic, input
generation, failure counting and output checks.

    python3 -m pytest -q bench/tests
"""

import json
from pathlib import Path

import pytest

import nfbeam
import nfbeam.cli
import run_bench
import stats
import tracing
import workloads
from nfbeam.errors import EmptyMainSetError

ROOT = Path(__file__).resolve().parents[2]


# ------------------------------------------------------------- tail rule

@pytest.mark.parametrize("n, preferred, level", [
    (1000, 99.0, 99.0),    # exactly 10 beyond p99
    (999, 99.0, 95.0),     # p99 would leave 9 beyond
    (100, 99.0, 90.0),
    (120, 75.0, 75.0),
    (39, 75.0, 50.0),
    (20, 99.0, 50.0),
    (10, 99.0, None),
])
def test_tail_level_keeps_ten_samples_beyond(n, preferred, level):
    assert stats.tail_level(n, preferred) == level
    if level is not None:
        assert stats.samples_beyond(n, level) >= stats.MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))     # 1..100
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.samples_beyond(100, 90) == 10
    assert stats.percentile([3.0], 99.9) == 3.0


def test_quartile_spread_is_iqr_over_median():
    values = [10.0, 11.0, 9.0, 10.5, 10.2, 9.8, 10.1, 10.3, 9.9, 10.0]
    # exclusive-method quartiles of the sorted values: 9.875 and 10.35
    assert stats.quartile_spread(values) == pytest.approx((10.35 - 9.875) / 10.05)


# ------------------------------------------------------------- self time

def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    spans = [["root", 0.0, 10.0, -1, 0], ["a", 1.0, 4.0, 0, 0], ["a1", 2.0, 3.0, 1, 0],
             ["b", 5.0, 9.0, 0, 0]]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_pass_summary_sums_self_time_per_name():
    pt = tracing.PassTrace(spans=[
        ["cli.main", 0.0, 10.0, -1, 0],
        ["simharness.run_nmse_experiment", 1.0, 9.0, 0, 0],
        ["estimators.proposed_training", 2.0, 4.0, 1, 0],
        ["estimators.proposed_training", 5.0, 6.0, 1, 0],
        ["simharness.write_records_csv", 9.0, 9.5, 0, 0],
    ])
    s = tracing.pass_summary(pt, ops=2)
    assert s["calls"]["estimators.proposed_training"] == 2
    assert s["self_s"]["estimators.proposed_training"] == pytest.approx(3.0)
    assert s["self_s"]["cli.main"] == pytest.approx(1.5)
    assert s["extra"]["simharness.self_s"] == pytest.approx(5.0 + 0.5)


def test_tracer_records_spans_and_restores_bindings():
    cfg = nfbeam.ArrayConfig(64, 100e9)
    book = nfbeam.build_dft_codebook(cfg)
    p = nfbeam.PolarPoint(0.1, 3.0)
    original = nfbeam.estimators.los_channel
    run = lambda: nfbeam.proposed_training(cfg, p, nfbeam.NoiseModel(1e-12, 1),
                                           nfbeam.EstimatorConfig(), book)
    plain = run()
    tracer = tracing.Tracer()
    tracer.begin_pass()
    with tracer.installed():
        assert nfbeam.estimators.los_channel is not original
        traced = run()
    assert nfbeam.estimators.los_channel is original
    assert nfbeam.proposed_training.__module__ == "nfbeam.estimators"
    assert (traced.theta_hat, traced.r_hat) == (plain.theta_hat, plain.r_hat)
    spans = tracer.passes[0].spans
    names = [s[0] for s in spans]
    assert names[:2] == ["numerics.NoiseModel", "estimators.proposed_training"]
    los = [s for s in spans if s[0] == "channel.los_channel"]
    assert len(los) == 2                                  # sweep and refinement
    assert spans[los[0][3]][0] == "estimators.beam_sweep"


def test_cli_trace_counts_one_distinct_user_per_56_channels(tmp_path):
    # 14 SNR points x 2 schemes x (sweep + refinement) per trial
    tracer = tracing.Tracer()
    tracer.begin_pass()
    argv = ["nmse", "--N", "64", "--trials", "2", "--seed", "3", "--schemes", "proposed,joint",
            "--snr-db", *(str(x) for x in range(4, 31, 2)), "--out", str(tmp_path)]
    with tracer.installed():
        assert nfbeam.cli.main(argv) == 0
    extra = tracing.pass_summary(tracer.passes[0], ops=2 * 14 * 2)["extra"]
    assert extra["channel.los_channel.useful_ratio"] == pytest.approx(1 / 56)
    assert extra["channel.los_channel.per_op"] == 2.0


# ------------------------------------------------------------- inputs

def test_same_seed_draws_same_users():
    a = workloads.draw_users(nfbeam, 7, 3, 5, (-0.8, 0.8), (6.0, 64.0))
    b = workloads.draw_users(nfbeam, 7, 3, 5, (-0.8, 0.8), (6.0, 64.0))
    c = workloads.draw_users(nfbeam, 8, 3, 5, (-0.8, 0.8), (6.0, 64.0))
    assert a == b
    assert a != c
    assert all(-0.8 <= p.theta <= 0.8 and 6.0 <= p.r <= 64.0 for p in a)
    assert workloads.call_seed(7, 3, 1) == workloads.call_seed(7, 3, 1)
    assert workloads.call_seed(7, 3, 1) != workloads.call_seed(7, 3, 2)


def test_same_seed_gives_same_cli_arguments(tmp_path):
    w = workloads.NmseDesk(tmp_path)
    argv = lambda seed: [w.argv(nfbeam, s) for s in
                         (workloads.call_seed(seed, 0, j) for j in range(w.calls_per_pass))]
    assert argv(4) == argv(4)
    assert argv(4) != argv(5)


# ------------------------------------------------------------- failures

def test_injected_outage_counts_as_failed_op(monkeypatch):
    w = workloads.TrainXl()
    w.n_antennas = 64
    w.users_per_pass = 2
    built = {k: f() for k, f in w.builders(nfbeam).items()}
    w.setup(nfbeam, built)

    def outage(*args, **kwargs):
        raise EmptyMainSetError("injected")

    monkeypatch.setattr(nfbeam, "joint_training", outage)
    results = [call() for call in w.pass_calls(nfbeam, 0, 0)]
    assert len(results) == 8
    assert sum(r.failed for r in results) == 2           # one joint training per user
    assert [r.output is None for r in results].count(True) == 2
    attempted, failed, errors = run_bench._totals([[(r.ops, r.failed, r.wall_s, r.cpu_s,
                                                     r.error) for r in results]])
    assert (attempted, failed) == (8, 2)
    assert all("EmptyMainSetError" in e for e in errors)


def test_nonzero_cli_exit_fails_every_op_of_the_call(tmp_path):
    w = workloads.NmseDesk(tmp_path)
    res = w.run_cli(nfbeam, ["nmse", "--N", "1", "--trials", str(w.trials)])
    assert res.output is None
    assert res.failed == res.ops == w.ops_per_call()
    assert "cli exit 2" in res.error


def test_outage_rows_in_csv_count_as_failed_ops(tmp_path):
    rows = [{"scheme": "proposed", "outage_count": 3.0}, {"scheme": "joint", "outage_count": 1.0}]
    assert workloads.NmseDesk(tmp_path).failed_ops(rows) == 4
    rows.append({"scheme": "full-csi", "outage_count": 0.0})
    assert workloads.RateMulti(tmp_path).failed_ops(rows) == 40   # M = 10 users each


def test_malformed_csv_is_rejected():
    with pytest.raises(ValueError):
        workloads.parse_records_csv(b"scheme,snr_ref_db\nproposed,4.0\n")
    with pytest.raises(ValueError):
        workloads.parse_records_csv(
            b"# seed=1\n" + ",".join(workloads.RECORD_COLUMNS).encode() + b"\nproposed,x\n")


# ------------------------------------------------------------- output checks

def _pattern_workload():
    w = workloads.PatternGrid()
    w.users_per_pass = 3
    w.setup(nfbeam, {k: f() for k, f in w.builders(nfbeam).items()})
    return w


def test_pattern_checks_pass_on_correct_closed_form():
    w = _pattern_workload()
    _, checks = w.accuracy([c() for c in w.pass_calls(nfbeam, 0, 0)])
    assert checks["cf_err_max_le_0.03"][0]


def test_wrong_closed_form_fails_the_check(monkeypatch):
    w = _pattern_workload()
    good = nfbeam.closed_form_f
    monkeypatch.setattr(nfbeam, "closed_form_f", lambda ab: 1.1 * good(ab))
    metrics, checks = w.accuracy([c() for c in w.pass_calls(nfbeam, 0, 0)])
    assert metrics["cf_err_max"][0] > 0.03
    assert not checks["cf_err_max_le_0.03"][0]


def _nmse_call(prop_r, joint_r, theta=1e-5):
    rows = [{"scheme": s, "snr_ref_db": 30.0, "nmse_theta": theta, "nmse_r": r, "n_trials": 10.0}
            for s, r in (("proposed", prop_r), ("joint", joint_r))]
    return workloads.CallResult(20, 0, 0.1, 0.1, (b"", rows))


def test_nmse_ordering_check_fails_when_proposed_is_worse(tmp_path):
    w = workloads.NmseDesk(tmp_path)
    good = [_nmse_call(0.4 + 0.01 * i, 0.5 + 0.01 * i) for i in range(8)]
    bad = [_nmse_call(0.6 + 0.01 * i, 0.5 + 0.01 * i) for i in range(8)]
    assert w.accuracy(good)[1]["nmse_r_proposed_not_worse_than_joint"][0]
    assert not w.accuracy(bad)[1]["nmse_r_proposed_not_worse_than_joint"][0]


def test_rate_check_fails_when_full_csi_is_not_highest(tmp_path):
    w = workloads.RateMulti(tmp_path)

    def call(full):
        rows = [{"scheme": s, "snr_ref_db": float(snr), "mean_rate": v, "n_trials": 1.0}
                for snr in w.snr_grid
                for s, v in (("full-csi", full), ("proposed", 8.0), ("joint", 7.0),
                             ("fast", 6.0), ("exhaustive", 7.5))]
        return workloads.CallResult(200, 0, 0.1, 0.1, (b"", rows))

    assert w.accuracy([call(9.0)])[1]["full_csi_strictly_highest"][0]
    assert not w.accuracy([call(8.0)])[1]["full_csi_strictly_highest"][0]


def test_angle_hit_check_fails_on_wrong_estimates():
    w = workloads.TrainXl()
    hit = workloads.CallResult(1, 0, 0.1, 0.1, (0.3, 0.3, 10.0, 1027))
    miss = workloads.CallResult(1, 0, 0.1, 0.1, (0.3, 0.5, 10.0, 1027))
    assert w.accuracy([hit] * 99)[1]["angle_hit_frac_ge_0.99"][0]
    assert not w.accuracy([hit] * 98 + [miss] * 2)[1]["angle_hit_frac_ge_0.99"][0]


# ------------------------------------------------------------- contract

def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(workloads.make_workloads(ROOT / ".bench_out"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run_bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracing.LAYER_METRICS)
    assert len(set(m["name"] for m in spec["per_layer"])) == len(spec["per_layer"])
