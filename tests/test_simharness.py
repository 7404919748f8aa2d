import math

import numpy as np
import pytest

from nfbeam import ArrayConfig, calibrate_noise, channel_gain, region_boundaries
from nfbeam.simharness import (
    PER_ANTENNA,
    TOTAL_ENERGY,
    ScenarioConfig,
    UserSampler,
    overhead_report,
    run_nmse_experiment,
    run_rate_experiment,
    simulate,
    write_records_csv,
)


class TestCalibrateNoise:
    def test_zero_db_total_energy(self, cfg512):
        g = channel_gain(cfg512, 5.0)
        assert calibrate_noise(cfg512, 0.0) == pytest.approx(512 * g * g, rel=1e-12)

    def test_ten_db_divides_by_ten(self, cfg512):
        a = calibrate_noise(cfg512, 10.0)
        b = calibrate_noise(cfg512, 20.0)
        assert a == pytest.approx(10 * b, rel=1e-12)

    def test_headline_value_at_30db(self, cfg512):
        # N g(5m)^2 = 512 * (4.771e-5)^2 ~ 1.166e-6; 30 dB divides by 1000
        assert calibrate_noise(cfg512, 30.0) == pytest.approx(1.1656e-9, rel=1e-3)

    def test_readings_differ_by_n(self, cfg256):
        te = calibrate_noise(cfg256, 12.0, TOTAL_ENERGY)
        pa = calibrate_noise(cfg256, 12.0, PER_ANTENNA)
        assert te == pytest.approx(256 * pa, rel=1e-12)

    def test_unknown_mode_rejected(self, cfg256):
        with pytest.raises(ValueError):
            calibrate_noise(cfg256, 10.0, "per-element")


class TestUserSampler:
    def test_degenerate_range(self):
        s = UserSampler(theta_range=(0.3, 0.3), r_range=(5.0, 5.0))
        p = s.sample(np.random.default_rng(0))
        assert p.theta == 0.3 and p.r == 5.0

    def test_bounds_respected(self):
        s = UserSampler(theta_range=(-0.8, 0.8), r_range=(6.14, 100.0))
        rng = np.random.default_rng(1)
        for _ in range(2000):
            p = s.sample(rng)
            assert -0.8 <= p.theta <= 0.8
            assert 6.14 <= p.r <= 100.0

    def test_mean_near_midpoint(self):
        s = UserSampler(theta_range=(-0.8, 0.8), r_range=(6.14, 100.0))
        rng = np.random.default_rng(2)
        thetas = [s.sample(rng).theta for _ in range(100_000)]
        # 3 sigma of the sample mean of U(-0.8, 0.8)
        assert abs(np.mean(thetas)) <= 3 * 0.8 / math.sqrt(3 * 100_000)

    def test_closed_form_variances(self):
        s = UserSampler(theta_range=(-0.8, 0.8), r_range=(6.0, 100.0))
        assert s.theta_variance == pytest.approx(1.6**2 / 12)
        assert s.r_variance == pytest.approx(94.0**2 / 12)

    def test_scenario_rejects_range_outside_near_field(self):
        with pytest.raises(ValueError, match="r range"):
            ScenarioConfig(n_antennas=64, r_range=(0.01, 5000.0))


# N = 64 at 100 GHz: R_Fre ~ 0.27 m, R_Ray ~ 6.14 m
@pytest.mark.parametrize("kw", [
    dict(theta_range=(-2.0, 2.0)),
    dict(theta_range=(-0.5, 1.5)),
    dict(theta_range=(0.5, -0.5)),
    dict(theta_range=(float("nan"), 0.5)),
    dict(r_range=(5.0, 2.0)),
    dict(snr_ref_db_grid=()),
    dict(z_mu_size=0),
    dict(m_users=0),
    dict(k=0),
    dict(reference_mode="foo"),
])
def test_scenario_rejects_invalid_values_at_construction(kw):
    with pytest.raises(ValueError):
        ScenarioConfig(**{"n_antennas": 64, **kw})


@pytest.mark.parametrize("carrier", [float("nan"), float("inf"), 0.0, -1e9])
def test_array_rejects_non_finite_or_non_positive_carrier(carrier):
    with pytest.raises(ValueError):
        ArrayConfig(256, carrier)


def small_scenario(**kw):
    base = dict(n_antennas=64, snr_ref_db_grid=(10.0, 20.0), trials=12, seed=5,
                theta_range=(-0.6, 0.6), reference_mode=PER_ANTENNA,
                schemes=("proposed", "joint"))
    base.update(kw)
    return ScenarioConfig(**base)


class TestNmseExperiment:
    def test_record_shape_and_nonnegative(self):
        records = run_nmse_experiment(small_scenario())
        assert len(records) == 2 * 2  # schemes x snr points
        for r in records:
            assert r.nmse_theta >= 0 and r.nmse_r >= 0
            assert r.n_trials + r.outage_count == 12

    def test_pilot_accounting(self):
        # budget is N + (candidates actually refined); the main set can
        # hold fewer than k angles when the lobe is narrow, never more
        records = run_nmse_experiment(small_scenario())
        for r in records:
            assert 64 + 1 <= r.mean_pilot_count <= 64 + 3

    def test_noiseless_limit_hits_quantization_floor(self):
        sc = small_scenario(snr_ref_db_grid=(200.0,), trials=30,
                            schemes=("proposed",))
        rec = run_nmse_experiment(sc)[0]
        # angle error bounded by grid quantization: NMSE <= (4/N)^2 / var
        var_t = sc.sampler().theta_variance
        assert rec.nmse_theta <= (4 / 64) ** 2 / var_t

    def test_deterministic_across_runs(self, tmp_path):
        sc = small_scenario()
        r1 = run_nmse_experiment(sc)
        r2 = run_nmse_experiment(small_scenario())
        p1, p2 = (tmp_path / f"{i}.csv" for i in range(2))
        write_records_csv(p1, r1, sc.as_header_dict())
        write_records_csv(p2, r2, sc.as_header_dict())
        assert p1.read_bytes() == p2.read_bytes()


class TestSimulate:
    def test_trial_major_rows_share_one_user_per_trial(self):
        sc = small_scenario(trials=3)
        rows = list(simulate(sc, "single"))
        keys = [(r.trial, r.snr_index, r.scheme) for r in rows]
        assert keys == [(t, i, s) for t in range(3) for i in range(2)
                        for s in ("full-csi", "proposed", "joint")]
        for t in range(3):
            assert len({r.users for r in rows if r.trial == t}) == 1

    def test_multi_rows_carry_one_estimate_and_rate_per_user(self):
        sc = small_scenario(trials=2, m_users=3, snr_ref_db_grid=(20.0,))
        for row in simulate(sc, "multi"):
            assert len(row.users) == len(row.estimates) == len(row.rates) == 3

    def test_reductions_of_given_rows_equal_a_fresh_run(self):
        sc = small_scenario()
        rows = list(simulate(sc, "nmse"))
        assert run_nmse_experiment(sc, rows) == run_nmse_experiment(sc)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            next(simulate(small_scenario(), "triple"))

    def test_more_users_than_antennas_rejected_in_multi_mode_only(self):
        # m_users is unused outside the multi-user mode
        sc = small_scenario(m_users=65)
        assert next(simulate(sc, "nmse")).estimates is not None
        with pytest.raises(ValueError, match="m_users"):
            next(simulate(sc, "multi"))


class TestRateExperiment:
    def test_full_csi_dominates_single(self):
        records = run_rate_experiment(small_scenario(), "single")
        by_snr = {}
        for r in records:
            by_snr.setdefault(r.snr_ref_db, {})[r.scheme] = r.mean_rate
        for snr, rates in by_snr.items():
            for scheme, rate in rates.items():
                if scheme != "full-csi":
                    assert rates["full-csi"] >= rate

    def test_multi_user_returns_all_schemes(self):
        sc = small_scenario(trials=4, m_users=3, snr_ref_db_grid=(20.0,))
        records = run_rate_experiment(sc, "multi")
        schemes = {r.scheme for r in records}
        assert schemes == {"full-csi", "proposed", "joint"}
        for r in records:
            assert r.mean_rate > 0

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            run_rate_experiment(small_scenario(), "triple")


class TestOverheadReport:
    def test_formula_match_at_64(self):
        sc = small_scenario(schemes=("proposed", "joint", "fast", "exhaustive"))
        rows = {r.scheme: r for r in overhead_report(sc)}
        assert rows["proposed"].pilots_measured == 64 + 3
        assert rows["proposed"].pilots_measured == rows["proposed"].pilots_expected
        assert rows["joint"].pilots_measured == 64 + 3
        assert rows["fast"].pilots_measured == rows["fast"].pilots_expected
        assert rows["exhaustive"].pilots_measured == rows["exhaustive"].pilots_expected

    def test_proposed_distance_stage_constant_in_n(self):
        evals = {}
        for n in (64, 128):
            sc = small_scenario(n_antennas=n, schemes=("proposed",))
            evals[n] = overhead_report(sc)[0].distance_stage_evals
        assert evals[64] == evals[128] == 3

    def test_joint_distance_stage_scales_with_grid(self):
        sc = small_scenario(schemes=("joint",), z_mu_size=32)
        row = overhead_report(sc)[0]
        assert row.distance_stage_evals == 3 * 32


def test_header_contains_resolved_bounds():
    sc = small_scenario()
    header = sc.as_header_dict()
    r_fre, r_ray = region_boundaries(ArrayConfig(64, 100e9))
    assert header["r_range"] == f"{r_fre!r}..{min(100.0, r_ray)!r}"
    assert "rayleigh_m" in header
