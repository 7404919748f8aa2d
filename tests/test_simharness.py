import math

import numpy as np
import pytest

import nfbeam.simharness
from nfbeam import (
    ArrayConfig,
    EstimatorConfig,
    NoiseModel,
    PolarPoint,
    build_dft_codebook,
    build_polar_codebook,
    calibrate_noise,
    default_z_mu_grid,
    exhaustive_training,
    fast_training,
    joint_training,
    proposed_training,
    region_boundaries,
)
from nfbeam.beamforming import multiuser_precode, multiuser_rate, single_user_rate
from nfbeam.channel import channel_from_steering, channel_gain, los_channel, steering_columns
from nfbeam.codebooks import _far_field_columns, ring_scale
from nfbeam.errors import EmptyMainSetError, SingularChannelError
from nfbeam.simharness import (
    FULL_CSI,
    PER_ANTENNA,
    SCHEMES,
    TOTAL_ENERGY,
    USER_RATE_COLUMNS,
    ScenarioConfig,
    TrialRow,
    noise_key,
    overhead_report,
    run_nmse_experiment,
    run_rate_experiment,
    simulate,
    user_rate_table,
    user_rng_key,
    write_csv,
    write_records_csv,
)
from oracles import same_bits


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

    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0, float("nan"), float("inf")])
    def test_snr_without_finite_positive_ratio_rejected(self, cfg256, snr_db):
        with pytest.raises(ValueError, match="finite positive noise power"):
            calibrate_noise(cfg256, snr_db)


class TestUserSampler:
    def test_bounds_respected(self):
        sc = ScenarioConfig(n_antennas=512, theta_range=(-0.8, 0.8), r_range=(6.14, 100.0))
        rng = np.random.default_rng(1)
        for _ in range(2000):
            p = sc.draw_user(rng)
            assert -0.8 <= p.theta <= 0.8
            assert 6.14 <= p.r <= 100.0

    def test_mean_near_midpoint(self):
        sc = ScenarioConfig(n_antennas=512, theta_range=(-0.8, 0.8), r_range=(6.14, 100.0))
        rng = np.random.default_rng(2)
        thetas = [sc.draw_user(rng).theta for _ in range(100_000)]
        # 3 sigma of the sample mean of U(-0.8, 0.8)
        assert abs(np.mean(thetas)) <= 3 * 0.8 / math.sqrt(3 * 100_000)

    def test_closed_form_variances(self):
        # the NMSE denominators are the variances (hi - lo)^2 / 12 of the
        # uniform draws, with the default r range resolved by hand
        sc = small_scenario(trials=6, snr_ref_db_grid=(-5.0, 20.0))
        r_fre, r_ray = region_boundaries(ArrayConfig(64, 100e9))
        var_t = (0.6 - -0.6) ** 2 / 12
        var_r = (min(100.0, r_ray) - r_fre) ** 2 / 12
        rows = list(simulate(sc, "nmse"))
        for rec in run_nmse_experiment(sc, rows):
            ok = [r for r in rows if sc.snr_ref_db_grid[r.snr_index] == rec.snr_ref_db
                  and r.scheme == rec.scheme and r.estimates is not None]
            mse_t = np.mean([(r.users[0].theta - r.estimates[0][0]) ** 2 for r in ok])
            mse_r = np.mean([(r.users[0].r - r.estimates[0][1]) ** 2 for r in ok])
            assert rec.nmse_theta == pytest.approx(mse_t / var_t, rel=1e-12)
            assert rec.nmse_r == pytest.approx(mse_r / var_r, rel=1e-12)

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
    dict(beta_polar=-1.0),
    dict(beta_polar=float("inf")),
    dict(snr_ref_db_grid=(float("nan"), 10.0)),
    dict(snr_ref_db_grid=(10.0, float("-inf"))),
    dict(snr_ref_db_grid=(4000.0,)),
    dict(snr_ref_db_grid=(10.0, -4000.0)),
    dict(snr_ref_db_grid=(-3230.0,)),  # finite SNR, infinite noise power
    dict(schemes=()),
    dict(schemes=("proposed", "proposed")),
    dict(schemes=("proposed", "warp")),
    dict(rho2_fraction=0.0),
    dict(rho2_fraction=1.0),
])
def test_scenario_rejects_invalid_values_at_construction(kw):
    with pytest.raises(ValueError):
        ScenarioConfig(**{"n_antennas": 64, **kw})


@pytest.mark.parametrize("beta", [0.0, -1.0, math.inf, math.nan])
def test_scenario_names_a_bad_beta_polar_with_the_codebooks_message(beta):
    # one check, in ring_scale, which construction and the polar build both reach
    message = f"beta_polar must be finite and positive, got {beta}"
    for make in (lambda: ScenarioConfig(n_antennas=64, beta_polar=beta),
                 lambda: build_polar_codebook(ArrayConfig(64, 100e9), beta),
                 lambda: ring_scale(ArrayConfig(64, 100e9), beta)):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message


@pytest.mark.parametrize("beta", [1e-300, 1e-160, 1e300])
def test_a_beta_polar_whose_ring_scale_is_not_finite_is_rejected(beta):
    # beta_polar**2 underflows to 0 (ZeroDivisionError), to a subnormal (Z = inf)
    # or overflows (OverflowError): each is a ValueError that names beta_polar
    message = f"beta_polar = {beta!r} gives no finite positive ring scale Z"
    for make in (lambda: ScenarioConfig(n_antennas=64, beta_polar=beta),
                 lambda: build_polar_codebook(ArrayConfig(64, 100e9), beta),
                 lambda: ring_scale(ArrayConfig(64, 100e9), beta)):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message


@pytest.mark.parametrize("field", ["n_antennas", "trials", "seed", "m_users", "z_mu_size", "k",
                                   "cluster_gap"])
@pytest.mark.parametrize("value", [2.5, 64.0, True])
def test_scenario_rejects_non_integer_counts_by_name(field, value):
    # a float or bool count used to pass construction and fail later
    # with a TypeError, or run on a wrong grid
    with pytest.raises(ValueError, match=field):
        ScenarioConfig(**{"n_antennas": 64, field: value})


@pytest.mark.parametrize("field, value", [("n_antennas", 1), ("trials", 0), ("m_users", 0),
                                          ("z_mu_size", 0), ("k", 0), ("cluster_gap", 0),
                                          ("seed", -1)])
def test_scenario_rejects_counts_below_their_minimum_by_name(field, value):
    # a negative seed used to construct and then fail inside default_rng
    with pytest.raises(ValueError, match=field):
        ScenarioConfig(**{"n_antennas": 64, field: value})


def test_scenario_accepts_numpy_integer_counts():
    sc = ScenarioConfig(n_antennas=np.int64(64), trials=np.int32(2), seed=np.int64(1),
                        m_users=np.int64(3), z_mu_size=np.int64(8), k=np.int16(2),
                        cluster_gap=np.int64(4), schemes=("proposed",))
    assert next(simulate(sc, "nmse")).estimates is not None


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
        lo, hi = sc.theta_range
        var_t = (hi - lo) ** 2 / 12
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

    def test_singular_rzf_makes_an_outage_row_and_the_run_goes_on(self, monkeypatch):
        sc = small_scenario(trials=2, m_users=3)
        clean = list(simulate(sc, "multi"))
        calls = []
        real = nfbeam.simharness.multiuser_precode

        def flaky(H_hat, sigma2):
            # rows of trial 0 at 10 dB: full CSI (call 1), proposed, joint (call 3)
            calls.append(None)
            if len(calls) in (1, 3):
                raise SingularChannelError("injected")
            return real(H_hat, sigma2)

        monkeypatch.setattr(nfbeam.simharness, "multiuser_precode", flaky)
        rows = list(simulate(sc, "multi"))
        assert len(rows) == len(clean) == 2 * 2 * 3
        assert [r.estimates is None for r in rows] == [i in (0, 2) for i in range(len(rows))]
        assert [r for i, r in enumerate(rows) if i not in (0, 2)] == \
            [r for i, r in enumerate(clean) if i not in (0, 2)]
        records = {(r.scheme, r.snr_ref_db): r for r in run_rate_experiment(sc, "multi", rows)}
        assert records[("full-csi", 10.0)].outage_count == 1
        assert records[("joint", 10.0)].outage_count == 1
        assert records[("proposed", 10.0)].outage_count == 0

    def test_user_rate_table_leaves_an_outage_rows_fields_empty(self, monkeypatch, tmp_path):
        # joint's trial-0 row at 10 dB made an outage as in the test above
        sc = small_scenario(trials=2, m_users=3)
        calls = []
        real = nfbeam.simharness.multiuser_precode

        def flaky(H_hat, sigma2):
            calls.append(None)
            if len(calls) == 3:
                raise SingularChannelError("injected")
            return real(H_hat, sigma2)

        monkeypatch.setattr(nfbeam.simharness, "multiuser_precode", flaky)
        rows = list(simulate(sc, "multi"))
        assert [r.estimates is None for r in rows[:3]] == [False, False, True]
        table = list(user_rate_table(sc, rows, "joint"))
        users = rows[0].users
        assert table[:3] == [(10.0, u, p.theta, p.r, None, None, None, None)
                             for u, p in enumerate(users)]
        assert [t[0] for t in table[3:]] == [20.0] * 3
        assert all(None not in t for t in table[3:])
        write_csv(tmp_path / "users.csv", USER_RATE_COLUMNS, table, {})
        lines = (tmp_path / "users.csv").read_text().splitlines()
        assert lines[1:4] == [f"10.0,{u},{p.theta!r},{p.r!r},,,," for u, p in enumerate(users)]

    def test_empty_main_set_makes_only_its_row_an_outage(self, monkeypatch):
        sc = small_scenario(trials=2, m_users=3)
        clean = list(simulate(sc, "multi"))
        # user 1 of trial 0 under proposed at 20 dB: row 4 of the run
        target = (clean[0].users[1], sc.sigma2s[1])
        hits = []
        real = nfbeam.simharness.proposed_candidates

        def flaky(cfg, p, noise, ec, codebook):
            if (p, noise.sigma2) == target:
                hits.append(p)
                raise EmptyMainSetError("injected")
            return real(cfg, p, noise, ec, codebook)

        monkeypatch.setattr(nfbeam.simharness, "proposed_candidates", flaky)
        rows = list(simulate(sc, "multi"))
        assert len(hits) == 1
        assert len(rows) == len(clean) == 2 * 2 * 3
        assert (rows[4].trial, rows[4].snr_index, rows[4].scheme) == (0, 1, "proposed")
        assert [r.estimates is None for r in clean] == [False] * len(clean)
        assert [r.estimates is None for r in rows] == [i == 4 for i in range(len(rows))]
        assert [r for i, r in enumerate(rows) if i != 4] == \
            [r for i, r in enumerate(clean) if i != 4]
        records = {(r.scheme, r.snr_ref_db): r for r in run_rate_experiment(sc, "multi", rows)}
        assert records[("proposed", 20.0)].outage_count == 1
        assert sum(r.outage_count for r in records.values()) == 1

    def test_full_csi_never_depends_on_the_schemes(self, monkeypatch):
        # every scheme's every training an empty main set: the full-CSI rows
        # keep the exact positions and their matched-filter rate
        sc = small_scenario(trials=3, schemes=SCHEMES)
        clean = [r for r in simulate(sc, "single") if r.scheme == FULL_CSI]

        def empty(*args):
            raise EmptyMainSetError("injected")

        for name in ("proposed_candidates", "joint_candidates", "fast_training",
                     "exhaustive_training"):
            monkeypatch.setattr(nfbeam.simharness, name, empty)
        rows = list(simulate(sc, "single"))
        assert len(rows) == 3 * 2 * (1 + len(SCHEMES))
        full = [r for r in rows if r.scheme == FULL_CSI]
        assert full == clean and len(full) == 3 * 2
        for r in full:
            p = r.users[0]
            h = los_channel(sc.cfg, p)
            assert r.estimates == ((p.theta, p.r, 0),)
            assert r.rates == (single_user_rate(h, h / np.linalg.norm(h),
                                                sc.sigma2s[r.snr_index]),)
        assert all(r.estimates is None and r.rates is None
                   for r in rows if r.scheme != FULL_CSI)
        records = run_rate_experiment(sc, "single", rows)
        assert len(records) == 2 * (1 + len(SCHEMES))
        for rec in records:
            if rec.scheme == FULL_CSI:
                assert (rec.n_trials, rec.outage_count) == (3, 0)
                assert rec.mean_rate > 0
            else:
                assert (rec.n_trials, rec.outage_count, rec.mean_rate) == (0, 3, None)

    def test_more_users_than_antennas_rejected_in_multi_mode_only(self):
        # m_users is unused outside the multi-user mode
        sc = small_scenario(m_users=65)
        assert next(simulate(sc, "nmse")).estimates is not None
        with pytest.raises(ValueError, match="m_users"):
            next(simulate(sc, "multi"))


def reference_rows(sc, mode, far_field_picks):
    """`simulate` written out plainly: each (trial, SNR point, scheme)
    training calls the public training function on a fresh
    NoiseModel(sigma2, noise_key(...)), and every rate is computed anew, on
    channels built for its row.
    The codebooks and the user draws are built here, not taken from `sc`,
    and a data beam is built without the package's codeword rows: a contiguous
    copy of the DFT codebook's column for a far-field pick (a strided
    column changes np.vdot's bits), `steering_columns` otherwise. Each
    far-field pick is appended to `far_field_picks`."""
    cfg = ArrayConfig(sc.n_antennas, sc.carrier_hz)
    ec = EstimatorConfig(k=sc.k, cluster_gap=sc.cluster_gap, rho2_fraction=sc.rho2_fraction)
    book = build_dft_codebook(cfg)
    polar = build_polar_codebook(cfg, sc.beta_polar)
    z_mu = default_z_mu_grid(cfg, sc.z_mu_size)
    grid = book.angle_grid.tolist()
    trainings = {
        "proposed": lambda p, noise: proposed_training(cfg, p, noise, ec, book),
        "joint": lambda p, noise: joint_training(cfg, p, noise, ec, z_mu, book),
        "fast": lambda p, noise: fast_training(cfg, p, noise, ec, polar, book),
        "exhaustive": lambda p, noise: exhaustive_training(cfg, p, noise, polar),
    }
    r_fre, r_ray = region_boundaries(cfg)
    r_range = sc.r_range if sc.r_range is not None else (
        r_fre, min(100.0, r_ray) if r_fre < 100.0 else r_ray)

    def draw(rng):
        theta = float(rng.uniform(*sc.theta_range))
        return PolarPoint(theta, float(rng.uniform(*r_range)))

    n_users = sc.m_users if mode == "multi" else 1
    for t in range(sc.trials):
        rng = np.random.default_rng(user_rng_key(sc.seed, t))
        users = tuple(draw(rng) for _ in range(n_users))
        exact = tuple((p.theta, p.r, 0) for p in users)
        for i, snr_db in enumerate(sc.snr_ref_db_grid):
            sigma2 = calibrate_noise(cfg, snr_db, sc.reference_mode)

            def rates(labels, beams):
                if mode == "single":
                    return (single_user_rate(los_channel(cfg, users[0]), beams[0], sigma2),)
                if mode == "multi":
                    H = np.column_stack([los_channel(cfg, p) for p in users])
                    v = multiuser_precode(np.column_stack([los_channel(cfg, p) for p in labels]),
                                          sigma2)
                    return tuple(float(x) for x in multiuser_rate(H, v, sigma2))
                return None

            if mode != "nmse":
                h = los_channel(cfg, users[0])
                yield TrialRow(t, i, FULL_CSI, users, exact,
                               rates(users, [h / np.linalg.norm(h)]))
            for scheme in sc.schemes:
                keys = ([noise_key(sc.seed, t, u) for u in range(n_users)] if mode == "multi"
                        else [noise_key(sc.seed, t)])
                try:
                    ests = [trainings[scheme](p, NoiseModel(sigma2, key))
                            for p, key in zip(users, keys)]
                except EmptyMainSetError:
                    yield TrialRow(t, i, scheme, users, None)
                    continue
                labels = [PolarPoint(e.theta_hat, e.r_hat) for e in ests]
                far_field_picks.extend(e for e in ests if e.far_field)
                beams = [np.ascontiguousarray(book.matrix[:, grid.index(e.theta_hat)])
                         if e.far_field else
                         steering_columns(cfg, np.array([e.theta_hat]), np.array([e.r_hat]))[:, 0]
                         for e in ests]
                yield TrialRow(t, i, scheme, users,
                               tuple((e.theta_hat, e.r_hat, e.pilot_count) for e in ests),
                               rates(labels, beams))


@pytest.mark.parametrize("mode", ["nmse", "single", "multi"])
def test_simulate_rows_equal_fresh_stream_reference(mode):
    # at -20 and -5 dB the estimates depend on the noise draws: a stream
    # read from the wrong position changes 10 of the 36 nmse rows
    sc = ScenarioConfig(n_antennas=32, snr_ref_db_grid=(-20.0, -5.0, 10.0), trials=3, seed=9,
                        m_users=3, schemes=SCHEMES, reference_mode=TOTAL_ENERGY)
    rows = list(simulate(sc, mode))
    los_channel.cache_clear()
    far_field_picks = []
    expected = list(reference_rows(sc, mode, far_field_picks))
    assert len(rows) == len(expected) == 3 * 3 * (4 + (mode != "nmse"))
    assert rows == expected
    assert far_field_picks  # so "single" rates a far-field data beam too


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


@pytest.mark.parametrize("n, fc, whole_field", [
    (3289, 100e9, False),  # R_Fre 99.96 m
    (4096, 100e9, True),   # R_Fre 138.9 m
    (2048, 28e9, True),    # R_Fre 175.4 m
])
def test_default_box_is_the_whole_near_field_once_r_fre_reaches_100_m(n, fc, whole_field):
    # [R_Fre, min(100 m, R_Ray)] is empty there, which failed every command
    sc = ScenarioConfig(n_antennas=n, carrier_hz=fc)
    r_fre, r_ray = region_boundaries(sc.cfg)
    assert sc.r_bounds == (r_fre, r_ray if whole_field else 100.0)


def test_rate_stage_builds_each_channel_once_per_trial(monkeypatch):
    # 80 users in one trial, whose picks hold more than 64 distinct labels;
    # the trainings reach los_channel through `estimators` and are not counted.
    # The true channels come from los_channel, the label channels from the
    # picks' codeword rows through channel_from_steering
    true, labelled = [], []

    def counting(cfg, p):
        true.append(p)
        return los_channel(cfg, p)

    def counting_labels(cfg, r, b):
        labelled.append(r)
        return channel_from_steering(cfg, r, b)

    monkeypatch.setattr(nfbeam.simharness, "los_channel", counting)
    monkeypatch.setattr(nfbeam.simharness, "channel_from_steering", counting_labels)
    monkeypatch.setattr(nfbeam.beamforming, "los_channel", counting, raising=False)
    sc = ScenarioConfig(n_antennas=128, trials=1, m_users=80, snr_ref_db_grid=(4.0, 30.0),
                        schemes=SCHEMES)
    rows = list(simulate(sc, "multi"))
    assert len(rows) == 2 * (1 + len(SCHEMES))
    labels = {e[:2] for r in rows if r.scheme != FULL_CSI and r.estimates is not None
              for e in r.estimates}
    assert len(labels) > 64
    # the M true channels, then each distinct label's, however many SNR points
    assert true == list(rows[0].users)
    assert sorted(labelled) == sorted(r for _, r in labels)
    true.clear()
    assert len(list(simulate(sc, "nmse"))) == 2 * len(SCHEMES)
    assert true == [] and len(labelled) == len(labels)


@pytest.mark.parametrize("mode, m_users", [("nmse", 10), ("single", 10), ("multi", 10),
                                           ("multi", 40), ("multi", 80)])
def test_every_true_channel_is_built_once_per_user(mode, m_users):
    # the channel memo keeps one entry; the trial loop reads each user's
    # channel only between its first training and the next user's
    r_fre, r_ray = region_boundaries(ArrayConfig(256, 100e9))
    sc = ScenarioConfig(n_antennas=256, snr_ref_db_grid=(4.0, 10.0, 16.0, 22.0, 30.0), trials=3,
                        m_users=m_users, reference_mode=PER_ANTENNA, r_range=(r_fre, 0.05 * r_ray))
    los_channel.cache_clear()
    rows = list(simulate(sc, mode))
    users = sc.trials * (m_users if mode == "multi" else 1)
    assert len({p for r in rows for p in r.users}) == users
    assert los_channel.cache_info().misses == users


@pytest.mark.parametrize("mode", ["single", "multi"])
def test_rate_stage_rates_each_pick_from_its_own_codeword(monkeypatch, mode):
    # test_simulate_rows_equal_fresh_stream_reference's scenario, which has
    # far-field picks: every data beam has the bits of its pick's DFT
    # codeword (far-field pick) or of the steering formula at (theta_hat,
    # r_hat), and every label channel the bits of los_channel there. No
    # polar ring lies at R_Ray, so a fast or exhaustive pick at R_Ray is a
    # far-field pick
    sc = ScenarioConfig(n_antennas=32, snr_ref_db_grid=(-20.0, -5.0, 10.0), trials=3, seed=9,
                        m_users=3, schemes=SCHEMES, reference_mode=TOTAL_ENERGY)
    cfg = sc.cfg
    _, r_ray = region_boundaries(cfg)
    assert r_ray not in sc.polar.radii.tolist()
    beams, channel_sets = [], []
    real_rate, real_precode = single_user_rate, multiuser_precode

    def rate(h, v, sigma2):
        beams.append(v)
        return real_rate(h, v, sigma2)

    def precode(H_hat, sigma2):
        channel_sets.append(H_hat)
        return real_precode(H_hat, sigma2)

    monkeypatch.setattr(nfbeam.simharness, "single_user_rate", rate)
    monkeypatch.setattr(nfbeam.simharness, "multiuser_precode", precode)
    rows = list(simulate(sc, mode))
    assert all(r.estimates is not None for r in rows)
    received = beams if mode == "single" else channel_sets
    assert len(received) == len(rows)
    far = 0
    for row, got in zip(rows, received):
        if row.scheme == FULL_CSI:
            continue
        for u, (theta, r, _) in enumerate(row.estimates):
            far_pick = row.scheme in ("fast", "exhaustive") and r == r_ray
            far += far_pick
            if mode == "single":
                expected = (_far_field_columns(cfg, np.array([theta])) if far_pick
                            else steering_columns(cfg, np.array([theta]), np.array([r])))[:, 0]
                assert same_bits(got, expected)
            else:
                assert same_bits(got[:, u], los_channel(cfg, PolarPoint(theta, r)))
    assert far > 0


@pytest.mark.parametrize("mode, block", [("nmse", None), ("multi", None), ("multi", 4 * 128)])
def test_each_users_refinement_codewords_are_built_once_in_row_blocks(monkeypatch, mode, block):
    # a user's proposed and joint trainings share candidates across SNR
    # points and schemes; simulate builds each distinct (theta, r) once, in
    # one codewords call per user of blocks of at most codebooks._BLOCK
    # entries, and the bits do not depend on the block size. In multi mode
    # that call also builds the labels of fast's and exhaustive's picks,
    # except those an earlier user of the trial picked, whose rows it keeps
    sc = ScenarioConfig(n_antennas=128, trials=2, m_users=10, snr_ref_db_grid=(4.0, 16.0, 30.0),
                        schemes=SCHEMES)
    sc.polar  # built before the count
    clean = list(simulate(sc, mode))
    assert all(r.estimates is not None for r in clean)
    events, steered = [], []
    formula = nfbeam.codebooks.steering_columns
    single = nfbeam.channel.near_field_steering

    def counting(cfg, thetas, radii):
        events.append(("block", list(zip(thetas.tolist(), radii.tolist()))))
        return formula(cfg, thetas, radii)

    def recording(stage):
        def recorded(cfg, p, noise, *rest):
            ref = stage(cfg, p, noise, *rest)
            events.append(("cands", p, ref.cands))
            return ref
        return recorded

    def steering(cfg, p):
        steered.append(p)
        return single(cfg, p)

    monkeypatch.setattr(nfbeam.codebooks, "steering_columns", counting)
    monkeypatch.setattr(nfbeam.channel, "near_field_steering", steering)
    for name in ("proposed_candidates", "joint_candidates"):
        monkeypatch.setattr(nfbeam.simharness, name, recording(getattr(nfbeam.simharness, name)))
    if block is not None:
        monkeypatch.setattr(nfbeam.codebooks, "_BLOCK", block)
    los_channel.cache_clear()
    assert list(simulate(sc, mode)) == clean
    per_user = []  # [user, candidates of its stages, labels of its blocks]
    for event in events:
        if event[0] == "cands":
            if not per_user or per_user[-1][0] != event[1]:
                per_user.append([event[1], [], []])
            per_user[-1][1].extend(event[2])
        else:
            per_user[-1][2].append(event[1])
    m = sc.m_users if mode == "multi" else 1
    assert len(per_user) == sc.trials * m
    # the steering formula runs outside the blocks only for the users' channels
    assert steered == [p for p, _, _ in per_user]
    step = nfbeam.codebooks._BLOCK // 128
    shared = 0
    for u, (p, cands, blocks) in enumerate(per_user):
        trial = [r for r in clean if r.trial == u // m and r.scheme != FULL_CSI]
        kept = {e[:2] for r in trial for e in r.estimates[:u % m]}  # earlier users' picks
        picks = [r.estimates[u % m][:2] for r in trial if r.scheme in ("fast", "exhaustive")]
        labels = cands + picks if mode == "multi" else cands
        distinct = [c for c in dict.fromkeys(labels) if c not in kept]
        assert [c for b in blocks for c in b] == distinct  # each once, first-seen order
        assert [len(b) for b in blocks] == [len(distinct[i:i + step])
                                            for i in range(0, len(distinct), step)]
        shared += len(cands) - len(dict.fromkeys(cands))
    assert shared > 0
    if block is not None:
        assert max(len(blocks) for _, _, blocks in per_user) > 1
