import dataclasses
import itertools
import math

import numpy as np
import pytest

import nfbeam
from nfbeam import (
    ArrayConfig,
    EstimatorConfig,
    NoiseModel,
    PolarPoint,
    build_dft_codebook,
    build_polar_codebook,
    calibrate_noise,
    default_z_mu_grid,
    exact_gain,
    exhaustive_training,
    fast_training,
    joint_training,
    measure_width,
    proposed_training,
    region_boundaries,
)
from nfbeam.channel import channel_gain, los_channel, near_field_steering
from nfbeam.errors import EmptyMainSetError
from nfbeam.estimators import (
    _pick,
    beam_sweep,
    cluster_indices,
    estimate_angle,
    estimate_distance,
    joint_candidates,
)
from oracles import data_beam, exhaustive_training_by_loops, fast_training_by_loops, same_bits


def silent(seed=0):
    return NoiseModel(0.0, seed)


@pytest.mark.parametrize("field", ["k", "cluster_gap"])
@pytest.mark.parametrize("value", [2.5, 2.0, True])
def test_estimator_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=field):
        EstimatorConfig(**{field: value})
    assert getattr(EstimatorConfig(**{field: np.int32(2)}), field) == 2


@pytest.fixture(scope="module")
def book512(cfg512):
    return build_dft_codebook(cfg512)


@pytest.fixture(scope="module")
def book256(cfg256):
    return build_dft_codebook(cfg256)


@pytest.fixture(scope="module")
def polar256(cfg256):
    return build_polar_codebook(cfg256)


class TestBeamSweep:
    def test_far_on_grid_argmax(self, cfg256, book256):
        _, r_ray = region_boundaries(cfg256)
        theta = float(book256.angle_grid[50])
        amp = beam_sweep(cfg256, PolarPoint(theta, 50 * r_ray), book256, silent())
        assert int(np.argmax(amp)) == 50
        assert amp.size == 256

    def test_noiseless_matches_gain_composition(self, cfg256, book256):
        p = PolarPoint(0.21, 6.0)
        amp = beam_sweep(cfg256, p, book256, silent())
        g = channel_gain(cfg256, p.r)
        for n in [0, 40, 128, 200]:
            expected = math.sqrt(256) * g * exact_gain(cfg256, p, float(book256.angle_grid[n]))
            assert amp[n] == pytest.approx(expected, rel=1e-10)

    def test_reproducible_with_fixed_seed(self, cfg256, book256):
        p = PolarPoint(-0.4, 5.0)
        a = beam_sweep(cfg256, p, book256, NoiseModel(1e-9, (7, 1)))
        b = beam_sweep(cfg256, p, book256, NoiseModel(1e-9, (7, 1)))
        assert np.array_equal(a, b)


class TestClusterIndices:
    def test_gap_rule(self):
        amp = np.zeros(64)
        for i, v in [(10, 1.0), (12, 0.9), (30, 0.8)]:
            amp[i] = v
        idx, cluster = cluster_indices(amp, 0.5, gap=8)
        assert list(idx) == [10, 12, 30]
        assert list(cluster) == [10, 12]     # 12 -> 30 is a gap of 18 > 8

    def test_strongest_sample_selects_cluster(self):
        amp = np.zeros(64)
        amp[5], amp[6] = 0.6, 0.55         # wide weaker cluster
        amp[40] = 0.9                       # single strong sample
        idx, cluster = cluster_indices(amp, 0.5, gap=8)
        assert list(idx) == [5, 6, 40]
        assert list(cluster) == [40]

    def test_noiseless_near_user_is_one_cluster(self, cfg512, book512):
        amp = beam_sweep(cfg512, PolarPoint(0.0, 8.0), book512, silent())
        idx, cluster = cluster_indices(amp, 0.65 * amp.max(), gap=8)
        assert np.array_equal(idx, cluster)

    def test_two_users_two_clusters(self, cfg256, book256):
        h1 = los_channel(cfg256, PolarPoint(-0.5, 5.0))
        h2 = los_channel(cfg256, PolarPoint(0.5, 5.0))
        amp = np.abs((h1 + 0.7 * h2).conj() @ book256.matrix)
        idx, cluster = cluster_indices(amp, 0.4 * amp.max(), gap=8)
        # the selected cluster holds the stronger (unscaled) user, the
        # other cluster the weaker one
        stronger = book256.nearest_index(-0.5)
        assert cluster[0] <= stronger <= cluster[-1]
        rest = np.setdiff1d(idx, cluster)
        assert rest.size > 0 and np.all(np.diff(rest) <= 8)
        assert rest[0] - cluster[-1] > 8
        assert rest[0] <= book256.nearest_index(0.5) <= rest[-1]

    def test_empty_set(self):
        with pytest.raises(EmptyMainSetError):
            cluster_indices(np.zeros(8), 0.5, gap=8)

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError, match="rho2 must be positive"):
            cluster_indices(np.ones(8), 0.0, gap=8)


class TestEstimateAngle:
    def test_noiseless_broadside(self, cfg512, book512):
        amp = beam_sweep(cfg512, PolarPoint(0.0, 8.0), book512, silent())
        theta_hat, _ = estimate_angle(amp, book512, EstimatorConfig())
        assert abs(theta_hat - 0.0) <= 2 / 512

    def test_far_on_grid_user_exact(self, cfg256, book256):
        _, r_ray = region_boundaries(cfg256)
        theta = float(book256.angle_grid[180])
        amp = beam_sweep(cfg256, PolarPoint(theta, 60 * r_ray), book256, silent())
        theta_hat, _ = estimate_angle(amp, book256, EstimatorConfig())
        assert theta_hat == pytest.approx(theta, abs=1e-12)

    def test_k1_candidate_is_nearest_grid_angle(self, cfg512, book512):
        amp = beam_sweep(cfg512, PolarPoint(0.0, 8.0), book512, silent())
        theta_hat, cands = estimate_angle(amp, book512, EstimatorConfig(k=1))
        assert len(cands) == 1
        ci = cands[0]
        assert abs(book512.angle_grid[ci] - theta_hat) <= 2 / 512

    def test_scale_invariance(self, cfg512, book512):
        amp = beam_sweep(cfg512, PolarPoint(0.2, 10.0), book512, silent())
        a_theta, a_cands = estimate_angle(amp, book512, EstimatorConfig())
        b_theta, b_cands = estimate_angle(37.0 * amp, book512, EstimatorConfig())
        assert a_theta == b_theta
        assert a_cands == b_cands

    def test_tie_break_toward_smaller_angle(self, book256):
        # symmetric two-bin set: the midpoint ties both members; k = 1
        # must pick the smaller angle
        amp = np.zeros(256)
        amp[100] = 1.0
        amp[102] = 1.0
        _, cands = estimate_angle(amp, book256, EstimatorConfig(k=1, rho2_fraction=0.9))
        assert cands == (100,)

    def test_all_zero_sweep_is_an_outage(self, book256):
        with pytest.raises(EmptyMainSetError):
            estimate_angle(np.zeros(256), book256, EstimatorConfig())


class TestEstimateDistance:
    def test_headline_inversion(self, cfg512, book512):
        amp = beam_sweep(cfg512, PolarPoint(0.0, 8.0), book512, silent())
        _, cands = estimate_angle(amp, book512, EstimatorConfig())
        ci = cands[len(cands) // 2]
        r_hat, width = estimate_distance(amp, book512, ci)
        assert 7.2 <= r_hat <= 8.8

    def test_doubling_width_halves_distance(self, book256):
        def synthetic(run_length):
            amp = np.full(256, 0.1)
            start = 128 - run_length // 2
            amp[start: start + run_length] = 1.0
            return amp

        r1, w1 = estimate_distance(synthetic(8), book256, 128)
        r2, w2 = estimate_distance(synthetic(16), book256, 128)
        assert w1 == pytest.approx(8 * 2 / 256)
        assert w2 == pytest.approx(2 * w1)
        assert r2 == pytest.approx(r1 / 2, rel=1e-12)

    def test_theta_scaling(self, cfg512, book512):
        # equal measured width at theta = 0 and 0.6 gives r ratio 1 : 0.64
        amp = np.full(512, 0.1)
        amp[100:113] = 1.0
        r_at_100, _ = estimate_distance(amp, book512, 106)
        theta_at = float(book512.angle_grid[106])
        shifted = np.full(512, 0.1)
        center = book512.nearest_index(0.6)
        shifted[center - 6: center + 7] = 1.0
        r_at_06, _ = estimate_distance(shifted, book512, center)
        expected_ratio = (1 - book512.angle_grid[center] ** 2) / (1 - theta_at**2)
        assert r_at_06 / r_at_100 == pytest.approx(expected_ratio, rel=1e-9)

    def test_degenerate_width_falls_back_to_rayleigh(self, cfg256, book256):
        _, r_ray = region_boundaries(cfg256)
        amp = np.full(256, 0.1)
        amp[77] = 1.0
        r_hat, width = estimate_distance(amp, book256, 77)
        assert width == pytest.approx(2 / 256)  # one bin is one grid step wide
        assert r_hat == r_ray

    def test_contiguous_width_excludes_detached_spike(self, book256):
        amp = np.full(256, 0.1)
        amp[100:105] = 1.0
        amp[130] = 0.6  # detached super-half spike
        _, w_contig = estimate_distance(amp, book256, 102)
        # run length x grid step: the span between the end bins plus one step
        step = 2 / 256
        assert w_contig == pytest.approx(
            book256.angle_grid[104] - book256.angle_grid[100] + step)

    def test_width_equals_measure_width_on_the_same_run(self, cfg256, book256):
        # one width reading: the distance stage and measure_width read the
        # run around the peak as run length x grid step, for users from
        # a single-bin run (alpha < 1) up to a developed plateau (alpha > 4)
        r_fre, _ = region_boundaries(cfg256)
        alphas = []
        for theta, r in itertools.product([-0.6, -0.2, 0.0, 0.1, 0.45],
                                          [r_fre, 2.5, 3.0, 4.0, 6.0, 10.0, 15.0, 25.0]):
            p = PolarPoint(theta, r)
            alphas.append(256**2 * cfg256.spacing * (1 - p.theta**2) / (8 * p.r))
            amp = beam_sweep(cfg256, p, book256, silent())
            peak = int(np.argmax(amp))
            width = measure_width(amp / amp[peak], 0.5).width
            assert estimate_distance(amp, book256, peak)[1] == width
        assert min(alphas) < 1 < 4 < max(alphas)

    def test_candidate_without_power_is_rejected(self, cfg64):
        # the two flanks are equal, so a mask of |y| / 0 would read a
        # three-bin run around index 5
        book = build_dft_codebook(cfg64)
        amp = np.zeros(64)
        amp[4] = amp[6] = 1.0
        with pytest.raises(EmptyMainSetError, match="candidate index 5 has no power"):
            estimate_distance(amp, book, 5)
        assert estimate_distance(amp, book, 4)[1] == 2 / 64

    @pytest.mark.parametrize("ci", [-1, 64])
    def test_candidate_index_outside_the_grid_is_rejected(self, cfg64, ci):
        # -1 would read a run of N + 1 bins, wider than the grid
        book = build_dft_codebook(cfg64)
        amp = beam_sweep(cfg64, PolarPoint(0.0, 2.0), book, silent())
        with pytest.raises(ValueError, match=rf"candidate index {ci} outside \[0, 64\)"):
            estimate_distance(amp, book, ci)

    def test_width_law_inverse_at_first_candidate(self, cfg512, book512):
        # the inverted width law lands within 10% of the true 8 m
        amp = beam_sweep(cfg512, PolarPoint(0.0, 8.0), book512, silent())
        _, cands = estimate_angle(amp, book512, EstimatorConfig())
        r_def, _ = estimate_distance(amp, book512, cands[0])
        assert abs(r_def - 8.0) / 8.0 <= 0.10


class TestProposedTraining:
    def test_pilot_budget(self, cfg512, book512):
        est = proposed_training(cfg512, PolarPoint(0.0, 8.0), silent(), EstimatorConfig(),
                                book512)
        assert est.pilot_count == 512 + 3
        assert est.distance_stage_evals == 3

    def test_noiseless_on_grid_user(self, cfg512, book512):
        theta = float(book512.angle_grid[book512.nearest_index(0.3)])
        p = PolarPoint(theta, 20.0)
        est = proposed_training(cfg512, p, silent(), EstimatorConfig(), book512)
        assert abs(est.theta_hat - theta) <= 4 / 512
        assert abs(est.r_hat - 20.0) / 20.0 <= 0.15

    def test_refinement_dominance(self, cfg512, book512):
        est = proposed_training(cfg512, PolarPoint(0.11, 9.0), silent(), EstimatorConfig(),
                                book512)
        powers = [c[2] for c in est.candidates]
        winner = [c for c in est.candidates
                  if c[0] == est.theta_hat and c[1] == est.r_hat]
        assert winner and winner[0][2] == max(powers)

    def test_codeword_matches_estimate(self, cfg512, book512):
        est = proposed_training(cfg512, PolarPoint(-0.2, 12.0), silent(), EstimatorConfig(),
                                book512)
        expected = near_field_steering(cfg512, PolarPoint(est.theta_hat, est.r_hat))
        assert np.allclose(data_beam(cfg512, est), expected, atol=1e-12)

    def test_noiseless_accuracy_in_resolvable_zone(self, cfg512, book512):
        # per-user 15 percent distance accuracy requires a well-developed
        # plateau; measured over 3000 noiseless users, alpha >= 4 (width
        # >= 16 grid bins) is the zone where every user passes, while for
        # 2 <= alpha < 4 about 2 percent still miss, by up to ~21 percent,
        # from width quantization and gain-driven candidate selection
        rng = np.random.default_rng(17)
        nd2 = 512**2 * cfg512.spacing
        for _ in range(25):
            theta = rng.uniform(-0.5, 0.5)
            r_max = nd2 * (1 - theta**2) / (8 * 4.0)
            r = rng.uniform(6.2, min(r_max, 30.0))
            p = PolarPoint(theta, r)
            est = proposed_training(cfg512, p, silent(), EstimatorConfig(), book512)
            assert abs(est.theta_hat - theta) <= 4 / 512
            assert abs(est.r_hat - r) / r <= 0.15


class TestJointTraining:
    def test_pilot_budget_and_search_cost(self, cfg512, book512):
        z = default_z_mu_grid(cfg512, 64)
        est = joint_training(cfg512, PolarPoint(0.0, 8.0), silent(), EstimatorConfig(),
                             z, book512)
        assert est.pilot_count == 512 + 3
        assert est.distance_stage_evals == 3 * 64

    def test_noiseless_single_user_angle_matches_proposed(self, cfg512, book512):
        z = default_z_mu_grid(cfg512, 64)
        for p in [PolarPoint(0.0, 8.0), PolarPoint(0.44, 15.0)]:
            a = proposed_training(cfg512, p, silent(), EstimatorConfig(), book512)
            b = joint_training(cfg512, p, silent(), EstimatorConfig(), z, book512)
            assert a.theta_hat == b.theta_hat

    def test_distance_is_z_grid_quantized(self, cfg512, book512):
        z = default_z_mu_grid(cfg512, 64)
        est = joint_training(cfg512, PolarPoint(0.0, 8.0), silent(), EstimatorConfig(),
                             z, book512)
        assert est.r_hat in z

    def test_a_single_bin_run_falls_back_to_the_rayleigh_end(self, cfg256):
        # a noiseless user on a grid angle far out in the near field: the
        # half-gain run at each candidate is one bin, which carries no width
        book = build_dft_codebook(cfg256)
        z = default_z_mu_grid(cfg256, 64)
        _, r_ray = region_boundaries(cfg256)
        for i in (128, 133, 200):
            p = PolarPoint(float(book.angle_grid[i]), 0.5 * r_ray)
            amp = beam_sweep(cfg256, p, book, silent())
            _, cis = estimate_angle(amp, book, EstimatorConfig(), clustering=False)
            assert [estimate_distance(amp, book, ci)[1] for ci in cis] == [2 / 256] * len(cis)
            ref = joint_candidates(cfg256, p, silent(), EstimatorConfig(), z, book)
            assert [r for _, r in ref.cands] == [z[-1]] * len(cis)


class TestFastTraining:
    def test_pilot_budget_counts_distance_pilots(self, cfg256, book256, polar256):
        p = PolarPoint(float(book256.angle_grid[128]), 4.0)
        est = fast_training(cfg256, p, silent(), EstimatorConfig(), polar256, book256)
        # N sweep pilots + the polar entries swept at the k candidates
        assert est.pilot_count == 256 + est.distance_stage_evals
        assert est.distance_stage_evals >= 3  # at least one entry per candidate

    def test_user_on_ring_is_recovered(self, cfg256, book256, polar256):
        idx = book256.nearest_index(0.0)
        sl = polar256.entries_at(idx)
        ring_r = polar256.radii[sl][1]  # first finite ring at this angle
        p = PolarPoint(float(polar256.thetas[sl][1]), float(ring_r))
        est = fast_training(cfg256, p, silent(), EstimatorConfig(), polar256, book256)
        assert est.r_hat == pytest.approx(ring_r, rel=1e-12)
        assert est.theta_hat == p.theta

    def test_user_between_rings_lands_on_neighbor(self, cfg256, book256, polar256):
        idx = book256.nearest_index(0.0)
        sl = polar256.entries_at(idx)
        finite = np.sort(polar256.radii[sl][np.isfinite(polar256.radii[sl])])
        mid = math.sqrt(finite[0] * finite[1])
        p = PolarPoint(float(polar256.thetas[sl][0]), float(mid))
        est = fast_training(cfg256, p, silent(), EstimatorConfig(), polar256, book256)
        assert est.r_hat in (pytest.approx(finite[0]), pytest.approx(finite[1]))


def test_polar_pick_keeps_first_of_equal_maxima(cfg256, polar256):
    # noisy sweeps never tie, so the tie rule is pinned on hand-made picks;
    # entry 9 is a far-field codeword
    _, r_ray = region_boundaries(cfg256)
    cands = [(float(polar256.thetas[j]), float(polar256.radii[j]), a)
             for j, a in [(5, 1.0), (9, 2.0), (40, 2.0)]]
    est = _pick(cfg256, cands, 300, 44)
    assert (est.theta_hat, est.r_hat) == (polar256.thetas[9], min(polar256.radii[9], r_ray))
    assert est.far_field and est.candidates[1][1] == r_ray
    assert same_bits(data_beam(cfg256, est), polar256.matrix[:, 9])
    assert (est.pilot_count, est.distance_stage_evals, len(est.candidates)) == (300, 44, 3)


class TestPick:
    def test_refine_style_list_keeps_first_of_equal_maxima(self, cfg256):
        est = _pick(cfg256, [(0.1, 5.0, 1.0), (0.2, 6.0, 3.0), (0.3, 7.0, 3.0)], 259, 3)
        assert (est.theta_hat, est.r_hat, est.far_field) == (0.2, 6.0, False)
        assert est.candidates == ((0.1, 5.0, 1.0), (0.2, 6.0, 3.0), (0.3, 7.0, 3.0))

    def test_far_field_only_when_the_winner_has_infinite_range(self, cfg256):
        _, r_ray = region_boundaries(cfg256)
        est = _pick(cfg256, [(0.1, 6.0, 2.0), (0.2, math.inf, 2.0)], 300, 0)
        assert (est.theta_hat, est.r_hat, est.far_field) == (0.1, 6.0, False)
        # a near-field winner at exactly R_Ray is not a far-field codeword
        est = _pick(cfg256, [(0.1, r_ray, 2.0), (0.2, math.inf, 1.0)], 300, 0)
        assert (est.r_hat, est.far_field) == (r_ray, False)


def test_estimates_hold_scalars_only(cfg64):
    # no training's estimate carries an array: the chosen codeword is its label
    sc = nfbeam.ScenarioConfig(n_antennas=64)
    trainings = {
        "proposed": lambda p, noise: proposed_training(cfg64, p, noise, sc.ec, sc.codebook),
        "joint": lambda p, noise: joint_training(cfg64, p, noise, sc.ec, sc.z_mu, sc.codebook),
        "fast": lambda p, noise: fast_training(cfg64, p, noise, sc.ec, sc.polar, sc.codebook),
        "exhaustive": lambda p, noise: exhaustive_training(cfg64, p, noise, sc.polar),
    }
    sigma2 = calibrate_noise(cfg64, 10.0, "per-antenna")
    for train in trainings.values():
        for u, p in enumerate([PolarPoint(0.2, 3.0), PolarPoint(-0.5, 40.0)]):
            est = train(p, NoiseModel(sigma2, (7, u)))
            values = [getattr(est, f.name) for f in dataclasses.fields(est)]
            assert not any(isinstance(v, np.ndarray) for v in values)
            assert [type(v) for v in values] == [float, float, bool, int, tuple, int]
            assert all(type(x) is float for c in est.candidates for x in c)


class TestExhaustiveTraining:
    def test_pilot_budget_is_codebook_size(self, cfg256, polar256):
        est = exhaustive_training(cfg256, PolarPoint(0.1, 5.0), silent(), polar256)
        assert est.pilot_count == len(polar256)

    def test_user_on_entry_recovers_entry(self, cfg256, polar256):
        i = 777 if np.isfinite(polar256.radii[777]) else 778
        p = PolarPoint(float(polar256.thetas[i]), float(polar256.radii[i]))
        est = exhaustive_training(cfg256, p, silent(), polar256)
        assert est.theta_hat == p.theta
        assert est.r_hat == pytest.approx(p.r)

    def test_noiseless_returns_max_true_gain_entry(self, cfg256, polar256):
        # brute-force oracle: recompute every entry gain independently
        p = PolarPoint(0.123, 6.7)
        est = exhaustive_training(cfg256, p, silent(), polar256)
        h = los_channel(cfg256, p)
        gains = np.abs(h.conj() @ polar256.matrix)
        best = int(np.argmax(gains))
        assert est.theta_hat == float(polar256.thetas[best])


class TestClusteringRobustness:
    def test_isolated_spike_moves_joint_but_not_proposed(self, cfg512, book512):
        # a spike above rho2 but below the peak, more than L bins from
        # the lobe: the clustered scheme ignores it, the global median
        # shifts
        p = PolarPoint(0.0, 8.0)
        amp = beam_sweep(cfg512, p, book512, silent())
        ec = EstimatorConfig()
        base, _ = estimate_angle(amp, book512, ec, clustering=True)
        spike_at = 400  # far from the broadside lobe
        spiked = amp.copy()
        spiked[spike_at] = 0.8 * amp.max()
        with_spike, _ = estimate_angle(spiked, book512, ec, clustering=True)
        assert with_spike == base
        joint_spiked, _ = estimate_angle(spiked, book512, ec, clustering=False)
        assert joint_spiked != base


def test_schemes_share_sweep_noise_under_same_key(cfg256, book256):
    # fresh equal-keyed streams give the same sweep noise to each scheme,
    # so noiseless-regime estimates coincide between proposed and joint
    p = PolarPoint(0.05, 4.0)
    sigma2 = 1e-16
    z = default_z_mu_grid(cfg256, 64)
    a = proposed_training(cfg256, p, NoiseModel(sigma2, (3, 9)), EstimatorConfig(), book256)
    b = joint_training(cfg256, p, NoiseModel(sigma2, (3, 9)), EstimatorConfig(), z, book256)
    assert a.theta_hat == b.theta_hat


def test_fast_and_exhaustive_form_one_polar_product_per_channel(monkeypatch, cfg64):
    # a user with k = 3 candidates: fast forms the DFT sweep and the whole
    # polar sweep, and reads each candidate's entries out of the latter;
    # a second SNR point and a later exhaustive training form no product
    products = []
    real = nfbeam.codebooks._noiseless_product

    def counting(h, book):
        products.append((h.size, len(book)))
        return real(h, book)

    monkeypatch.setattr(nfbeam.codebooks, "_noiseless_product", counting)
    book, polar = build_dft_codebook(cfg64), build_polar_codebook(cfg64)
    p, ec = PolarPoint(0.3, 0.5), EstimatorConfig()
    noise = NoiseModel(0.0, (4, 2))

    def train_at(snr_db):
        sigma2 = calibrate_noise(cfg64, snr_db, "per-antenna")
        est = fast_training(cfg64, p, noise.replay(sigma2), ec, polar, book)
        theta, r, cands, pilots, w = fast_training_by_loops(cfg64, p, NoiseModel(sigma2, (4, 2)),
                                                            ec, polar, book)
        assert (est.theta_hat, est.r_hat, est.candidates, est.pilot_count) == (theta, r, cands,
                                                                               pilots)
        assert np.array_equal(data_beam(cfg64, est), w)
        return est

    a = train_at(40.0)
    assert len(a.candidates) == ec.k == 3
    assert products == [(64, len(book)), (64, len(polar))]
    b = train_at(50.0)
    assert [c[0] for c in a.candidates] == [c[0] for c in b.candidates]
    sigma2 = calibrate_noise(cfg64, 40.0, "per-antenna")
    exh = exhaustive_training(cfg64, p, noise.replay(sigma2), polar)
    assert (exh.theta_hat, exh.r_hat, exh.candidates) == exhaustive_training_by_loops(
        cfg64, p, NoiseModel(sigma2, (4, 2)), polar)[:3]
    assert products == [(64, len(book)), (64, len(polar))]


@pytest.mark.parametrize("n", [32, 64])
def test_polar_baselines_equal_loop_oracles(n):
    # noisy sweeps, users out to twice R_Ray so far-field picks get clipped
    cfg = ArrayConfig(n, 100e9)
    book, polar = build_dft_codebook(cfg), build_polar_codebook(cfg)
    r_fre, r_ray = region_boundaries(cfg)
    ec = EstimatorConfig()
    rng = np.random.default_rng(n)
    for u in range(25):
        p = PolarPoint(float(rng.uniform(-0.8, 0.8)), float(rng.uniform(r_fre, 2 * r_ray)))
        sigma2 = calibrate_noise(cfg, float(rng.uniform(-10.0, 20.0)), "per-antenna")
        fast = fast_training(cfg, p, NoiseModel(sigma2, (n, u)), ec, polar, book)
        exh = exhaustive_training(cfg, p, NoiseModel(sigma2, (n, u)), polar)
        for est, (theta, r, _, pilots, w) in (
                (fast, fast_training_by_loops(cfg, p, NoiseModel(sigma2, (n, u)), ec, polar, book)),
                (exh, exhaustive_training_by_loops(cfg, p, NoiseModel(sigma2, (n, u)), polar))):
            assert (est.theta_hat, est.r_hat, est.pilot_count) == (theta, r, pilots)
            assert np.array_equal(data_beam(cfg, est), w)
