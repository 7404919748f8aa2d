import math

import numpy as np
import pytest

from nfbeam import (
    PolarPoint,
)
from nfbeam.beamforming import multiuser_precode, multiuser_rate, single_user_rate
from nfbeam.channel import channel_gain, los_channel, near_field_steering
from nfbeam.errors import SingularChannelError
from oracles import multiuser_rate_by_loops


def channels(cfg, points) -> np.ndarray:
    """N x M matrix of the users' LoS channels, one column per point."""
    return np.column_stack([los_channel(cfg, p) for p in points])


class TestSingleUserRate:
    def test_matched_filter_value(self, cfg256):
        p = PolarPoint(0.2, 6.0)
        v = near_field_steering(cfg256, p)
        sigma2 = 1e-9
        got = single_user_rate(los_channel(cfg256, p), v, sigma2)
        expected = math.log2(1 + 256 * channel_gain(cfg256, p.r) ** 2 / sigma2)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_matched_filter_is_optimal(self, cfg256):
        rng = np.random.default_rng(2)
        p = PolarPoint(-0.34, 9.0)
        h = los_channel(cfg256, p)
        v_star = near_field_steering(cfg256, p)
        best = single_user_rate(h, v_star, 1e-10)
        for _ in range(20):
            v = rng.standard_normal(256) + 1j * rng.standard_normal(256)
            v /= np.linalg.norm(v)
            assert single_user_rate(h, v, 1e-10) <= best

    def test_orthogonal_beam_gives_zero(self, cfg256):
        p = PolarPoint(0.0, 5.0)
        h = los_channel(cfg256, p)
        v = np.zeros(256, dtype=complex)
        v[0], v[1] = 1.0, -np.conj(h[0]) / np.conj(h[1])
        v /= np.linalg.norm(v)
        assert abs(np.vdot(h, v)) <= 1e-12
        assert single_user_rate(h, v, 1e-9) <= 1e-12


class TestMultiuserPrecode:
    def test_single_user_reduces_to_matched_filter(self, cfg256):
        p = PolarPoint(0.1, 5.0)
        v = multiuser_precode(channels(cfg256, [p]), 1e-9)[:, 0]
        b = near_field_steering(cfg256, p)
        # RZF with one column is a scaled matched filter: |<v, b>| = ||v||
        alignment = abs(np.vdot(b, v)) / np.linalg.norm(v)
        assert alignment == pytest.approx(1.0, abs=1e-10)

    def test_power_normalization(self, cfg256):
        users = [PolarPoint(t, r) for t, r in [(-0.5, 4.0), (0.0, 6.0), (0.4, 9.0)]]
        V = multiuser_precode(channels(cfg256, users), 1e-8)
        assert np.linalg.norm(V) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_zero_forcing_limit_suppresses_interference(self, cfg256):
        users = [PolarPoint(t, r) for t, r in [(-0.6, 5.0), (0.05, 7.0), (0.55, 4.0)]]
        V = multiuser_precode(channels(cfg256, users), 1e-18)
        for u, p in enumerate(users):
            h = los_channel(cfg256, p)
            own = abs(np.vdot(h, V[:, u]))
            for s in range(len(users)):
                if s != u:
                    assert abs(np.vdot(h, V[:, s])) / own <= 1e-6

    def test_too_many_users_rejected(self, cfg64):
        # and the other shapes a channel matrix or precoder cannot take
        h = los_channel(cfg64, PolarPoint(0.0, 5.0))
        H65, H4, H3 = (np.column_stack([h] * m) for m in (65, 4, 3))
        H0 = np.empty((64, 0), dtype=complex)
        cases = [
            (lambda: multiuser_precode(H65, 1e-9), "65 users on 64 antennas"),
            (lambda: multiuser_rate(H65, H65, 1e-9), "65 users on 64 antennas"),
            (lambda: multiuser_precode(H0, 1e-9), "0 users on 64 antennas"),
            (lambda: multiuser_rate(H0, H0, 1e-9), "0 users on 64 antennas"),
            (lambda: multiuser_rate(H3, H3[:, :2], 1e-9), "precoder of shape"),
            (lambda: multiuser_rate(H3, H4, 1e-9), "precoder of shape"),
        ]
        for call, message in cases:
            with pytest.raises(ValueError, match=message):
                call()

    def test_duplicate_positions_zero_noise_singular(self, cfg64):
        users = [PolarPoint(0.25, 5.0), PolarPoint(0.25, 5.0)]
        with pytest.raises((SingularChannelError, np.linalg.LinAlgError)):
            V = multiuser_precode(channels(cfg64, users), 0.0)
            # duplicate columns with no regularizer cannot produce a
            # finite normalized precoder
            if not np.all(np.isfinite(V)):
                raise SingularChannelError("non-finite precoder")

    def test_all_zero_channels_collapse_the_precoder(self):
        # the regularized Gram matrix M sigma^2 I solves, but H gram^{-1}
        # is zero and has no norm to scale by
        with pytest.raises(SingularChannelError, match="precoder collapsed"):
            multiuser_precode(np.zeros((8, 3), dtype=complex), 1e-9)


class TestMultiuserRate:
    def test_single_user_reduction(self, cfg256):
        p = PolarPoint(0.3, 6.0)
        sigma2 = 1e-9
        H = channels(cfg256, [p])
        V = multiuser_precode(H, sigma2)
        mu = multiuser_rate(H, V, sigma2)[0]
        su = single_user_rate(H[:, 0], V[:, 0], sigma2)
        assert mu == pytest.approx(su, rel=1e-12)

    def test_equals_per_user_loop(self, cfg256):
        rng = np.random.default_rng(3)
        for m in (1, 4, 10):
            users = [PolarPoint(float(rng.uniform(-0.8, 0.8)), float(rng.uniform(3, 30)))
                     for _ in range(m)]
            estimated = [PolarPoint(p.theta, p.r * 1.01) for p in users]
            for sigma2 in (1e-12, 1e-9, 1e-6):
                V = multiuser_precode(channels(cfg256, estimated), sigma2)
                np.testing.assert_allclose(multiuser_rate(channels(cfg256, users), V, sigma2),
                                           multiuser_rate_by_loops(cfg256, users, V, sigma2),
                                           rtol=1e-12, atol=0)

    def test_zero_power_column_gives_zero_rate(self, cfg256):
        H = channels(cfg256, [PolarPoint(-0.2, 5.0), PolarPoint(0.2, 5.0)])
        V = multiuser_precode(H, 1e-9)
        V[:, 1] = 0.0
        rates = multiuser_rate(H, V, 1e-9)
        assert rates[1] == 0.0
        assert rates[0] > 0.0

    def test_rates_nonnegative_and_monotone_in_power(self, cfg256):
        H = channels(cfg256, [PolarPoint(t, 5.0) for t in (-0.4, 0.0, 0.4)])
        prev = None
        # unit power over sigma2 = 1e-8 / P is power P over 1e-8, P = 0.5 .. 4
        for sigma2 in [2e-8, 1e-8, 5e-9, 2.5e-9]:
            V = multiuser_precode(H, sigma2)
            rates = multiuser_rate(H, V, sigma2)
            assert np.all(rates >= 0)
            mean = float(np.mean(rates))
            if prev is not None:
                assert mean >= prev - 1e-9
            prev = mean

    def test_perfect_estimates_equal_full_csi(self, cfg256):
        # same positions in, same matrix out
        users = [PolarPoint(-0.3, 4.0), PolarPoint(0.25, 8.0)]
        a = multiuser_precode(channels(cfg256, users), 1e-9)
        b = multiuser_precode(channels(cfg256, [PolarPoint(p.theta, p.r) for p in users]), 1e-9)
        assert np.array_equal(a, b)

    def test_estimated_positions_cannot_beat_full_csi_on_average(self, cfg256):
        rng = np.random.default_rng(8)
        sigma2 = 1e-10
        diffs = []
        for _ in range(20):
            users = [PolarPoint(float(rng.uniform(-0.6, 0.6)), float(rng.uniform(3, 9)))
                     for _ in range(4)]
            perturbed = [PolarPoint(min(1, max(-1, p.theta + rng.normal(0, 0.004))),
                                    p.r * (1 + rng.normal(0, 0.05))) for p in users]
            H = channels(cfg256, users)
            full = np.mean(multiuser_rate(H, multiuser_precode(H, sigma2), sigma2))
            est = np.mean(multiuser_rate(H, multiuser_precode(channels(cfg256, perturbed), sigma2),
                                         sigma2))
            diffs.append(full - est)
        assert np.mean(diffs) > 0
