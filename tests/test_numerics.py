import cmath
import math

import numpy as np
import pytest

from nfbeam import NoiseModel, erf_complex
from oracles import erf_real_quadrature, quadrature_f


def test_erf_zero():
    assert erf_complex(0) == 0


def test_erf_odd():
    rng = np.random.default_rng(3)
    for _ in range(200):
        z = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
        assert abs(erf_complex(-z) + erf_complex(z)) <= 1e-12


def test_erf_conjugate_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(200):
        z = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
        assert erf_complex(z.conjugate()) == erf_complex(z).conjugate()


def test_erf_real_against_quadrature():
    # includes the erf(1) ~ 0.8427 anchor
    for x in [0.1, 0.5, 1.0, 1.7, 2.5, 3.9, 4.5]:
        expected = erf_real_quadrature(x)
        assert erf_complex(x).imag == 0.0
        assert abs(erf_complex(x).real - expected) <= 1e-10
    assert abs(erf_complex(1.0).real - 0.8427007929497149) <= 1e-12


def test_erf_saturates_on_real_axis():
    for x in [6.0, 8.0, 15.0, 30.0]:
        assert abs(erf_complex(x) - 1.0) <= 1e-12


def test_erf_at_central_gain_argument():
    # The closed-form central gain at alpha = 6.144 evaluates
    # f = -(1/2) e^{j pi/4} erf(e^{j 3pi/4} sqrt(pi alpha)) / sqrt(alpha);
    # invert the quadrature value of the integral to isolate erf.
    alpha = 6.144
    z = cmath.exp(3j * math.pi / 4) * math.sqrt(math.pi * alpha)
    f = quadrature_f(alpha, 0.0)
    expected = f * (-2.0) * math.sqrt(alpha) * cmath.exp(-1j * math.pi / 4)
    assert abs(erf_complex(z) - expected) <= 1e-7


def test_erf_series_cf_agree_near_crossover():
    # both algorithm branches evaluated at the same points around the
    # crossover radius must agree
    from nfbeam.numerics import SERIES_RADIUS, _erf_series, _faddeeva_cf

    for angle in [0.05, math.pi / 4, 3 * math.pi / 4 - 0.05, 1.2]:
        for radius in [SERIES_RADIUS - 0.1, SERIES_RADIUS, SERIES_RADIUS + 0.1]:
            z = radius * cmath.exp(1j * angle)
            if z.real < 0:
                z = -z  # canonical half-plane, matching erf_complex
            series = _erf_series(z)
            cf = 1.0 - cmath.exp(-z * z) * _faddeeva_cf(1j * z)
            assert abs(series - cf) <= 1e-10


def test_erf_large_diagonal_ray_is_bounded():
    # |exp(-z^2)| = 1 on the diagonal rays: erf stays O(1) out to |z| ~ 40
    for t in [5.0, 12.0, 25.0, 38.0]:
        z = t * cmath.exp(3j * math.pi / 4)
        val = erf_complex(z)
        assert abs(abs(val) - 1.0) <= 0.5


class TestNoiseModel:
    def test_zero_power_is_exact_zero(self):
        nm = NoiseModel(0.0, 7)
        assert np.all(nm.sample(10) == 0)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(-1.0, 0)

    def test_determinism(self):
        a = NoiseModel(2.0, (5, 1)).sample(100)
        b = NoiseModel(2.0, (5, 1)).sample(100)
        assert np.array_equal(a, b)

    def test_streams_with_different_keys_differ(self):
        a = NoiseModel(1.0, (0, 1)).sample(8)
        b = NoiseModel(1.0, (0, 2)).sample(8)
        assert not np.array_equal(a, b)

    def test_empirical_variance(self):
        # law-of-large-numbers check at 1e6 draws, 1% tolerance
        draws = NoiseModel(1.0, 123).sample(1_000_000)
        assert abs(np.mean(np.abs(draws) ** 2) - 1.0) <= 0.01

    def test_scaling_is_common_random_numbers(self):
        # same key, different powers: identical normals scaled by sqrt(s2)
        a = NoiseModel(1.0, 11).sample(64)
        b = NoiseModel(4.0, 11).sample(64)
        assert np.allclose(2.0 * a, b, rtol=0, atol=0)
