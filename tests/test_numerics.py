import cmath
import math

import numpy as np
import pytest

from nfbeam import ArrayConfig, NoiseModel, build_polar_codebook, erf_complex
from nfbeam.numerics import DOT_BLOCK, adjoint_product, norm, vdot
from oracles import erf_real_quadrature, quadrature_f, same_bits


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


def test_erf_against_mpmath():
    # the real axis, the four diagonal rays the closed forms evaluate
    # (the package reaches |z| ~ 3.9e3 there) and the box [-8, 8]^2
    mpmath = pytest.importorskip("mpmath")

    def error(z):
        with mpmath.workdps(30):
            exact = complex(mpmath.erf(mpmath.mpc(z.real, z.imag)))
        return abs(erf_complex(z) - exact), abs(exact)

    radii = np.geomspace(1e-12, 4e3, 241)
    for x in np.concatenate((-radii, radii)):
        assert erf_complex(x).imag == 0.0
        assert error(complex(x))[0] <= 1e-13
    for k in range(4):
        ray = cmath.exp(1j * (math.pi / 4 + k * math.pi / 2))
        for t in radii:
            assert error(t * ray)[0] <= (1e-13 if t <= 45 else 1e-12)
    grid = np.linspace(-8, 8, 65)
    for x in grid:
        for y in grid:
            err, size = error(complex(x, y))
            assert err <= 1e-13 * max(1.0, size)


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

    @pytest.mark.parametrize("sigma2", [float("inf"), float("nan")])
    def test_non_finite_power_rejected(self, sigma2):
        # an infinite noise power turns every sweep into an outage
        with pytest.raises(ValueError):
            NoiseModel(sigma2, 0)

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

    def test_replay_equals_a_fresh_stream_chunk_for_chunk(self):
        # chunk sizes of a proposed, a fast, an exhaustive and another
        # proposed training at N = 64, replayed on one stream; the
        # exhaustive draw is longer than everything drawn before it
        n_polar = len(build_polar_codebook(ArrayConfig(64, 100e9)))
        assert n_polar > 64 + 5 + 7 + 2
        runs = [(2.0, (64, 3)), (0.5, (64, 5, 7, 2)), (1e-3, (n_polar,)), (0.0, (64, 3))]
        stream = NoiseModel(1.0, (4, 1, 0))
        for sigma2, sizes in runs:
            assert stream.replay(sigma2) is stream
            fresh = NoiseModel(sigma2, (4, 1, 0))
            for n in sizes:
                assert stream.sample(n).tobytes() == fresh.sample(n).tobytes()

    def test_negative_count_rejected_and_the_stream_kept(self):
        # sample(-1) would return [] and move the stream back two draws
        stream = NoiseModel(1.0, 3)
        with pytest.raises(ValueError, match="got -1"):
            stream.sample(-1)
        assert stream.sample(4).tobytes() == NoiseModel(1.0, 3).sample(4).tobytes()

    def test_replay_rejects_negative_power(self):
        with pytest.raises(ValueError):
            NoiseModel(1.0, 0).replay(-1.0)


@pytest.mark.parametrize("n", [3, DOT_BLOCK, DOT_BLOCK + 1, 2 * DOT_BLOCK + 5])
def test_blocked_products_are_numpy_s_up_to_one_block(n):
    # up to DOT_BLOCK terms each is the numpy call it replaces, bit for
    # bit; past it, a sum of blocks within rounding of the one call
    rng = np.random.default_rng(n)
    u, v = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
    a, b = (rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3)) for _ in range(2))
    pairs = [(vdot(u, v), np.vdot(u, v)), (adjoint_product(a, b), a.conj().T @ b),
             (adjoint_product(a[:, :1], a[:, :1]), a[:, :1].conj().T @ a[:, :1]),
             (norm(u), np.linalg.norm(u))]
    for got, ref in pairs:
        if n <= DOT_BLOCK:
            assert same_bits(got, ref)
        else:
            assert np.allclose(got, ref, rtol=1e-13, atol=0)
