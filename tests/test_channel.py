import importlib
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import nfbeam
from nfbeam import (
    ArrayConfig,
    PolarPoint,
    SPEED_OF_LIGHT,
    channel_gain,
    element_distances,
    los_channel,
    near_field_steering,
    region_boundaries,
)
from nfbeam.channel import _distances, _geometry, steering_columns
from nfbeam.codebooks import _far_field_columns, dft_angle_grid
from oracles import (dft_matrix_by_formula, element_distance_by_coordinates, same_bits,
                     steering_by_distances, steering_by_formula)


def test_array_config_validation():
    with pytest.raises(ValueError):
        ArrayConfig(1, 100e9)
    with pytest.raises(ValueError):
        ArrayConfig(64, 0.0)


@pytest.mark.parametrize("n", [255.5, 256.0, True, "64"])
def test_array_config_rejects_a_non_integer_antenna_count(n):
    with pytest.raises(ValueError, match="n_antennas"):
        ArrayConfig(n, 100e9)


def test_array_config_accepts_numpy_integers():
    assert ArrayConfig(np.int64(64), 100e9).element_offsets().size == 64


def test_wavelength_and_spacing(cfg512):
    assert cfg512.wavelength == SPEED_OF_LIGHT / 100e9
    assert cfg512.spacing == cfg512.wavelength / 2
    assert cfg512.aperture == 512 * cfg512.spacing


def test_polar_point_validation():
    with pytest.raises(ValueError):
        PolarPoint(1.5, 10.0)
    with pytest.raises(ValueError):
        PolarPoint(0.0, 0.0)
    for r in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            PolarPoint(0.0, r)


def test_element_offsets_centered(cfg512):
    delta = cfg512.element_offsets()
    assert delta[0] == -(512 - 1) / 2
    assert delta[-1] == (512 - 1) / 2
    assert delta.sum() == 0.0


class TestElementDistance:
    def test_center_element_odd_array(self):
        cfg = ArrayConfig(65, 100e9)
        p = PolarPoint(0.0, 8.0)
        assert element_distances(cfg, p)[32] == 8.0  # delta = 0 exactly

    def test_against_coordinate_geometry(self, cfg512):
        rn = element_distances(cfg512, PolarPoint(0.0, 8.0))
        for n in [0, 1, 200, 511]:
            expected = element_distance_by_coordinates(512, cfg512.spacing, 0.0, 8.0, n)
            assert rn[n] == pytest.approx(expected, abs=1e-12)

    def test_random_points_against_oracle(self, cfg64):
        rng = np.random.default_rng(5)
        for _ in range(50):
            theta = rng.uniform(-0.95, 0.95)
            r = rng.uniform(0.5, 50)
            n = int(rng.integers(0, 64))
            ours = element_distances(cfg64, PolarPoint(theta, r))[n]
            ref = element_distance_by_coordinates(64, cfg64.spacing, theta, r, n)
            assert ours == pytest.approx(ref, rel=1e-12)

    def test_mirror_symmetry(self, cfg512):
        d1 = element_distances(cfg512, PolarPoint(0.37, 12.0))
        d2 = element_distances(cfg512, PolarPoint(-0.37, 12.0))
        for n in [0, 17, 300]:
            assert d1[n] == pytest.approx(d2[511 - n], rel=1e-14)


class TestSteering:
    def test_unit_norm(self, cfg512):
        for p in [PolarPoint(0.0, 8.0), PolarPoint(-0.7, 30.0), PolarPoint(0.99, 7.0)]:
            b = near_field_steering(cfg512, p)
            assert abs(np.linalg.norm(b) - 1.0) <= 1e-12

    def test_matches_elementwise_construction(self, cfg64):
        p = PolarPoint(0.3, 4.0)
        ref = steering_by_distances(64, cfg64.wavelength, 0.3, 4.0)
        assert np.allclose(near_field_steering(cfg64, p), ref, atol=1e-12)

    def test_equals_scalar_formula_to_the_bit(self):
        # the matrix form of the formula must not move a bit of a single vector
        rng = np.random.default_rng(11)
        for n in (64, 1024):
            cfg = ArrayConfig(n, 100e9)
            for theta, r in zip(rng.uniform(-1, 1, 50), rng.uniform(0.5, 500.0, 50)):
                p = PolarPoint(float(theta), float(r))
                assert np.array_equal(near_field_steering(cfg, p),
                                      steering_by_formula(cfg, p.theta, p.r))

    def test_far_field_limit_approaches_dft_codeword(self, cfg512):
        theta = 0.5
        _, r_ray = region_boundaries(cfg512)
        delta = cfg512.element_offsets()
        a = np.exp(1j * np.pi * delta * theta) / np.sqrt(512)

        def max_phase_dev(r):
            b = near_field_steering(cfg512, PolarPoint(theta, r))
            return np.abs(np.angle(b / a)).max()

        dev10 = max_phase_dev(10 * r_ray)
        dev100 = max_phase_dev(100 * r_ray)
        assert dev100 < dev10
        assert dev10 < 0.05  # quadratic residual pi N^2 d / (8 * 10 R_ray) ~ 0.02

    def test_conjugate_mirror_symmetry(self, cfg512):
        b_pos = near_field_steering(cfg512, PolarPoint(0.4, 9.0))
        b_neg = near_field_steering(cfg512, PolarPoint(-0.4, 9.0))
        assert np.allclose(b_neg, b_pos[::-1], atol=1e-12)


class TestChannel:
    def test_gain_value(self, cfg512):
        # g = lambda / (4 pi r) at r = 5 m
        g = channel_gain(cfg512, 5.0)
        assert g == pytest.approx(cfg512.wavelength / (4 * math.pi * 5.0), rel=0)
        assert g == pytest.approx(4.771e-5, rel=1e-3)

    def test_gain_quarter_when_distance_quadrupled(self, cfg512):
        assert channel_gain(cfg512, 20.0) == pytest.approx(channel_gain(cfg512, 5.0) / 4)

    def test_channel_norm(self, cfg512):
        p = PolarPoint(0.2, 7.0)
        h = los_channel(cfg512, p)
        g = channel_gain(cfg512, p.r)
        assert np.linalg.norm(h) == pytest.approx(math.sqrt(512) * g, rel=1e-12)

    def test_center_element_phase(self):
        cfg = ArrayConfig(65, 100e9)
        p = PolarPoint(0.0, 5.0)
        h = los_channel(cfg, p)
        # h = sqrt(N) g exp(+j 2 pi r / lam) b; at the center element b = 1
        expected = 2 * math.pi * p.r / cfg.wavelength % (2 * math.pi)
        got = np.angle(h[32]) % (2 * math.pi)
        assert got == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("fn", [los_channel], ids=["los_channel"])
class TestMemo:
    def test_shared_array_raises_on_write(self, fn, cfg64):
        p = PolarPoint(0.3, 2.0)
        a = fn(cfg64, p)
        assert fn(cfg64, PolarPoint(0.3, 2.0)) is a
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            a *= 2.0

    def test_bitwise_equal_to_fresh_computation(self, fn, cfg64):
        p = PolarPoint(-0.55, 1.3)
        cached = fn(cfg64, p)
        fn.cache_clear()
        fresh = fn(cfg64, p)
        assert fresh is not cached
        assert fresh.tobytes() == cached.tobytes()

    def test_size_is_bounded(self, fn, cfg64):
        maxsize = fn.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 1024
        for i in range(maxsize + 10):
            fn(cfg64, PolarPoint(0.0, 1.0 + i / 1000))
        assert fn.cache_info().currsize == maxsize


def test_the_package_keeps_exactly_three_memos():
    # a new memo has to be named here: every lru_cache-wrapped function of
    # src/nfbeam, at module level or in a class, and every such decorator
    # in its source, wherever it sits
    found = {}
    for info in pkgutil.iter_modules(nfbeam.__path__):
        module = importlib.import_module(f"nfbeam.{info.name}")
        for obj in vars(module).values():
            for fn in [obj, *vars(obj).values()] if isinstance(obj, type) else [obj]:
                if hasattr(fn, "cache_info") and fn.__module__ == module.__name__:
                    found[f"{info.name}.{fn.__qualname__}"] = fn
    assert set(found) == {"channel._geometry", "channel.region_boundaries", "channel.los_channel"}
    # one rule for every memo: it keeps its last entry (see simharness.simulate)
    assert {fn.cache_info().maxsize for fn in found.values()} == {1}
    decorators = re.compile(r"^\s*@(functools\.)?(lru_cache|cache)\b", re.MULTILINE)
    sources = Path(nfbeam.__file__).parent.glob("*.py")
    assert sum(len(decorators.findall(f.read_text())) for f in sources) == len(found)


@pytest.mark.parametrize("fn", [_geometry, region_boundaries],
                         ids=["_geometry", "region_boundaries"])
def test_per_config_caches_have_a_small_bound_of_their_own(fn):
    # a run uses one array config at a time, so a config memo never holds
    # more than the channel memo does
    maxsize = fn.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= los_channel.cache_info().maxsize
    for n in range(2, maxsize + 12):
        fn(ArrayConfig(n, 100e9))
    assert fn.cache_info().currsize == maxsize


def test_cached_geometry_is_read_only_and_shared(cfg64):
    delta, delta2_d2 = _geometry(cfg64)
    assert _geometry(ArrayConfig(64, 100e9))[0] is delta
    for a in (delta, delta2_d2):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    assert same_bits(delta[:, 0], cfg64.element_offsets())
    assert same_bits(delta2_d2, cfg64.element_offsets()[:, None] ** 2 * cfg64.spacing ** 2)


@pytest.mark.parametrize("n", [2, 3, 64, 100, 255, 256, 512, 1024])
def test_scaling_by_the_reciprocal_root_keeps_the_bits_of_the_division(n):
    # the steering and far-field formulas multiply by 1/sqrt(N); numpy
    # divides a complex array by a real scalar as that same product
    cfg = ArrayConfig(n, 100e9)
    rng = np.random.default_rng(n)
    thetas, radii = rng.uniform(-1.0, 1.0, 50), rng.uniform(0.01, 500.0, 50)
    phase = -2j * np.pi * (_distances(cfg, thetas, radii) - radii) / cfg.wavelength
    assert same_bits(steering_columns(cfg, thetas, radii), np.exp(phase) / math.sqrt(n))
    assert same_bits(_far_field_columns(cfg, dft_angle_grid(n)), dft_matrix_by_formula(cfg))


class TestRegions:
    def test_headline_values(self, cfg512):
        r_fre, r_ray = region_boundaries(cfg512)
        # D = 0.76747 m, lambda = 2.9979e-3 m
        assert r_ray == pytest.approx(392.944, abs=0.01)
        assert r_fre == pytest.approx(6.1397, abs=0.001)
        assert r_fre < r_ray

    def test_rayleigh_quadruples_with_n(self):
        _, r1 = region_boundaries(ArrayConfig(256, 100e9))
        _, r2 = region_boundaries(ArrayConfig(512, 100e9))
        assert r2 == pytest.approx(4 * r1, rel=1e-12)


def test_taylor_expansion_residual(cfg512):
    # second-order expansion of the element distance is accurate past the
    # Fresnel distance: |r_n - (r - d_n d t + d_n^2 d^2 (1-t^2)/(2r))| / r <= 1e-3
    r_fre, _ = region_boundaries(cfg512)
    delta = cfg512.element_offsets()
    d = cfg512.spacing
    for theta in [-0.8, 0.0, 0.5]:
        for r in [r_fre, 10.0, 50.0]:
            rn = element_distances(cfg512, PolarPoint(theta, r))
            approx = r - delta * d * theta + delta**2 * d**2 * (1 - theta**2) / (2 * r)
            assert np.max(np.abs(rn - approx)) / r <= 1e-3
