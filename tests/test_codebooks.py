import gc
import math
import weakref

import numpy as np
import pytest

import nfbeam.codebooks
from nfbeam import (
    ArrayConfig,
    PolarPoint,
    build_dft_codebook,
    build_polar_codebook,
    dft_angle_grid,
    los_channel,
    region_boundaries,
)
from nfbeam.channel import _MEMO_SIZE
from nfbeam.codebooks import ring_scale
from nfbeam.errors import EmptyGridError
from nfbeam.simharness import ScenarioConfig, simulate
from oracles import dft_matrix_by_formula, polar_codebook_by_loops, same_bits


class TestDftCodebook:
    def test_angle_grid_n4(self):
        assert np.allclose(dft_angle_grid(4), [-3 / 4, -1 / 4, 1 / 4, 3 / 4])

    def test_grid_step_and_monotonicity(self, cfg512):
        grid = build_dft_codebook(cfg512).angle_grid
        steps = np.diff(grid)
        assert np.allclose(steps, 2 / 512)
        assert grid[255] == pytest.approx(-1 / 512)
        assert grid[256] == pytest.approx(1 / 512)

    def test_unit_norm_columns(self, cfg64):
        book = build_dft_codebook(cfg64)
        norms = np.linalg.norm(book.matrix, axis=0)
        assert np.max(np.abs(norms - 1)) <= 1e-12

    def test_gram_is_identity(self, cfg64):
        book = build_dft_codebook(cfg64)
        gram = book.matrix.conj().T @ book.matrix
        assert np.max(np.abs(gram - np.eye(64))) <= 1e-10

    def test_far_field_sweep_peaks_at_nearest_grid_angle(self, cfg256):
        _, r_ray = region_boundaries(cfg256)
        book = build_dft_codebook(cfg256)
        for theta in [-0.513, 0.0333, 0.742]:
            h = los_channel(cfg256, PolarPoint(theta, 100 * r_ray))
            gains = np.abs(h.conj() @ book.matrix) / np.linalg.norm(h)
            assert int(np.argmax(gains)) == book.nearest_index(theta)

    @pytest.mark.parametrize("n", [2, 3, 63, 64, 255, 256, 1024])
    def test_equals_direct_formula_to_the_bit(self, n):
        cfg = ArrayConfig(n, 100e9)
        assert same_bits(build_dft_codebook(cfg).matrix, dft_matrix_by_formula(cfg))

    def test_on_grid_far_user_gain_near_one(self, cfg256):
        _, r_ray = region_boundaries(cfg256)
        book = build_dft_codebook(cfg256)
        theta = float(book.angle_grid[100])
        h = los_channel(cfg256, PolarPoint(theta, 100 * r_ray))
        gains = np.abs(h.conj() @ book.matrix) / np.linalg.norm(h)
        assert gains[100] >= 0.999


class TestPolarCodebook:
    def test_ring_scale_headline(self, cfg512):
        # Z = N^2 d^2 / (2 beta^2 lambda) ~ 38.4 m at beta = 1.6
        assert ring_scale(cfg512, 1.6) == pytest.approx(38.37, abs=0.02)

    def test_rings_at_broadside(self, cfg512):
        book = build_polar_codebook(cfg512, beta_polar=1.6)
        r_fre, r_ray = region_boundaries(cfg512)
        idx = build_dft_codebook(cfg512).nearest_index(0.0)
        sl = book.entries_at(idx)
        radii = book.radii[sl]
        assert math.isinf(radii[0])
        finite = radii[1:]
        z = ring_scale(cfg512, 1.6) * (1 - book.thetas[sl.start] ** 2)
        expected = [z / s for s in range(1, finite.size + 1)]
        assert np.allclose(finite, expected, rtol=1e-12)
        assert finite.min() >= r_fre
        assert finite.max() <= r_ray
        # Z ~ 38.4 m: rings near 38.4, 19.2, 12.8, 9.6, 7.7, 6.4 above R_Fre ~ 6.14
        assert finite.size == 6

    def test_every_entry_unit_norm(self, cfg256):
        book = build_polar_codebook(cfg256)
        norms = np.linalg.norm(book.matrix, axis=0)
        assert np.max(np.abs(norms - 1)) <= 1e-12

    def test_edge_angles_have_far_field_only(self, cfg256):
        book = build_polar_codebook(cfg256)
        # grid angles closest to +-1: 1 - theta^2 ~ 2/N shrinks every ring
        # below the Fresnel cutoff
        assert book.angle_count[0] == 1
        assert book.angle_count[-1] == 1

    def test_ring_count_nonincreasing_in_abs_theta(self, cfg256):
        book = build_polar_codebook(cfg256)
        n = cfg256.n_antennas
        right = book.angle_count[n // 2:]          # theta > 0, increasing
        assert np.all(np.diff(right) <= 0)
        left = book.angle_count[: n // 2]          # theta < 0, increasing toward 0
        assert np.all(np.diff(left) >= 0)

    def test_average_samples_exceed_one(self, cfg256):
        book = build_polar_codebook(cfg256)
        assert book.avg_samples_per_angle > 1.0
        assert len(book) == cfg256.n_antennas * book.avg_samples_per_angle

    def test_empty_grid_raises(self, cfg64):
        # so dense a ring scale puts even the first ring inside R_Fre
        with pytest.raises(EmptyGridError):
            build_polar_codebook(cfg64, beta_polar=99.0)

    def test_bad_beta_rejected(self, cfg64):
        # named, not reported as an empty grid: the input is at fault
        for beta in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="beta_polar") as info:
                build_polar_codebook(cfg64, beta_polar=beta)
            assert not isinstance(info.value, EmptyGridError)

    @pytest.mark.parametrize("n", [32, 63, 64, 128, 255, 256, 512, 1024])
    def test_equals_per_entry_build(self, n):
        # the oracle squares r as r * r, as build_polar_codebook does
        # (Python's r**2 rounds 2 of N = 1024's radii differently); odd N
        # has a middle angle that is evaluated, not mirrored
        book = build_polar_codebook(ArrayConfig(n, 100e9))
        matrix, thetas, radii, start, count = polar_codebook_by_loops(book.cfg)
        assert same_bits(book.matrix, matrix)
        assert same_bits(book.thetas, thetas)
        assert same_bits(book.radii, radii)
        assert same_bits(book.angle_start, start)
        assert same_bits(book.angle_count, count)

    @pytest.mark.parametrize("n", [64, 65, 256])
    def test_rings_are_evaluated_for_the_upper_half_only(self, monkeypatch, n):
        # the entries of angle index < N//2 are mirrored copies
        asked = []
        real = nfbeam.codebooks.steering_columns

        def counting(cfg, thetas, radii):
            asked.append(len(thetas))
            return real(cfg, thetas, radii)

        monkeypatch.setattr(nfbeam.codebooks, "steering_columns", counting)
        book = build_polar_codebook(ArrayConfig(n, 100e9))
        upper = book.radii[book.angle_start[n // 2]:]
        assert sum(asked) == np.count_nonzero(np.isfinite(upper))
        assert sum(asked) < np.count_nonzero(np.isfinite(book.radii))


class TestSharedGrid:
    """Both codebooks are one type on one angle grid."""

    @pytest.mark.parametrize("n", [2, 3, 64, 255, 256])
    def test_dft_book_is_a_book_without_rings(self, n):
        book = build_dft_codebook(ArrayConfig(n, 100e9))
        assert same_bits(book.thetas, book.angle_grid)
        assert same_bits(book.angle_grid, dft_angle_grid(n))
        assert np.all(np.isinf(book.radii))
        assert np.all(book.angle_count == 1)
        assert np.array_equal(book.angle_start, np.arange(n))
        assert book.avg_samples_per_angle == 1.0

    @pytest.mark.parametrize("n", [15, 64, 255, 256])
    def test_polar_far_field_entries_are_the_dft_book(self, n):
        # fast_training passes a DFT index to `entries_at`
        cfg = ArrayConfig(n, 28e9)
        polar, dft = build_polar_codebook(cfg), build_dft_codebook(cfg)
        assert same_bits(polar.thetas[polar.angle_start], dft_angle_grid(n))
        assert same_bits(polar.angle_grid, dft.angle_grid)
        assert np.all(np.isinf(polar.radii[polar.angle_start]))
        assert same_bits(polar.matrix[:, polar.angle_start], dft.matrix)
        for i in (0, n // 2, n - 1):
            assert dft.nearest_index(float(polar.thetas[polar.angle_start[i]])) == i


def _books(cfg):
    return {"dft": build_dft_codebook(cfg), "polar": build_polar_codebook(cfg)}


@pytest.mark.parametrize("kind", ["dft", "polar"])
class TestSharedArrays:
    def test_arrays_are_read_only(self, kind, cfg64):
        book = _books(cfg64)[kind]
        for name in ("angle_grid", "thetas", "radii", "matrix", "angle_start", "angle_count"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(book, name)[0] = 0

    def test_memo_hit_equals_fresh_product(self, kind, cfg64):
        book = _books(cfg64)[kind]
        h = los_channel(cfg64, PolarPoint(0.21, 3.3))
        s = book.noiseless_sweep(h)
        assert book.noiseless_sweep(h) is s
        assert s.tobytes() == (h.conj() @ book.matrix).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            s[0] = 0.0

    def test_arrays_that_can_change_are_not_memoized(self, kind, cfg64):
        # a writable h, and a read-only view of a writable base, can change
        # after a sweep; the next sweep must see their current values
        book = _books(cfg64)[kind]
        h = np.ones(64, dtype=complex)
        base = np.ones(64, dtype=complex)
        view = base[:]
        view.flags.writeable = False
        for x, written in ((h, h), (view, base)):
            book.noiseless_sweep(x)
            written[:] = 2.0
            assert book.noiseless_sweep(x).tobytes() == (x.conj() @ book.matrix).tobytes()
        assert len(book._sweeps) == 0

    def test_memo_is_bounded(self, kind, cfg64):
        book = _books(cfg64)[kind]
        rng = np.random.default_rng(5)
        for theta, r in zip(rng.uniform(-0.9, 0.9, 200), rng.uniform(2.0, 30.0, 200)):
            h = los_channel(cfg64, PolarPoint(float(theta), float(r)))
            assert book.noiseless_sweep(h).tobytes() == (h.conj() @ book.matrix).tobytes()
            assert len(book._sweeps) <= _MEMO_SIZE
        assert len(book._sweeps) == _MEMO_SIZE

    def test_memo_dies_with_the_codebook(self, kind, cfg64):
        book = _books(cfg64)[kind]
        book.noiseless_sweep(los_channel(cfg64, PolarPoint(-0.4, 5.0)))
        ref = weakref.ref(book)
        del book
        gc.collect()
        assert ref() is None


@pytest.mark.parametrize("mode, products_per_user", [("nmse", 1), ("multi", 2)])
def test_simulate_computes_each_noiseless_sweep_once(monkeypatch, mode, products_per_user):
    # nmse: 3 trials x 14 SNR points x 2 schemes sweep one DFT codebook;
    # multi: all four schemes, so one DFT and one polar sweep per user,
    # which fast reads its per-angle entries from
    products = []
    real = nfbeam.codebooks._noiseless_product

    def counting(h, matrix):
        products.append((id(h), matrix.__array_interface__["data"][0], matrix.shape))
        return real(h, matrix)

    monkeypatch.setattr(nfbeam.codebooks, "_noiseless_product", counting)
    schemes = ("proposed", "joint") if mode == "nmse" else ("proposed", "joint", "fast",
                                                            "exhaustive")
    sc = ScenarioConfig(n_antennas=64, trials=3, m_users=3, schemes=schemes,
                        snr_ref_db_grid=tuple(range(4, 31, 2)))
    rows = list(simulate(sc, mode))
    assert len(rows) == 3 * 14 * (len(schemes) + (mode == "multi"))
    users = 3 * (3 if mode == "multi" else 1)
    # exactly one product per (user, codebook), each over a whole codebook
    assert len(products) == users * products_per_user
    assert len(set(products)) == len(products)
    assert len({p[1] for p in products}) == products_per_user
