import math

import numpy as np
import pytest

from nfbeam import (
    PolarPoint,
    build_dft_codebook,
    build_polar_codebook,
    dft_angle_grid,
    los_channel,
    region_boundaries,
)
from nfbeam.codebooks import ring_scale
from nfbeam.errors import EmptyGridError


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
        z = book.z_delta * (1 - book.thetas[sl.start] ** 2)
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
        with pytest.raises(ValueError):
            build_polar_codebook(cfg64, beta_polar=0.0)

