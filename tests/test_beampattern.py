import math

import numpy as np
import pytest

from nfbeam import (
    AlphaBeta,
    PolarPoint,
    build_dft_codebook,
    central_gain,
    closed_form_f,
    closed_form_width,
    exact_gain,
    interpolated_width,
    measure_width,
    normalized_pattern,
    region_boundaries,
    taylor_f,
)
from nfbeam.beampattern import sweep_pattern
from nfbeam.channel import near_field_steering
from nfbeam.codebooks import dft_angle_grid
from nfbeam.errors import DomainError, EmptyMainSetError
from oracles import quadrature_f

FIG2 = PolarPoint(0.0, 8.0)  # the headline pattern: N = 512, 100 GHz, broadside, 8 m


def alpha_beta(cfg, p, phi):
    return AlphaBeta.from_geometry(cfg, p, phi)


class TestAlphaBeta:
    def test_values(self, cfg512):
        ab = alpha_beta(cfg512, FIG2, 0.0)
        # alpha = N^2 d / (8 r) with the true half-wavelength spacing
        assert ab.alpha == pytest.approx(6.1397, abs=2e-4)
        assert ab.beta == 0.0

    def test_alpha_positive_required(self):
        with pytest.raises(DomainError):
            AlphaBeta(alpha=0.0, beta=1.0)
        with pytest.raises(DomainError):
            AlphaBeta(alpha=-2.0, beta=0.0)


class TestExactGain:
    def test_far_field_matched_filter(self, cfg256):
        _, r_ray = region_boundaries(cfg256)
        book = build_dft_codebook(cfg256)
        theta = float(book.angle_grid[77])
        assert exact_gain(cfg256, PolarPoint(theta, 100 * r_ray), theta) >= 0.999

    def test_fig2_central_gain(self, cfg512):
        # frozen from the direct 512-term sum; the 1/(2 sqrt(alpha))
        # asymptote predicts 0.2017, the exact sum sits ~4% below
        g = exact_gain(cfg512, FIG2, 0.0)
        assert g == pytest.approx(0.19359, abs=2e-4)
        assert abs(g - 0.2017) / 0.2017 <= 0.05

    def test_mirror_symmetry_at_broadside(self, cfg512):
        for phi in [0.01, 0.05, 0.2]:
            assert exact_gain(cfg512, FIG2, phi) == pytest.approx(
                exact_gain(cfg512, FIG2, -phi), rel=1e-9)


class TestTaylorModel:
    def test_tracks_exact_gain_in_main_lobe(self, cfg512):
        # the cubic distance term the model drops grows with |theta|:
        # measured main-lobe error is ~6e-4 at broadside and ~0.011 at
        # theta = 0.5 for r past the Fresnel distance
        r_fre, _ = region_boundaries(cfg512)
        for theta, r, bound in [(0.0, r_fre, 1e-3), (0.0, 8.0, 1e-3),
                                (0.5, 12.0, 0.015), (-0.3, 40.0, 2e-3)]:
            p = PolarPoint(theta, r)
            half_lobe = closed_form_width(cfg512, p) / 2
            for dphi in np.linspace(-half_lobe, half_lobe, 21):
                err = abs(abs(taylor_f(cfg512, p, theta + dphi))
                          - exact_gain(cfg512, p, theta + dphi))
                assert err <= bound

    def test_matched_phase_far_limit(self, cfg512):
        _, r_ray = region_boundaries(cfg512)
        far = PolarPoint(0.3, 1000 * r_ray)
        assert abs(taylor_f(cfg512, far, 0.3)) == pytest.approx(1.0, abs=1e-6)

    def test_fig2_plateau_level(self, cfg512):
        # raw plateau sits near 0.2 before normalization
        for phi in [-0.03, 0.0, 0.02]:
            assert 0.15 <= abs(taylor_f(cfg512, FIG2, phi)) <= 0.26


class TestClosedForm:
    def test_against_quadrature_grid(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            alpha = rng.uniform(0.5, 50)
            beta = rng.uniform(-4 * alpha, 4 * alpha)
            ref = quadrature_f(alpha, beta)
            val = closed_form_f(AlphaBeta(alpha, beta))
            assert abs(val - ref) <= 1e-6

    def test_beta_symmetry_in_magnitude(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            alpha = rng.uniform(0.3, 30)
            beta = rng.uniform(0, 4 * alpha)
            a = abs(closed_form_f(AlphaBeta(alpha, beta)))
            b = abs(closed_form_f(AlphaBeta(alpha, -beta)))
            assert a == pytest.approx(b, rel=1e-10, abs=1e-12)

    def test_central_value_matches_asymptote(self):
        # |f(6.144, 0)| = 0.194155 (frozen from quadrature); the
        # 1/(2 sqrt(alpha)) asymptote lands within 4% at this alpha
        val = abs(closed_form_f(AlphaBeta(6.144, 0.0)))
        assert val == pytest.approx(0.194155, abs=2e-5)
        asym = 1 / (2 * math.sqrt(6.144))
        assert abs(val - asym) / val <= 0.05

    def test_magnitude_bounded_by_one(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            alpha = rng.uniform(0.05, 60)
            beta = rng.uniform(-5 * alpha, 5 * alpha)
            assert abs(closed_form_f(AlphaBeta(alpha, beta))) <= 1.0 + 1e-9


class TestCentralGain:
    def test_quarter_alpha_gives_one(self):
        assert central_gain(AlphaBeta(0.25, 0.0)) == 1.0

    def test_headline_value(self):
        assert central_gain(AlphaBeta(6.144, 0.0)) == pytest.approx(0.201718, abs=1e-6)

    def test_asymptotic_deviation_follows_oscillation_envelope(self):
        # the exact central value oscillates around 1/(2 sqrt(alpha)) with
        # amplitude ~1/(pi sqrt(alpha)); the 5% figure holds at the
        # headline alpha = 6.14 but not at every alpha >= 2
        for alpha in [2.0, 3.0, 6.0, 6.1397, 12.0, 30.0]:
            exact = abs(closed_form_f(AlphaBeta(alpha, 0.0)))
            dev = abs(2 * math.sqrt(alpha) * exact - 1.0)
            assert dev <= 1.0 / (math.pi * math.sqrt(alpha)) + 0.02
        headline = abs(closed_form_f(AlphaBeta(6.1397, 0.0)))
        assert abs(central_gain(AlphaBeta(6.1397, 0.0)) - headline) / headline <= 0.05


class TestNormalizedPattern:
    def test_self_normalization_on_grid_angle(self, cfg512):
        book = build_dft_codebook(cfg512)
        theta = float(book.angle_grid[256])
        pat = normalized_pattern(cfg512, PolarPoint(theta, 8.0), book)
        assert pat[256] == pytest.approx(1.0, rel=1e-12)

    def test_one_steering_vector_gives_the_gains_and_the_central_gain(self, cfg256):
        # off broadside, so phi = 0 is not phi = theta
        book = build_dft_codebook(cfg256)
        p = PolarPoint(0.31, 6.0)
        gains, central = sweep_pattern(cfg256, p, book)
        assert central == exact_gain(cfg256, p, p.theta)
        assert np.array_equal(gains, np.abs(book.noiseless_sweep(near_field_steering(cfg256, p))))
        assert np.array_equal(normalized_pattern(cfg256, p, book), gains / central)

    def test_fig2_half_gain_crossings(self, cfg512):
        # interpolated rho = 1/2 width, frozen from the dense-grid scan:
        # 0.09858, against the closed-form 0.0959
        book = build_dft_codebook(cfg512)
        pat = normalized_pattern(cfg512, FIG2, book)
        w = interpolated_width(pat, 0.5)
        assert w == pytest.approx(0.0986, abs=5e-4)
        assert abs(w - closed_form_width(cfg512, FIG2)) / closed_form_width(cfg512, FIG2) <= 0.10

    def test_far_user_collapses_to_dirichlet_lobe(self, cfg512):
        # far-field main lobe: half-gain width ~ 1.2 grid bins; the
        # near-field width law no longer applies out there
        _, r_ray = region_boundaries(cfg512)
        book = build_dft_codebook(cfg512)
        theta = float(book.angle_grid[256])
        pat = normalized_pattern(cfg512, PolarPoint(theta, 50 * r_ray), book)
        w = interpolated_width(pat, 0.5)
        assert w <= 3 * (2 / 512)

    @pytest.mark.parametrize("reverse", [False, True], ids=["left-edge", "right-edge"])
    def test_main_run_touching_a_grid_edge_ends_there(self, reverse):
        # grid -0.875, -0.625, ...: the run starts at the first point and
        # crosses 0.5 at 60% of the step from -0.375 (gain 0.8) to -0.125 (0.3)
        gains = np.array([1.0, 1.0, 0.8, 0.3, 0.1, 0.1, 0.1, 0.1])
        assert interpolated_width(gains[::-1] if reverse else gains, 0.5) == \
            pytest.approx(0.875 - 0.375 + 0.6 * 0.25, rel=1e-12)
        assert interpolated_width(np.ones(8), 0.5) == pytest.approx(1.75, rel=1e-12)


class TestMeasureWidth:
    def test_fig2_width_within_ten_percent(self, cfg512):
        book = build_dft_codebook(cfg512)
        pat = normalized_pattern(cfg512, FIG2, book)
        ms = measure_width(pat, 0.5)
        assert abs(ms.width - 0.096) / 0.096 <= 0.10

    def test_threshold_above_everything(self):
        with pytest.raises(EmptyMainSetError):
            measure_width(np.full(11, 0.3), 0.5)

    def test_rho_just_below_one_keeps_only_ripple_tops(self, cfg512):
        # the normalized pattern peaks at ~1.16 (plateau ripples exceed
        # the phi = theta reference); rho = 0.999 keeps a handful of bins
        # near the strongest ripple
        book = build_dft_codebook(cfg512)
        pat = normalized_pattern(cfg512, FIG2, book)
        assert pat.max() == pytest.approx(1.163, abs=2e-3)
        ms = measure_width(pat, 0.999)
        assert ms.width <= 5 * 2 / 512

    def test_rho_above_raw_peak_is_empty(self, cfg512):
        # on the raw pattern (peak ~0.23) any rho above the peak empties
        # the main set
        book = build_dft_codebook(cfg512)
        with pytest.raises(EmptyMainSetError):
            measure_width(sweep_pattern(cfg512, FIG2, book)[0], 0.9)

    def test_contiguous_drops_detached_spike(self):
        grid = dft_angle_grid(20)
        gains = np.zeros(20)
        gains[9:12] = 1.0
        gains[18] = 0.9  # detached sidelobe spike
        # a 3-bin run reads as 3 grid steps
        assert measure_width(gains, 0.5).width == pytest.approx(grid[12] - grid[9])

    def test_grid_quantization_bound(self, cfg512):
        # grid Range differs from the interpolated crossing width by at
        # most two grid steps
        book = build_dft_codebook(cfg512)
        pat = normalized_pattern(cfg512, FIG2, book)
        ms = measure_width(pat, 0.5)
        w = interpolated_width(pat, 0.5)
        assert abs(ms.width - w) <= 2 * (2 / 512)

    def test_invalid_rho(self, cfg512):
        book = build_dft_codebook(cfg512)
        pat = normalized_pattern(cfg512, FIG2, book)
        with pytest.raises(ValueError):
            measure_width(pat, 0.0)


class TestClosedFormWidth:
    def test_headline_value(self, cfg512):
        assert closed_form_width(cfg512, FIG2) == pytest.approx(0.09593, abs=1e-4)

    def test_one_minus_theta_sq_scaling(self, cfg512):
        w0 = closed_form_width(cfg512, PolarPoint(0.0, 8.0))
        w6 = closed_form_width(cfg512, PolarPoint(0.6, 8.0))
        assert w6 == pytest.approx(0.64 * w0, rel=1e-12)

    def test_inverse_r_scaling(self, cfg512):
        w8 = closed_form_width(cfg512, PolarPoint(0.0, 8.0))
        w16 = closed_form_width(cfg512, PolarPoint(0.0, 16.0))
        assert w16 == pytest.approx(w8 / 2, rel=1e-12)

    def test_endfire_rejected(self, cfg512):
        with pytest.raises(DomainError):
            closed_form_width(cfg512, PolarPoint(1.0, 8.0))

    def test_width_law_in_validity_domain(self, cfg512):
        # the rho = 1/2 law holds to 10% where the plateau is developed
        # (alpha >= 2); beyond that the pattern degenerates toward the
        # far-field lobe and the law genuinely breaks
        book = build_dft_codebook(cfg512)
        nd = 512 * cfg512.spacing
        for theta in [0.0, 0.3, -0.3, 0.6, -0.6, 0.8]:
            for r in [6.14, 8.0, 16.0, 32.0, 64.0]:
                alpha = nd * 512 * (1 - theta**2) / (8 * r)
                if alpha < 2.0:
                    continue
                p = PolarPoint(theta, r)
                pat = normalized_pattern(cfg512, p, book)
                w = interpolated_width(pat, 0.5)
                assert abs(w - closed_form_width(cfg512, p)) / closed_form_width(cfg512, p) <= 0.10


def normalized_gain(ab):
    """|f~| / central_gain from the two public closed forms."""
    return abs(closed_form_f(ab)) / central_gain(ab)


class TestReducedCoordinateProperties:
    def test_normalized_gain_even_in_beta(self):
        for alpha in [0.7, 2.5, 10.0]:
            for beta in [0.3, 2 * alpha, 3 * alpha]:
                a = normalized_gain(AlphaBeta(alpha, beta))
                b = normalized_gain(AlphaBeta(alpha, -beta))
                assert a == pytest.approx(b, rel=1e-10, abs=1e-12)

    def test_half_gain_crossing_is_unique_per_side(self):
        # the boundary layer just past beta = 2 alpha ripples slightly
        # (it is not strictly monotone), but it never climbs back above
        # 1/2, and the plateau stays above 1/2, so the half-gain crossing
        # on each side is unique
        for alpha in [2.0, 4.0, 8.0, 20.0, 30.0, 50.0]:
            outside = np.linspace(2 * alpha + 0.05, 2 * alpha + 6, 150)
            vals_out = [normalized_gain(AlphaBeta(alpha, b)) for b in outside]
            assert max(vals_out) < 0.5
            inside = np.linspace(0.0, 2 * alpha - 1.0, 150)
            vals_in = [normalized_gain(AlphaBeta(alpha, b)) for b in inside]
            assert min(vals_in) > 0.5

    def test_half_gain_at_edge(self):
        # at beta = 2 alpha the normalized closed-form gain passes 1/2
        for alpha in [2.0, 6.144, 20.0]:
            val = normalized_gain(AlphaBeta(alpha, 2 * alpha))
            assert val == pytest.approx(0.5, abs=0.06)
