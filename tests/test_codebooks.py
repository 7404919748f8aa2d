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
    normalized_pattern,
    region_boundaries,
)
from nfbeam.channel import los_channel
from nfbeam.cli import main
from nfbeam.codebooks import dft_angle_grid, ring_scale
from nfbeam.errors import EmptyGridError
from nfbeam.estimators import LocationEstimate
from nfbeam.simharness import ScenarioConfig, simulate
from oracles import data_beam, dft_matrix_by_formula, polar_codebook_by_loops, same_bits


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

    @pytest.mark.parametrize("n", [2, 3, 16, 64])
    def test_fft_sweep_matches_an_exact_sum(self, n):
        # sum_n conj(h_n) exp(j pi delta_n phi_i) / sqrt(N) in 40 digits,
        # with delta_n phi_i = (2n - N + 1)(2i - N + 1) / (2N) exactly
        mpmath = pytest.importorskip("mpmath")
        cfg = ArrayConfig(n, 100e9)
        book = build_dft_codebook(cfg)
        rng = np.random.default_rng(n)
        for h in (los_channel(cfg, PolarPoint(0.37, 0.2)),
                  rng.standard_normal(n) + 1j * rng.standard_normal(n)):
            s = nfbeam.codebooks._noiseless_product(h, book)
            with mpmath.workdps(40):
                exact = [complex(mpmath.fsum(
                    mpmath.conj(mpmath.mpc(complex(x)))
                    * mpmath.expjpi(mpmath.mpf((2 * k - n + 1) * (2 * i - n + 1)) / (2 * n))
                    for k, x in enumerate(h)) / mpmath.sqrt(n)) for i in range(n)]
            assert np.max(np.abs(s - exact)) <= 1e-13 * np.max(np.abs(s))

    @pytest.mark.parametrize("n", [100, 255, 256, 1024])
    def test_fft_sweep_matches_the_matrix_product(self, n):
        cfg = ArrayConfig(n, 100e9)
        book = build_dft_codebook(cfg)
        _, r_ray = region_boundaries(cfg)
        for theta, r in ((-0.61, 0.02 * r_ray), (0.0, 0.1 * r_ray), (0.93, 3 * r_ray)):
            h = los_channel(cfg, PolarPoint(theta, r))
            s = nfbeam.codebooks._noiseless_product(h, book)
            gemv = h.conj() @ dft_matrix_by_formula(cfg)
            assert np.max(np.abs(s - gemv)) <= 1e-13 * np.max(np.abs(s))

    @pytest.mark.parametrize("n", [2, 3, 64, 255, 256, 1024])
    def test_stored_twiddles_keep_the_bits_of_the_per_call_expression(self, monkeypatch, n):
        # the book computes d and C d once; a product calls no exp
        cfg = ArrayConfig(n, 100e9)
        book = build_dft_codebook(cfg)
        rng = np.random.default_rng(n)
        channels = (los_channel(cfg, PolarPoint(0.37, 0.2)),
                    rng.standard_normal(n) + 1j * rng.standard_normal(n))
        expected = []
        for h in channels:
            d = np.exp((-1j * math.pi / n) * (((n - 1) * np.arange(n)) % (2 * n)))
            arg_c = math.pi * (((n - 1) ** 2) % (4 * n)) / (2 * n)
            expected.append(complex(math.cos(arg_c), math.sin(arg_c)) * d
                            * np.fft.ifft(h.conj() * d, norm="ortho"))

        def no_exp(*args, **kwargs):
            raise AssertionError("exp called per product")

        monkeypatch.setattr(np, "exp", no_exp)
        for h, s in zip(channels, expected):
            assert same_bits(nfbeam.codebooks._noiseless_product(h, book), s)

    def test_a_sweep_only_run_builds_no_dft_matrix(self, monkeypatch, cfg64):
        # the NMSE loop and the beam pattern sweep the DFT book by FFT;
        # the first read of `matrix` builds it once and keeps it
        builds = []
        real = nfbeam.codebooks._far_field_columns

        def counting(cfg, angles):
            if angles.size > 1:
                builds.append(angles.size)
            return real(cfg, angles)

        monkeypatch.setattr(nfbeam.codebooks, "_far_field_columns", counting)
        sc = ScenarioConfig(n_antennas=64, trials=2, schemes=("proposed", "joint"),
                            snr_ref_db_grid=(10.0, 20.0))
        assert len(list(simulate(sc, "nmse"))) == 2 * 2 * 2
        normalized_pattern(cfg64, PolarPoint(0.2, 3.0), build_dft_codebook(cfg64))
        assert builds == []
        book = sc.codebook
        matrix = book.matrix
        assert builds == [64]
        assert book.matrix is matrix and not matrix.flags.writeable
        assert builds == [64]

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

    @pytest.mark.parametrize("n", [16, 17, 63, 64, 255, 256, 1024])
    def test_fold_has_the_bits_of_the_oracle_matrix_folded(self, n):
        # M_u is the oracle's entries of angle index >= N//2; even and odd
        # are its rows n and N-1-n added and subtracted, odd N's middle row
        # last in even; entry j below M_u mirrors the entry of M_u with the
        # negated angle and the same radius, rows reversed
        book = build_polar_codebook(ArrayConfig(n, 100e9))
        matrix, thetas, radii, start, _ = polar_codebook_by_loops(book.cfg)
        half, upper = n // 2, start[n // 2]
        m_u = matrix[:, upper:]
        top, bottom = m_u[:half], m_u[::-1][:half]
        even = np.vstack([top + bottom, m_u[half:n - half]]) if n % 2 else top + bottom
        assert same_bits(book._even, even)
        assert same_bits(book._odd, top - bottom)
        entry = {(t, r): k for k, (t, r) in enumerate(zip(thetas[upper:].tolist(),
                                                           radii[upper:].tolist()))}
        sources = [entry[-t, r] for t, r in zip(thetas[:upper].tolist(), radii[:upper].tolist())]
        assert same_bits(book._sources, np.array(sources))
        assert same_bits(matrix[:, :upper], m_u[::-1, sources])

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


    @pytest.mark.parametrize("n", [16, 17, 33, 64, 127, 256, 257, 1024])
    def test_folded_product_matches_the_matrix_product(self, n):
        # below N = 14 no ring survives at 100 GHz
        cfg = ArrayConfig(n, 100e9)
        book = build_polar_codebook(cfg)
        for h in _test_channels(cfg):
            s = nfbeam.codebooks._noiseless_product(h, book)
            gemv = h.conj() @ book.matrix
            assert np.max(np.abs(s - gemv)) <= 1e-13 * np.max(np.abs(s))

    @pytest.mark.parametrize("n", [16, 17, 33])
    def test_folded_product_matches_an_exact_sum(self, n):
        # sum_n conj(h_n) M[n, k] over the codewords' float entries, in 40 digits
        mpmath = pytest.importorskip("mpmath")
        cfg = ArrayConfig(n, 100e9)
        book = build_polar_codebook(cfg)
        columns = [[mpmath.mpc(complex(x)) for x in book.matrix[:, k]] for k in range(len(book))]
        for h in _test_channels(cfg):
            s = nfbeam.codebooks._noiseless_product(h, book)
            a = [mpmath.conj(mpmath.mpc(complex(x))) for x in h]
            with mpmath.workdps(40):
                exact = [complex(mpmath.fsum(x * m for x, m in zip(a, col))) for col in columns]
            assert np.max(np.abs(s - exact)) <= 1e-13 * np.max(np.abs(s))

    @pytest.mark.parametrize("n", [33, 64, 256])
    def test_column_has_the_bits_of_the_matrix(self, n):
        # the data beam of an estimate labelled with entry j, its range
        # clipped to R_Ray as the trainings clip it, built alone, is column j
        cfg = ArrayConfig(n, 100e9)
        book = build_polar_codebook(cfg)
        _, r_ray = region_boundaries(cfg)
        for j, (theta, r) in enumerate(zip(book.thetas.tolist(), book.radii.tolist())):
            est = LocationEstimate(theta, min(r, r_ray), math.isinf(r), 0, ())
            assert same_bits(data_beam(cfg, est), book.matrix[:, j])

    @pytest.mark.parametrize("n", [16, 17, 64, 255, 256])
    def test_stores_half_the_matrix(self, n):
        # even and odd hold the N x K_u entries of angle index >= N//2, and
        # no N x K matrix exists until `matrix` is read
        book = build_polar_codebook(ArrayConfig(n, 100e9))
        k_u = len(book) - book.angle_start[n // 2]
        assert book._even.shape == (n - n // 2, k_u)
        assert book._odd.shape == (n // 2, k_u)
        assert book._sources.size == len(book) - k_u
        assert "matrix" not in vars(book)

    def test_no_training_or_simulation_builds_a_polar_matrix(self, monkeypatch, capsys):
        books = []
        real = nfbeam.codebooks._build

        def recording(cfg, rings):
            books.append(real(cfg, rings))
            return books[-1]

        monkeypatch.setattr(nfbeam.codebooks, "_build", recording)
        sc = ScenarioConfig(n_antennas=64, trials=2, m_users=3, snr_ref_db_grid=(10.0, 30.0),
                            schemes=("proposed", "joint", "fast", "exhaustive"))
        rows = list(simulate(sc, "multi"))
        assert {r.scheme for r in rows} >= {"fast", "exhaustive"}
        assert main(["train", "--N", "64", "--theta", "0.2", "--r", "4.0",
                     "--scheme", "exhaustive"]) == 0
        assert "theta_hat" in capsys.readouterr().out
        polar = [b for b in books if len(b) > b.cfg.n_antennas]
        assert len(polar) == 2
        assert all("matrix" not in vars(b) for b in books)


def _test_channels(cfg):
    """A near-field user, a user beyond R_Ray and a random complex vector."""
    _, r_ray = region_boundaries(cfg)
    rng = np.random.default_rng(cfg.n_antennas)
    n = cfg.n_antennas
    return (los_channel(cfg, PolarPoint(-0.31, 0.1 * r_ray)),
            los_channel(cfg, PolarPoint(0.62, 2 * r_ray)),
            rng.standard_normal(n) + 1j * rng.standard_normal(n))


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


def _fresh(book, x):
    """The product a memo hit must equal: a fresh call of the one product
    function, the FFT for the DFT book and the fold for the polar book."""
    return nfbeam.codebooks._noiseless_product(x, book)


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
        assert s.tobytes() == _fresh(book, h).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            s[0] = 0.0

    def test_arrays_that_change_get_the_product_of_their_new_values(self, kind, cfg64):
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
            assert book.noiseless_sweep(x).tobytes() == _fresh(book, x).tobytes()

    def test_read_only_array_written_between_sweeps_is_swept_again(self, kind, cfg64):
        # an owning array made writable, written and made read-only again
        # keeps its id; the memo must not hand back its old product
        book = _books(cfg64)[kind]
        h = np.ones(64, dtype=complex)
        h.flags.writeable = False
        book.noiseless_sweep(h)
        h.flags.writeable = True
        h[:] = 2.0
        h.flags.writeable = False
        assert book.noiseless_sweep(h).tobytes() == _fresh(book, h).tobytes()

    def test_memo_holds_the_last_channel(self, kind, cfg64):
        book = _books(cfg64)[kind]
        a = los_channel(cfg64, PolarPoint(0.21, 3.3))
        b = los_channel(cfg64, PolarPoint(-0.5, 7.0))
        book.noiseless_sweep(a)
        s_b = book.noiseless_sweep(b)
        assert book.noiseless_sweep(b) is s_b
        s_a = book.noiseless_sweep(a)
        assert s_a.tobytes() == _fresh(book, a).tobytes() != s_b.tobytes()
        assert book.noiseless_sweep(a) is s_a

    def test_memo_dies_with_the_codebook(self, kind, cfg64):
        book = _books(cfg64)[kind]
        book.noiseless_sweep(los_channel(cfg64, PolarPoint(-0.4, 5.0)))
        ref = weakref.ref(book)
        del book
        gc.collect()
        assert ref() is None


@pytest.mark.parametrize("mode, n, m_users, trials, snr_points, products_per_user", [
    pytest.param("nmse", 64, 3, 3, 14, 1, id="nmse-1"),
    pytest.param("multi", 64, 3, 3, 14, 2, id="multi-2"),
    # more users in one trial than the 64-entry channel memo holds
    pytest.param("multi", 128, 80, 1, 2, 2, id="multi-2-M80"),
])
def test_simulate_computes_each_noiseless_sweep_once(monkeypatch, mode, n, m_users, trials,
                                                     snr_points, products_per_user):
    # nmse: every SNR point x 2 schemes sweep one DFT codebook; multi: all
    # four schemes, so one DFT and one polar sweep per user, which fast
    # reads its per-angle entries from
    products = []
    real = nfbeam.codebooks._noiseless_product

    def counting(h, book):
        products.append((h.tobytes(), id(book), len(book)))
        return real(h, book)

    monkeypatch.setattr(nfbeam.codebooks, "_noiseless_product", counting)
    schemes = ("proposed", "joint") if mode == "nmse" else ("proposed", "joint", "fast",
                                                            "exhaustive")
    sc = ScenarioConfig(n_antennas=n, trials=trials, m_users=m_users, schemes=schemes,
                        snr_ref_db_grid=tuple(range(4, 4 + 2 * snr_points, 2)))
    rows = list(simulate(sc, mode))
    assert len(rows) == trials * snr_points * (len(schemes) + (mode == "multi"))
    users = trials * (m_users if mode == "multi" else 1)
    # exactly one product per (user, codebook), each over a whole codebook
    assert len(products) == users * products_per_user
    assert len(set(products)) == len(products)
    assert len({p[0] for p in products}) == users
    assert len({p[1:] for p in products}) == products_per_user
