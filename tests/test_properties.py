"""Property tests of the angle and distance stages and the four
trainings against plain-loop oracles, of the pilot budgets and range
bounds of the four trainings, of the staged width trainings fed from a
shared codeword block against the trainings, of the closed-form sweep response against
its quadratic-phase sum and of that sum's mirror-pair form against all N
terms, of erf's symmetries, and of the mirror identity
the codebook builder relies on; and that a failing property fails its
test, not the session."""

import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nfbeam import (
    AlphaBeta,
    ArrayConfig,
    EstimatorConfig,
    NoiseModel,
    PolarPoint,
    build_dft_codebook,
    build_polar_codebook,
    calibrate_noise,
    closed_form_f,
    default_z_mu_grid,
    exhaustive_training,
    fast_training,
    joint_training,
    proposed_training,
    region_boundaries,
    taylor_f,
)
from nfbeam.channel import steering_columns
from nfbeam.codebooks import _far_field_columns, codewords, dft_angle_grid
from nfbeam.errors import EmptyMainSetError
from nfbeam.estimators import (
    estimate_angle,
    estimate_distance,
    joint_candidates,
    proposed_candidates,
    refinement_pilots,
)
from nfbeam.numerics import erf_complex
from oracles import (data_beam, estimate_angle_by_loops, exhaustive_training_by_loops,
                     fast_training_by_loops, joint_training_by_loops, proposed_training_by_loops,
                     same_bits, taylor_f_by_terms, width_distance_by_mask)

BOOK = build_dft_codebook(ArrayConfig(64, 100e9))
CFG32 = ArrayConfig(32, 100e9)
BOOK32, POLAR32 = build_dft_codebook(CFG32), build_polar_codebook(CFG32)
Z_MU32 = default_z_mu_grid(CFG32)
R_FRE32, R_RAY32 = region_boundaries(CFG32)

# Few distinct levels, mostly zero: equal maxima, equal distances to the
# midpoint and several gap-separated clusters all come up often.
levels = st.sampled_from([0.0] * 6 + [0.25, 0.5, 0.7, 0.9, 1.0])
# Unit phases under which |y| is exact, so the amplitudes are the levels.
phases = st.sampled_from([1.0, -1.0, 1j, -1j])
sweeps = st.lists(st.tuples(levels, phases), min_size=64, max_size=64)
configs = st.builds(EstimatorConfig, k=st.integers(1, 6), cluster_gap=st.integers(1, 12),
                    rho2_fraction=st.sampled_from([0.2, 0.45, 0.65, 0.85]))


def sweep_of(samples):
    """|y| of the sweep with pilot samples `samples`."""
    return np.abs(np.asarray(samples, dtype=complex))


@settings(max_examples=300, deadline=None)
@given(sweeps, configs, st.booleans())
def test_estimate_angle_matches_loop_oracle(pairs, ec, clustering):
    samples = [a * ph for a, ph in pairs]
    amp = [a for a, _ in pairs]
    assume(max(amp) > 0)
    est_theta, est_cands = estimate_angle(sweep_of(samples), BOOK, ec, clustering=clustering)
    theta_hat, cands = estimate_angle_by_loops(amp, BOOK.angle_grid, ec.rho2_fraction,
                                               ec.cluster_gap, ec.k, clustering)
    assert est_theta == theta_hat
    assert est_cands == cands


@settings(max_examples=200, deadline=None)
@given(sweeps, configs, st.booleans(), st.floats(1e-6, 1e6))
def test_estimate_angle_invariant_to_positive_rescaling(pairs, ec, clustering, scale):
    amp = np.array([a for a, _ in pairs])
    peak = amp.max()
    assume(peak > 0)
    # rounding may move a level that sits on the threshold across it
    assume(np.all(np.abs(amp - ec.rho2_fraction * peak) > 1e-9 * peak))
    samples = np.array([a * ph for a, ph in pairs])
    a = estimate_angle(sweep_of(samples), BOOK, ec, clustering=clustering)
    b = estimate_angle(sweep_of(scale * samples), BOOK, ec, clustering=clustering)
    assert a == b


# Amplitudes spread over six decades, zeros included, under the same phases.
spread_sweeps = st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), phases),
                         min_size=64, max_size=64)


@settings(max_examples=300, deadline=None)
@given(st.one_of(sweeps, spread_sweeps))
def test_estimate_distance_matches_the_mask_reading_on_every_index(pairs):
    # the level sweeps put samples at exactly half the candidate's, where
    # the run ends; a candidate without power has no run
    sweep = sweep_of([a * ph for a, ph in pairs])
    amp = np.array([a for a, _ in pairs])
    for ci in range(amp.size):
        if amp[ci] > 0:
            assert same_bits(np.array(estimate_distance(sweep, BOOK, ci)),
                             np.array(width_distance_by_mask(BOOK.cfg, amp, BOOK.angle_grid, ci)))
        else:
            with pytest.raises(EmptyMainSetError, match=f"index {ci} "):
                estimate_distance(sweep, BOOK, ci)


# Users from the Fresnel distance out to twice the Rayleigh distance, where
# the width and polar estimates clamp, at SNRs from noise-dominated to clean.
users = st.builds(PolarPoint, st.floats(-0.9, 0.9), st.floats(R_FRE32, 2 * R_RAY32))
snrs = st.floats(-15.0, 40.0)
keys = st.integers(0, 2**32 - 1)


def noise_at(snr_db, key):
    return NoiseModel(calibrate_noise(CFG32, snr_db, "per-antenna"), key)


@settings(max_examples=150, deadline=None)
@given(users, snrs, keys, configs)
def test_width_trainings_spend_n_plus_one_pilot_per_candidate(p, snr_db, key, ec):
    prop = proposed_training(CFG32, p, noise_at(snr_db, key), ec, BOOK32)
    joint = joint_training(CFG32, p, noise_at(snr_db, key), ec, Z_MU32, BOOK32)
    for est in (prop, joint):
        assert est.pilot_count == 32 + len(est.candidates)
    assert R_FRE32 <= prop.r_hat <= R_RAY32


@settings(max_examples=150, deadline=None)
@given(users, snrs, keys, configs)
def test_width_trainings_equal_loop_oracles_to_the_bit(p, snr_db, key, ec):
    for est, (theta, r, cands, pilots, w) in (
            (proposed_training(CFG32, p, noise_at(snr_db, key), ec, BOOK32),
             proposed_training_by_loops(CFG32, p, noise_at(snr_db, key), ec, BOOK32)),
            (joint_training(CFG32, p, noise_at(snr_db, key), ec, Z_MU32, BOOK32),
             joint_training_by_loops(CFG32, p, noise_at(snr_db, key), ec, Z_MU32, BOOK32))):
        assert same_bits(np.array([est.theta_hat, est.r_hat]), np.array([theta, r]))
        assert same_bits(np.array(est.candidates), np.array(cands))
        assert est.pilot_count == pilots
        assert same_bits(data_beam(CFG32, est), w)


@lru_cache(maxsize=8)
def dft_books_at(n):
    cfg = ArrayConfig(n, 100e9)
    return cfg, build_dft_codebook(cfg), default_z_mu_grid(cfg)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 300), st.integers(1, 5), st.floats(-0.95, 0.95), st.floats(0.0, 1.0),
       snrs, keys)
@example(2, 2, 0.4, 0.5, 10.0, 1)
@example(3, 5, -0.6, 0.1, -15.0, 2)
def test_stages_from_a_shared_row_block_equal_the_trainings(n, k, theta, u, snr_db, key):
    # what simulate does per user: both candidate stages on one replayed
    # stream, one codeword block for their distinct candidates, then the
    # pilot stages; each must give its training's estimate on a fresh stream
    cfg, book, z_mu = dft_books_at(n)
    r_fre, r_ray = region_boundaries(cfg)
    p = PolarPoint(theta, r_fre + u * (r_ray - r_fre))
    sigma2 = calibrate_noise(cfg, snr_db, "per-antenna")
    ec = EstimatorConfig(k=k)
    noise = NoiseModel(sigma2, key)
    refs = [proposed_candidates(cfg, p, noise.replay(sigma2), ec, book),
            joint_candidates(cfg, p, noise.replay(sigma2), ec, z_mu, book)]
    labels = list(dict.fromkeys(c for ref in refs for c in ref.cands))
    rows = codewords(cfg, labels)
    staged = [refinement_pilots(cfg, p, ref, rows) for ref in refs]
    trained = [proposed_training(cfg, p, NoiseModel(sigma2, key), ec, book),
               joint_training(cfg, p, NoiseModel(sigma2, key), ec, z_mu, book)]
    assert staged == trained
    for a, b in zip(staged, trained):
        assert same_bits(np.array(a.candidates), np.array(b.candidates))


@settings(max_examples=100, deadline=None)
@given(users, snrs, keys)
def test_polar_trainings_clip_range_to_rayleigh(p, snr_db, key):
    fast = fast_training(CFG32, p, noise_at(snr_db, key), EstimatorConfig(), POLAR32, BOOK32)
    exh = exhaustive_training(CFG32, p, noise_at(snr_db, key), POLAR32)
    assert fast.r_hat <= R_RAY32
    assert exh.r_hat <= R_RAY32


@lru_cache(maxsize=4)
def books_at(n):
    cfg = ArrayConfig(n, 100e9)
    return cfg, build_dft_codebook(cfg), build_polar_codebook(cfg)


@settings(max_examples=60, deadline=None)
@given(st.integers(16, 256), snrs, keys, st.data())
def test_polar_trainings_equal_loop_oracles_to_the_bit(n, snr_db, key, data):
    # a slice of the full polar product differs in bits from the product
    # of the slice alone at most N here (not at 32 or 64), and the
    # candidates' |y| show it: the oracle reads the full product, as fast must
    cfg, book, polar = books_at(n)
    r_fre, r_ray = region_boundaries(cfg)
    p = data.draw(st.builds(PolarPoint, st.floats(-0.9, 0.9), st.floats(r_fre, 2 * r_ray)))
    sigma2 = calibrate_noise(cfg, snr_db, "per-antenna")
    ec = EstimatorConfig()
    for est, (theta, r, cands, pilots, w) in (
            (fast_training(cfg, p, NoiseModel(sigma2, key), ec, polar, book),
             fast_training_by_loops(cfg, p, NoiseModel(sigma2, key), ec, polar, book)),
            (exhaustive_training(cfg, p, NoiseModel(sigma2, key), polar),
             exhaustive_training_by_loops(cfg, p, NoiseModel(sigma2, key), polar))):
        assert same_bits(np.array([est.theta_hat, est.r_hat]), np.array([theta, r]))
        assert same_bits(np.array(est.candidates), np.array(cands))
        assert est.pilot_count == pilots
        assert same_bits(data_beam(cfg, est), w)


@settings(max_examples=300, deadline=None)
@given(st.integers(32, 1024), st.floats(-0.9, 0.9), st.data())
def test_closed_form_matches_quadratic_phase_sum(n, theta, data):
    # criterion 1's bound, off its grid: any N, theta, r in [R_Fre, R_Ray]
    # and any DFT angle within 0.2 of theta
    cfg = ArrayConfig(n, 100e9)
    p = PolarPoint(theta, data.draw(st.floats(*region_boundaries(cfg))))
    grid = dft_angle_grid(n)
    phi = float(data.draw(st.sampled_from(grid[np.abs(grid - theta) <= 0.2])))
    ab = AlphaBeta.from_geometry(cfg, p, phi)
    assert abs(closed_form_f(ab) - taylor_f(cfg, p, phi)) <= 0.03


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 2048), st.floats(-0.99, 0.99), st.floats(0.0, 1.0), st.floats(-1.0, 1.0))
@example(2, 0.5, 0.0, -0.3)
@example(3, -0.7, 0.3, 1.0)
def test_taylor_f_pair_sum_matches_the_direct_sum(n, theta, u, phi):
    # r runs log-uniformly in u from R_Fre out to 1000 R_Ray; N = 2 is the
    # smallest array and N = 3 the smallest with a centre element
    cfg = ArrayConfig(n, 100e9)
    r_fre, r_ray = region_boundaries(cfg)
    p = PolarPoint(theta, r_fre * (1000 * r_ray / r_fre) ** u)
    assert abs(taylor_f(cfg, p, phi) - taylor_f_by_terms(cfg, p, phi)) <= 1e-12


# Real and imaginary parts out to the largest |z| the closed forms feed
# erf (~3.9e3 on the diagonal rays), the axes and signed zeros included.
erf_parts = st.floats(-4e3, 4e3)


@settings(max_examples=1000, deadline=None)
@given(erf_parts, erf_parts)
def test_erf_is_odd_and_conjugate_symmetric_to_the_bit(x, y):
    # erf overflows where Im(z)^2 - Re(z)^2 passes ~709; `==` compares
    # every bit of each part except the sign of a zero
    assume(y * y - x * x < 700)
    z = complex(x, y)
    value = erf_complex(z)
    assert erf_complex(-z) == -value
    assert erf_complex(z.conjugate()) == value.conjugate()


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 1024), st.floats(-1.0, 1.0), st.data())
def test_mirrored_angle_gives_the_codeword_upside_down_to_the_bit(n, theta, data):
    # the codebook builders copy angle index N-1-i from index i, rows
    # reversed; a `_distances` or far-field formula that is not odd in
    # (theta, delta) to the bit breaks this identity
    cfg = ArrayConfig(n, 100e9)
    r = np.array([data.draw(st.floats(*region_boundaries(cfg)))])
    assert same_bits(steering_columns(cfg, np.array([-theta]), r),
                     steering_columns(cfg, np.array([theta]), r)[::-1])
    grid = dft_angle_grid(n)
    i = data.draw(st.integers(0, n // 2 - 1))  # the mirrored angle indices
    assert same_bits(grid[n - 1 - i], -grid[i])
    assert same_bits(_far_field_columns(cfg, grid[[n - 1 - i]]),
                     _far_field_columns(cfg, grid[[i]])[::-1])


def test_a_failing_property_fails_its_test_not_the_session(tmp_path):
    # hypothesis's failure report imports libcst, which raises a
    # DeprecationWarning that the repo's warning filters must not turn
    # into an INTERNALERROR that aborts the session
    (tmp_path / "test_failing_property.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n")
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(config), "--rootdir", str(tmp_path),
                           "test_failing_property.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed" in proc.stdout
    assert "INTERNALERROR" not in out
