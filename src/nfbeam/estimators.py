"""Beam-training schemes: the width-inversion scheme with clustering, and
the three baselines (joint, fast, exhaustive).

All four consume one DFT (or polar) beam sweep y(v_n) = h^H v_n + w and
return a location estimate plus the pilot budget they spent. The width
scheme and the joint baseline share the angle stage machinery; they
differ in whether the super-threshold index set is clustered before the
median is taken, and in how the measured half-gain width is turned into
a distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beampattern import contiguous_run, run_width, width_law
from .channel import (ArrayConfig, PolarPoint, _check_count, los_channel, near_field_steering,
                      region_boundaries)
from .codebooks import Codebook
from .errors import EmptyMainSetError
from .numerics import NoiseModel

# Points of the joint baseline's log-spaced distance grid (`default_z_mu_grid`).
Z_MU_SIZE = 64


@dataclass(frozen=True)
class EstimatorConfig:
    k: int = 3                    # refinement candidates
    cluster_gap: int = 8          # L: max index gap inside one cluster
    rho2_fraction: float = 0.65   # threshold as a fraction of max |y|

    def __post_init__(self) -> None:
        _check_count("k", self.k)
        _check_count("cluster_gap", self.cluster_gap)
        if not 0 < self.rho2_fraction < 1:
            raise ValueError(f"rho2_fraction must be in (0, 1), got {self.rho2_fraction}")


@dataclass(frozen=True)
class LocationEstimate:
    theta_hat: float
    r_hat: float
    w: np.ndarray                 # unit-norm data beam: the chosen codeword
    pilot_count: int
    candidates: tuple[tuple[float, float, float], ...]  # (theta, r, refine power)
    distance_stage_evals: int = 0


def _pilots(s: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """Pilots y = s + w from the noiseless products s = h^H M (unit
    pilot symbols), one noise draw per pilot."""
    return s + noise.sample(s.size)


def beam_sweep(cfg: ArrayConfig, p: PolarPoint, codebook, noise: NoiseModel) -> np.ndarray:
    """|y| of one pilot per codeword, y(v_n) = h^H v_n + w_n: what the
    angle and distance stages read. h^H V is the codebook's memoized
    noiseless sweep."""
    s = codebook.noiseless_sweep(los_channel(cfg, p))
    return np.abs(_pilots(s, noise))


def cluster_indices(amp: np.ndarray, rho2: float, gap: int):
    """Super-threshold indices and the gap-limited cluster of them that
    holds the strongest single sample.

    `amp` is the sweep's |y|. Returns (indices, cluster) as lists: every
    index with amp > rho2, ascending, and the run of those indices, cut
    where two neighbours lie more than `gap` apart, that contains the
    first strongest sample. One array pass finds the indices; the rest
    walks the short list.
    """
    if rho2 <= 0:
        raise ValueError(f"rho2 must be positive, got {rho2}")
    above = (amp > rho2).nonzero()[0]
    if above.size == 0:
        raise EmptyMainSetError(f"no sample above rho2 = {rho2}")
    idx, vals = above.tolist(), amp[above].tolist()
    lo = hi = vals.index(max(vals))
    while lo > 0 and idx[lo] - idx[lo - 1] <= gap:
        lo -= 1
    while hi < len(idx) - 1 and idx[hi + 1] - idx[hi] <= gap:
        hi += 1
    return idx, idx[lo:hi + 1]


def estimate_angle(amp: np.ndarray, codebook: Codebook, ec: EstimatorConfig,
                   clustering: bool = True) -> tuple[float, tuple[int, ...]]:
    """Median-angle estimate from the sweep's |y| over `codebook`'s grid,
    as (theta_hat, candidates): the k candidate grid indices, ascending.

    rho2 is relative (a fraction of max |y|), so the estimate is
    invariant to a positive rescaling of the sweep. With clustering, the
    main set is restricted to the cluster holding the strongest sample;
    without it (the joint baseline) the global super-threshold set is
    used directly.
    """
    rho2 = ec.rho2_fraction * amp.max()
    if not rho2 > 0:
        raise EmptyMainSetError("all-zero sweep: no sample above the threshold")
    idx, cluster = cluster_indices(amp, rho2, ec.cluster_gap)
    members = cluster if clustering else idx
    grid = memoryview(codebook.angle_grid)
    angles = [grid[i] for i in members]  # ascending, as members are
    theta_hat = (angles[-1] + angles[0]) / 2.0
    # k members closest to the median, ties toward the smaller angle
    nearest = sorted(zip([abs(a - theta_hat) for a in angles], angles, members))[:ec.k]
    return theta_hat, tuple(sorted(i for _, _, i in nearest))


def estimate_distance(amp: np.ndarray, codebook: Codebook, candidate_index: int):
    """Width-based distance for one candidate grid angle of `codebook`,
    from the sweep's |y|.

    The sweep is renormalized by the sample at the candidate angle (a
    grid angle, so no extra pilot is needed); the half-gain width is the
    contiguous super-half run around the candidate, read as in
    `beampattern.run_width`, and the width law is inverted for r. A
    single-bin run carries no distance information and falls back to the
    Rayleigh distance. A candidate without power has no run and raises
    EmptyMainSetError. Returns (r_hat, width).
    """
    cfg = codebook.cfg
    grid = codebook.angle_grid
    r_fre, r_ray = region_boundaries(cfg)
    amp = memoryview(amp)  # indexes as Python floats
    if not amp[candidate_index] > 0:
        raise EmptyMainSetError(f"candidate index {candidate_index} has no power")
    lo, hi = contiguous_run(amp, candidate_index, 0.5, amp[candidate_index])
    width = run_width(lo, hi, grid.size)
    if hi == lo:
        return r_ray, width
    r_hat = width_law(cfg, float(grid[candidate_index]), width)
    return float(min(max(r_hat, r_fre), r_ray)), width


def _refine(cfg: ArrayConfig, p: PolarPoint, noise: NoiseModel,
            cands: list[tuple[float, float]], evals: int,
            sweep_pilots: int) -> LocationEstimate:
    """Transmit one pilot per candidate codeword, keep the strongest."""
    h = los_channel(cfg, p)
    pilot_noise = noise.sample(len(cands)).tolist()
    vecs = [near_field_steering(cfg, PolarPoint(t, r)) for t, r in cands]
    powers = [abs(complex(np.vdot(h, v)) + z) for v, z in zip(vecs, pilot_noise)]
    best = powers.index(max(powers))  # the first strongest
    t, r = cands[best]
    return LocationEstimate(
        theta_hat=t,
        r_hat=r,
        w=vecs[best],
        pilot_count=sweep_pilots + len(cands),
        candidates=tuple((t_, r_, pw) for (t_, r_), pw in zip(cands, powers)),
        distance_stage_evals=evals,
    )


def proposed_training(cfg: ArrayConfig, p: PolarPoint, noise: NoiseModel,
                      ec: EstimatorConfig, codebook: Codebook) -> LocationEstimate:
    """Clustered median angle, then direct width inversion per candidate.

    Pilot budget: N sweep pilots plus one refinement pilot per candidate
    (k when the main set holds at least k angles). The distance stage is
    one width inversion per candidate.
    """
    amp = beam_sweep(cfg, p, codebook, noise)
    _, cis = estimate_angle(amp, codebook, ec, clustering=True)
    cands = [(float(codebook.angle_grid[ci]), estimate_distance(amp, codebook, ci)[0])
             for ci in cis]
    return _refine(cfg, p, noise, cands, len(cands), len(codebook))


def joint_training(cfg: ArrayConfig, p: PolarPoint, noise: NoiseModel,
                   ec: EstimatorConfig, z_mu_grid: np.ndarray,
                   codebook: Codebook) -> LocationEstimate:
    """Baseline: global (unclustered) median angle; the distance is found
    by searching the z_mu grid for the best width-model match, so the
    distance stage costs |z_mu| model evaluations per candidate."""
    amp = beam_sweep(cfg, p, codebook, noise)
    _, cis = estimate_angle(amp, codebook, ec, clustering=False)
    cands = []
    evals = 0
    for ci in cis:
        _, width = estimate_distance(amp, codebook, ci)
        theta_i = float(codebook.angle_grid[ci])
        predicted = width_law(cfg, theta_i, z_mu_grid)
        evals += z_mu_grid.size
        if width <= 2.0 / cfg.n_antennas:  # single-bin run: Rayleigh fallback
            r_hat = float(z_mu_grid[-1])
        else:
            r_hat = float(z_mu_grid[np.abs(predicted - width).argmin()])
        cands.append((theta_i, r_hat))
    return _refine(cfg, p, noise, cands, evals, len(codebook))


def _polar_estimate(polar: Codebook, picks: list[tuple[int, float]],
                    pilot_count: int, evals: int) -> LocationEstimate:
    """Estimate from (polar entry index, |y|) picks: the first strongest
    pick wins, and every range is clipped to the Rayleigh distance."""
    _, r_ray = region_boundaries(polar.cfg)
    cands = tuple((float(polar.thetas[j]), float(min(polar.radii[j], r_ray)), float(a))
                  for j, a in picks)
    best = int(np.argmax([a for _, a in picks]))
    t, r, _ = cands[best]
    return LocationEstimate(theta_hat=t, r_hat=r, w=polar.matrix[:, picks[best][0]].copy(),
                            pilot_count=pilot_count, candidates=cands, distance_stage_evals=evals)


def fast_training(cfg: ArrayConfig, p: PolarPoint, noise: NoiseModel,
                  ec: EstimatorConfig, polar: Codebook, codebook: Codebook) -> LocationEstimate:
    """Baseline: global median angle, then an exhaustive distance sweep
    with the polar codebook entries at each candidate angle, whose
    noiseless products are read out of the memoized polar sweep."""
    _, cis = estimate_angle(beam_sweep(cfg, p, codebook, noise), codebook, ec, clustering=False)
    s = polar.noiseless_sweep(los_channel(cfg, p))
    extra = 0
    picks = []
    for ci in cis:
        amp = np.abs(_pilots(s[polar.entries_at(ci)], noise))
        extra += amp.size
        j = int(np.argmax(amp))
        picks.append((int(polar.angle_start[ci]) + j, amp[j]))
    return _polar_estimate(polar, picks, len(codebook) + extra, extra)


def exhaustive_training(cfg: ArrayConfig, p: PolarPoint, noise: NoiseModel,
                        polar: Codebook) -> LocationEstimate:
    """Baseline: argmax |y| over every polar codebook entry."""
    amp = np.abs(_pilots(polar.noiseless_sweep(los_channel(cfg, p)), noise))
    j = int(np.argmax(amp))
    return _polar_estimate(polar, [(j, amp[j])], len(polar), 0)


def default_z_mu_grid(cfg: ArrayConfig, size: int = Z_MU_SIZE) -> np.ndarray:
    """Log-spaced distance grid spanning the near-field region, used by
    the joint baseline's width-matching search."""
    r_fre, r_ray = region_boundaries(cfg)
    return np.geomspace(r_fre, r_ray, size)
