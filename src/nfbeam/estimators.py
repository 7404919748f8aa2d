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

from .beampattern import _contiguous_run
from .channel import ArrayConfig, PolarPoint, los_channel, near_field_steering, region_boundaries
from .codebooks import DftCodebook, PolarCodebook
from .errors import EmptyMainSetError
from .numerics import NoiseModel


@dataclass(frozen=True)
class EstimatorConfig:
    k: int = 3                    # refinement candidates
    cluster_gap: int = 8          # L: max index gap inside one cluster
    rho2_fraction: float = 0.65   # threshold as a fraction of max |y|

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.cluster_gap < 1:
            raise ValueError(f"cluster_gap must be >= 1, got {self.cluster_gap}")
        if not 0 < self.rho2_fraction < 1:
            raise ValueError(f"rho2_fraction must be in (0, 1), got {self.rho2_fraction}")


@dataclass
class SweepResult:
    """Received pilot samples for one sweep of a codebook."""

    samples: np.ndarray
    pilot_count: int
    codebook: DftCodebook


@dataclass(frozen=True)
class AngleEstimate:
    theta_hat: float
    candidate_indices: tuple[int, ...]   # grid indices, ascending


@dataclass(frozen=True)
class LocationEstimate:
    theta_hat: float
    r_hat: float
    w: np.ndarray                 # unit-norm data beam: the chosen codeword
    pilot_count: int
    candidates: tuple[tuple[float, float, float], ...]  # (theta, r, refine power)
    distance_stage_evals: int = 0


def beam_sweep(cfg: ArrayConfig, p: PolarPoint, codebook, noise: NoiseModel) -> SweepResult:
    """One pilot per codeword: y(v_n) = h^H v_n + w_n with s = 1."""
    h = los_channel(cfg, p)
    matrix = codebook.matrix
    y = h.conj() @ matrix + noise.sample(matrix.shape[1])
    return SweepResult(samples=y, pilot_count=matrix.shape[1], codebook=codebook)


def cluster_indices(samples: np.ndarray, rho2: float, gap: int):
    """Partition super-threshold indices into gap-limited clusters.

    Returns (clusters, selected) where clusters is a list of index
    arrays and selected is the position in that list of the cluster
    containing the strongest single sample.
    """
    if rho2 <= 0:
        raise ValueError(f"rho2 must be positive, got {rho2}")
    amp = np.abs(samples)
    idx = np.nonzero(amp > rho2)[0]
    if idx.size == 0:
        raise EmptyMainSetError(f"no sample above rho2 = {rho2}")
    breaks = np.nonzero(np.diff(idx) > gap)[0]
    clusters = np.split(idx, breaks + 1)
    strongest = idx[int(np.argmax(amp[idx]))]
    selected = next(i for i, c in enumerate(clusters) if c[0] <= strongest <= c[-1])
    return clusters, selected


def estimate_angle(sweep: SweepResult, ec: EstimatorConfig, clustering: bool = True) -> AngleEstimate:
    """Median-angle estimate with k grid candidates.

    rho2 is relative (a fraction of max |y|), so the estimate is
    invariant to a positive rescaling of the sweep. With clustering, the
    main set is restricted to the cluster holding the strongest sample;
    without it (the joint baseline) the global super-threshold set is
    used directly.
    """
    amp = np.abs(sweep.samples)
    rho2 = ec.rho2_fraction * amp.max()
    if not rho2 > 0:
        raise EmptyMainSetError("all-zero sweep: no sample above the threshold")
    clusters, sel = cluster_indices(sweep.samples, rho2, ec.cluster_gap)
    members = clusters[sel] if clustering else np.concatenate(clusters)
    grid = sweep.codebook.angle_grid
    angles = grid[members]
    theta_hat = float(angles.max() + angles.min()) / 2.0
    # k members closest to the median, ties toward the smaller angle
    order = sorted(members, key=lambda i: (abs(grid[i] - theta_hat), grid[i]))
    cands = tuple(sorted(int(i) for i in order[: ec.k]))
    return AngleEstimate(theta_hat=theta_hat, candidate_indices=cands)


def estimate_distance(sweep: SweepResult, candidate_index: int):
    """Width-based distance for one candidate grid angle.

    The sweep is renormalized by the sample at the candidate angle (a
    grid angle, so no extra pilot is needed); the half-gain width is the
    length of the contiguous super-half run around the candidate times
    the grid step 2/N, and the width law is inverted for r. A half-gain
    interval of width B holds B/(2/N) grid points on average, so the run
    length, not the span max - min (one step shorter), is the unbiased
    reading. A single-bin run carries no distance information and falls
    back to the Rayleigh distance. Returns (r_hat, width).
    """
    cfg = sweep.codebook.cfg
    grid = sweep.codebook.angle_grid
    r_fre, r_ray = region_boundaries(cfg)
    amp = np.abs(sweep.samples)
    lo, hi = _contiguous_run(amp / amp[candidate_index] > 0.5, candidate_index)
    width = (hi - lo + 1) * 2.0 / cfg.n_antennas
    if hi == lo:
        return r_ray, width
    theta_i = float(grid[candidate_index])
    r_hat = cfg.n_antennas * cfg.spacing * (1.0 - theta_i**2) / width
    return float(min(max(r_hat, r_fre), r_ray)), width


def _refine(cfg: ArrayConfig, p: PolarPoint, noise: NoiseModel,
            cands: list[tuple[float, float]], evals: int,
            sweep: SweepResult) -> LocationEstimate:
    """Transmit one pilot per candidate codeword, keep the strongest."""
    h = los_channel(cfg, p)
    pilot_noise = noise.sample(len(cands))
    powers = []
    vecs = []
    for i, (t, r) in enumerate(cands):
        v = near_field_steering(cfg, PolarPoint(t, r))
        vecs.append(v)
        powers.append(abs(np.vdot(h, v) + pilot_noise[i]))
    best = int(np.argmax(powers))
    t, r = cands[best]
    return LocationEstimate(
        theta_hat=t,
        r_hat=r,
        w=vecs[best],
        pilot_count=sweep.pilot_count + len(cands),
        candidates=tuple((t_, r_, float(pw)) for (t_, r_), pw in zip(cands, powers)),
        distance_stage_evals=evals,
    )


def proposed_training(cfg: ArrayConfig, p: PolarPoint, noise: NoiseModel,
                      ec: EstimatorConfig, codebook: DftCodebook) -> LocationEstimate:
    """Clustered median angle, then direct width inversion per candidate.

    Pilot budget: N sweep pilots plus one refinement pilot per candidate
    (k when the main set holds at least k angles). The distance stage is
    one width inversion per candidate.
    """
    sweep = beam_sweep(cfg, p, codebook, noise)
    ang = estimate_angle(sweep, ec, clustering=True)
    cands = [(float(codebook.angle_grid[ci]), estimate_distance(sweep, ci)[0])
             for ci in ang.candidate_indices]
    return _refine(cfg, p, noise, cands, len(cands), sweep)


def joint_training(cfg: ArrayConfig, p: PolarPoint, noise: NoiseModel,
                   ec: EstimatorConfig, z_mu_grid: np.ndarray,
                   codebook: DftCodebook) -> LocationEstimate:
    """Baseline: global (unclustered) median angle; the distance is found
    by searching the z_mu grid for the best width-model match, so the
    distance stage costs |z_mu| model evaluations per candidate."""
    sweep = beam_sweep(cfg, p, codebook, noise)
    ang = estimate_angle(sweep, ec, clustering=False)
    nd = cfg.n_antennas * cfg.spacing
    cands = []
    evals = 0
    for ci in ang.candidate_indices:
        _, width = estimate_distance(sweep, ci)
        theta_i = float(codebook.angle_grid[ci])
        predicted = nd * (1.0 - theta_i**2) / z_mu_grid
        evals += z_mu_grid.size
        if width <= 2.0 / cfg.n_antennas:  # single-bin run: Rayleigh fallback
            r_hat = float(z_mu_grid[-1])
        else:
            r_hat = float(z_mu_grid[int(np.argmin(np.abs(predicted - width)))])
        cands.append((theta_i, r_hat))
    return _refine(cfg, p, noise, cands, evals, sweep)


def fast_training(cfg: ArrayConfig, p: PolarPoint, noise: NoiseModel,
                  ec: EstimatorConfig, polar: PolarCodebook,
                  codebook: DftCodebook) -> LocationEstimate:
    """Baseline: global median angle, then an exhaustive distance sweep
    with the polar codebook entries at each candidate angle."""
    sweep = beam_sweep(cfg, p, codebook, noise)
    ang = estimate_angle(sweep, ec, clustering=False)
    _, r_ray = region_boundaries(cfg)
    h = los_channel(cfg, p)
    extra = 0
    best_power = -1.0
    best: tuple[float, float, np.ndarray] | None = None
    powers = []
    for ci in ang.candidate_indices:
        sl = polar.entries_at(ci)
        y = h.conj() @ polar.matrix[:, sl] + noise.sample(sl.stop - sl.start)
        extra += sl.stop - sl.start
        amp = np.abs(y)
        j = int(np.argmax(amp))
        powers.append((float(polar.thetas[sl][j]),
                       float(min(polar.radii[sl][j], r_ray)),
                       float(amp[j])))
        if amp[j] > best_power:
            best_power = float(amp[j])
            best = (powers[-1][0], powers[-1][1], polar.matrix[:, sl][:, j])
    t, r, w = best
    return LocationEstimate(
        theta_hat=t, r_hat=r,
        w=w.copy(),
        pilot_count=sweep.pilot_count + extra,
        candidates=tuple(powers),
        distance_stage_evals=extra,
    )


def exhaustive_training(cfg: ArrayConfig, p: PolarPoint, noise: NoiseModel,
                        polar: PolarCodebook) -> LocationEstimate:
    """Baseline: argmax |y| over every polar codebook entry."""
    h = los_channel(cfg, p)
    y = h.conj() @ polar.matrix + noise.sample(len(polar))
    _, r_ray = region_boundaries(cfg)
    j = int(np.argmax(np.abs(y)))
    t = float(polar.thetas[j])
    r = float(min(polar.radii[j], r_ray))
    return LocationEstimate(
        theta_hat=t, r_hat=r,
        w=polar.matrix[:, j].copy(),
        pilot_count=len(polar),
        candidates=((t, r, float(abs(y[j]))),),
        distance_stage_evals=0,
    )


def default_z_mu_grid(cfg: ArrayConfig, size: int = 64) -> np.ndarray:
    """Log-spaced distance grid spanning the near-field region, used by
    the joint baseline's width-matching search."""
    r_fre, r_ray = region_boundaries(cfg)
    return np.geomspace(r_fre, r_ray, size)
