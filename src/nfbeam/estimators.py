"""Beam-training schemes: the width-inversion scheme with clustering, and
the three baselines (joint, fast, exhaustive).

All four consume one DFT (or polar) beam sweep y(v_n) = h^H v_n + w and
return a location estimate plus the pilot budget they spent. The width
scheme and the joint baseline share the angle stage machinery; they
differ in whether the super-threshold index set is clustered before the
median is taken, and in how the measured half-gain width is turned into
a distance.

All four end in one pick (`_pick`): one pilot per candidate codeword,
near-field beams or groups of polar entries, and the first strongest
(theta, r, |y|) candidate wins. An estimate holds scalars only: its
codeword is `codebooks.codewords`' entry for its label, (theta_hat, inf)
for a far-field pick and (theta_hat, r_hat) otherwise.

The width scheme and the joint baseline run in two stages. The
candidate stage (`proposed_candidates`, `joint_candidates`) sweeps,
estimates the angle and the distances, and draws the noise of the k
refinement pilots where the training draws it, returning a
`Refinement`. The pilot stage (`refinement_pilots`) forms |h^H b + z|
for each candidate's codeword b, building the codewords it is not
given, counts the N + k pilots (N sweep pilots, one per candidate) and
ends in the pick. `proposed_training` and `joint_training` are each one
call of it on their candidate stage; only `simharness.simulate` passes
codewords, which it builds once per user for all its stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .beampattern import contiguous_run, run_width, width_law
from .channel import ArrayConfig, PolarPoint, _check_count, los_channel, region_boundaries
from .codebooks import FAR_FIELD, Codebook, codewords
from .errors import EmptyMainSetError
from .numerics import NoiseModel, vdot

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
    far_field: bool               # the chosen codeword is the DFT codeword at theta_hat
    pilot_count: int
    candidates: tuple[tuple[float, float, float], ...]  # (theta, r, |y| of its pilot)
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
    if not 0 <= candidate_index < grid.size:
        raise ValueError(f"candidate index {candidate_index} outside [0, {grid.size})")
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


def _pick(cfg: ArrayConfig, cands: list[tuple[float, float, float]], pilot_count: int,
          evals: int) -> LocationEstimate:
    """Estimate from (theta, r, |y|) candidates, r = inf marking a
    far-field codeword: the first strongest candidate wins, and every
    range is clipped to the Rayleigh distance."""
    _, r_ray = region_boundaries(cfg)
    amps = [a for _, _, a in cands]
    t, r, _ = cands[amps.index(max(amps))]
    return LocationEstimate(theta_hat=t, r_hat=min(r, r_ray), far_field=r == FAR_FIELD,
                            pilot_count=pilot_count,
                            candidates=tuple((t_, min(r_, r_ray), a) for t_, r_, a in cands),
                            distance_stage_evals=evals)


@dataclass(frozen=True)
class Refinement:
    """What a candidate stage hands the pilot stage: the near-field
    candidates (theta, r), the noise of one pilot per candidate (drawn
    right after the sweep's), and the training's distance-stage
    evaluations."""

    cands: tuple[tuple[float, float], ...]
    pilot_noise: tuple[complex, ...]
    evals: int


def refinement_pilots(cfg: ArrayConfig, p: PolarPoint, ref: Refinement,
                      rows: Mapping[tuple[float, float], np.ndarray] | None = None
                      ) -> LocationEstimate:
    """Pilot stage of the proposed and joint trainings: one pilot
    |h^H b + z| per candidate, b its codeword in `rows` (label -> codeword;
    built by `codewords` when not given) and z its drawn noise; then the
    pick. The pilots number N + k: N for the sweep, whose book is the DFT
    book of N = cfg.n_antennas codewords (the only book `estimate_angle`
    indexes), and one per candidate."""
    h = los_channel(cfg, p)
    rows = codewords(cfg, ref.cands) if rows is None else rows
    cands = [(t, r, abs(complex(vdot(h, rows[t, r])) + z))
             for (t, r), z in zip(ref.cands, ref.pilot_noise)]
    return _pick(cfg, cands, cfg.n_antennas + len(cands), ref.evals)


def _sweep_groups(polar: Codebook, h: np.ndarray, groups: list[slice],
                  noise: NoiseModel) -> list[tuple[float, float, float]]:
    """One pilot per polar entry of each group, group by group, read out
    of the memoized polar sweep of `h`: each group's first strongest
    entry as a (theta, r, |y|) candidate."""
    s = polar.noiseless_sweep(h)
    cands = []
    for g in groups:
        amp = np.abs(_pilots(s[g], noise))
        j = int(np.argmax(amp))
        cands.append((float(polar.thetas[g][j]), float(polar.radii[g][j]), float(amp[j])))
    return cands


def proposed_training(cfg: ArrayConfig, p: PolarPoint, noise: NoiseModel,
                      ec: EstimatorConfig, codebook: Codebook) -> LocationEstimate:
    """Clustered median angle, then direct width inversion per candidate.

    Pilot budget: N sweep pilots plus one refinement pilot per candidate
    (k when the main set holds at least k angles). The distance stage is
    one width inversion per candidate.
    """
    return refinement_pilots(cfg, p, proposed_candidates(cfg, p, noise, ec, codebook))


def proposed_candidates(cfg: ArrayConfig, p: PolarPoint, noise: NoiseModel,
                        ec: EstimatorConfig, codebook: Codebook) -> Refinement:
    """Candidate stage of `proposed_training`: the sweep, the clustered
    median angle, one width inversion per candidate angle, then the
    refinement pilots' noise."""
    amp = beam_sweep(cfg, p, codebook, noise)
    _, cis = estimate_angle(amp, codebook, ec, clustering=True)
    cands = [(float(codebook.angle_grid[ci]), estimate_distance(amp, codebook, ci)[0])
             for ci in cis]
    return Refinement(tuple(cands), tuple(noise.sample(len(cands)).tolist()), len(cands))


def joint_training(cfg: ArrayConfig, p: PolarPoint, noise: NoiseModel,
                   ec: EstimatorConfig, z_mu_grid: np.ndarray,
                   codebook: Codebook) -> LocationEstimate:
    """Baseline: global (unclustered) median angle; the distance is found
    by searching the z_mu grid for the best width-model match, so the
    distance stage costs |z_mu| model evaluations per candidate."""
    return refinement_pilots(cfg, p, joint_candidates(cfg, p, noise, ec, z_mu_grid, codebook))


def joint_candidates(cfg: ArrayConfig, p: PolarPoint, noise: NoiseModel,
                     ec: EstimatorConfig, z_mu_grid: np.ndarray,
                     codebook: Codebook) -> Refinement:
    """Candidate stage of `joint_training`: the sweep, the global median
    angle, the z_mu search per candidate angle, then the refinement
    pilots' noise."""
    amp = beam_sweep(cfg, p, codebook, noise)
    _, cis = estimate_angle(amp, codebook, ec, clustering=False)
    cands = []
    for ci in cis:
        theta_i, width = float(codebook.angle_grid[ci]), estimate_distance(amp, codebook, ci)[1]
        # the best width-model match; a single-bin run falls back to the Rayleigh end
        j = (-1 if width <= 2.0 / cfg.n_antennas
             else np.abs(width_law(cfg, theta_i, z_mu_grid) - width).argmin())
        cands.append((theta_i, float(z_mu_grid[j])))
    return Refinement(tuple(cands), tuple(noise.sample(len(cands)).tolist()),
                      len(cands) * z_mu_grid.size)


def fast_training(cfg: ArrayConfig, p: PolarPoint, noise: NoiseModel,
                  ec: EstimatorConfig, polar: Codebook, codebook: Codebook) -> LocationEstimate:
    """Baseline: global median angle, then an exhaustive distance sweep
    with the polar codebook entries at each candidate angle, whose
    noiseless products are read out of the memoized polar sweep."""
    _, cis = estimate_angle(beam_sweep(cfg, p, codebook, noise), codebook, ec, clustering=False)
    groups = [polar.entries_at(ci) for ci in cis]
    cands = _sweep_groups(polar, los_channel(cfg, p), groups, noise)
    extra = sum(g.stop - g.start for g in groups)
    return _pick(cfg, cands, len(codebook) + extra, extra)


def exhaustive_training(cfg: ArrayConfig, p: PolarPoint, noise: NoiseModel,
                        polar: Codebook) -> LocationEstimate:
    """Baseline: argmax |y| over every polar codebook entry, one group."""
    cands = _sweep_groups(polar, los_channel(cfg, p), [slice(0, len(polar))], noise)
    return _pick(cfg, cands, len(polar), 0)


def default_z_mu_grid(cfg: ArrayConfig, size: int = Z_MU_SIZE) -> np.ndarray:
    """Log-spaced distance grid spanning the near-field region, used by
    the joint baseline's width-matching search."""
    r_fre, r_ray = region_boundaries(cfg)
    return np.geomspace(r_fre, r_ray, size)
