"""Far-field DFT codebook and the polar-domain near-field codebook.

The DFT codeword at spatial angle phi has entries
exp(j pi delta_n phi) / sqrt(N), the r -> infinity limit of the
near-field steering vector, so that a beam sweep of a far-field user
peaks at the codeword whose grid angle matches the user. The polar
codebook adds, per grid angle, distance rings r_{n,s} = Z (1 - theta^2)/s
plus the far-field (s = 0) codeword.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ArrayConfig, PolarPoint, near_field_steering, region_boundaries
from .errors import EmptyGridError

FAR_FIELD = math.inf


def dft_angle_grid(n: int) -> np.ndarray:
    """phi_n = (2n - N + 1)/N, uniformly spaced with step 2/N."""
    return (2 * np.arange(n) - n + 1) / n


@dataclass(frozen=True)
class DftCodebook:
    cfg: ArrayConfig
    angle_grid: np.ndarray
    matrix: np.ndarray  # N x N, column n is the codeword at angle_grid[n]

    def __len__(self) -> int:
        return self.matrix.shape[1]

    def nearest_index(self, theta: float) -> int:
        return int(np.argmin(np.abs(self.angle_grid - theta)))


def build_dft_codebook(cfg: ArrayConfig) -> DftCodebook:
    n = cfg.n_antennas
    grid = dft_angle_grid(n)
    delta = cfg.element_offsets()
    matrix = np.exp(1j * np.pi * np.outer(delta, grid)) / math.sqrt(n)
    return DftCodebook(cfg=cfg, angle_grid=grid, matrix=matrix)


@dataclass(frozen=True)
class PolarCodebook:
    """Near-field codebook: per grid angle, a far-field entry plus
    distance rings, flattened into parallel arrays for fast sweeps."""

    cfg: ArrayConfig
    beta_polar: float
    z_delta: float            # ring scale Z = N^2 d^2 / (2 beta^2 lambda)
    thetas: np.ndarray        # label angle per entry
    radii: np.ndarray         # label distance per entry (inf for far field)
    matrix: np.ndarray        # N x (total entries)
    angle_start: np.ndarray   # index of the first entry of each grid angle
    angle_count: np.ndarray   # entries per grid angle (incl. far field)

    def __len__(self) -> int:
        return self.matrix.shape[1]

    @property
    def avg_samples_per_angle(self) -> float:
        """S: average distance samples per angle, counting the far-field
        layer as the s = 0 sample, so len(self) == N * S exactly."""
        return len(self) / self.cfg.n_antennas

    def entries_at(self, angle_index: int) -> slice:
        s = int(self.angle_start[angle_index])
        return slice(s, s + int(self.angle_count[angle_index]))


def ring_scale(cfg: ArrayConfig, beta_polar: float) -> float:
    return cfg.n_antennas**2 * cfg.spacing**2 / (2.0 * beta_polar**2 * cfg.wavelength)


def build_polar_codebook(cfg: ArrayConfig, beta_polar: float = 1.6) -> PolarCodebook:
    """Polar codebook on the DFT angle grid.

    Per angle theta_n: rings r = Z (1 - theta_n^2)/s, s = 1, 2, ...,
    truncated to [R_Fre, R_Ray], plus one far-field codeword.
    """
    if beta_polar <= 0:
        raise ValueError(f"beta_polar must be positive, got {beta_polar}")
    r_fre, r_ray = region_boundaries(cfg)

    z = ring_scale(cfg, beta_polar)
    grid = dft_angle_grid(cfg.n_antennas)
    delta = cfg.element_offsets()
    far = np.exp(1j * np.pi * np.outer(delta, grid)) / math.sqrt(cfg.n_antennas)

    cols: list[np.ndarray] = []
    thetas: list[float] = []
    radii: list[float] = []
    start = np.zeros(cfg.n_antennas, dtype=int)
    count = np.zeros(cfg.n_antennas, dtype=int)
    n_rings_total = 0
    for i, t in enumerate(grid):
        start[i] = len(cols)
        cols.append(far[:, i])
        thetas.append(float(t))
        radii.append(FAR_FIELD)
        span = z * (1.0 - t * t)
        s = 1
        while span / s >= r_fre:
            r = span / s
            if r <= r_ray:
                cols.append(near_field_steering(cfg, PolarPoint(float(t), r)))
                thetas.append(float(t))
                radii.append(r)
                n_rings_total += 1
            s += 1
        count[i] = len(cols) - start[i]

    if n_rings_total == 0:
        raise EmptyGridError(
            f"no distance ring survives truncation to [{r_fre}, {r_ray}] at any angle"
        )
    return PolarCodebook(
        cfg=cfg,
        beta_polar=beta_polar,
        z_delta=z,
        thetas=np.array(thetas),
        radii=np.array(radii),
        matrix=np.column_stack(cols),
        angle_start=start,
        angle_count=count,
    )

