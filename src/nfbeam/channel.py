"""Array geometry, near-field steering vectors, and the LoS channel.

Conventions: the array sits on the y axis centered at the origin, element
n at (0, delta_n * d) with delta_n = (2n - N + 1)/2. A user is addressed
in polar coordinates (theta, r), where theta = sin(AoD) is the spatial
angle in [-1, 1] and r the distance from the array center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s, exact


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array at half-wavelength spacing.

    The wavelength is always derived from the carrier so that (lambda,
    f_c) can never disagree; d = lambda/2 is fixed by construction.
    """

    n_antennas: int
    carrier_hz: float

    def __post_init__(self) -> None:
        if self.n_antennas < 2:
            raise ValueError(f"need at least 2 antennas, got {self.n_antennas}")
        if not (math.isfinite(self.carrier_hz) and self.carrier_hz > 0):
            raise ValueError(f"carrier must be finite and positive, got {self.carrier_hz}")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @property
    def spacing(self) -> float:
        return self.wavelength / 2.0

    @property
    def aperture(self) -> float:
        return self.n_antennas * self.spacing

    def element_offsets(self) -> np.ndarray:
        """delta_n = (2n - N + 1)/2 for n = 0..N-1."""
        n = np.arange(self.n_antennas)
        return (2 * n - self.n_antennas + 1) / 2.0


@dataclass(frozen=True)
class PolarPoint:
    """User location: spatial angle theta = sin(AoD) and range r in meters."""

    theta: float
    r: float

    def __post_init__(self) -> None:
        if not -1.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must be in [-1, 1], got {self.theta}")
        if not self.r > 0:
            raise ValueError(f"r must be positive, got {self.r}")

    @property
    def aod_rad(self) -> float:
        """Physical angle of departure in radians."""
        return math.asin(self.theta)


@dataclass(frozen=True)
class ChannelVector:
    """LoS channel h with its gain and phase-reference distance."""

    h: np.ndarray
    gain: float
    r: float


def element_distance(cfg: ArrayConfig, p: PolarPoint, n: int) -> float:
    """Exact distance from element n to the user.

    r^(n) = sqrt(r^2 + delta_n^2 d^2 - 2 r theta delta_n d)
    """
    if not 0 <= n < cfg.n_antennas:
        raise IndexError(f"element index {n} out of range 0..{cfg.n_antennas - 1}")
    delta = (2 * n - cfg.n_antennas + 1) / 2.0
    d = cfg.spacing
    return math.sqrt(p.r**2 + delta**2 * d**2 - 2 * p.r * p.theta * delta * d)


def _element_distances(cfg: ArrayConfig, p: PolarPoint) -> np.ndarray:
    delta = cfg.element_offsets()
    d = cfg.spacing
    return np.sqrt(p.r**2 + delta**2 * d**2 - 2 * p.r * p.theta * delta * d)


def near_field_steering(cfg: ArrayConfig, p: PolarPoint) -> np.ndarray:
    """Unit-norm steering vector b(theta, r).

    Entry n is exp(-j 2 pi (r^(n) - r) / lambda) / sqrt(N). In the limit
    r -> infinity this tends entrywise to the far-field DFT codeword at
    the same spatial angle.
    """
    rn = _element_distances(cfg, p)
    return np.exp(-2j * np.pi * (rn - p.r) / cfg.wavelength) / math.sqrt(cfg.n_antennas)


def channel_gain(cfg: ArrayConfig, r: float) -> float:
    """Free-space amplitude gain g = lambda / (4 pi r)."""
    return cfg.wavelength / (4.0 * math.pi * r)


def los_channel(cfg: ArrayConfig, p: PolarPoint) -> ChannelVector:
    """LoS channel; h^H = sqrt(N) g exp(-j 2 pi r / lambda) b^H(theta, r)."""
    g = channel_gain(cfg, p.r)
    phase = np.exp(2j * np.pi * p.r / cfg.wavelength)
    h = math.sqrt(cfg.n_antennas) * g * phase * near_field_steering(cfg, p)
    return ChannelVector(h=h, gain=g, r=p.r)


def region_boundaries(cfg: ArrayConfig) -> tuple[float, float]:
    """(Fresnel distance, Rayleigh distance) for this aperture."""
    D = cfg.aperture
    lam = cfg.wavelength
    r_fresnel = 0.5 * math.sqrt(D**3 / lam)
    r_rayleigh = 2.0 * D**2 / lam
    return r_fresnel, r_rayleigh
