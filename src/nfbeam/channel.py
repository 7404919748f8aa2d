"""Array geometry, near-field steering vectors, and the LoS channel.

Conventions: the array sits on the y axis centered at the origin, element
n at (0, delta_n * d) with delta_n = (2n - N + 1)/2. A user is addressed
in polar coordinates (theta, r), where theta = sin(AoD) is the spatial
angle in [-1, 1] and r the distance from the array center.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s, exact


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _check_count(name: str, value: object, minimum: int = 1) -> None:
    """Reject a count that is not an integer >= minimum, naming it; numpy
    integers pass, bools do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array at half-wavelength spacing.

    The wavelength is always derived from the carrier so that (lambda,
    f_c) can never disagree; d = lambda/2 is fixed by construction. Derived
    values are cached on first use; __eq__ and __hash__ read only the fields.
    """

    n_antennas: int
    carrier_hz: float

    def __post_init__(self) -> None:
        _check_count("n_antennas", self.n_antennas, 2)
        if not (math.isfinite(self.carrier_hz) and self.carrier_hz > 0):
            raise ValueError(f"carrier must be finite and positive, got {self.carrier_hz}")

    @cached_property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @cached_property
    def spacing(self) -> float:
        return self.wavelength / 2.0

    @cached_property
    def aperture(self) -> float:
        return self.n_antennas * self.spacing

    @cached_property
    def element_offsets(self) -> np.ndarray:
        """Read-only delta_n = (2n - N + 1)/2 for n = 0..N-1."""
        return _read_only(np.arange(self.n_antennas) - (self.n_antennas - 1) / 2.0)

    @cached_property
    def _offsets_sq_d2(self) -> np.ndarray:
        """Read-only delta_n^2 d^2, the constant term of `_distances`."""
        return _read_only(self.element_offsets**2 * self.spacing**2)

    @cached_property
    def _boundaries(self) -> tuple[float, float]:
        D, lam = self.aperture, self.wavelength
        return 0.5 * math.sqrt(D**3 / lam), 2.0 * D**2 / lam


@dataclass(frozen=True)
class PolarPoint:
    """User location: spatial angle theta = sin(AoD) and range r in meters."""

    theta: float
    r: float

    def __post_init__(self) -> None:
        if not -1.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must be in [-1, 1], got {self.theta}")
        if not 0 < self.r < math.inf:
            raise ValueError(f"r must be finite and positive, got {self.r}")


def _distances(cfg: ArrayConfig, thetas: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """N x K matrix of element distances to the users (thetas[k], radii[k]).

    r^(n) = sqrt(r^2 + delta_n^2 d^2 - 2 r theta delta_n d), with r^2
    formed as r * r in one array pass. Evaluated as K x N, one user per
    row, and returned as its transposed view, so each column is contiguous.
    """
    r = radii[:, None]
    return np.sqrt(r * r + cfg._offsets_sq_d2
                   - 2 * r * thetas[:, None] * cfg.element_offsets * cfg.spacing).T


def steering_columns(cfg: ArrayConfig, thetas: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """N x K matrix whose column k is b(thetas[k], radii[k]).

    The one steering formula: `near_field_steering` is its single-column
    case and `codebooks` builds every near-field codeword in blocks of it,
    so a codebook entry, a candidate codeword or a data beam has the bits
    of the single vector. Computed row-wise (K x N, so numpy's inner loops
    run over the N elements) and returned as the transposed view: every
    column is contiguous, which keeps the bits of a dot product with it.
    """
    rn = _distances(cfg, thetas, radii).T
    rows = np.exp(-2j * np.pi * (rn - radii[:, None]) / cfg.wavelength)
    return (rows * (1 / math.sqrt(cfg.n_antennas))).T


def near_field_steering(cfg: ArrayConfig, p: PolarPoint) -> np.ndarray:
    """Unit-norm steering vector b(theta, r).

    Entry n is exp(-j 2 pi (r^(n) - r) / lambda) / sqrt(N). In the limit
    r -> infinity this tends entrywise to the far-field DFT codeword at
    the same spatial angle.
    """
    return steering_columns(cfg, np.array([p.theta]), np.array([p.r]))[:, 0]


def channel_gain(cfg: ArrayConfig, r: float) -> float:
    """Free-space amplitude gain g = lambda / (4 pi r)."""
    return cfg.wavelength / (4.0 * math.pi * r)


def channel_from_steering(cfg: ArrayConfig, r: float, b: np.ndarray) -> np.ndarray:
    """sqrt(N) g exp(j 2 pi r / lambda) b: the LoS channel at range r with
    steering vector b, for `los_channel` and for estimated labels' codewords."""
    g = channel_gain(cfg, r)
    phase = np.exp(2j * np.pi * r / cfg.wavelength)
    return math.sqrt(cfg.n_antennas) * g * phase * b


@lru_cache(maxsize=1)
def los_channel(cfg: ArrayConfig, p: PolarPoint) -> np.ndarray:
    """LoS channel h; h^H = sqrt(N) g exp(-j 2 pi r / lambda) b^H(theta, r).

    The package's one `lru_cache`: it keeps its last (cfg, p) (see
    `simharness.simulate` for the order that makes each user's channel one
    miss), and the array is shared and read-only, so copy it before writing.
    """
    return _read_only(channel_from_steering(cfg, p.r, near_field_steering(cfg, p)))


def region_boundaries(cfg: ArrayConfig) -> tuple[float, float]:
    """(Fresnel distance, Rayleigh distance) for this aperture."""
    return cfg._boundaries
