"""Beam-gain evaluation: exact sums, the quadratic-phase (Taylor) model,
its closed form in terms of the complex error function, and half-gain
width measurement.

With alpha = N^2 d (1 - theta^2) / (8 r) and beta = N (theta - phi) / 2,
the quadratic-phase model of the sweep gain is the oscillatory integral

    f~(alpha, beta) = 1/2 int_{-1}^{1} exp(j pi (alpha x^2 - beta x)) dx,

whose closed form under completing the square is an erf difference. The
half-gain (rho = 1/2) width of the normalized pattern collapses to
B = N d (1 - theta^2) / r when alpha is large; that law (`width_law`) is
what the distance estimator inverts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ArrayConfig, PolarPoint, near_field_steering
from .codebooks import FAR_FIELD, Codebook, codewords, dft_angle_grid
from .errors import DomainError, EmptyMainSetError
from .numerics import erf_complex, vdot


@dataclass(frozen=True)
class AlphaBeta:
    """Reduced coordinates of the quadratic-phase gain model."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise DomainError(f"alpha must be finite and positive, got {self.alpha}")

    @classmethod
    def from_geometry(cls, cfg: ArrayConfig, p: PolarPoint, phi: float) -> "AlphaBeta":
        n = cfg.n_antennas
        alpha = n**2 * cfg.spacing * (1.0 - p.theta**2) / (8.0 * p.r)
        beta = n * (p.theta - phi) / 2.0
        return cls(alpha=alpha, beta=beta)


@dataclass(frozen=True)
class MainAngleSet:
    """Width of the main run of grid angles above a threshold."""

    width: float


def exact_gain(cfg: ArrayConfig, p: PolarPoint, phi: float) -> float:
    """|b^H(theta, r) a(phi)| by the direct N-term sum, a(phi) the DFT codeword."""
    b = near_field_steering(cfg, p)
    return float(abs(vdot(b, codewords(cfg, [(phi, FAR_FIELD)])[phi, FAR_FIELD])))


def sweep_pattern(cfg: ArrayConfig, p: PolarPoint, codebook: Codebook) -> tuple[np.ndarray, float]:
    """(gains, central) of one steering vector b: the exact gains against
    every codeword of the sweep codebook (its noiseless sweep of b, an
    FFT for the DFT codebook), and `exact_gain` at phi = theta."""
    b = near_field_steering(cfg, p)
    a = codewords(cfg, [(p.theta, FAR_FIELD)])[p.theta, FAR_FIELD]
    return np.abs(codebook.noiseless_sweep(b)), float(abs(vdot(b, a)))


def taylor_f(cfg: ArrayConfig, p: PolarPoint, phi: float) -> complex:
    """Quadratic-phase model of the sweep response, as a complex value.

    (1/N) sum_n exp(j pi [-delta_n (theta - phi)
                          + delta_n^2 d (1 - theta^2) / (2 r)])

    The offsets come in mirror pairs +-delta, whose two terms add up to
    2 cos(pi delta (theta - phi)) exp(j q), q = pi delta^2 d (1 - theta^2)
    / (2 r); so the sum runs over delta > 0 only, with the centre
    element's 1 added for odd N. It stays within ~2.5e-14 of the direct
    N-term sum. Both reductions are numpy sums, not BLAS dot products,
    so no thread count reaches their bits (`numerics.DOT_BLOCK`).
    """
    n = cfg.n_antennas
    delta = cfg.element_offsets[n // 2 + n % 2:]
    q = (math.pi * cfg.spacing * (1.0 - p.theta**2) / (2.0 * p.r)) * (delta * delta)
    amp = np.cos((math.pi * (p.theta - phi)) * delta)
    return complex(2.0 * (amp * np.cos(q)).sum() + n % 2, 2.0 * (amp * np.sin(q)).sum()) / n


_E34 = complex(math.cos(3 * math.pi / 4), math.sin(3 * math.pi / 4))


def closed_form_f(ab: AlphaBeta) -> complex:
    """Closed form of the quadratic-phase integral via complex erf."""
    a, b = ab.alpha, ab.beta
    sa = math.sqrt(a)
    pref = complex(math.cos(math.pi * (a - b * b) / (4 * a)),
                   math.sin(math.pi * (a - b * b) / (4 * a)))
    z1 = _E34 * math.sqrt(math.pi) * (b - 2 * a) / (2 * sa)
    z2 = _E34 * math.sqrt(math.pi) * (b + 2 * a) / (2 * sa)
    return pref * (erf_complex(z1) - erf_complex(z2)) / (4 * sa)


def central_gain(ab: AlphaBeta) -> float:
    """Large-alpha approximation of the gain at phi = theta: 1/(2 sqrt(alpha))."""
    return 1.0 / (2.0 * math.sqrt(ab.alpha))


def normalized_pattern(cfg: ArrayConfig, p: PolarPoint, codebook: Codebook) -> np.ndarray:
    """Sweep gains over the codebook's grid divided by the exact gain at
    phi = theta, both from one steering vector (`sweep_pattern`).

    The channel-level and steering-level normalizations coincide: the
    scalar sqrt(N) g exp(-j 2 pi r / lambda) cancels in the ratio."""
    gains, central = sweep_pattern(cfg, p, codebook)
    return gains / central


def contiguous_run(values, center: int, rho: float, scale: float = 1.0) -> tuple[int, int]:
    """Bounds (lo, hi) of the run around `center` of the entries with
    values[j] / scale > rho, tested one entry at a time walking outward.
    `values` is any sequence: an array, or a memoryview of one, which
    yields Python floats and walks faster."""
    lo = center
    while lo > 0 and values[lo - 1] / scale > rho:
        lo -= 1
    hi = center
    while hi < len(values) - 1 and values[hi + 1] / scale > rho:
        hi += 1
    return lo, hi


def run_width(lo: int, hi: int, grid_size: int) -> float:
    """Width of the run lo..hi on the DFT grid of N = grid_size points:
    run length times the step 2/N. A half-gain interval of width B holds
    B/(2/N) grid points on average, so this, not the span max - min (one
    step shorter), is the unbiased reading."""
    return (hi - lo + 1) * 2.0 / grid_size


def _main_run(gains: np.ndarray, rho: float) -> tuple[int, int]:
    """Run of grid points above rho around the strongest sample."""
    if not 0 < rho < 1:
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    peak = int(np.argmax(gains))
    if not gains[peak] > rho:
        raise EmptyMainSetError(f"no grid gain exceeds rho = {rho}")
    return contiguous_run(gains, peak, rho)


def measure_width(gains: np.ndarray, rho: float) -> MainAngleSet:
    """`run_width` of the main angle set at threshold rho of gains on the
    DFT grid `dft_angle_grid(gains.size)`. Only the run around the
    strongest sample is kept, so sidelobe ripples and noise spikes cannot
    stretch the measured width."""
    return MainAngleSet(width=run_width(*_main_run(gains, rho), gains.size))


def interpolated_width(gains: np.ndarray, rho: float) -> float:
    """Half-gain width of gains on the DFT grid `dft_angle_grid(gains.size)`,
    with sub-grid crossings by linear interpolation between adjacent grid
    gains; used to validate the closed-form width law against something
    finer than the grid resolution."""
    lo, hi = _main_run(gains, rho)
    g, x = gains, dft_angle_grid(gains.size)
    if lo > 0:
        left = x[lo] + (rho - g[lo]) * (x[lo - 1] - x[lo]) / (g[lo - 1] - g[lo])
    else:
        left = x[0]
    if hi < x.size - 1:
        right = x[hi] + (rho - g[hi]) * (x[hi + 1] - x[hi]) / (g[hi + 1] - g[hi])
    else:
        right = x[-1]
    return float(right - left)


def width_law(cfg: ArrayConfig, theta, x):
    """The half-gain width law B = N d (1 - theta^2) / r, evaluated at
    x = r. It is its own inverse: at x = B it returns r. Takes arrays."""
    return cfg.n_antennas * cfg.spacing * (1.0 - theta**2) / x


def closed_form_width(cfg: ArrayConfig, p: PolarPoint) -> float:
    """Half-gain beam width B = N d (1 - theta^2) / r."""
    if not abs(p.theta) < 1.0:
        raise DomainError("theta = +-1 degenerates the width law")
    return width_law(cfg, p.theta, p.r)
