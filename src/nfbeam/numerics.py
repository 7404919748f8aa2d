"""Complex error function and seedable Gaussian noise streams.

The closed-form beam pattern expressions evaluate erf along the rays
arg(z) = +-pi/4 and +-3pi/4, where |exp(-z^2)| = 1 and the function stays
bounded while oscillating. The implementation below splits the plane at a
fixed crossover radius: a Maclaurin series inside, and the Faddeeva
continued fraction outside. Both commute with conjugation, so
erf(conj(z)) == conj(erf(z)) holds to the last bit; oddness is enforced
structurally by canonicalizing the argument to Re(z) >= 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# Crossover between the Maclaurin series and the continued fraction.
# The series cancellation loss scales like exp(|z|^2) * eps, measured
# ~1.5e-11 absolute at the radius below; the continued fraction is at
# ~4e-12 from that radius outward. Near the imaginary axis the series
# terms stop alternating (loss ~ exp(2 Re(z)^2) * eps only), so a thin
# wedge there stays on the series where the fraction converges poorly.
SERIES_RADIUS = 3.2
WEDGE_RE = 0.5
WEDGE_RADIUS = 8.0

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)

_MAX_SERIES_TERMS = 600
_MAX_CF_ITER = 300


def _erf_series(z: complex) -> complex:
    """Maclaurin series, adequate for |z| <= SERIES_RADIUS.

    Also used on the whole imaginary axis, where the terms do not
    alternate in sign and there is no cancellation.
    """
    zz = z * z
    term = z
    total = z / 1.0
    for n in range(1, _MAX_SERIES_TERMS):
        term *= -zz / n
        contrib = term / (2 * n + 1)
        total += contrib
        if abs(contrib) < 1e-18 * (1.0 + abs(total)):
            break
    return _TWO_OVER_SQRT_PI * total


def _faddeeva_cf(zeta: complex) -> complex:
    """w(zeta) = exp(-zeta^2) erfc(-i zeta) by modified Lentz continued
    fraction, valid for Im(zeta) >= 0 and |zeta| large.

    w(zeta) = (i/sqrt(pi)) / (zeta - (1/2)/(zeta - 1/(zeta - (3/2)/(... ))))
    """
    tiny = 1e-300
    f = zeta if zeta != 0 else tiny
    c = f
    d = 0.0 + 0.0j
    for k in range(1, _MAX_CF_ITER):
        a = -k / 2.0
        d = zeta + a * d
        if d == 0:
            d = tiny
        c = zeta + a / c
        if c == 0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return 1j / math.sqrt(math.pi) / f


def erf_complex(z: complex) -> complex:
    """Error function extended to a complex argument.

    Odd by construction and conjugate symmetric; absolute accuracy is
    ~1e-12 on the real axis and on the diagonal rays used by the beam
    pattern closed forms, degrading only near the imaginary axis at large
    |z| where the function itself grows like exp(|z|^2).
    """
    z = complex(z)
    if z == 0:
        return complex(0.0, 0.0)
    if z.real < 0 or (z.real == 0 and z.imag < 0):
        return -erf_complex(-z)
    if z.real == 0:
        # Pure imaginary: series terms share one sign, no cancellation.
        return _erf_series(z)
    if abs(z) <= SERIES_RADIUS:
        return _erf_series(z)
    if z.real <= WEDGE_RE and abs(z) <= WEDGE_RADIUS:
        return _erf_series(z)
    # erf(z) = 1 - exp(-z^2) w(iz); Im(iz) = Re(z) > 0 here.
    return 1.0 - cmath.exp(-z * z) * _faddeeva_cf(1j * z)


@dataclass
class NoiseModel:
    """Seedable complex AWGN stream with total variance sigma2.

    Identical (sigma2, seed) pairs reproduce the identical sample
    sequence; the underlying generator is numpy's PCG64, seeded through
    SeedSequence so tuple seeds give independent streams. Real and
    imaginary parts are independent N(0, sigma2/2). A zero sigma2 stream
    emits exact zeros but still advances deterministically.
    """

    sigma2: float
    seed: int | tuple = 0

    def __post_init__(self) -> None:
        if self.sigma2 < 0:
            raise ValueError(f"sigma2 must be >= 0, got {self.sigma2}")
        self._rng = np.random.default_rng(self.seed)

    def sample(self, n: int) -> np.ndarray:
        """Next n complex draws."""
        std = math.sqrt(self.sigma2 / 2.0)
        re = self._rng.standard_normal(n)
        im = self._rng.standard_normal(n)
        return std * (re + 1j * im)
