"""Complex error function, seedable Gaussian noise streams, and dot
products whose bits do not depend on the BLAS thread count.

The closed-form beam pattern expressions evaluate erf along the rays
arg(z) = +-pi/4 and +-3pi/4, where |exp(-z^2)| = 1 and the function stays
bounded while oscillating. erf is computed by one formula on the whole
plane: erf(z) = 1 - exp(-z^2) w(iz) for Re(z) >= 0, with the Faddeeva
function w from Weideman's rational expansion (Weideman, "Computation of
the complex error function", SIAM J. Numer. Anal. 31(5), 1994). Every
step commutes with conjugation, so erf(conj(z)) == conj(erf(z)) holds to
the last bit; oddness is an exact sign flip onto Re(z) >= 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# Weideman's expansion with N terms and his scale L = sqrt(N / sqrt(2)):
#   w(zeta) = 2 p(Z) / (L - i zeta)^2 + (1/sqrt(pi)) / (L - i zeta),
#   Z = (L + i zeta) / (L - i zeta),  p(Z) = sum_{n=1..N} a_n Z^(n-1),
# where a_n is the n-th cosine coefficient of
#   F(t) = exp(-t^2) (L^2 + t^2),  t = L tan(theta / 2),
# sampled at theta = k pi / (2N), |k| < 2N. _COEFFS holds a_N .. a_1, the
# order Horner's rule reads them in.
_N_TERMS = 40
_L = math.sqrt(_N_TERMS / math.sqrt(2.0))


def _weideman_coefficients(n_terms: int, scale: float) -> tuple[float, ...]:
    m = 2 * n_terms
    k = np.arange(1, m)
    t = scale * np.tan(k * (math.pi / (2 * m)))
    f = np.exp(-t * t) * (scale * scale + t * t)
    n = np.arange(1, n_terms + 1)
    # F is even in k: the k = 0 sample is L^2, the others pair up
    cos_sum = (np.cos(np.outer(n, k) * (math.pi / m)) * f).sum(axis=1)
    a = (scale * scale + 2.0 * cos_sum) / (2 * m)
    return tuple(float(x) for x in a[::-1])


_COEFFS = _weideman_coefficients(_N_TERMS, _L)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


def erf_complex(z: complex) -> complex:
    """Error function extended to a complex argument.

    Odd and conjugate symmetric to the last bit, and erf(0) == 0.
    Absolute accuracy is ~1e-15 on the real axis and on the diagonal
    rays used by the beam pattern closed forms out to |z| = 45, and
    ~1e-12 out to |z| = 1e4, where rounding of z^2 dominates. Relative
    accuracy is ~1e-14 elsewhere; like erf itself, the value overflows
    where Im(z)^2 - Re(z)^2 passes ~709.
    """
    z = complex(z)
    flip = z.real < 0 or (z.real == 0 and z.imag < 0)
    if flip:
        z = -z
    # with zeta = iz: L - i zeta = L + z and Z = (L - z) / (L + z)
    d = _L + z
    ratio = (_L - z) / d
    p = 0.0
    for a in _COEFFS:
        p = p * ratio + a
    w = (2.0 * p / d + _INV_SQRT_PI) / d
    value = 1.0 - cmath.exp(-z * z) * w
    if z.real == 0:  # erf maps the imaginary axis, 0 included, onto itself
        value = complex(0.0, value.imag)
    return -value if flip else value


@dataclass(eq=False)
class NoiseModel:
    """Seedable complex AWGN stream with total variance sigma2.

    Sample k is sqrt(sigma2/2) (u[2k] + 1j u[2k+1]), where u are the
    standard normals of numpy's PCG64 in draw order, seeded through
    SeedSequence so tuple seeds give independent streams. A sample
    depends only on its key and position, not on the sizes the stream is
    read in: n samples, then m, equal one read of n + m. A zero sigma2
    stream emits exact zeros but still advances deterministically.

    The stream keeps the unit samples it has drawn, so `replay` restarts
    it at another power without re-seeding or redrawing; a replayed
    stream yields exactly the samples of a fresh NoiseModel(sigma2, seed).
    Equality is identity: two streams with one key differ in position.
    """

    sigma2: float
    seed: int | tuple = 0

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._units = np.empty(0, complex)  # unit samples drawn so far, in order
        self.replay(self.sigma2)

    def replay(self, sigma2: float) -> NoiseModel:
        """Restart at the first draw with total variance sigma2."""
        if not 0 <= sigma2 < math.inf:
            raise ValueError(f"sigma2 must be finite and >= 0, got {sigma2}")
        self.sigma2 = sigma2
        self._pos = 0
        return self

    def sample(self, n: int) -> np.ndarray:
        """Next n complex draws."""
        if n < 0:
            raise ValueError(f"sample count must be >= 0, got {n}")
        pos, end = self._pos, self._pos + n
        if end > self._units.size:
            more = self._rng.standard_normal(2 * (end - self._units.size)).view(complex)
            self._units = np.concatenate((self._units, more))
        self._pos = end
        return math.sqrt(self.sigma2 / 2.0) * self._units[pos:end]


# OpenBLAS splits a dot product of more than 10,000 terms over its threads,
# which ties the last bits of the sum to the thread count. The products
# below sum over blocks of at most DOT_BLOCK terms, one BLAS call each,
# added in order from the first block; up to DOT_BLOCK terms a product is
# the one call it would be anyway, with the same bits.
DOT_BLOCK = 8192


def _blocked(product, a: np.ndarray, b: np.ndarray):
    """product(a, b) of a product that sums over the first axis, over
    blocks of at most DOT_BLOCK entries of it. The sum starts from the
    first block, not from 0, which could turn a -0.0 into +0.0."""
    total = product(a[:DOT_BLOCK], b[:DOT_BLOCK])
    for lo in range(DOT_BLOCK, len(a), DOT_BLOCK):
        total = total + product(a[lo:lo + DOT_BLOCK], b[lo:lo + DOT_BLOCK])
    return total


def vdot(a: np.ndarray, b: np.ndarray) -> complex:
    """a^H b of two vectors: `np.vdot`, blocked."""
    return _blocked(np.vdot, a, b)


def adjoint_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^H B of two matrices of N rows, blocked over the rows."""
    return _blocked(lambda x, y: x.conj().T @ y, a, b)


def norm(x: np.ndarray) -> float:
    """||x|| of a complex vector as `np.linalg.norm` forms it, from the
    dot products of the real and imaginary parts, blocked."""
    return math.sqrt(_blocked(np.dot, x.real, x.real) + _blocked(np.dot, x.imag, x.imag))
