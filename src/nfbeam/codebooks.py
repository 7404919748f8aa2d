"""One codebook type for the far-field DFT codebook and the polar-domain
near-field codebook.

The DFT codeword at spatial angle phi has entries
exp(j pi delta_n phi) / sqrt(N), the r -> infinity limit of the
near-field steering vector, so that a beam sweep of a far-field user
peaks at the codeword whose grid angle matches the user. A `Codebook`
holds, per angle of the DFT grid, that far-field codeword followed by
distance rings; the polar codebook's rings are r_{n,s} = Z (1 - theta^2)/s,
and the DFT codebook is the one without rings. A codebook's arrays are
read-only, and it memoizes its noiseless sweeps h^H M per channel value,
so the trainings of one user share one product per codebook: the fast
baseline reads its per-angle polar entries out of that product too.

The DFT sweep is one inverse FFT. With c = (N-1)/2, delta_n = n - c and
phi_i = 2 (i - c)/N, so pi delta_n phi_i = (2 pi/N)(n - c)(i - c) and

    h^H M = C d * ifft(conj(h) * d)      (orthonormal ifft, entrywise *)

with d_k = exp(-j pi m_k/N), m_k = ((N-1) k) mod 2N, and
C = exp(j pi ((N-1)^2 mod 4N)/(2N)). The phases are reduced in integers,
so the twiddles are accurate to an ulp at any N, odd or not a power of 2.
The DFT codebook therefore builds its matrix only when `matrix` is read;
the polar codebook builds its matrix eagerly and sweeps by one GEMV.

Mirror rule: the builder evaluates only the angle indices >= N//2
(for odd N this includes theta = 0) and fills the codewords of angle
index N-1-i with those of index i, rows reversed. This is exact, bit for
bit: delta_{N-1-n} = -delta_n and phi_{N-1-i} = -phi_i to the bit, and
negating both factors leaves a float product unchanged, so
(-delta)(-phi) = delta phi in the far field; the rings of -theta get the
same radii, since theta^2 is the same float, and the ring distance is
formed as ((2 r theta) delta) d, whose two sign flips cancel too. The conjugate
symmetry of the columns is not used: it would turn the +0 imaginary
part of an odd N's delta = 0 row into -0.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .channel import _MEMO_SIZE, ArrayConfig, _read_only, region_boundaries, steering_columns
from .errors import EmptyGridError

FAR_FIELD = math.inf

# Coherence parameter of the polar codebook's rings (`build_polar_codebook`).
BETA_POLAR = 1.6

# Columns computed per steering call, or copied per mirror step, when
# building a codebook: bounds the N x block temporaries (2 MiB each at
# N = 1024).
_RING_BLOCK = 128


def dft_angle_grid(n: int) -> np.ndarray:
    """phi_n = (2n - N + 1)/N, uniformly spaced with step 2/N."""
    return (2 * np.arange(n) - n + 1) / n


def _noiseless_product(h: np.ndarray, book: Codebook) -> np.ndarray:
    """h^H M as a read-only array: what the sweep memo computes on a miss.
    A book with rings is one GEMV with its matrix; the DFT codebook is
    one inverse FFT (module docstring), and its matrix is not read."""
    if len(book) > book.cfg.n_antennas:
        return _read_only(h.conj() @ book.matrix)
    n = h.size
    d = np.exp((-1j * math.pi / n) * (((n - 1) * np.arange(n)) % (2 * n)))
    arg_c = math.pi * (((n - 1) ** 2) % (4 * n)) / (2 * n)
    return _read_only(complex(math.cos(arg_c), math.sin(arg_c)) * d
                      * np.fft.ifft(h.conj() * d, norm="ortho"))


@dataclass(frozen=True)
class Codebook:
    """Per grid angle, a far-field codeword plus distance rings, flattened
    into parallel arrays for fast sweeps; the DFT codebook has no rings."""

    cfg: ArrayConfig
    angle_grid: np.ndarray    # dft_angle_grid(N)
    thetas: np.ndarray        # label angle per entry
    radii: np.ndarray         # label distance per entry (inf for far field)
    angle_start: np.ndarray   # index of the first entry of each grid angle
    angle_count: np.ndarray   # entries per grid angle (incl. far field)
    _matrix: np.ndarray | None = field(default=None, repr=False)  # None: built on first read

    def __post_init__(self) -> None:
        for name in ("angle_grid", "thetas", "radii", "angle_start", "angle_count"):
            _read_only(getattr(self, name))
        if self._matrix is not None:
            _read_only(self._matrix)
        object.__setattr__(self, "_sweeps", OrderedDict())

    @property
    def matrix(self) -> np.ndarray:
        """N x len(self) codewords, read-only. A book built without its
        matrix (the DFT codebook) evaluates its far-field columns on the
        first read and keeps them."""
        if self._matrix is None:
            object.__setattr__(self, "_matrix",
                               _read_only(_far_field_columns(self.cfg, self.angle_grid)))
        return self._matrix

    def __len__(self) -> int:
        return self.thetas.size

    def noiseless_sweep(self, h: np.ndarray) -> np.ndarray:
        """h^H M, read-only, computed once per channel.

        Keyed on the channel's values (its bytes, with its dtype and shape),
        so an array that changes after a sweep gets the product of its new
        values. Keeps the `_MEMO_SIZE` most recently used sweeps.
        """
        key = (h.dtype.char, h.shape, h.tobytes())
        s = self._sweeps.get(key)
        if s is not None:
            self._sweeps.move_to_end(key)
            return s
        s = _noiseless_product(h, self)
        self._sweeps[key] = s
        if len(self._sweeps) > _MEMO_SIZE:
            self._sweeps.popitem(last=False)
        return s

    def nearest_index(self, theta: float) -> int:
        return int(np.argmin(np.abs(self.angle_grid - theta)))

    def entries_at(self, angle_index: int) -> slice:
        s = int(self.angle_start[angle_index])
        return slice(s, s + int(self.angle_count[angle_index]))

    @property
    def avg_samples_per_angle(self) -> float:
        """S: average distance samples per angle, counting the far-field
        layer as the s = 0 sample, so len(self) == N * S exactly."""
        return len(self) / self.cfg.n_antennas


def _far_field_columns(cfg: ArrayConfig, angles: np.ndarray) -> np.ndarray:
    """N x K matrix whose column k is the DFT codeword at angles[k]:
    the one far-field formula."""
    phase = np.outer(cfg.element_offsets(), angles)
    return np.exp(1j * np.pi * phase) * (1 / math.sqrt(cfg.n_antennas))


def _build(cfg: ArrayConfig, rings: list[list[float]]) -> Codebook:
    """Codebook on `dft_angle_grid(N)` whose angle i holds the far-field
    codeword, then one codeword per radius of rings[i].

    The labels come first. Without rings the book is returned without its
    matrix, which `Codebook.matrix` builds on first read. Otherwise the
    matrix is filled in place: for the angle indices >= N//2, the
    far-field columns are one block and the rings blocks of
    `steering_columns`; every entry of angle index i < N//2 is the same
    entry of angle N-1-i upside down (the mirror rule).
    """
    n = cfg.n_antennas
    half = n // 2
    grid = dft_angle_grid(n)
    count = np.array([1 + len(r) for r in rings])
    start = np.cumsum(count) - count
    thetas = np.repeat(grid, count)
    radii = np.array([x for r in rings for x in (FAR_FIELD, *r)])
    labels = dict(cfg=cfg, angle_grid=grid, thetas=thetas, radii=radii, angle_start=start,
                  angle_count=count)
    if thetas.size == n:
        return Codebook(**labels)
    upper = start[half]  # first entry of the evaluated angles
    matrix = np.empty((n, thetas.size), dtype=complex)
    # numpy scatters columns 4-5x faster through a row index than through `:`
    rows = np.arange(n)[:, None]
    matrix[rows, start[half:]] = _far_field_columns(cfg, grid[half:])
    near = upper + np.flatnonzero(np.isfinite(radii[upper:]))
    for lo in range(0, near.size, _RING_BLOCK):
        cols = near[lo:lo + _RING_BLOCK]
        matrix[rows, cols] = steering_columns(cfg, thetas[cols], radii[cols])
    # entry j of angle i < N//2 mirrors entry j - start[i] of angle N-1-i
    angle = np.repeat(np.arange(half), count[:half])
    sources = start[n - 1 - angle] + np.arange(upper) - start[angle]
    for lo in range(0, upper, _RING_BLOCK):
        block = sources[lo:lo + _RING_BLOCK]
        matrix[:, lo:lo + block.size] = matrix[::-1, block]
    return Codebook(**labels, _matrix=matrix)


def build_dft_codebook(cfg: ArrayConfig) -> Codebook:
    """DFT codebook: column n is exp(j pi delta phi_n) / sqrt(N), the
    far-field codeword at grid angle phi_n, and there are no rings. Its
    sweeps are FFTs; its matrix is built when `matrix` is first read."""
    return _build(cfg, [[] for _ in range(cfg.n_antennas)])


def ring_scale(cfg: ArrayConfig, beta_polar: float) -> float:
    return cfg.n_antennas**2 * cfg.spacing**2 / (2.0 * beta_polar**2 * cfg.wavelength)


def build_polar_codebook(cfg: ArrayConfig, beta_polar: float = BETA_POLAR) -> Codebook:
    """Polar codebook on the DFT angle grid: per angle theta_n, rings
    r = Z (1 - theta_n^2)/s, s = 1, 2, ..., truncated to [R_Fre, R_Ray],
    after the far-field codeword."""
    if not (math.isfinite(beta_polar) and beta_polar > 0):
        raise ValueError(f"beta_polar must be finite and positive, got {beta_polar}")
    r_fre, r_ray = region_boundaries(cfg)
    z = ring_scale(cfg, beta_polar)
    rings = []
    for t in dft_angle_grid(cfg.n_antennas):
        span = z * (1.0 - t * t)
        ring = []
        s = 1
        while span / s >= r_fre:
            r = span / s
            if r <= r_ray:
                ring.append(r)
            s += 1
        rings.append(ring)
    if not any(rings):
        raise EmptyGridError(
            f"no distance ring survives truncation to [{r_fre}, {r_ray}] at any angle"
        )
    return _build(cfg, rings)
