"""One codebook type for the far-field DFT codebook and the polar-domain
near-field codebook.

The DFT codeword at spatial angle phi has entries
exp(j pi delta_n phi) / sqrt(N), the r -> infinity limit of the
near-field steering vector, so that a beam sweep of a far-field user
peaks at the codeword whose grid angle matches the user. A `Codebook`
holds, per angle of the DFT grid, that far-field codeword followed by
distance rings; the polar codebook's rings are r_{n,s} = Z (1 - theta^2)/s,
and the DFT codebook is the one without rings. A codebook's arrays are
read-only, and it keeps its last noiseless sweep h^H M (the other memo is
`channel.los_channel`), so the trainings of one user, run back to back, as
`simharness.simulate` does, share one product per codebook: the fast
baseline reads its per-angle polar entries out of that product too.

The DFT sweep is one inverse FFT. With c = (N-1)/2, delta_n = n - c and
phi_i = 2 (i - c)/N, so pi delta_n phi_i = (2 pi/N)(n - c)(i - c) and

    h^H M = C d * ifft(conj(h) * d)      (orthonormal ifft, entrywise *)

with d_k = exp(-j pi m_k/N), m_k = ((N-1) k) mod 2N, and
C = exp(j pi ((N-1)^2 mod 4N)/(2N)). The phases are reduced in integers,
so the twiddles are accurate to an ulp at any N, odd or not a power of 2.
The builder computes d and C d once per book.

Mirror rule: the entries of angle index i < N//2 are those of angle
index N-1-i, rows reversed. This is exact, bit for bit:
delta_{N-1-n} = -delta_n and phi_{N-1-i} = -phi_i to the bit, and
negating either factor of a float product negates the product exactly,
so delta (-phi) = (-delta) phi in the far field; the rings of -theta get
the same radii, since theta^2 is the same float, and the ring distance is
formed as ((2 r theta) delta) d, where a sign flip of theta or of delta
gives the same float. So a codeword evaluated directly at a negative
angle, as `matrix` and `codewords` do, has the bits of the mirrored copy.
The conjugate symmetry of the columns is not used: it would turn the +0
imaginary part of an odd N's delta = 0 row into -0.

Fold: a book with rings stores no N x K matrix. Its entries of angle
index >= N//2 (for odd N this includes theta = 0) form the N x K_u block
M_u, kept folded about the array centre (Cantoni & Butler, Linear Algebra
Appl. 13, 1976):

    even[n] = M_u[n] + M_u[N-1-n],   odd[n] = M_u[n] - M_u[N-1-n],   n < N//2,

and for odd N the middle row M_u[N//2] is the last row of `even`. Entry
j < K - K_u mirrors entry sources[j] of M_u. With a = conj(h),
u_n = (a_n + a_{N-1-n})/2 for n < ceil(N/2), whose middle entry for odd
N is a's, and v_n = (a_n - a_{N-1-n})/2 for n < N//2,

    x = u even,   y = v odd,   a M_u = x + y,   a M_u upside down = x - y,

so h^H M = concat((x - y)[sources], x + y): two half-size GEMVs that
read N K_u entries, about half of the N K a GEMV with M reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Sequence

import numpy as np

from .channel import ArrayConfig, _read_only, region_boundaries, steering_columns
from .errors import EmptyGridError

FAR_FIELD = math.inf

# Coherence parameter of the polar codebook's rings (`build_polar_codebook`).
BETA_POLAR = 1.6

# Entries (N per codeword) per formula call in every codeword build: bounds
# the 128 KiB block temporaries. Polar builds at N = 256 and 1024 and the
# trial loop's refinement codewords ran fastest or within 3% of it here.
_BLOCK = 8192


def dft_angle_grid(n: int) -> np.ndarray:
    """phi_n = (2n - N + 1)/N, uniformly spaced with step 2/N."""
    return (2 * np.arange(n) - n + 1) / n


def _noiseless_product(h: np.ndarray, book: Codebook) -> np.ndarray:
    """h^H M as a read-only array: what `noiseless_sweep` computes on a miss.
    The DFT codebook is one inverse FFT with the book's twiddles, a book
    with rings two half-size GEMVs with its fold (module docstring);
    neither reads the matrix."""
    a = h.conj()
    if book._sources is None:
        return _read_only(book._cd * np.fft.ifft(a * book._d, norm="ortho"))
    n = a.size
    rev = a[::-1]
    u = (a[:n - n // 2] + rev[:n - n // 2]) / 2
    v = (a[:n // 2] - rev[:n // 2]) / 2
    x, y = u @ book._even, v @ book._odd
    return _read_only(np.concatenate(((x - y)[book._sources], x + y)))


@dataclass(frozen=True)
class Codebook:
    """Per grid angle, a far-field codeword plus distance rings, flattened
    into parallel arrays for fast sweeps; the DFT codebook has no rings.
    It stores what its products need (module docstring), not its matrix."""

    cfg: ArrayConfig
    angle_grid: np.ndarray    # dft_angle_grid(N)
    thetas: np.ndarray        # label angle per entry
    radii: np.ndarray         # label distance per entry (inf for far field)
    angle_start: np.ndarray   # index of the first entry of each grid angle
    angle_count: np.ndarray   # entries per grid angle (incl. far field)
    # without rings: the FFT twiddles d and C d
    _d: np.ndarray | None = field(default=None, repr=False)
    _cd: np.ndarray | None = field(default=None, repr=False)
    # with rings: the fold of M_u and the M_u entry each other entry mirrors
    _even: np.ndarray | None = field(default=None, repr=False)
    _odd: np.ndarray | None = field(default=None, repr=False)
    _sources: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        for f in fields(self):
            if isinstance(getattr(self, f.name), np.ndarray):
                _read_only(getattr(self, f.name))
        object.__setattr__(self, "_last", (None, None))  # (key, h^H M) of the last sweep

    @cached_property
    def matrix(self) -> np.ndarray:
        """N x len(self) codewords, read-only, evaluated from the labels on
        the first read and kept. Sweeps and trainings do not read it."""
        n = self.cfg.n_antennas
        matrix = np.empty((n, len(self)), dtype=complex)
        rows = np.arange(n)[:, None]
        for cols, block in _columns(self.cfg, self.thetas, self.radii):
            matrix[rows, cols] = block
        return _read_only(matrix)

    def __len__(self) -> int:
        return self.thetas.size

    def noiseless_sweep(self, h: np.ndarray) -> np.ndarray:
        """h^H M, read-only; reused while the channel's bytes, dtype and shape
        repeat: one entry, as every memo (see `simharness.simulate`)."""
        key = (h.dtype.char, h.shape, h.tobytes())
        last_key, s = self._last  # one read, so a concurrent sweep cannot swap it
        if last_key != key:
            s = _noiseless_product(h, self)
            object.__setattr__(self, "_last", (key, s))
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
    """N x K matrix whose column k is the DFT codeword at angles[k], the one
    far-field formula; row-wise, as `steering_columns`, so columns are contiguous."""
    phase = np.outer(angles, cfg.element_offsets)
    return (np.exp(1j * np.pi * phase) * (1 / math.sqrt(cfg.n_antennas))).T


def _columns(cfg: ArrayConfig, thetas: np.ndarray, radii: np.ndarray):
    """Yield (cols, block) pairs, block[:, c] the contiguous codeword of label
    (thetas[cols[c]], radii[cols[c]]), until every label is covered: the far-field
    formula where r = inf, `steering_columns` elsewhere, `_BLOCK` entries at most."""
    far = np.isinf(radii)
    step = max(1, _BLOCK // cfg.n_antennas)
    for cols in (far.nonzero()[0], (~far).nonzero()[0]):
        for lo in range(0, cols.size, step):
            block = cols[lo:lo + step]
            yield block, (_far_field_columns(cfg, thetas[block]) if far[block[0]]
                          else steering_columns(cfg, thetas[block], radii[block]))


def codewords(cfg: ArrayConfig,
              labels: Sequence[tuple[float, float]]) -> dict[tuple[float, float], np.ndarray]:
    """The one label-to-codeword map: each (theta, r) label's codeword, r = inf
    marking the DFT codeword at theta, as a contiguous vector (`_columns`)."""
    thetas, radii = np.array(labels, dtype=float).reshape(-1, 2).T
    return {labels[i]: b for cols, block in _columns(cfg, thetas, radii)
            for i, b in zip(cols.tolist(), block.T)}


def _build(cfg: ArrayConfig, rings: list[list[float]]) -> Codebook:
    """Codebook on `dft_angle_grid(N)` whose angle i holds the far-field
    codeword, then one codeword per radius of rings[i].

    The labels come first. Without rings the book keeps its FFT twiddles.
    Otherwise only the entries of angle index >= N//2 are evaluated, and
    each block of them is folded into `even` and `odd` as it is computed;
    every entry of angle index i < N//2 mirrors the same entry of angle
    N-1-i (the mirror rule).
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
        d = np.exp((-1j * math.pi / n) * (((n - 1) * np.arange(n)) % (2 * n)))
        arg_c = math.pi * (((n - 1) ** 2) % (4 * n)) / (2 * n)
        return Codebook(**labels, _d=d, _cd=complex(math.cos(arg_c), math.sin(arg_c)) * d)
    upper = start[half]  # first entry of the evaluated angles
    even = np.empty((n - half, thetas.size - upper), dtype=complex)
    odd = np.empty((half, thetas.size - upper), dtype=complex)
    # numpy scatters columns 4-5x faster through a row index than through `:`
    rows = np.arange(half)[:, None]
    for cols, block in _columns(cfg, thetas[upper:], radii[upper:]):
        top, bottom = block[:half], block[::-1][:half]
        even[rows, cols] = top + bottom
        odd[rows, cols] = top - bottom
        if n % 2:
            even[half, cols] = block[half]
    # entry j of angle i < N//2 mirrors entry j - start[i] of angle N-1-i
    angle = np.repeat(np.arange(half), count[:half])
    sources = start[n - 1 - angle] - upper + np.arange(upper) - start[angle]
    return Codebook(**labels, _even=even, _odd=odd, _sources=sources)


def build_dft_codebook(cfg: ArrayConfig) -> Codebook:
    """DFT codebook: column n is exp(j pi delta phi_n) / sqrt(N), the
    far-field codeword at grid angle phi_n, and there are no rings. Its
    sweeps are FFTs."""
    return _build(cfg, [[] for _ in range(cfg.n_antennas)])


def ring_scale(cfg: ArrayConfig, beta_polar: float) -> float:
    if not (math.isfinite(beta_polar) and beta_polar > 0):
        raise ValueError(f"beta_polar must be finite and positive, got {beta_polar}")
    return cfg.n_antennas**2 * cfg.spacing**2 / (2.0 * beta_polar**2 * cfg.wavelength)


def build_polar_codebook(cfg: ArrayConfig, beta_polar: float = BETA_POLAR) -> Codebook:
    """Polar codebook on the DFT angle grid: per angle theta_n, rings
    r = Z (1 - theta_n^2)/s, s = 1, 2, ..., truncated to [R_Fre, R_Ray],
    after the far-field codeword."""
    z = ring_scale(cfg, beta_polar)
    r_fre, r_ray = region_boundaries(cfg)
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
            f"no distance ring survives truncation to [{r_fre}, {r_ray}] m at any angle "
            f"(N = {cfg.n_antennas}, carrier {cfg.carrier_hz!r} Hz, beta_polar = {beta_polar!r})")
    return _build(cfg, rings)
