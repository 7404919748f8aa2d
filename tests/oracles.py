"""Independent numerical oracles used by the test suite.

These deliberately avoid the package's own closed forms: quadrature for
the oscillatory gain integral, coordinate geometry for element
distances, and plain midpoint integration for the real error function.
The training oracles take the channel and the pilot products from the
package and redo the selection logic with plain loops: the width
trainings read the half-gain run from a mask of the whole sweep and form
one steering vector and one `vdot` per refinement candidate. The polar
codebook oracle builds one column per entry with the scalar steering
formula.
"""

import math

import numpy as np

from nfbeam import los_channel, region_boundaries
from nfbeam.codebooks import FAR_FIELD, dft_angle_grid, ring_scale


def quadrature_f(alpha: float, beta: float, panels: int = 2 ** 16) -> complex:
    """Midpoint-rule value of (1/2) int_{-1}^{1} exp(j pi (a x^2 - b x)) dx,
    summing cos and sin of the real phase."""
    x = (np.arange(panels) + 0.5) * (2.0 / panels) - 1.0
    phase = np.pi * (alpha * x * x - beta * x)
    return 0.5 * (2.0 / panels) * complex(np.cos(phase).sum(), np.sin(phase).sum())


def erf_real_quadrature(x: float, panels: int = 200001) -> float:
    """(2/sqrt(pi)) int_0^x exp(-y^2) dy by the midpoint rule."""
    y = (np.arange(panels) + 0.5) * (x / panels)
    return float(2.0 / math.sqrt(math.pi) * (x / panels) * np.exp(-y * y).sum())


def element_distance_by_coordinates(n_antennas: int, spacing: float,
                                    theta: float, r: float, n: int) -> float:
    """Distance from element n to the user, by explicit point placement.

    The user sits at (r cos(phi), r sin(phi)) with theta = sin(phi); the
    array lies on the y axis with element n at (0, delta_n * spacing).
    """
    phi = math.asin(theta)
    user = np.array([r * math.cos(phi), r * math.sin(phi)])
    delta = (2 * n - n_antennas + 1) / 2.0
    element = np.array([0.0, delta * spacing])
    return float(np.linalg.norm(user - element))


def steering_by_distances(n_antennas: int, wavelength: float,
                          theta: float, r: float) -> np.ndarray:
    """Near-field steering vector assembled element by element from the
    coordinate-geometry distances."""
    spacing = wavelength / 2.0
    out = np.empty(n_antennas, dtype=complex)
    for n in range(n_antennas):
        rn = element_distance_by_coordinates(n_antennas, spacing, theta, r, n)
        out[n] = np.exp(-2j * np.pi * (rn - r) / wavelength)
    return out / math.sqrt(n_antennas)


def estimate_angle_by_loops(amp, grid, rho2_fraction: float, gap: int, k: int,
                            clustering: bool) -> tuple[float, tuple[int, ...]]:
    """(theta_hat, candidate indices) of the angle stage, by plain loops.

    Threshold at rho2_fraction times the peak, split the super-threshold
    indices wherever two neighbours lie more than `gap` apart, keep the
    cluster of the first strongest sample (or every index without
    clustering), take the midpoint of its extreme angles, and return the
    k members closest to it, ties toward the smaller angle, ascending.
    """
    amp = [float(a) for a in amp]
    grid = [float(g) for g in grid]
    rho2 = rho2_fraction * max(amp)
    idx = [i for i, a in enumerate(amp) if a > rho2]
    clusters = [[idx[0]]]
    for i in idx[1:]:
        if i - clusters[-1][-1] > gap:
            clusters.append([i])
        else:
            clusters[-1].append(i)
    strongest = max(idx, key=lambda i: amp[i])  # first of equal maxima
    members = next(c for c in clusters if strongest in c) if clustering else idx
    angles = [grid[i] for i in members]
    theta_hat = (max(angles) + min(angles)) / 2.0
    order = sorted(members, key=lambda i: (abs(grid[i] - theta_hat), grid[i]))
    return theta_hat, tuple(sorted(order[:k]))


def width_distance_by_mask(cfg, amp, grid, ci) -> tuple[float, float]:
    """(r_hat, width) of the distance stage, reading the run from a mask
    of every sample divided by the candidate's: the run of True around
    ci, times the grid step, inverted by r = N d (1 - theta^2) / width
    and clamped to [R_Fre, R_Ray]; a single-bin run gives R_Ray."""
    above = amp / amp[ci] > 0.5
    lo = hi = ci
    while lo > 0 and above[lo - 1]:
        lo -= 1
    while hi < above.size - 1 and above[hi + 1]:
        hi += 1
    width = (hi - lo + 1) * 2.0 / grid.size
    r_fre, r_ray = region_boundaries(cfg)
    if hi == lo:
        return r_ray, width
    r = cfg.n_antennas * cfg.spacing * (1.0 - float(grid[ci]) ** 2) / width
    return float(min(max(r, r_fre), r_ray)), width


def _refine_by_loops(cfg, p, noise, cands, sweep_pilots):
    """(theta_hat, r_hat, candidates, pilot_count, w) after one refinement
    pilot per (theta, r) candidate; the first strongest wins."""
    h = los_channel(cfg, p)
    pilot_noise = noise.sample(len(cands))
    powers, vecs = [], []
    for (t, r), z in zip(cands, pilot_noise):
        vecs.append(steering_by_formula(cfg, t, r))
        powers.append(float(abs(np.vdot(h, vecs[-1]) + z)))
    best = powers.index(max(powers))
    return (*cands[best], tuple((t, r, pw) for (t, r), pw in zip(cands, powers)),
            sweep_pilots + len(cands), vecs[best])


def _dft_sweep_amplitudes(cfg, p, noise, codebook):
    y = los_channel(cfg, p).conj() @ codebook.matrix + noise.sample(len(codebook))
    return np.abs(y)


def proposed_training_by_loops(cfg, p, noise, ec, codebook):
    """(theta_hat, r_hat, candidates, pilot_count, w) of the proposed
    scheme: a DFT sweep, the clustered angle stage, one mask reading of
    the width per candidate, then the refinement."""
    amp = _dft_sweep_amplitudes(cfg, p, noise, codebook)
    grid = codebook.angle_grid
    _, cis = estimate_angle_by_loops(amp, grid, ec.rho2_fraction, ec.cluster_gap, ec.k,
                                     clustering=True)
    cands = [(float(grid[ci]), width_distance_by_mask(cfg, amp, grid, ci)[0]) for ci in cis]
    return _refine_by_loops(cfg, p, noise, cands, len(codebook))


def joint_training_by_loops(cfg, p, noise, ec, z_mu_grid, codebook):
    """(theta_hat, r_hat, candidates, pilot_count, w) of the joint
    baseline: the unclustered angle stage, then per candidate the grid
    distance whose predicted width N d (1 - theta^2) / z lies nearest the
    mask reading (the first of equal gaps), or the last grid distance for
    a single-bin run."""
    amp = _dft_sweep_amplitudes(cfg, p, noise, codebook)
    grid = codebook.angle_grid
    _, cis = estimate_angle_by_loops(amp, grid, ec.rho2_fraction, ec.cluster_gap, ec.k,
                                     clustering=False)
    cands = []
    for ci in cis:
        theta = float(grid[ci])
        _, width = width_distance_by_mask(cfg, amp, grid, ci)
        if width <= 2.0 / cfg.n_antennas:
            cands.append((theta, float(z_mu_grid[-1])))
            continue
        scale = cfg.n_antennas * cfg.spacing * (1.0 - theta**2)
        gaps = [abs(scale / z - width) for z in z_mu_grid.tolist()]
        cands.append((theta, float(z_mu_grid[gaps.index(min(gaps))])))
    return _refine_by_loops(cfg, p, noise, cands, len(codebook))


def _first_strongest(h, polar, groups, noise):
    """Sweep each group of polar entries in order, one pilot per entry
    drawn from the stream, and return (theta, r clipped to R_Ray, w,
    pilots) of the first entry with the largest |y|."""
    _, r_ray = region_boundaries(polar.cfg)
    best, best_amp, pilots = None, -1.0, 0
    for cols in groups:
        y = h.conj() @ polar.matrix[:, cols] + noise.sample(len(cols))
        pilots += len(cols)
        for j, yj in zip(cols, y):
            if abs(yj) > best_amp:
                best, best_amp = j, abs(yj)
    return (float(polar.thetas[best]), float(min(polar.radii[best], r_ray)),
            polar.matrix[:, best], pilots)


def fast_training_by_loops(cfg, p, noise, ec, polar, codebook):
    """(theta_hat, r_hat, w, pilot_count) of the fast baseline: a DFT
    sweep, the unclustered angle stage, then per candidate a sweep of
    the polar entries labelled with its grid angle."""
    h = los_channel(cfg, p)
    y = h.conj() @ codebook.matrix + noise.sample(len(codebook))
    _, cands = estimate_angle_by_loops(np.abs(y), codebook.angle_grid, ec.rho2_fraction,
                                       ec.cluster_gap, ec.k, clustering=False)
    groups = [[j for j in range(len(polar)) if polar.thetas[j] == codebook.angle_grid[ci]]
              for ci in cands]
    theta, r, w, pilots = _first_strongest(h, polar, groups, noise)
    return theta, r, w, len(codebook) + pilots


def exhaustive_training_by_loops(cfg, p, noise, polar):
    """(theta_hat, r_hat, w, pilot_count) of the exhaustive baseline: one
    sweep of every polar entry."""
    return _first_strongest(los_channel(cfg, p), polar, [list(range(len(polar)))], noise)


def steering_by_formula(cfg, theta: float, r: float) -> np.ndarray:
    """b(theta, r) for one user, evaluated as scalar expressions of
    Python floats times numpy arrays."""
    delta = cfg.element_offsets()
    d = cfg.spacing
    rn = np.sqrt(r**2 + delta**2 * d**2 - 2 * r * theta * delta * d)
    return np.exp(-2j * np.pi * (rn - r) / cfg.wavelength) / math.sqrt(cfg.n_antennas)


def same_bits(a, b) -> bool:
    """Equal shapes and equal bits. Unlike `np.array_equal` this tells
    -0.0 from +0.0, the sign a wrong mirror would leave behind."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def dft_matrix_by_formula(cfg) -> np.ndarray:
    """Every DFT codeword at once: exp(j pi delta_n phi_m) / sqrt(N)."""
    grid = dft_angle_grid(cfg.n_antennas)
    return np.exp(1j * np.pi * np.outer(cfg.element_offsets(), grid)) / math.sqrt(cfg.n_antennas)


def polar_codebook_by_loops(cfg, beta_polar: float = 1.6):
    """(matrix, thetas, radii, angle_start, angle_count) of the
    polar codebook, one column at a time: per grid angle the far-field
    DFT column, then every ring r = Z (1 - theta^2)/s in [R_Fre, R_Ray]."""
    r_fre, r_ray = region_boundaries(cfg)
    z = ring_scale(cfg, beta_polar)
    grid = dft_angle_grid(cfg.n_antennas)
    far = dft_matrix_by_formula(cfg)
    cols, thetas, radii, start, count = [], [], [], [], []
    for i, t in enumerate(grid):
        start.append(len(cols))
        cols.append(far[:, i])
        thetas.append(float(t))
        radii.append(FAR_FIELD)
        span = z * (1.0 - t * t)
        s = 1
        while span / s >= r_fre:
            r = span / s
            if r <= r_ray:
                cols.append(steering_by_formula(cfg, float(t), float(r)))
                thetas.append(float(t))
                radii.append(r)
            s += 1
        count.append(len(cols) - start[-1])
    return (np.column_stack(cols), np.array(thetas), np.array(radii), np.array(start),
            np.array(count))
