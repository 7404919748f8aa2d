"""Sweep beam pattern of a near-field user, and the closed-form width.

A user 8 m from a 512-element array at 100 GHz sits deep inside the
near field (Fresnel 6.1 m, Rayleigh 393 m). Sweeping the far-field DFT
codebook over it produces not a single sharp lobe but a plateau of
comparable-gain beams; the plateau's half-gain width shrinks like 1/r,
which is exactly what the distance estimator inverts.
"""

import numpy as np

from nfbeam import (
    AlphaBeta,
    ArrayConfig,
    PolarPoint,
    build_dft_codebook,
    central_gain,
    closed_form_width,
    exact_gain,
    interpolated_width,
    measure_width,
    normalized_pattern,
    region_boundaries,
)

cfg = ArrayConfig(512, 100e9)
r_fre, r_ray = region_boundaries(cfg)
print(f"array: N={cfg.n_antennas}, lambda={cfg.wavelength*1e3:.3f} mm, "
      f"aperture={cfg.aperture:.3f} m")
print(f"near-field region: [{r_fre:.2f}, {r_ray:.2f}] m\n")

book = build_dft_codebook(cfg)
for r in [8.0, 16.0, 32.0]:
    p = PolarPoint(0.0, r)
    ab = AlphaBeta.from_geometry(cfg, p, 0.0)
    pat = normalized_pattern(cfg, p, book)
    got = interpolated_width(pat, 0.5)
    law = closed_form_width(cfg, p)
    grid_set = measure_width(pat, 0.5)
    print(f"r = {r:5.1f} m: alpha = {ab.alpha:5.2f}")
    print(f"   central gain: exact {exact_gain(cfg, p, 0.0):.4f}, "
          f"1/(2 sqrt(alpha)) = {central_gain(ab):.4f}")
    print(f"   half-gain width: measured {got:.4f}, law N d (1-t^2)/r = {law:.4f} "
          f"({abs(got-law)/law:.1%} off)")
    beams = round(grid_set.width * cfg.n_antennas / 2)
    print(f"   on the grid: {beams} beams above 1/2 x step 2/N = {grid_set.width:.4f}")

print("\nA far-field user for contrast (width law does not apply there):")
p = PolarPoint(0.0, 5 * r_ray)
pat = normalized_pattern(cfg, p, book)
print(f"   r = {p.r:.0f} m: half-gain width {interpolated_width(pat, 0.5):.4f} "
      f"~ one DFT bin ({2/512:.4f})")
