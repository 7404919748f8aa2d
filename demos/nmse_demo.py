"""Angle/distance NMSE of all four schemes versus reference SNR.

Desk-scale Monte-Carlo (N = 256, reduced trials). Users are drawn from
the zone where the sweep plateau spans several grid bins, so the
width-based distance stage has something to measure. Writes CSV and an
SVG plot next to this script.
"""

from pathlib import Path

from nfbeam import (ArrayConfig, ScenarioConfig, line_plot_svg, region_boundaries,
                    run_nmse_experiment, write_records_csv)

cfg = ArrayConfig(256, 100e9)
r_fre, r_ray = region_boundaries(cfg)
sc = ScenarioConfig(
    n_antennas=256,
    trials=200,
    seed=0,
    theta_range=(-0.6, 0.6),
    r_range=(r_fre, 0.04 * r_ray),
    schemes=("proposed", "joint", "fast", "exhaustive"),
    reference_mode="total-energy",
    snr_ref_db_grid=tuple(float(x) for x in range(4, 31, 2)),
)
records = run_nmse_experiment(sc)

out = Path.cwd() / "nmse_demo.csv"
write_records_csv(out, records, sc.as_header_dict())
print(f"wrote {out}")

series_r = {}
series_t = {}
for r in records:
    series_r.setdefault(r.scheme, ([], []))
    series_r[r.scheme][0].append(r.snr_ref_db)
    series_r[r.scheme][1].append(r.nmse_r)
    series_t.setdefault(r.scheme, ([], []))
    series_t[r.scheme][0].append(r.snr_ref_db)
    series_t[r.scheme][1].append(r.nmse_theta)

svg = Path.cwd() / "nmse_demo_distance.svg"
svg.write_text(line_plot_svg(series_r, "reference SNR (dB)", "distance NMSE",
                             title="distance NMSE vs reference SNR", log_y=True))
print(f"wrote {svg}")

print("\ndistance NMSE at the top of the sweep:")
top = max(r.snr_ref_db for r in records)
for r in sorted((r for r in records if r.snr_ref_db == top), key=lambda r: r.nmse_r):
    print(f"   {r.scheme:10s}: NMSE_r = {r.nmse_r:.3e}  NMSE_theta = {r.nmse_theta:.3e} "
          f"(pilots/trial {r.mean_pilot_count:.0f})")
