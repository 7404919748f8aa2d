"""Multi-user beamforming from estimated positions: M = 10 users served
in one slot by regularized zero-forcing built from each scheme's
location estimates, benchmarked against precoding from true positions."""

from pathlib import Path

from nfbeam import (ArrayConfig, ScenarioConfig, region_boundaries, run_rate_experiment,
                    write_records_csv)

cfg = ArrayConfig(256, 100e9)
r_fre, r_ray = region_boundaries(cfg)
sc = ScenarioConfig(
    n_antennas=256,
    trials=60,
    seed=0,
    m_users=10,
    theta_range=(-0.8, 0.8),
    r_range=(r_fre, 0.05 * r_ray),
    schemes=("proposed", "joint", "fast", "exhaustive"),
    reference_mode="per-antenna",
    snr_ref_db_grid=(4.0, 10.0, 16.0, 22.0, 30.0),
)
records = run_rate_experiment(sc, "multi")
out = Path.cwd() / "multiuser_demo.csv"
write_records_csv(out, records, sc.as_header_dict())
print(f"wrote {out}\n")

by_snr = {}
for r in records:
    by_snr.setdefault(r.snr_ref_db, {})[r.scheme] = r.mean_rate
schemes = ["full-csi", "proposed", "joint", "fast", "exhaustive"]
print("average rate per user (bits/s/Hz):")
print("SNR  " + "  ".join(f"{s:>10}" for s in schemes))
for snr, d in sorted(by_snr.items()):
    print(f"{snr:3.0f}  " + "  ".join(f"{d[s]:10.3f}" for s in schemes))
print("\nEstimation error turns into inter-user interference under RZF, so")
print("the ordering at high SNR tracks the schemes' location accuracy.")
