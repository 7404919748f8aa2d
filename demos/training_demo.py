"""One beam-training run of each scheme on the same user and noise.

Shows the pilot budgets side by side: the width-inversion scheme and the
joint baseline spend N + k pilots, the fast baseline adds a distance
sweep per candidate angle, and the exhaustive baseline sweeps the whole
polar codebook.
"""

from nfbeam import (
    ArrayConfig,
    EstimatorConfig,
    NoiseModel,
    PolarPoint,
    build_dft_codebook,
    build_polar_codebook,
    calibrate_noise,
    default_z_mu_grid,
    exhaustive_training,
    fast_training,
    joint_training,
    proposed_training,
)

cfg = ArrayConfig(256, 100e9)
book = build_dft_codebook(cfg)
polar = build_polar_codebook(cfg)
ec = EstimatorConfig(k=3)
user = PolarPoint(0.21, 3.0)
sigma2 = calibrate_noise(cfg, 20.0, "per-antenna")
print(f"user at theta={user.theta}, r={user.r} m; "
      f"polar codebook: {len(polar)} entries "
      f"(S = {polar.avg_samples_per_angle:.2f} samples/angle)\n")

runs = {
    "proposed": lambda nm: proposed_training(cfg, user, nm, ec, book),
    "joint": lambda nm: joint_training(cfg, user, nm, ec, default_z_mu_grid(cfg), book),
    "fast": lambda nm: fast_training(cfg, user, nm, ec, polar, book),
    "exhaustive": lambda nm: exhaustive_training(cfg, user, nm, polar),
}
for name, run in runs.items():
    est = run(NoiseModel(sigma2, (42, 0)))  # same stream key: shared sweep noise
    print(f"{name:10s}: theta_hat={est.theta_hat:+.4f}  r_hat={est.r_hat:6.2f} m  "
          f"pilots={est.pilot_count:4d}  distance-stage evals={est.distance_stage_evals}")

print("\ncandidates the width scheme refined (theta, r, received amplitude):")
est = proposed_training(cfg, user, NoiseModel(sigma2, (42, 0)), ec, book)
for t, r, p in est.candidates:
    marker = " <- selected" if (t, r) == (est.theta_hat, est.r_hat) else ""
    print(f"   ({t:+.4f}, {r:6.2f} m)  |y| = {p:.3e}{marker}")
