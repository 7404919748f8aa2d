"""Monte-Carlo harness: scenario configuration, reference-SNR
calibration, one trial loop (`simulate`) whose rows every experiment
reduces or projects, the training overhead report, and the CSV writer.

The loop runs trial -> SNR point -> scheme. A trial draws its user(s)
once, from the key (seed, 0, trial). Reproducibility contract: every
random stream is keyed by (seed, lane, trial [, user]) so results are
bit-identical across runs; the noise key omits the SNR index on purpose,
so one trial sees the same scaled noise at every SNR point (common
random numbers across the SNR grid). A trial builds one stream per key
and every (SNR point, scheme) training replays it from its first draw,
which makes the schemes see identical sweep noise within a trial.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .beamforming import multiuser_precode, multiuser_rate, single_user_rate
from .channel import (ArrayConfig, PolarPoint, _check_count, channel_gain, los_channel,
                      region_boundaries)
from .codebooks import BETA_POLAR, build_dft_codebook, build_polar_codebook
from .errors import EmptyMainSetError, SingularChannelError
from .estimators import (
    Z_MU_SIZE,
    EstimatorConfig,
    LocationEstimate,
    default_z_mu_grid,
    exhaustive_training,
    fast_training,
    joint_training,
    proposed_training,
)
from .numerics import NoiseModel

REFERENCE_POINT = PolarPoint(0.0, 5.0)  # calibration user for the reference SNR

TOTAL_ENERGY = "total-energy"
PER_ANTENNA = "per-antenna"

# Scheme name -> training call. The lambdas look the training functions up
# as module globals at call time, so rebinding those names (as
# bench/tracing.py does) reaches every training.
TRAININGS = {
    "proposed": lambda tr, p, noise: proposed_training(tr.cfg, p, noise, tr.ec, tr.codebook),
    "joint": lambda tr, p, noise: joint_training(tr.cfg, p, noise, tr.ec, tr.z_mu, tr.codebook),
    "fast": lambda tr, p, noise: fast_training(tr.cfg, p, noise, tr.ec, tr.polar, tr.codebook),
    "exhaustive": lambda tr, p, noise: exhaustive_training(tr.cfg, p, noise, tr.polar),
}
SCHEMES = tuple(TRAININGS)
FULL_CSI = "full-csi"


def calibrate_noise(cfg: ArrayConfig, snr_ref_db: float, mode: str = TOTAL_ENERGY) -> float:
    """Noise power realizing the requested reference SNR.

    total-energy: sigma^2 = ||h(ref)||^2 / SNR = N g(5m)^2 / SNR.
    per-antenna:  sigma^2 = g(5m)^2 / SNR (differs by a fixed N factor).
    An SNR whose linear value, or the noise power it gives, is not
    finite and positive is rejected.
    """
    if mode not in (TOTAL_ENERGY, PER_ANTENNA):
        raise ValueError(f"unknown reference mode {mode!r}")
    g = channel_gain(cfg, REFERENCE_POINT.r)
    signal = cfg.n_antennas * g * g if mode == TOTAL_ENERGY else g * g
    try:
        sigma2 = signal / 10.0 ** (snr_ref_db / 10.0)
    except (OverflowError, ZeroDivisionError):  # 10^(dB/10) beyond float range
        sigma2 = math.nan
    if not 0.0 < sigma2 < math.inf:
        raise ValueError(f"reference SNR {snr_ref_db} dB gives no finite positive noise power")
    return sigma2


@dataclass(frozen=True)
class UserSampler:
    theta_range: tuple[float, float]
    r_range: tuple[float, float]

    def sample(self, rng: np.random.Generator) -> PolarPoint:
        t = rng.uniform(*self.theta_range)
        r = rng.uniform(*self.r_range)
        return PolarPoint(float(t), float(r))

    @property
    def theta_variance(self) -> float:
        a, b = self.theta_range
        return (b - a) ** 2 / 12.0

    @property
    def r_variance(self) -> float:
        a, b = self.r_range
        return (b - a) ** 2 / 12.0


@dataclass(frozen=True)
class ScenarioConfig:
    n_antennas: int = 256
    carrier_hz: float = 100e9
    snr_ref_db_grid: tuple[float, ...] = tuple(range(4, 31, 2))
    trials: int = 200
    seed: int = 0
    theta_range: tuple[float, float] = (-0.8, 0.8)
    r_range: tuple[float, float] | None = None   # None: [R_Fre, min(100 m, R_Ray)]
    m_users: int = 10
    schemes: tuple[str, ...] = SCHEMES
    reference_mode: str = TOTAL_ENERGY
    k: int = EstimatorConfig.k
    cluster_gap: int = EstimatorConfig.cluster_gap
    rho2_fraction: float = EstimatorConfig.rho2_fraction
    beta_polar: float = BETA_POLAR
    z_mu_size: int = Z_MU_SIZE

    def __post_init__(self) -> None:
        cfg = self.array()
        self.estimator()
        for name in ("trials", "m_users", "z_mu_size"):
            _check_count(name, getattr(self, name))
        _check_count("seed", self.seed, 0)
        if self.reference_mode not in (TOTAL_ENERGY, PER_ANTENNA):
            raise ValueError(f"unknown reference mode {self.reference_mode!r}")
        if len(self.snr_ref_db_grid) == 0:
            raise ValueError("snr_ref_db_grid is empty")
        for x in self.snr_ref_db_grid:
            try:
                calibrate_noise(cfg, x, self.reference_mode)
            except ValueError as exc:
                raise ValueError(f"snr_ref_db_grid: {exc}") from None
        if not (math.isfinite(self.beta_polar) and self.beta_polar > 0):
            raise ValueError(f"beta_polar must be finite and positive, got {self.beta_polar}")
        if len(self.schemes) == 0:
            raise ValueError("schemes is empty")
        unknown = set(self.schemes) - set(SCHEMES)
        if unknown:
            raise ValueError(f"unknown schemes: {sorted(unknown)}")
        repeated = sorted({s for s in self.schemes if self.schemes.count(s) > 1})
        if repeated:
            raise ValueError(f"schemes repeated: {repeated}")
        lo, hi = self.theta_range
        if not -1.0 <= lo < hi <= 1.0:
            raise ValueError(f"theta range {self.theta_range} must be increasing "
                             f"within [-1, 1]")
        r_fre, r_ray = region_boundaries(cfg)
        lo, hi = self.sampler().r_range
        if not (r_fre - 1e-9 <= lo < hi <= r_ray + 1e-9):
            raise ValueError(f"r range {(lo, hi)} must lie within [{r_fre:.3f}, {r_ray:.3f}]")

    def array(self) -> ArrayConfig:
        return ArrayConfig(self.n_antennas, self.carrier_hz)

    def estimator(self) -> EstimatorConfig:
        return EstimatorConfig(k=self.k, cluster_gap=self.cluster_gap,
                               rho2_fraction=self.rho2_fraction)

    def sampler(self) -> UserSampler:
        r_fre, r_ray = region_boundaries(self.array())
        rr = self.r_range if self.r_range is not None else (r_fre, min(100.0, r_ray))
        return UserSampler(theta_range=self.theta_range, r_range=rr)

    def as_header_dict(self) -> dict:
        from . import __version__

        cfg = self.array()
        s = self.sampler()
        r_fre, r_ray = region_boundaries(cfg)
        return {
            "artifact_version": __version__,
            "n_antennas": self.n_antennas,
            "carrier_hz": repr(self.carrier_hz),
            "snr_ref_db_grid": ",".join(repr(float(x)) for x in self.snr_ref_db_grid),
            "trials": self.trials,
            "seed": self.seed,
            "theta_range": f"{s.theta_range[0]!r}..{s.theta_range[1]!r}",
            "r_range": f"{s.r_range[0]!r}..{s.r_range[1]!r}",
            "m_users": self.m_users,
            "schemes": ",".join(self.schemes),
            "reference_mode": self.reference_mode,
            "k": self.k,
            "cluster_gap": self.cluster_gap,
            "rho2_fraction": repr(self.rho2_fraction),
            "beta_polar": repr(self.beta_polar),
            "z_mu_size": self.z_mu_size,
            "fresnel_m": repr(r_fre),
            "rayleigh_m": repr(r_ray),
        }


@dataclass
class MetricsRecord:
    scheme: str
    snr_ref_db: float
    nmse_theta: float | None = None
    nmse_r: float | None = None
    mean_rate: float | None = None
    outage_count: int = 0
    mean_pilot_count: float | None = None
    n_trials: int = 0


def user_rng_key(seed: int, trial: int) -> tuple:
    return (seed, 0, trial)


def noise_key(seed: int, trial: int, user: int | None = None) -> tuple:
    return (seed, 1, trial) if user is None else (seed, 1, trial, user)


class Trainer:
    """One scenario's array and estimator settings, with its codebooks
    built on first use; `train` dispatches through TRAININGS."""

    def __init__(self, sc: ScenarioConfig):
        self.sc = sc
        self.cfg = sc.array()
        self.ec = sc.estimator()

    @cached_property
    def codebook(self):
        return build_dft_codebook(self.cfg)

    @cached_property
    def polar(self):
        return build_polar_codebook(self.cfg, self.sc.beta_polar)

    @cached_property
    def z_mu(self):
        return default_z_mu_grid(self.cfg, self.sc.z_mu_size)

    def train(self, scheme: str, p: PolarPoint, noise: NoiseModel) -> LocationEstimate:
        return TRAININGS[scheme](self, p, noise)


@dataclass(frozen=True, slots=True)
class TrialRow:
    """One (trial, SNR point, scheme) outcome of `simulate`.

    `estimates` holds per-user (theta_hat, r_hat, pilot_count), or None
    when the trial is an outage for this scheme; the full-CSI row carries
    the true positions at zero pilots. `rates` holds per-user rates in
    the rate modes. Rows keep scalars only, no codewords.
    """

    trial: int
    snr_index: int
    scheme: str
    users: tuple[PolarPoint, ...]
    estimates: tuple[tuple[float, float, int], ...] | None
    rates: tuple[float, ...] | None = None


def _group_rates(cfg: ArrayConfig, users, labels, sigma2: float) -> tuple[float, ...]:
    """Per-user RZF rates on the true channels, precoded from `labels`."""
    v = multiuser_precode(cfg, labels, sigma2)
    return tuple(float(x) for x in multiuser_rate(cfg, users, v, sigma2))


def simulate(sc: ScenarioConfig, mode: str) -> Iterator[TrialRow]:
    """The trial loop: rows in trial -> SNR point -> scheme order.

    mode "nmse" trains one user per trial; "single" adds the single-user
    rates and a full-CSI row (matched filter) per SNR point; "multi"
    trains m_users users per trial under per-user noise keys and rates
    the group under RZF, with a full-CSI row precoded from the true
    positions. A scheme's row is an outage when any of its trainings
    finds an empty main set; a multi-user row, full CSI included, is also
    an outage when RZF finds its Gram matrix singular.
    """
    if mode not in ("nmse", "single", "multi"):
        raise ValueError(f"mode must be 'nmse', 'single' or 'multi', got {mode!r}")
    if mode == "multi" and sc.m_users > sc.n_antennas:
        raise ValueError(f"m_users = {sc.m_users} exceeds n_antennas = {sc.n_antennas}")
    trainer = Trainer(sc)
    cfg = trainer.cfg
    sampler = sc.sampler()
    sigma2s = [calibrate_noise(cfg, snr_db, sc.reference_mode) for snr_db in sc.snr_ref_db_grid]
    n_users = sc.m_users if mode == "multi" else 1
    for t in range(sc.trials):
        rng = np.random.default_rng(user_rng_key(sc.seed, t))
        users = tuple(sampler.sample(rng) for _ in range(n_users))
        keys = ([noise_key(sc.seed, t, u) for u in range(n_users)] if mode == "multi"
                else [noise_key(sc.seed, t)])
        noises = [NoiseModel(sigma2s[0], key) for key in keys]
        if mode == "single":
            h = los_channel(cfg, users[0])
            matched = h / np.linalg.norm(h)
        exact = tuple((p.theta, p.r, 0) for p in users)
        for i, sigma2 in enumerate(sigma2s):
            if mode == "single":
                rates = (single_user_rate(cfg, users[0], matched, sigma2),)
                yield TrialRow(t, i, FULL_CSI, users, exact, rates)
            elif mode == "multi":
                try:
                    rates = _group_rates(cfg, users, users, sigma2)
                except SingularChannelError:
                    yield TrialRow(t, i, FULL_CSI, users, None)
                else:
                    yield TrialRow(t, i, FULL_CSI, users, exact, rates)
            for scheme in sc.schemes:
                try:
                    ests = [trainer.train(scheme, p, noise.replay(sigma2))
                            for p, noise in zip(users, noises)]
                    rates = None
                    if mode == "single":
                        rates = (single_user_rate(cfg, users[0], ests[0].w, sigma2),)
                    elif mode == "multi":
                        labels = [PolarPoint(e.theta_hat, e.r_hat) for e in ests]
                        rates = _group_rates(cfg, users, labels, sigma2)
                except (EmptyMainSetError, SingularChannelError):
                    yield TrialRow(t, i, scheme, users, None)
                    continue
                yield TrialRow(t, i, scheme, users,
                               tuple((e.theta_hat, e.r_hat, e.pilot_count) for e in ests), rates)


def _records(sc: ScenarioConfig, rows: Iterable[TrialRow], fill) -> list[MetricsRecord]:
    """One record per (SNR point, scheme) in first-seen order; `fill`
    sets the metric fields from the non-outage rows, in trial order."""
    groups: dict[tuple[int, str], list[TrialRow]] = {}
    for row in rows:
        groups.setdefault((row.snr_index, row.scheme), []).append(row)
    records = []
    for (i, scheme), group in groups.items():
        ok = [r for r in group if r.estimates is not None]
        rec = MetricsRecord(scheme=scheme, snr_ref_db=float(sc.snr_ref_db_grid[i]),
                            outage_count=len(group) - len(ok), n_trials=len(ok))
        if ok:
            rec.mean_pilot_count = float(np.mean(
                [sum(e[2] for e in r.estimates) / len(r.estimates) for r in ok]))
            fill(rec, ok)
        records.append(rec)
    return records


def run_nmse_experiment(sc: ScenarioConfig,
                        rows: Iterable[TrialRow] | None = None) -> list[MetricsRecord]:
    """Angle and distance NMSE per (scheme, reference SNR), reduced from
    `rows` (default: a fresh `simulate(sc, "nmse")`).

    The NMSE denominators are the closed-form variances of the uniform
    samplers, not empirical ones, so the normalization is deterministic.
    Outage trials (empty main set) are excluded from the error sums and
    counted separately.
    """
    sampler = sc.sampler()

    def fill(rec, ok):
        se_t = float(np.sum([(r.users[0].theta - r.estimates[0][0]) ** 2 for r in ok]))
        se_r = float(np.sum([(r.users[0].r - r.estimates[0][1]) ** 2 for r in ok]))
        rec.nmse_theta = se_t / len(ok) / sampler.theta_variance
        rec.nmse_r = se_r / len(ok) / sampler.r_variance

    return _records(sc, simulate(sc, "nmse") if rows is None else rows, fill)


def run_rate_experiment(sc: ScenarioConfig, mode: str = "single",
                        rows: Iterable[TrialRow] | None = None) -> list[MetricsRecord]:
    """Achievable rate per (scheme, reference SNR), plus the full-CSI
    baseline, in single-user or multi-user (RZF, M users) mode, reduced
    from `rows` (default: a fresh `simulate(sc, mode)`)."""
    if mode not in ("single", "multi"):
        raise ValueError(f"mode must be 'single' or 'multi', got {mode!r}")

    def fill(rec, ok):
        rec.mean_rate = float(np.sum([np.mean(r.rates) for r in ok]) / len(ok))

    return _records(sc, simulate(sc, mode) if rows is None else rows, fill)


ESTIMATE_COLUMNS = ("snr_ref_db", "trial", "scheme", "theta", "r", "theta_hat", "r_hat",
                    "pilot_count")


def estimate_table(sc: ScenarioConfig, rows: Iterable[TrialRow]) -> Iterator[tuple]:
    """Per-trial estimates of single-user rows in (SNR point, trial,
    scheme) order; outage rows carry empty estimates."""
    for row in sorted(rows, key=lambda r: r.snr_index):
        p = row.users[0]
        est = row.estimates[0] if row.estimates is not None else (None, None, None)
        yield (float(sc.snr_ref_db_grid[row.snr_index]), row.trial, row.scheme, p.theta, p.r,
               *est)


USER_RATE_COLUMNS = ("snr_ref_db", "user", "theta", "r", "theta_hat", "r_hat", "sinr", "rate")


def user_rate_table(sc: ScenarioConfig, rows: Iterable[TrialRow], scheme: str) -> Iterator[tuple]:
    """Per-user estimates, SINRs and rates of trial 0 of one scheme, per
    SNR point; an outage leaves the estimate and rate fields empty."""
    for row in rows:
        if row.trial != 0 or row.scheme != scheme:
            continue
        snr_db = float(sc.snr_ref_db_grid[row.snr_index])
        for u, p in enumerate(row.users):
            if row.estimates is None:
                yield (snr_db, u, p.theta, p.r, None, None, None, None)
            else:
                rate = row.rates[u]
                yield (snr_db, u, p.theta, p.r, *row.estimates[u][:2], 2.0 ** rate - 1.0, rate)


@dataclass(frozen=True)
class OverheadRow:
    scheme: str
    pilots_measured: int
    pilots_formula: str
    pilots_expected: int
    distance_stage_evals: int


OVERHEAD_COLUMNS = tuple(f.name for f in fields(OverheadRow))


def overhead_report(sc: ScenarioConfig) -> list[OverheadRow]:
    """Measured pilot counts and distance-stage operation counts for a
    canonical noiseless training of each scheme.

    The probe user sits on a grid angle near broadside at a range with a
    wide plateau, so every scheme reaches its full candidate budget and
    the Table-style formulas are exercised exactly.
    """
    trainer = Trainer(sc)
    n = trainer.cfg.n_antennas
    _, r_ray = region_boundaries(trainer.cfg)
    probe = PolarPoint(float(trainer.codebook.angle_grid[n // 2]), 0.03 * r_ray)
    rows = []
    for scheme in sc.schemes:
        est = trainer.train(scheme, probe, NoiseModel(0.0, (sc.seed,)))
        if scheme in ("proposed", "joint"):
            formula, expected = "N+k", n + sc.k
        elif scheme == "fast":
            # distance pilots actually swept
            formula, expected = "N+k*S_cand", n + est.distance_stage_evals
        else:
            formula, expected = "N*S", len(trainer.polar)
        rows.append(OverheadRow(scheme, est.pilot_count, formula, expected,
                                est.distance_stage_evals))
    return rows


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(float(x))  # plain-float repr even for numpy scalars
    return str(x)


def write_csv(path, columns: Sequence[str], rows: Iterable[Sequence], header: dict) -> None:
    """CSV with a '# key=value' provenance block (sorted keys), then the
    column line and one line per row; floats at full precision, None as
    an empty field."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for key in sorted(header):
            f.write(f"# {key}={header[key]}\n")
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


RECORD_COLUMNS = tuple(f.name for f in fields(MetricsRecord))


def write_records_csv(path, records: Sequence[MetricsRecord], header: dict) -> None:
    write_csv(path, RECORD_COLUMNS, (astuple(r) for r in records), header)
