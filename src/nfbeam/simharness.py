"""Monte-Carlo harness: scenario configuration, reference-SNR
calibration, one trial loop (`simulate`) whose rows every experiment
reduces or projects, the training overhead report, and the CSV writer.

Rows run trial -> SNR point -> scheme. A trial draws its user(s) once,
from the key (seed, 0, trial). Reproducibility contract: every
random stream is keyed by (seed, lane, trial [, user]) so results are
bit-identical across runs; the noise key omits the SNR index on purpose,
so one trial sees the same scaled noise at every SNR point (common
random numbers across the SNR grid). A trial builds one stream per key
and every (SNR point, scheme) training replays it from its first draw,
which makes the schemes see identical sweep noise within a trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .beamforming import multiuser_precode, multiuser_rate, single_user_rate
from .channel import (ArrayConfig, PolarPoint, _check_count, channel_from_steering, channel_gain,
                      los_channel, region_boundaries)
from .codebooks import (BETA_POLAR, FAR_FIELD, Codebook, build_dft_codebook, build_polar_codebook,
                        codewords, ring_scale)
from .errors import EmptyMainSetError, SingularChannelError
from .estimators import (
    Z_MU_SIZE,
    EstimatorConfig,
    Refinement,
    default_z_mu_grid,
    exhaustive_training,
    fast_training,
    joint_candidates,
    joint_training,
    proposed_candidates,
    proposed_training,
    refinement_pilots,
)
from .numerics import NoiseModel, norm

REFERENCE_POINT = PolarPoint(0.0, 5.0)  # calibration user for the reference SNR

TOTAL_ENERGY = "total-energy"
PER_ANTENNA = "per-antenna"

# Scheme name -> training call. The lambdas look the training functions up
# as module globals at call time, so rebinding those names (as
# bench/tracing.py does) reaches every training.
TRAININGS = {
    "proposed": lambda sc, p, noise: proposed_training(sc.cfg, p, noise, sc.ec, sc.codebook),
    "joint": lambda sc, p, noise: joint_training(sc.cfg, p, noise, sc.ec, sc.z_mu, sc.codebook),
    "fast": lambda sc, p, noise: fast_training(sc.cfg, p, noise, sc.ec, sc.polar, sc.codebook),
    "exhaustive": lambda sc, p, noise: exhaustive_training(sc.cfg, p, noise, sc.polar),
}
SCHEMES = tuple(TRAININGS)
# The candidate stages of the schemes that end in refinement pilots, which
# `simulate` runs in place of their trainings; looked up the same way.
CANDIDATE_STAGES = {
    "proposed": lambda sc, p, noise: proposed_candidates(sc.cfg, p, noise, sc.ec, sc.codebook),
    "joint": lambda sc, p, noise: joint_candidates(sc.cfg, p, noise, sc.ec, sc.z_mu,
                                                   sc.codebook),
}
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
class ScenarioConfig:
    n_antennas: int = 256
    carrier_hz: float = 100e9
    snr_ref_db_grid: tuple[float, ...] = tuple(range(4, 31, 2))
    trials: int = 200
    seed: int = 0
    theta_range: tuple[float, float] = (-0.8, 0.8)
    r_range: tuple[float, float] | None = None   # None: see r_bounds
    m_users: int = 10
    schemes: tuple[str, ...] = SCHEMES
    reference_mode: str = TOTAL_ENERGY
    k: int = EstimatorConfig.k
    cluster_gap: int = EstimatorConfig.cluster_gap
    rho2_fraction: float = EstimatorConfig.rho2_fraction
    beta_polar: float = BETA_POLAR
    z_mu_size: int = Z_MU_SIZE

    def __post_init__(self) -> None:
        cfg = self.cfg
        self.ec  # EstimatorConfig checks k, cluster_gap and rho2_fraction
        for name in ("trials", "m_users", "z_mu_size"):
            _check_count(name, getattr(self, name))
        _check_count("seed", self.seed, 0)
        if self.reference_mode not in (TOTAL_ENERGY, PER_ANTENNA):
            raise ValueError(f"unknown reference mode {self.reference_mode!r}")
        if len(self.snr_ref_db_grid) == 0:
            raise ValueError("snr_ref_db_grid is empty")
        try:
            self.sigma2s
        except ValueError as exc:
            raise ValueError(f"snr_ref_db_grid: {exc}") from None
        ring_scale(cfg, self.beta_polar)  # checks beta_polar
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
        lo, hi = self.r_bounds
        if not (r_fre - 1e-9 <= lo < hi <= r_ray + 1e-9):
            raise ValueError(f"r range {(lo, hi)} must lie within [{r_fre:.3f}, {r_ray:.3f}]")

    # Derived values, each computed on first use and kept in the instance
    # __dict__; __eq__ and __hash__ read only the fields.
    @cached_property
    def cfg(self) -> ArrayConfig:
        return ArrayConfig(self.n_antennas, self.carrier_hz)

    @cached_property
    def ec(self) -> EstimatorConfig:
        return EstimatorConfig(k=self.k, cluster_gap=self.cluster_gap,
                               rho2_fraction=self.rho2_fraction)

    @cached_property
    def r_bounds(self) -> tuple[float, float]:
        """The user box's distance range: r_range, else [R_Fre, min(100 m, R_Ray)],
        or the whole near field [R_Fre, R_Ray] where that is empty (R_Fre >= 100 m)."""
        if self.r_range is not None:
            return self.r_range
        r_fre, r_ray = region_boundaries(self.cfg)
        return (r_fre, min(100.0, r_ray) if r_fre < 100.0 else r_ray)

    @cached_property
    def sigma2s(self) -> tuple[float, ...]:
        """Noise power of each reference-SNR grid point."""
        return tuple(calibrate_noise(self.cfg, x, self.reference_mode)
                     for x in self.snr_ref_db_grid)

    @cached_property
    def codebook(self) -> Codebook:
        return build_dft_codebook(self.cfg)

    @cached_property
    def polar(self) -> Codebook:
        return build_polar_codebook(self.cfg, self.beta_polar)

    @cached_property
    def z_mu(self) -> np.ndarray:
        return default_z_mu_grid(self.cfg, self.z_mu_size)

    def draw_user(self, rng: np.random.Generator) -> PolarPoint:
        """A user uniform in the box: theta first, then r."""
        t = rng.uniform(*self.theta_range)
        r = rng.uniform(*self.r_bounds)
        return PolarPoint(float(t), float(r))

    def as_header_dict(self) -> dict:
        from . import __version__

        r_fre, r_ray = region_boundaries(self.cfg)
        return {
            "artifact_version": __version__,
            "n_antennas": self.n_antennas,
            "carrier_hz": repr(self.carrier_hz),
            "snr_ref_db_grid": ",".join(repr(float(x)) for x in self.snr_ref_db_grid),
            "trials": self.trials,
            "seed": self.seed,
            "theta_range": f"{self.theta_range[0]!r}..{self.theta_range[1]!r}",
            "r_range": f"{self.r_bounds[0]!r}..{self.r_bounds[1]!r}",
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


class MetricsRecord(NamedTuple):
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


def simulate(sc: ScenarioConfig, mode: str) -> Iterator[TrialRow]:
    """The trial loop: rows in trial -> SNR point -> scheme order.

    mode "nmse" trains one user per trial; "single" adds the single-user rates
    and a full-CSI row (matched filter) per SNR point; "multi" trains m_users
    users per trial under per-user noise keys and rates the group under RZF,
    with a full-CSI row precoded from the true channels. The memos, the one
    `lru_cache` (`los_channel`) and each codebook's last sweep, keep their last
    entry only, and one user at a time makes each miss once per user. A trial
    trains user by user, each user's trainings back to back: proposed's and
    joint's candidate stages (fast and exhaustive run whole), one `codewords`
    call for the labels the trial lacks (the user's candidates and, in a rate
    mode, fast's and exhaustive's picks), then the pilot stages; a rate mode
    then keeps the user's channel (a hit), so the rate stage looks none up, and
    the trial keeps its picks' codewords. Every row, the full-CSI row first at
    each SNR point, then goes through one step: it holds each user's estimate
    and beam, and it is an outage when any user's estimate is None (an empty
    main set) or RZF finds its Gram matrix singular; else the mode's rate
    function rates its beams. Single mode rates the one beam: the matched
    filter h/||h|| for full CSI, the pick's codeword for a scheme, that of
    (theta_hat, inf) for a far-field pick, else of (theta_hat, r_hat). Multi
    mode precodes the stacked beams under RZF: the true channels for full CSI,
    the label channels for a scheme, each built once per trial and label as
    `channel_from_steering` of the (theta_hat, r_hat) codeword.
    """
    if mode not in ("nmse", "single", "multi"):
        raise ValueError(f"mode must be 'nmse', 'single' or 'multi', got {mode!r}")
    if mode == "multi" and sc.m_users > sc.n_antennas:
        raise ValueError(f"m_users = {sc.m_users} exceeds n_antennas = {sc.n_antennas}")
    if {"fast", "exhaustive"} & set(sc.schemes):
        sc.polar  # an empty polar codebook (EmptyGridError) fails before any training
    cfg = sc.cfg

    def stage(scheme, p, noise):  # a Refinement or an estimate; None on an empty main set
        try:
            return CANDIDATE_STAGES.get(scheme, TRAININGS[scheme])(sc, p, noise)
        except EmptyMainSetError:
            return None

    def rate_label(e):  # the label whose codeword rates estimate e
        return e.theta_hat, FAR_FIELD if e.far_field and mode == "single" else e.r_hat

    def train(p, noise, kept):
        # -> ([i][j]: the estimate at SNR point i under scheme j, or None; in a
        # rate mode p's channel), and in a rate mode kept (label -> codeword of
        # the trial's picks) gains p's picks
        staged = [[stage(s, p, noise.replay(x)) for s in sc.schemes] for x in sc.sigma2s]
        done = [r for row in staged for r in row if r is not None]
        labels = [c for r in done if isinstance(r, Refinement) for c in r.cands] + [
            rate_label(e) for e in done if mode != "nmse" and not isinstance(e, Refinement)]
        words = {**kept, **codewords(cfg, [c for c in dict.fromkeys(labels) if c not in kept])}
        trained = [[refinement_pilots(cfg, p, r, words) if isinstance(r, Refinement) else r
                    for r in row] for row in staged]
        if mode == "nmse":
            return trained, None
        kept.update((rate_label(e), words[rate_label(e)])
                    for row in trained for e in row if e is not None)
        return trained, los_channel(cfg, p)

    for t in range(sc.trials):
        rng = np.random.default_rng(user_rng_key(sc.seed, t))
        users = tuple(sc.draw_user(rng) for _ in range(sc.m_users if mode == "multi" else 1))
        noises = [NoiseModel(sc.sigma2s[0], noise_key(sc.seed, t, u if mode == "multi" else None))
                  for u in range(len(users))]
        kept = {}
        # trained[u][i][j]: user u's estimate at SNR point i under scheme j, or None
        trained, hs = zip(*(train(p, noise, kept) for p, noise in zip(users, noises)))
        # Per mode: each pick's beam by rate label, the full-CSI row's beams and a
        # row's per-user rates from its beams; nmse mode has no beams, no full CSI
        beams, truth, rate = kept, (), lambda vs, sigma2: None
        if mode == "single":
            h = hs[0]
            truth = (h / norm(h),)  # the matched filter
            rate = lambda vs, sigma2: (single_user_rate(h, vs[0], sigma2),)
        elif mode == "multi":
            H = np.column_stack(hs)
            beams = {key: channel_from_steering(cfg, key[1], b) for key, b in kept.items()}
            truth = hs
            rate = lambda vs, sigma2: tuple(map(float, multiuser_rate(
                H, multiuser_precode(np.column_stack(vs), sigma2), sigma2)))
        exact = [((p.theta, p.r, 0), v) for p, v in zip(users, truth)]
        for i, sigma2 in enumerate(sc.sigma2s):
            # a row: its scheme and, per user, (estimate, beam), or None on an empty main set
            rows = [(FULL_CSI, exact)] if exact else []
            rows += [(s, [None if e is None else ((e.theta_hat, e.r_hat, e.pilot_count),
                                                  beams.get(rate_label(e)))
                          for e in (user[i][j] for user in trained)])
                     for j, s in enumerate(sc.schemes)]
            for scheme, picks in rows:
                ests = rates = None
                if all(pick is not None for pick in picks):
                    ests, vs = zip(*picks)
                    try:
                        rates = rate(vs, sigma2)
                    except SingularChannelError:
                        ests = None
                yield TrialRow(t, i, scheme, users, ests, rates)


def _records(sc: ScenarioConfig, rows: Iterable[TrialRow], metrics) -> list[MetricsRecord]:
    """One record per (SNR point, scheme) in first-seen order; `metrics`
    maps the non-outage rows, in trial order, to the metric fields."""
    groups: dict[tuple[int, str], list[TrialRow]] = {}
    for row in rows:
        groups.setdefault((row.snr_index, row.scheme), []).append(row)
    records = []
    for (i, scheme), group in groups.items():
        ok = [r for r in group if r.estimates is not None]
        values = {} if not ok else dict(metrics(ok), mean_pilot_count=float(np.mean(
            [sum(e[2] for e in r.estimates) / len(r.estimates) for r in ok])))
        records.append(MetricsRecord(scheme, float(sc.snr_ref_db_grid[i]), **values,
                                     outage_count=len(group) - len(ok), n_trials=len(ok)))
    return records


def run_nmse_experiment(sc: ScenarioConfig,
                        rows: Iterable[TrialRow] | None = None) -> list[MetricsRecord]:
    """Angle and distance NMSE per (scheme, reference SNR), reduced from
    `rows` (default: a fresh `simulate(sc, "nmse")`).

    The NMSE denominators are the closed-form variances (hi - lo)^2/12 of
    the uniform draws over the user box, not empirical ones, so the normalization is deterministic.
    Outage trials (empty main set) are excluded from the error sums and
    counted separately.
    """
    (t_lo, t_hi), (r_lo, r_hi) = sc.theta_range, sc.r_bounds

    def metrics(ok):
        se_t = float(np.sum([(r.users[0].theta - r.estimates[0][0]) ** 2 for r in ok]))
        se_r = float(np.sum([(r.users[0].r - r.estimates[0][1]) ** 2 for r in ok]))
        return dict(nmse_theta=se_t / len(ok) / ((t_hi - t_lo) ** 2 / 12.0),
                    nmse_r=se_r / len(ok) / ((r_hi - r_lo) ** 2 / 12.0))

    return _records(sc, simulate(sc, "nmse") if rows is None else rows, metrics)


def run_rate_experiment(sc: ScenarioConfig, mode: str = "single",
                        rows: Iterable[TrialRow] | None = None) -> list[MetricsRecord]:
    """Achievable rate per (scheme, reference SNR), plus the full-CSI
    baseline, in single-user or multi-user (RZF, M users) mode, reduced
    from `rows` (default: a fresh `simulate(sc, mode)`)."""
    if mode not in ("single", "multi"):
        raise ValueError(f"mode must be 'single' or 'multi', got {mode!r}")

    def metrics(ok):
        return dict(mean_rate=float(np.sum([np.mean(r.rates) for r in ok]) / len(ok)))

    return _records(sc, simulate(sc, mode) if rows is None else rows, metrics)


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


class OverheadRow(NamedTuple):
    scheme: str
    pilots_measured: int
    pilots_formula: str
    pilots_expected: int
    distance_stage_evals: int


OVERHEAD_COLUMNS = OverheadRow._fields


def overhead_report(sc: ScenarioConfig) -> list[OverheadRow]:
    """Measured pilot counts and distance-stage operation counts for a
    canonical noiseless training of each scheme.

    The probe user sits on a grid angle near broadside at a range with a
    wide plateau, so every scheme reaches its full candidate budget and
    the Table-style formulas are exercised exactly.
    """
    n = sc.n_antennas
    if {"fast", "exhaustive"} & set(sc.schemes):
        sc.polar  # as in simulate: an empty one fails before the first training
    _, r_ray = region_boundaries(sc.cfg)
    probe = PolarPoint(float(sc.codebook.angle_grid[n // 2]), 0.03 * r_ray)
    rows = []
    for scheme in sc.schemes:
        est = TRAININGS[scheme](sc, probe, NoiseModel(0.0, (sc.seed,)))
        if scheme in ("proposed", "joint"):
            formula, expected = "N+k", n + sc.k
        elif scheme == "fast":
            # S_cand: the polar entries at each candidate's grid angle
            grid_idx = [sc.codebook.nearest_index(t) for t, _, _ in est.candidates]
            formula, expected = "N+k*S_cand", n + int(sc.polar.angle_count[grid_idx].sum())
        else:
            formula, expected = "N*S", len(sc.polar)
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


RECORD_COLUMNS = MetricsRecord._fields


def write_records_csv(path, records: Sequence[MetricsRecord], header: dict) -> None:
    write_csv(path, RECORD_COLUMNS, records, header)
