"""The benchmark's four workloads.

Each workload is a closed loop with one caller: a pass is a fixed list of
calls made one after another, and each call returns before the next one
starts. Pass ``i`` of seed ``s`` always gets the same inputs, drawn by the
benchmark from ``(s, i)``; the package sees only those inputs (CLI
arguments, or user positions handed to library functions).

Why these four (each stresses layers the others bypass):

* nmse-desk: the NMSE CLI at desk scale. The per-trial redundancy lives
  here: each distinct user's LoS channel is rebuilt 56 times (2 schemes x
  14 SNR points x sweep and refinement). No polar codebook, no
  beamforming, no erf.
* rate-multi: the multi-user rate CLI, the only workload where
  beamforming (RZF precoding and per-user rates) carries real load; it
  also runs the fast and exhaustive baselines on a cache-resident polar
  codebook (896 entries, 3.5 MiB).
* pattern-grid: beam-pattern analysis at N = 512 through library calls,
  the only workload that calls the complex erf and the beampattern
  module; it bypasses estimators and simharness.
* train-xl: single trainings at N = 1024 against codebooks built once;
  the polar codebook (6516 entries, ~102 MiB) is about the size of the
  L3 cache, so the exhaustive baseline is memory-bound.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

CARRIER_HZ = 100e9
# Errors a training or analysis call may raise on a bad input draw; each
# counts as a failed op and the run goes on.
OP_ERRORS = (ValueError, RuntimeError)
# The NMSE ordering of criterion 6 is checked as "proposed is not worse than
# joint by more than this many standard errors of the paired per-call
# difference": the schemes' angle estimates differ in under 1% of trials,
# so a strict ordering of two near-equal means flips with the seed.
PAIRED_SE_LIMIT = 3.0


@dataclass
class CallResult:
    """One call into the package, timed from outside."""

    ops: int
    failed: int
    wall_s: float
    cpu_s: float
    output: object            # compared across reruns; None when the call failed
    csv_bytes: int = 0
    error: str = ""


def call_seed(seed: int, pass_index: int, call_index: int) -> int:
    """CLI --seed of one call, derived from the benchmark seed."""
    return int(np.random.SeedSequence([seed, pass_index, call_index]).generate_state(1)[0])


def draw_users(nf, seed: int, pass_index: int, count: int,
               theta_range: tuple[float, float], r_range: tuple[float, float]) -> list:
    """User positions of one pass, uniform in the box, from (seed, pass)."""
    rng = np.random.default_rng([seed, pass_index])
    thetas = rng.uniform(*theta_range, size=count)
    radii = rng.uniform(*r_range, size=count)
    return [nf.PolarPoint(float(t), float(r)) for t, r in zip(thetas, radii)]


def _timed(fn):
    w0, c0 = time.perf_counter(), time.process_time()
    out = fn()
    return out, time.perf_counter() - w0, time.process_time() - c0


RECORD_COLUMNS = ["scheme", "snr_ref_db", "nmse_theta", "nmse_r", "mean_rate",
                  "outage_count", "mean_pilot_count", "n_trials"]


def parse_records_csv(data: bytes) -> list[dict]:
    """Rows of a records CSV (``# key=value`` header, then the table).

    Raises ValueError when the header, columns or numbers are malformed.
    """
    lines = data.decode("utf-8").splitlines()
    body = [ln for ln in lines if not ln.startswith("# ")]
    if len(body) == len(lines) or "=" not in lines[0]:
        raise ValueError("missing '# key=value' provenance header")
    reader = csv.reader(body)
    if next(reader) != RECORD_COLUMNS:
        raise ValueError("unexpected CSV columns")
    rows = []
    for rec in reader:
        if len(rec) != len(RECORD_COLUMNS):
            raise ValueError(f"bad CSV row {rec!r}")
        row = dict(zip(RECORD_COLUMNS, rec))
        for key in RECORD_COLUMNS[1:]:
            row[key] = float(row[key]) if row[key] != "" else None
        rows.append(row)
    if not rows:
        raise ValueError("CSV has no records")
    return rows


class Workload:
    name = ""
    why = ""
    n_antennas = 0
    tail_pct = 90.0        # preferred tail level; see stats.tail_level

    def builders(self, nf) -> dict[str, Callable[[], object]]:
        """Public builders whose cost is set-up, by name."""
        raise NotImplementedError

    def setup(self, nf, built: dict) -> None:
        """Keep the objects built by ``builders`` for the passes."""

    def pass_calls(self, nf, seed: int, pass_index: int) -> list[Callable[[], CallResult]]:
        raise NotImplementedError

    def accuracy(self, results: list[CallResult]) -> tuple[dict, dict]:
        """(metrics, checks) over the calls of the check window.

        metrics maps name -> (value, unit, better); checks maps name ->
        (ok, detail).
        """
        raise NotImplementedError

    def polar_mb(self) -> float:
        return 0.0


class CliWorkload(Workload):
    """One call is ``nfbeam.cli.main([...])`` in process, writing one CSV."""

    trials = 1
    calls_per_pass = 1
    uses_polar = False

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self._polar_mb = 0.0

    def argv(self, nf, seed: int) -> list[str]:
        raise NotImplementedError

    def ops_per_call(self) -> int:
        raise NotImplementedError

    def failed_ops(self, rows: list[dict]) -> int:
        raise NotImplementedError

    def pass_calls(self, nf, seed, pass_index):
        return [lambda s=call_seed(seed, pass_index, j): self.run_cli(nf, self.argv(nf, s))
                for j in range(self.calls_per_pass)]

    def run_cli(self, nf, argv: list[str]) -> CallResult:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for stale in self.out_dir.glob("*.csv"):
            stale.unlink()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc, wall, cpu = _timed(lambda: nf.cli.main(argv + ["--out", str(self.out_dir)]))
        ops = self.ops_per_call()
        csvs = sorted(self.out_dir.glob("*.csv"))
        if rc != 0 or len(csvs) != 1:
            return CallResult(ops, ops, wall, cpu, None,
                              error=f"cli exit {rc}: {sink.getvalue().strip()[-200:]}")
        data = csvs[0].read_bytes()
        csvs[0].unlink()
        try:
            rows = parse_records_csv(data)
        except ValueError as exc:
            return CallResult(ops, ops, wall, cpu, None, error=f"csv: {exc}")
        return CallResult(ops, self.failed_ops(rows), wall, cpu, (data, rows),
                          csv_bytes=len(data))

    def builders(self, nf):
        cfg = nf.ArrayConfig(self.n_antennas, CARRIER_HZ)
        out = {"build_dft_codebook": lambda: nf.build_dft_codebook(cfg),
               "default_z_mu_grid": lambda: nf.default_z_mu_grid(cfg)}
        if self.uses_polar:
            out["build_polar_codebook"] = lambda: nf.build_polar_codebook(cfg)
        return out

    def setup(self, nf, built):
        if "build_polar_codebook" in built:
            self._polar_mb = built["build_polar_codebook"].matrix.nbytes / 2**20

    def polar_mb(self):
        return self._polar_mb

    def region(self, nf) -> tuple[float, float]:
        return nf.region_boundaries(nf.ArrayConfig(self.n_antennas, CARRIER_HZ))


def _pooled(results: list[CallResult], value_key: str) -> dict:
    """Trial-weighted mean of one CSV column per (scheme, snr) over calls."""
    sums: dict = {}
    for res in results:
        for row in res.output[1]:
            if row[value_key] is None:
                continue
            key = (row["scheme"], row["snr_ref_db"])
            acc = sums.setdefault(key, [0.0, 0.0])
            acc[0] += row[value_key] * row["n_trials"]
            acc[1] += row["n_trials"]
    return {k: s / n for k, (s, n) in sums.items() if n > 0}


class NmseDesk(CliWorkload):
    name = "nmse-desk"
    why = ("NMSE CLI at N=256: per-trial redundancy (56 LoS channel builds per user) "
           "is what the trial-major engine removes; no polar codebook, beamforming or erf")
    n_antennas = 256
    trials = 5
    calls_per_pass = 6
    tail_pct = 95.0
    snr_grid = tuple(range(4, 31, 2))
    schemes = ("proposed", "joint")

    def argv(self, nf, seed):
        r_fre, r_ray = self.region(nf)
        return ["nmse", "--N", str(self.n_antennas), "--trials", str(self.trials),
                "--seed", str(seed), "--schemes", ",".join(self.schemes),
                "--snr-db", *(str(x) for x in self.snr_grid),
                "--reference-mode", "total-energy", "--theta-range", "-0.6", "0.6",
                "--r-range", repr(r_fre), repr(0.04 * r_ray)]

    def ops_per_call(self):
        return self.trials * len(self.snr_grid) * len(self.schemes)

    def failed_ops(self, rows):
        return int(sum(r["outage_count"] for r in rows))

    def accuracy(self, results):
        top = float(max(self.snr_grid))
        metrics = {}
        checks = {}
        for col, name, unit_name in (("nmse_theta", "nmse_theta_db", "theta"),
                                     ("nmse_r", "nmse_r_db", "r")):
            pooled = _pooled(results, col)
            prop, joint = pooled[("proposed", top)], pooled[("joint", top)]
            metrics[name] = (10 * math.log10(prop), "dB", "lower")
            # Paired per-call differences at the top SNR point: both schemes
            # see the same users and sweep noise in a call.
            diffs = [_row(r, "proposed", top)[col] - _row(r, "joint", top)[col]
                     for r in results]
            mean = statistics.fmean(diffs)
            se = statistics.stdev(diffs) / math.sqrt(len(diffs))
            checks[f"nmse_{unit_name}_proposed_not_worse_than_joint"] = (
                mean <= PAIRED_SE_LIMIT * se,
                f"at {top:g} dB proposed {prop:.4e} vs joint {joint:.4e} "
                f"(strict ordering {'holds' if prop < joint else 'does not hold'}); "
                f"paired mean difference {mean:.3e} <= {PAIRED_SE_LIMIT:g} x SE {se:.3e}")
        return metrics, checks


def _row(result: CallResult, scheme: str, snr: float) -> dict:
    return next(r for r in result.output[1]
                if r["scheme"] == scheme and r["snr_ref_db"] == snr)


class RateMulti(CliWorkload):
    name = "rate-multi"
    why = ("multi-user rate CLI at N=256, M=10, all four schemes: the only load on "
           "RZF precoding and per-user rates; fast/exhaustive on a cache-resident polar book")
    n_antennas = 256
    trials = 1
    calls_per_pass = 4
    tail_pct = 90.0
    m_users = 10
    snr_grid = (4, 10, 16, 22, 30)
    n_schemes = 4
    uses_polar = True

    def argv(self, nf, seed):
        r_fre, r_ray = self.region(nf)
        return ["rate-multi", "--N", str(self.n_antennas), "--M", str(self.m_users),
                "--trials", str(self.trials), "--seed", str(seed),
                "--snr-db", *(str(x) for x in self.snr_grid),
                "--reference-mode", "per-antenna", "--theta-range", "-0.8", "0.8",
                "--r-range", repr(r_fre), repr(0.05 * r_ray)]

    def ops_per_call(self):
        return self.trials * len(self.snr_grid) * self.n_schemes * self.m_users

    def failed_ops(self, rows):
        # an outage drops the whole user group of that scheme and trial
        return int(sum(r["outage_count"] for r in rows if r["scheme"] != "full-csi")) * self.m_users

    def accuracy(self, results):
        rate = _pooled(results, "mean_rate")
        by_snr: dict = {}
        for (scheme, snr), v in rate.items():
            by_snr.setdefault(snr, {})[scheme] = v
        worst = min(d["full-csi"] - max(v for k, v in d.items() if k != "full-csi")
                    for d in by_snr.values())
        top = float(max(self.snr_grid))
        metrics = {"rate_bps_hz": (by_snr[top]["proposed"], "bit/s/Hz", "higher")}
        checks = {"full_csi_strictly_highest": (
            worst > 0, f"smallest full-CSI margin over the best scheme {worst:.4f} bit/s/Hz")}
        return metrics, checks


class LibraryWorkload(Workload):
    users_per_pass = 1
    theta_range = (-0.8, 0.8)

    def r_range(self, nf) -> tuple[float, float]:
        raise NotImplementedError

    def users(self, nf, seed, pass_index):
        return draw_users(nf, seed, pass_index, self.users_per_pass,
                          self.theta_range, self.r_range(nf))


def _op(fn) -> CallResult:
    """Run one library op, counting a raised package error as a failure."""
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        out = fn()
    except OP_ERRORS as exc:
        return CallResult(1, 1, time.perf_counter() - w0, time.process_time() - c0, None,
                          error=f"{type(exc).__name__}: {exc}")
    return CallResult(1, 0, time.perf_counter() - w0, time.process_time() - c0, out)


class PatternGrid(LibraryWorkload):
    name = "pattern-grid"
    why = ("beam-pattern analysis at N=512 via library calls: the only load on erf "
           "and beampattern; bypasses estimators and simharness")
    n_antennas = 512
    users_per_pass = 48
    tail_pct = 99.0
    phi_window = 0.2
    # width_err_max is reported over alpha >= 2; the 10% gate applies from
    # alpha >= 4, where the law holds on random users (between 2 and 4 the
    # measured width misses the law by up to ~15% for some angles).
    alpha_reported = 2.0
    alpha_gated = 4.0

    def r_range(self, nf):
        r_fre, _ = nf.region_boundaries(nf.ArrayConfig(self.n_antennas, CARRIER_HZ))
        return (r_fre, 64.0)

    def builders(self, nf):
        cfg = nf.ArrayConfig(self.n_antennas, CARRIER_HZ)
        return {"build_dft_codebook": lambda: nf.build_dft_codebook(cfg)}

    def setup(self, nf, built):
        self.book = built["build_dft_codebook"]
        self.cfg = self.book.cfg

    def analyse(self, nf, p):
        """Pattern, widths and the closed-form check of criterion 1 for one user."""
        cfg, book = self.cfg, self.book
        pat = nf.normalized_pattern(cfg, p, book)
        width = nf.interpolated_width(pat, 0.5)
        grid_width = nf.measure_width(pat, 0.5).width
        law = nf.closed_form_width(cfg, p)
        alpha = nf.AlphaBeta.from_geometry(cfg, p, p.theta).alpha
        phis = book.angle_grid[np.abs(book.angle_grid - p.theta) <= self.phi_window]
        cf_err = max(abs(nf.closed_form_f(nf.AlphaBeta.from_geometry(cfg, p, float(phi)))
                         - nf.taylor_f(cfg, p, float(phi))) for phi in phis)
        return (alpha, width, grid_width, law, cf_err)

    def pass_calls(self, nf, seed, pass_index):
        return [lambda p=p: _op(lambda: self.analyse(nf, p))
                for p in self.users(nf, seed, pass_index)]

    def accuracy(self, results):
        outs = [r.output for r in results]
        cf = max(o[4] for o in outs)

        def worst(alpha_min):
            errs = [abs(o[1] - o[3]) / o[3] for o in outs if o[0] >= alpha_min]
            return (max(errs) if errs else 0.0), len(errs)

        werr, n_rep = worst(self.alpha_reported)
        gated, n_gated = worst(self.alpha_gated)
        metrics = {"cf_err_max": (cf, "abs", "lower"),
                   "width_err_max": (werr, "rel", "lower")}
        checks = {
            "cf_err_max_le_0.03": (cf <= 0.03, f"max |closed_form_f - taylor_f| = {cf:.3e}"),
            "width_law_within_10pct": (
                gated <= 0.10,
                f"worst {gated:.2%} over {n_gated} users with alpha >= {self.alpha_gated:g} "
                f"(ungated: {werr:.2%} over {n_rep} users with alpha >= "
                f"{self.alpha_reported:g}, of {len(outs)})"),
        }
        return metrics, checks


class TrainXl(LibraryWorkload):
    name = "train-xl"
    why = ("single trainings at N=1024 against codebooks built once: polar book ~L3-sized, "
           "exhaustive memory-bound; guards single-call latency and memory")
    n_antennas = 1024
    users_per_pass = 32
    tail_pct = 99.0
    snr_ref_db = 20.0
    schemes = ("proposed", "joint", "fast", "exhaustive")

    def r_range(self, nf):
        r_fre, _ = nf.region_boundaries(nf.ArrayConfig(self.n_antennas, CARRIER_HZ))
        return (r_fre, 100.0)

    def builders(self, nf):
        cfg = nf.ArrayConfig(self.n_antennas, CARRIER_HZ)
        return {"build_dft_codebook": lambda: nf.build_dft_codebook(cfg),
                "build_polar_codebook": lambda: nf.build_polar_codebook(cfg),
                "default_z_mu_grid": lambda: nf.default_z_mu_grid(cfg)}

    def setup(self, nf, built):
        self.book = built["build_dft_codebook"]
        self.polar = built["build_polar_codebook"]
        self.z_mu = built["default_z_mu_grid"]
        self.cfg = self.book.cfg
        self.ec = nf.EstimatorConfig()
        self.sigma2 = nf.calibrate_noise(self.cfg, self.snr_ref_db, "per-antenna")

    def polar_mb(self):
        return self.polar.matrix.nbytes / 2**20

    def train(self, nf, scheme, p, key):
        cfg, ec = self.cfg, self.ec
        noise = nf.NoiseModel(self.sigma2, key)
        if scheme == "proposed":
            est = nf.proposed_training(cfg, p, noise, ec, self.book)
        elif scheme == "joint":
            est = nf.joint_training(cfg, p, noise, ec, self.z_mu, self.book)
        elif scheme == "fast":
            est = nf.fast_training(cfg, p, noise, ec, self.polar, self.book)
        else:
            est = nf.exhaustive_training(cfg, p, noise, self.polar)
        return (p.theta, est.theta_hat, est.r_hat, est.pilot_count)

    def pass_calls(self, nf, seed, pass_index):
        return [lambda s=s, p=p, key=(seed, pass_index, u): _op(lambda: self.train(nf, s, p, key))
                for u, p in enumerate(self.users(nf, seed, pass_index))
                for s in self.schemes]

    def accuracy(self, results):
        outs = [r.output for r in results]
        hits = sum(abs(o[1] - o[0]) <= 4 / self.n_antennas for o in outs)
        frac = hits / len(results)
        metrics = {"angle_hit_frac": (frac, "ratio", "higher")}
        checks = {"angle_hit_frac_ge_0.99": (
            frac >= 0.99, f"{hits} of {len(results)} trainings within 4/N")}
        return metrics, checks


def make_workloads(out_dir: Path) -> dict[str, Workload]:
    return {w.name: w for w in (NmseDesk(out_dir / "nmse-desk"),
                                RateMulti(out_dir / "rate-multi"),
                                PatternGrid(), TrainXl())}
