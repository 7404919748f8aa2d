"""Command-line entry point.

Subcommands: pattern, train, nmse, rate-single, rate-multi, overhead,
codebook-dump. Scenario values come from an optional flat key=value
config file; command-line flags override file values, and the resolved
configuration is embedded in every output header. Exit codes: 0 success,
2 configuration error, 3 runtime failure. The default output directory
is $NFBEAM_OUT, else the current directory. The parser is built once,
at import (`PARSER`); each `main` call parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import types
import typing
from pathlib import Path

from numpy.linalg import LinAlgError

from .beampattern import sweep_pattern
from .channel import PolarPoint
from .codebooks import BETA_POLAR, ring_scale
from .errors import EmptyMainSetError, SingularChannelError
from .numerics import NoiseModel
from .simharness import (
    ESTIMATE_COLUMNS,
    OVERHEAD_COLUMNS,
    SCHEMES,
    USER_RATE_COLUMNS,
    ScenarioConfig,
    TRAININGS,
    calibrate_noise,
    estimate_table,
    noise_key,
    overhead_report,
    run_nmse_experiment,
    run_rate_experiment,
    simulate,
    user_rate_table,
    write_csv,
    write_records_csv,
)
from .svgplot import line_plot_svg

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

_FIELD_TYPES = typing.get_type_hints(ScenarioConfig)


class ConfigError(Exception):
    pass


def _parse_value(name: str, raw: str):
    """Coerce a config-file string to the type of ScenarioConfig field
    `name`; tuple fields take comma-separated items."""
    tp = _FIELD_TYPES[name]
    if typing.get_origin(tp) is types.UnionType:  # X | None
        tp = next(a for a in typing.get_args(tp) if a is not type(None))
    if typing.get_origin(tp) is not tuple:
        return tp(raw.strip())
    item_types = typing.get_args(tp)
    items = [x.strip() for x in raw.split(",") if x.strip()]
    if item_types[-1] is not Ellipsis and len(items) != len(item_types):
        raise ValueError(f"takes {len(item_types)} comma-separated values, got {raw.strip()!r}")
    return tuple(item_types[0](x) for x in items)


def load_config_file(path: str) -> dict:
    values = {}
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    for lineno, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key: {key}")
        try:
            values[key] = _parse_value(key, raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return values


def _scenario_from_args(args) -> ScenarioConfig:
    """The config file's values, each overridden by a flag given on the
    command line: flags store into ScenarioConfig field names."""
    values = load_config_file(args.config) if args.config else {}
    values.update({k: tuple(v) if isinstance(v, list) else v for k, v in vars(args).items()
                   if k in _FIELD_TYPES and v is not None})
    return ScenarioConfig(**values)


def _out_dir(args) -> Path:
    base = args.out or os.environ.get("NFBEAM_OUT") or "."
    p = Path(base)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _add_common(sub):
    sub.add_argument("--config", help="flat key=value scenario file")
    sub.add_argument("--out", help="output directory (default: $NFBEAM_OUT or .)")
    sub.add_argument("--N", type=int, dest="n_antennas", metavar="N", help="antenna count")
    sub.add_argument("--fc", type=float, dest="carrier_hz", metavar="FC",
                     help="carrier frequency in Hz")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--k", type=int, help="refinement candidate count")
    sub.add_argument("--reference-mode", choices=["total-energy", "per-antenna"],
                     dest="reference_mode")


def _add_schemes(sub):
    sub.add_argument("--schemes", type=lambda raw: _parse_value("schemes", raw),
                     help="comma list out of proposed,joint,fast,exhaustive")


def _add_grid(sub):
    """Flags of the Monte-Carlo grid, for the commands that simulate it."""
    sub.add_argument("--trials", type=int)
    sub.add_argument("--snr-db", type=float, nargs="+", dest="snr_ref_db_grid",
                     metavar="SNR_DB", help="reference SNR grid in dB")
    sub.add_argument("--theta-range", type=float, nargs=2, dest="theta_range")
    sub.add_argument("--r-range", type=float, nargs=2, dest="r_range")
    _add_schemes(sub)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="nfbeam",
                                 description="near-field DFT beam training simulations")
    sp = ap.add_subparsers(dest="command", required=True)

    pat = sp.add_parser("pattern", help="dump a sweep beam pattern")
    _add_common(pat)
    pat.add_argument("--svg", action="store_true", help="also write an SVG plot")
    pat.set_defaults(run=_cmd_pattern)
    pat.add_argument("--theta", type=float, required=True)
    pat.add_argument("--r", type=float, required=True)

    tr = sp.add_parser("train", help="run one beam training")
    _add_common(tr)
    tr.set_defaults(run=_cmd_train)
    tr.add_argument("--theta", type=float, required=True)
    tr.add_argument("--r", type=float, required=True)
    tr.add_argument("--scheme", default="proposed", choices=SCHEMES)
    tr.add_argument("--snr-ref-db", type=float, default=30.0)

    for name in ("nmse", "rate-single", "rate-multi"):
        s = sp.add_parser(name, help=f"run the {name} experiment")
        _add_common(s)
        _add_grid(s)
        s.add_argument("--svg", action="store_true", help="also write an SVG plot")
        s.set_defaults(run=_cmd_experiment)
        if name == "nmse":
            s.add_argument("--dump-estimates", action="store_true",
                           dest="dump_estimates",
                           help="also write per-trial estimates as CSV")
        if name == "rate-multi":
            s.add_argument("--M", type=int, dest="m_users", metavar="M",
                           help="users per group")
            s.add_argument("--dump-users", metavar="SCHEME", dest="dump_users",
                           help="also write a per-user rate breakdown CSV for "
                                "this scheme (trial 0)")

    ov = sp.add_parser("overhead", help="pilot overhead and complexity table")
    _add_common(ov)
    _add_schemes(ov)
    ov.set_defaults(run=_cmd_overhead)

    cd = sp.add_parser("codebook-dump", help="export a codebook as CSV")
    _add_common(cd)
    cd.set_defaults(run=_cmd_codebook_dump)
    cd.add_argument("--kind", choices=["dft", "polar"], default="dft")
    cd.add_argument("--beta-polar", type=float, dest="beta_polar",
                    help=f"polar codebook coherence parameter (default {BETA_POLAR})")
    return ap


def _cmd_pattern(args) -> int:
    sc = _scenario_from_args(args)
    cfg = sc.cfg
    p = PolarPoint(args.theta, args.r)
    book = sc.codebook
    raw, central = sweep_pattern(cfg, p, book)
    norm = raw / central  # normalized_pattern's bits
    grid = book.angle_grid
    out = _out_dir(args) / f"pattern_N{cfg.n_antennas}_theta{args.theta}_r{args.r}.csv"
    header = sc.as_header_dict()
    header.update({"theta": repr(args.theta), "r": repr(args.r),
                   "central_gain": repr(central)})
    write_csv(out, ("phi", "gain_raw", "gain_normalized"),
              zip(grid, raw, norm), header)
    print(f"wrote {out}")
    if args.svg:
        svg = line_plot_svg(
            {"raw": (grid, raw), "normalized": (grid, norm)},
            xlabel="spatial angle phi", ylabel="gain",
            title=f"sweep pattern, N={cfg.n_antennas}, theta={args.theta}, r={args.r} m")
        out_svg = out.with_suffix(".svg")
        out_svg.write_text(svg, encoding="utf-8")
        print(f"wrote {out_svg}")
    return EXIT_OK


def _cmd_train(args) -> int:
    sc = _scenario_from_args(args)
    p = PolarPoint(args.theta, args.r)
    sigma2 = calibrate_noise(sc.cfg, args.snr_ref_db, sc.reference_mode)
    est = TRAININGS[args.scheme](sc, p, NoiseModel(sigma2, noise_key(sc.seed, 0)))
    print(f"scheme={args.scheme} theta={p.theta!r} r={p.r!r} "
          f"theta_hat={est.theta_hat!r} r_hat={est.r_hat!r} pilots={est.pilot_count}")
    return EXIT_OK


def _records_svg(records, path, ykey, ylabel, log_y):
    series = {}
    for r in records:
        y = getattr(r, ykey)
        if y is None:
            continue
        series.setdefault(r.scheme, ([], []))
        series[r.scheme][0].append(r.snr_ref_db)
        series[r.scheme][1].append(y)
    path.write_text(line_plot_svg(series, xlabel="reference SNR (dB)", ylabel=ylabel,
                                  title=ylabel, log_y=log_y), encoding="utf-8")


def _cmd_experiment(args) -> int:
    """One simulation; the records, the SVG and the dumps all come from
    its rows."""
    sc = _scenario_from_args(args)
    scheme = getattr(args, "dump_users", None)
    if scheme and scheme not in sc.schemes:
        raise ConfigError(f"--dump-users scheme {scheme!r} not in {sc.schemes}")
    header = sc.as_header_dict()
    mode = {"nmse": "nmse", "rate-single": "single", "rate-multi": "multi"}[args.command]
    rows = list(simulate(sc, mode))
    out = _out_dir(args)
    if mode == "nmse":
        records = run_nmse_experiment(sc, rows)
        path = out / f"nmse_N{sc.n_antennas}_seed{sc.seed}.csv"
        plot = ("nmse_r", "distance NMSE", True)
    else:
        records = run_rate_experiment(sc, mode, rows)
        path = out / f"rate_{mode}_N{sc.n_antennas}_seed{sc.seed}.csv"
        plot = ("mean_rate", "achievable rate (bits/s/Hz)", False)
    write_records_csv(path, records, header)
    print(f"wrote {path}")
    if args.svg:
        _records_svg(records, path.with_suffix(".svg"), *plot)
        print(f"wrote {path.with_suffix('.svg')}")
    if getattr(args, "dump_estimates", False):
        est_path = out / f"estimates_N{sc.n_antennas}_seed{sc.seed}.csv"
        write_csv(est_path, ESTIMATE_COLUMNS, estimate_table(sc, rows), header)
        print(f"wrote {est_path}")
    if scheme:
        bk_path = out / f"rate_users_{scheme}_N{sc.n_antennas}_seed{sc.seed}.csv"
        write_csv(bk_path, USER_RATE_COLUMNS, user_rate_table(sc, rows, scheme), header)
        print(f"wrote {bk_path}")
    return EXIT_OK


def _cmd_overhead(args) -> int:
    sc = _scenario_from_args(args)
    rows = overhead_report(sc)
    out = _out_dir(args) / f"overhead_N{sc.n_antennas}_k{sc.k}.csv"
    write_csv(out, OVERHEAD_COLUMNS, rows, sc.as_header_dict())
    for r in rows:
        print(f"{r.scheme}: {r.pilots_measured} pilots ({r.pilots_formula} = "
              f"{r.pilots_expected}), distance-stage evals {r.distance_stage_evals}")
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_codebook_dump(args) -> int:
    sc = _scenario_from_args(args)
    cfg = sc.cfg
    if args.kind == "dft":
        book = sc.codebook
        out = _out_dir(args) / f"codebook_dft_N{cfg.n_antennas}.csv"
    else:
        book = sc.polar
        out = _out_dir(args) / f"codebook_polar_N{cfg.n_antennas}_beta{sc.beta_polar}.csv"
        print(f"ring scale Z = {ring_scale(cfg, sc.beta_polar)!r} m, "
              f"S = {book.avg_samples_per_angle!r} samples/angle")
    rows = ((i, "far" if math.isinf(r) else "near", t, r)
            for i, (t, r) in enumerate(zip(book.thetas, book.radii)))
    write_csv(out, ("index", "label", "theta", "r"), rows, sc.as_header_dict())
    print(f"wrote {out}")
    return EXIT_OK


PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the diagnostic
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.run(args)
    # LinAlgError (a ValueError) and OSError (the output path, a write) are runtime faults;
    # an EmptyGridError (a ValueError) follows from N, the carrier and beta_polar alone
    except (EmptyMainSetError, SingularChannelError, LinAlgError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
