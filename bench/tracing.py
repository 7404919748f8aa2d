"""Span tracing at nfbeam's module boundaries, installed from outside.

The package is not edited. While a Tracer is installed, every binding of
a traced function in any ``nfbeam`` module namespace (the defining
module, each module that imported the name, and the package itself) is
rebound to a wrapper that records a span; NoiseModel's constructor and
``sample`` method are patched on the class. Leaving the context restores
every original binding.

A span is (name, start, end, parent span, op id). Spans stay in memory
per traced pass; per-layer metrics are derived from them afterwards.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, function) pairs traced at every binding site.
FUNCTIONS = (
    ("numerics", "erf_complex"),
    ("channel", "los_channel"),
    ("channel", "near_field_steering"),
    ("codebooks", "build_dft_codebook"),
    ("codebooks", "build_polar_codebook"),
    ("beampattern", "normalized_pattern"),
    ("beampattern", "interpolated_width"),
    ("beampattern", "measure_width"),
    ("beampattern", "closed_form_width"),
    ("beampattern", "closed_form_f"),
    ("beampattern", "taylor_f"),
    ("estimators", "beam_sweep"),
    ("estimators", "estimate_angle"),
    ("estimators", "estimate_distance"),
    ("estimators", "proposed_training"),
    ("estimators", "joint_training"),
    ("estimators", "fast_training"),
    ("estimators", "exhaustive_training"),
    ("beamforming", "multiuser_precode"),
    ("beamforming", "multiuser_rate"),
    ("beamforming", "single_user_rate"),
    ("simharness", "run_nmse_experiment"),
    ("simharness", "run_rate_experiment"),
    ("simharness", "write_records_csv"),
    ("cli", "main"),
)
# Span names of the patched NoiseModel methods.
NOISE_INIT = "numerics.NoiseModel"
NOISE_SAMPLE = "numerics.NoiseModel.sample"

SPAN_NAMES = tuple(f"{m}.{f}" for m, f in FUNCTIONS) + (NOISE_INIT, NOISE_SAMPLE)
TRAININGS = tuple(f"estimators.{s}_training" for s in ("proposed", "joint", "fast", "exhaustive"))
WIDTH_SPANS = ("beampattern.interpolated_width", "beampattern.measure_width",
               "beampattern.closed_form_width")
SIMHARNESS_SPANS = tuple(n for n in SPAN_NAMES if n.startswith("simharness."))

# Extra per-layer metrics beyond calls / self_s / per_call_us of each span.
EXTRA_METRICS = (
    ("channel.los_channel.per_op", "count", "lower"),
    ("channel.los_channel.useful_ratio", "ratio", "higher"),
    ("estimators.beam_sweep.gflop", "GFLOP", "lower"),
    ("estimators.beam_sweep.mb", "MB", "lower"),
    ("estimators.beam_sweep.useful_ratio", "ratio", "higher"),
    ("estimators.outages", "count", "lower"),
    ("codebooks.build_dft_codebook.s", "s", "lower"),
    ("codebooks.build_polar_codebook.s", "s", "lower"),
    ("codebooks.builds", "count", "lower"),
    ("codebooks.polar_mb", "MiB", "lower"),
    ("codebooks.polar_mb_over_l3", "ratio", "lower"),
    ("beamforming.singular", "count", "lower"),
    ("beampattern.pattern.self_s", "s", "lower"),
    ("beampattern.width.self_s", "s", "lower"),
    ("simharness.self_s", "s", "lower"),
    ("simharness.csv_bytes", "bytes", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def span_metric_names(name: str) -> tuple[tuple[str, str, str], ...]:
    count = "constructs" if name == NOISE_INIT else "calls"
    return ((f"{name}.{count}", "count", "lower"), (f"{name}.self_s", "s", "lower"),
            (f"{name}.per_call_us", "us", "lower"))


# (name, unit, better) of every per-layer metric a traced run reports.
LAYER_METRICS = tuple(m for n in SPAN_NAMES for m in span_metric_names(n)) + EXTRA_METRICS


@dataclass
class PassTrace:
    """Spans and boundary counters of one traced pass."""

    spans: list = field(default_factory=list)   # [name, start, end, parent, op]
    counters: Counter = field(default_factory=Counter)
    positions: set = field(default_factory=set)  # distinct los_channel users
    sweeps: set = field(default_factory=set)     # distinct noiseless sweeps


class Tracer:
    def __init__(self) -> None:
        self.passes: list[PassTrace] = []
        self.op = 0
        self._stack: list[int] = []

    def begin_pass(self) -> None:
        self.passes.append(PassTrace())

    def _record(self, name, fn, hook=None):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            cur = self.passes[-1]
            spans = cur.spans
            idx = len(spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, clock(), 0.0, parent, self.op]
            spans.append(span)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                cur.counters[("raised", name, type(exc).__name__)] += 1
                raise
            finally:
                span[2] = clock()
                self._stack.pop()
            if hook is not None:
                hook(cur, args)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    @contextmanager
    def installed(self):
        """Rebind every traced name in every loaded nfbeam module."""
        import nfbeam.numerics

        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "nfbeam" or k.startswith("nfbeam."))]
        undo = []
        try:
            for mod_name, fn_name in FUNCTIONS:
                original = getattr(sys.modules[f"nfbeam.{mod_name}"], fn_name)
                wrapper = self._record(f"{mod_name}.{fn_name}", original,
                                       _HOOKS.get(f"{mod_name}.{fn_name}"))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, value))
                            setattr(mod, key, wrapper)
            cls = nfbeam.numerics.NoiseModel
            for attr, name in (("__init__", NOISE_INIT), ("sample", NOISE_SAMPLE)):
                original = cls.__dict__[attr]
                undo.append((cls, attr, original))
                setattr(cls, attr, self._record(name, original))
            yield self
        finally:
            for owner, key, value in reversed(undo):
                setattr(owner, key, value)


def _los_hook(cur: PassTrace, args) -> None:
    p = args[1]
    cur.positions.add((p.theta, p.r))


def _sweep_hook(cur: PassTrace, args) -> None:
    _, p, codebook = args[:3]
    n, c = codebook.matrix.shape
    cur.counters["sweep_flop"] += 8 * n * c
    cur.counters["sweep_bytes"] += 16 * n * c
    cur.sweeps.add((p.theta, p.r, id(codebook)))


_HOOKS = {"channel.los_channel": _los_hook, "estimators.beam_sweep": _sweep_hook}


def write_spans(pt: PassTrace, path) -> None:
    """One CSV row per span: index, name, start, end, parent, op, self time."""
    path.parent.mkdir(parents=True, exist_ok=True)
    t0 = pt.spans[0][1] if pt.spans else 0.0
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("span,name,start_s,end_s,parent,op,self_s\n")
        for i, ((name, start, end, parent, op), st) in enumerate(zip(pt.spans, self_times(pt.spans))):
            f.write(f"{i},{name},{start - t0!r},{end - t0!r},{parent},{op},{st!r}\n")


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus the durations of direct children.

    Spans are nested (single thread), so children never overlap and the
    direct children's durations are the covered part of the interval.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def pass_summary(pt: PassTrace, ops: int) -> dict:
    """Per-layer counts and self times of one traced pass."""
    selfs = self_times(pt.spans)
    calls = Counter()
    self_s = Counter()
    for span, st in zip(pt.spans, selfs):
        calls[span[0]] += 1
        self_s[span[0]] += st
    raised = pt.counters
    outages = sum(raised[("raised", t, "EmptyMainSetError")] for t in TRAININGS)
    los = calls["channel.los_channel"]
    sweeps = calls["estimators.beam_sweep"]
    return {
        "calls": calls,
        "self_s": self_s,
        "extra": {
            "channel.los_channel.per_op": los / ops if ops else 0.0,
            "channel.los_channel.useful_ratio": len(pt.positions) / los if los else 0.0,
            "estimators.beam_sweep.gflop": raised["sweep_flop"] / 1e9,
            "estimators.beam_sweep.mb": raised["sweep_bytes"] / 1e6,
            "estimators.beam_sweep.useful_ratio": len(pt.sweeps) / sweeps if sweeps else 0.0,
            "estimators.outages": outages,
            "codebooks.builds": calls["codebooks.build_dft_codebook"]
            + calls["codebooks.build_polar_codebook"],
            "beamforming.singular": raised[("raised", "beamforming.multiuser_precode",
                                            "SingularChannelError")],
            "beampattern.pattern.self_s": self_s["beampattern.normalized_pattern"],
            "beampattern.width.self_s": sum(self_s[n] for n in WIDTH_SPANS),
            "simharness.self_s": sum(self_s[n] for n in SIMHARNESS_SPANS),
            "trace.spans": len(pt.spans),
        },
    }


def layer_metrics(tracer: Tracer, ops_per_pass: int) -> dict[str, float]:
    """Span-derived per-layer metrics: counts from the first traced pass
    (every traced pass runs the same inputs), times as medians over
    passes, per_call_us as the median inclusive duration of all calls."""
    summaries = [pass_summary(pt, ops_per_pass) for pt in tracer.passes]
    durations: dict[str, list[float]] = {n: [] for n in SPAN_NAMES}
    for pt in tracer.passes:
        for name, start, end, _, _ in pt.spans:
            durations[name].append(end - start)
    first = summaries[0]
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        count_key, self_key, call_key = (m[0] for m in span_metric_names(name))
        out[count_key] = first["calls"][name]
        out[self_key] = statistics.median(s["self_s"][name] for s in summaries)
        out[call_key] = statistics.median(durations[name]) * 1e6 if durations[name] else 0.0
    for key, value in first["extra"].items():
        if key.endswith("self_s"):
            value = statistics.median(s["extra"][key] for s in summaries)
        out[key] = value
    return out
