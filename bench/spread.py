"""Run-to-run spread of the benchmark, and the BENCH_<n>.json ledger.

    python3 bench/spread.py --seeds 0-9 --seconds 20 [--workloads nmse-desk,train-xl]
                            [--ledger bench/BENCH_1.json --label "what this entry measures"]

Runs each workload once per seed in a fresh process (``--trace 0``),
then prints, per end-to-end metric, the median, the quartiles and the
spread (Q3 - Q1) / median next to the metric's bound in BENCHMARK.json.
With ``--ledger`` it also makes one traced run per workload (first seed)
and writes every figure, the environment and the accuracy values to the
ledger file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import stats  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run_bench.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    for line in lines:
        for tag in ("env", "info"):
            if line.startswith(tag + " "):
                out[tag] = json.loads(line[len(tag) + 1:])
    return out


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": stats.quartile_spread(values), "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--ledger", type=Path)
    ap.add_argument("--label", default="")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ledger = {"label": args.label, "seeds": seeds, "seconds": args.seconds, "workloads": {}}
    steady = True
    for name in args.workloads.split(","):
        runs = [run_once(name, s, args.seconds, 0) for s in seeds]
        entry = {"end_to_end": {}, "accuracy": {},
                 "correct": all(r["correct"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs)}
        print(f"{name}: {len(runs)} runs, correct {entry['correct']}, "
              f"failed {entry['failed']}/{entry['attempted']}")
        for metric, bound in bounds.items():
            s = summarize([r["metrics"][metric]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][metric]["unit"]
            entry["end_to_end"][metric] = s
            ok = metric == "setup_s" or s["spread"] < bound / 3
            steady &= ok
            print(f"  {metric:16s} median {s['median']:.6g} {s['unit']:5s} "
                  f"IQR/median {s['spread']:.4f} (bound {bound}, limit {bound / 3:.4f})"
                  f"{'' if ok else '  <-- too wide'}")
            print("      values " + " ".join(f"{v:.6g}" for v in s["values"]))
        for key in runs[0]["info"]["accuracy"]:
            entry["accuracy"][key] = summarize([r["info"]["accuracy"][key] for r in runs])
        if args.ledger:
            traced = run_once(name, seeds[0], args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer_seed"] = seeds[0]
            ledger["env"] = runs[0]["env"]
        ledger["workloads"][name] = entry
    if args.ledger:
        args.ledger.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.ledger}")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
