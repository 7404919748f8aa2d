"""Committed output fingerprints: one sha256 per CLI invocation.

Each invocation runs `nfbeam.cli.main` in process with a fresh output
directory. Its fingerprint hashes the exit code, stdout with the output
directory masked, and each written file's name and bytes in name order.
`golden.json` maps each invocation to its fingerprint and records the
numpy version and OpenBLAS configuration the table was written under.

    python tests/golden.py            # compare this tree against the table
    python tests/golden.py --write    # regenerate the table

A change that keeps every output byte leaves the table as it is; a
change that moves bits regenerates it and names every changed entry.
Needs only the standard library and the package (on PYTHONPATH or
installed).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np

from nfbeam.cli import main as cli_main

TABLE = Path(__file__).with_name("golden.json")

INVOCATIONS = (
    "nmse --N 64 --trials 4 --dump-estimates",
    "nmse --N 63 --trials 4 --reference-mode per-antenna",
    "nmse --N 64 --trials 2 --svg",
    # each user's refinement codewords span several steering-formula blocks
    "nmse --N 1024 --trials 2 --snr-db 4 16 30 --dump-estimates",
    "rate-single --N 64 --trials 4",
    "rate-multi --N 64 --M 4 --trials 2 --dump-users fast",
    "rate-multi --N 127 --M 6 --trials 1 --dump-users exhaustive",
    "rate-multi --N 128 --M 80 --trials 1 --snr-db 4 30 --dump-users proposed",
    "overhead --N 256",
    "codebook-dump --kind dft --N 64",
    "codebook-dump --kind polar --N 64",
    "pattern --N 64 --theta 0.2 --r 10 --svg",
    "train --N 256 --theta 0.2 --r 10 --scheme fast",
    "train --N 63 --theta 0.3 --r 1000 --scheme exhaustive",
)


def environment() -> dict:
    """The numpy version and OpenBLAS build string; OpenBLAS picks its
    kernels per CPU, so a table holds only under the same pair."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "openblas configuration": blas.get("openblas configuration")}


def fingerprint(invocation: str) -> str:
    h = hashlib.sha256()

    def feed(chunk: bytes) -> None:  # length-prefixed, so chunks cannot run together
        h.update(len(chunk).to_bytes(8, "little") + chunk)

    with tempfile.TemporaryDirectory() as out:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli_main([*shlex.split(invocation), "--out", out])
        feed(str(code).encode())
        feed(stdout.getvalue().replace(out, "<out>").encode())
        for path in sorted(Path(out).iterdir()):
            feed(path.name.encode())
            feed(path.read_bytes())
    return h.hexdigest()


def table() -> dict:
    return {"environment": environment(),
            "fingerprints": {argv: fingerprint(argv) for argv in INVOCATIONS}}


def differences(recorded: dict, current: dict) -> list[str]:
    """One line per environment key, invocation or fingerprint that differs."""
    lines = []
    env_a, env_b = recorded["environment"], current["environment"]
    for key in sorted(env_a.keys() | env_b.keys()):
        if env_a.get(key) != env_b.get(key):
            lines.append(f"environment {key}: table {env_a.get(key)!r}, "
                         f"here {env_b.get(key)!r}")
    fp_a, fp_b = recorded["fingerprints"], current["fingerprints"]
    for argv in sorted(fp_a.keys() | fp_b.keys()):
        if fp_a.get(argv) != fp_b.get(argv):
            lines.append(f"{argv}: table {fp_a.get(argv)}, here {fp_b.get(argv)}")
    return lines


def main(argv: list[str]) -> int:
    if argv not in ([], ["--write"]):
        print(__doc__, file=sys.stderr)
        return 2
    current = table()
    if argv:
        TABLE.write_text(json.dumps(current, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {TABLE}")
        return 0
    lines = differences(json.loads(TABLE.read_text(encoding="utf-8")), current)
    print("\n".join(lines) or f"all {len(INVOCATIONS)} fingerprints match")
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
