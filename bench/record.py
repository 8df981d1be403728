#!/usr/bin/env python3
"""Record one checkout's benchmark figures as ``BENCH_<commit>.json``.

Usage, from anywhere:

    python3 bench/record.py --checkout PATH --seed 7 --seconds 10 [--out DIR]

It runs ``perfbench/run.py --workload all`` in the checkout twice, with
``--trace 0`` (end-to-end metrics) and ``--trace 1`` (per-layer metrics),
one after the other.  It times nothing itself: it reads each run's last
standard-output line, the JSON result, and the ``output_sha256`` line that
the end-to-end run prints for each workload.  The record holds the
checkout's commit, the Python version, the seed and the seconds, the
two commands as run (the interpreter, the one running this script,
written as ``python3``), every metric with its unit grouped by workload,
and each workload's digest.  The file is named after the commit's short hash
and goes to ``--out``, by default the root of the repository this script
sits in.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse(stdout: str) -> tuple[dict, dict[str, str]]:
    """run.py's result, its last line, and each workload's output_sha256."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("run.py printed nothing")
    result = json.loads(lines[-1])
    digests: dict[str, str] = {}
    workload = None
    for line in lines[:-1]:
        if line.startswith("workload "):
            workload = line.split()[1]
        elif line.strip().startswith("output_sha256 ") and workload is not None:
            digests[workload] = line.split()[1]
    return result, digests


def by_workload(metrics: dict) -> dict[str, dict]:
    """Split ``run_all``'s ``<workload>.<metric>`` keys into one table per workload."""
    out: dict[str, dict] = {}
    for key, metric in sorted(metrics.items()):
        workload, _, name = key.partition(".")
        out.setdefault(workload, {})[name] = {"value": metric["value"], "unit": metric["unit"]}
    return out


def command(seed: int, seconds: float, trace: int) -> list[str]:
    """run.py and its arguments, run from the checkout's root."""
    return ["perfbench/run.py", "--workload", "all", "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]


def assemble(commit: str, python: str, seed: int, seconds: float,
             plain_stdout: str, traced_stdout: str) -> dict:
    """The record, from the stdout of a ``--trace 0`` and a ``--trace 1`` run."""
    plain, digests = parse(plain_stdout)
    traced, _ = parse(traced_stdout)
    return {
        "commit": commit,
        "python": python,
        "seed": seed,
        "seconds": seconds,
        "command": {f"trace{t}": " ".join(["python3", *command(seed, seconds, t)]) for t in (0, 1)},
        "correct": plain["correct"] and traced["correct"],
        "attempted": {"trace0": plain["attempted"], "trace1": traced["attempted"]},
        "failed": {"trace0": plain["failed"], "trace1": traced["failed"]},
        "end_to_end": by_workload(plain["metrics"]),
        "per_layer": by_workload(traced["metrics"]),
        "output_sha256": digests,
    }


def run(checkout: Path, seed: int, seconds: float, trace: int) -> str:
    cmd = [sys.executable, *command(seed, seconds, trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"record: {' '.join(cmd)} exited {done.returncode}: {done.stderr.strip()}")
    return done.stdout


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=ROOT)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    git = ["git", "-C", str(args.checkout), "rev-parse", "HEAD"]
    commit = subprocess.run(git, capture_output=True, text=True, check=True).stdout.strip()
    plain = run(args.checkout, args.seed, args.seconds, 0)
    traced = run(args.checkout, args.seed, args.seconds, 1)
    record = assemble(commit, platform.python_version(), args.seed, args.seconds, plain, traced)
    path = args.out / f"BENCH_{commit[:7]}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
