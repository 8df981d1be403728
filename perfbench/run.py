#!/usr/bin/env python3
"""so3five benchmark: closed-loop workloads over the library, one client.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload census --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Workloads (see workloads.py and README.md): ``census``, ``bases`` and
``presentations``; ``all`` runs the three in turn, each in its own process.
One process drives one op at a time on one thread, and each op starts when
the previous one has returned.  The seed makes the inputs; the library only
ever sees those inputs.

With ``--trace 0`` the run reports the end-to-end metrics.  Their times
are scaled to a host of fixed speed: every op and every set-up is timed
beside a fixed pure-Python reference computation (``reference_s``), and
its time is multiplied by REF_S over the reference's time around it.  With
``--trace 1`` it reports the per-layer metrics instead: it runs whole
passes over the deck, each op untraced and then again with span tracing
installed (tracing.py), reports the layers' numbers per pass, and writes
the spans to ``perfbench/out/``.  BENCHMARK.json names the metrics of
each kind of run and their units.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when a result was printed and 2 when the
run could not start (for example, without the library's sources).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 6  # set-ups before the measured loop, and again after it
MIN_PASSES = 3  # every deck position runs at least this often in a measured run
REF_EVERY = 0.05  # seconds of op time between two samples of the reference
REF_WINDOW = 2  # reference samples taken on each side of an op that scale it
REF_S = 100e-6  # the reference's typical time on the reference host, in seconds
COLD_START_REPEATS = 5
CHUNK_SECONDS = 0.5
# the CPUs this process may run on; passes and set-ups take them in turn
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    if not (SRC / "so3five" / "__init__.py").is_file():
        _fail(f"no library sources at {SRC.name}/so3five; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import so3five

    if Path(so3five.__file__).resolve().parent != (SRC / "so3five").resolve():
        _fail(f"so3five was imported from {so3five.__file__}, not from this checkout")
    import workloads

    return workloads


# ---------------------------------------------------------------------------
# set-up, host reference, cold start
# ---------------------------------------------------------------------------


def pin(i: int) -> None:
    """Run this process, and the processes it starts, on the i-th of CPUS,
    counting round.  On a shared host one CPU can stay slow for tens of
    seconds while another is calm; taking the CPUs in turn gives every
    median a sample on each, and keeps an op and the reference samples
    that scale it on one CPU."""
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[i % len(CPUS)]})


def unpin() -> None:
    if len(CPUS) > 1:
        os.sched_setaffinity(0, CPUS)


_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import so3five; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time of ``import so3five`` in a fresh interpreter, start-up excluded."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, cwd=ROOT, timeout=60, check=True,
    )
    return float(done.stdout)


def setup(workload, seed: int, cpu: int) -> tuple[list, float, float]:
    """One set-up on the ``cpu``-th CPU: import, seeded generation and
    warm-up; (deck, seconds, seconds scaled to the reference host)."""
    pin(cpu)
    try:
        before = [reference_s() for _ in range(REF_WINDOW)]
        imported = import_seconds()
        t0 = perf_counter()
        deck = workload.generate(random.Random(seed))
        for x in workload.warmup(deck):
            workload.run(x)
        seconds = imported + perf_counter() - t0
        after = [reference_s() for _ in range(REF_WINDOW)]
        return deck, seconds, seconds * REF_S / statistics.median(before + after)
    finally:
        unpin()


_REF_MATRIX = [[(i * 7 + j * 13) % 19 - 9 + 10 * (i == j) for j in range(9)] for i in range(9)]


def reference_s() -> float:
    """Seconds taken by a fixed pure-Python computation that does not use
    the library: fraction-free elimination of a 9x9 integer matrix, twice.
    Like the library, it indexes lists of lists and multiplies and divides
    integers, so the host's slow and fast stretches move it as they move
    the ops; about REF_S on the reference host."""
    t = perf_counter()
    for _ in range(2):
        a = [row[:] for row in _REF_MATRIX]
        prev = 1
        for k in range(len(a) - 1):
            for i in range(k + 1, len(a)):
                for j in range(k + 1, len(a)):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
        {frozenset((i, a[i][i])): i for i in range(len(a))}
    return perf_counter() - t


def host_ref_ms() -> float:
    """A fixed pure-Python integer loop; it moves only when the host does."""
    t = perf_counter()
    x = 0
    for i in range(200_000):
        x = (x * 31 + i) % 1_000_003
    return (perf_counter() - t) * 1000


def cold_start_ms() -> tuple[float, list[str]]:
    """Median wall time of a fresh ``so3five decide`` process, output checked."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "so3five.cli", "decide", "irreducible-so3", "--catalog", "wu"]
    times, bad = [], []
    for _ in range(COLD_START_REPEATS):
        t = perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env, timeout=60)
        times.append((perf_counter() - t) * 1000)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or lines[:2] != ["verdict: Yes", "theorem: Cor 1.5(b)/Thm 1.4(b)"]:
            bad.append(f"cold start: exit {done.returncode}, output {lines[:2]}")
    return statistics.median(times), bad


# ---------------------------------------------------------------------------
# the measured loop
# ---------------------------------------------------------------------------


class Outcomes:
    """What the loop learnt about each deck position, across loops."""

    def __init__(self, size: int) -> None:
        self.digest: list[str | None] = [None] * size
        self.problems: list[list[str]] = [[] for _ in range(size)]
        self.wrong: dict[int, str] = {}
        self.kept: dict[int, object] = {}

    def output_sha256(self) -> str | None:
        if any(d is None for d in self.digest):
            return None
        return hashlib.sha256("\n".join(self.digest).encode()).hexdigest()


def measure(workload, deck, outcomes: Outcomes, seconds: float, *, passes: int = 0,
            start: int = 0, limit: int | None = None, tracer=None,
            scaled: bool = False) -> dict:
    """Run deck ops in order from position ``start``, cycling, until
    ``seconds`` of op time have passed and every position ran ``passes``
    times, or until ``limit`` ops ran, whichever comes first.  Only
    ``workload.run`` is timed; each output is rendered, compared with
    earlier runs of the same position and checked by the oracle between
    ops.

    With ``scaled``, each pass over the deck runs on the next CPU, and the
    reference is timed before the first op and after every REF_EVERY
    seconds of op time.  Each op's latency is then scaled by REF_S over
    the median of the REF_WINDOW reference samples on either side of it,
    and ``scaled`` holds each position's scaled latencies."""
    latencies: list[float] = []
    by_position: list[list[tuple[float, int]]] = [[] for _ in deck]
    refs = [reference_s()] if scaled else []
    since_ref = 0.0
    failed = 0
    busy = 0.0
    n = 0
    while True:
        if limit is not None and n >= limit:
            break
        if busy >= seconds and n >= passes * len(deck):
            break
        k = (start + n) % len(deck)
        if scaled and k == 0:
            pin((start + n) // len(deck))
        x = deck[k]
        error = None
        t0 = perf_counter()
        try:
            out = workload.run(x) if tracer is None else tracer.run_op(workload.run, x)
        except Exception as exc:  # an op that raises is a failed op
            error = f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        latencies.append(t1 - t0)
        busy += t1 - t0
        n += 1
        if error is None:
            error = _judge(workload, k, x, out, outcomes)
        if error is not None:
            failed += 1
            outcomes.wrong.setdefault(k, error)
        if scaled:
            # the op lies between refs[-1] and the next sample
            by_position[k].append((t1 - t0, len(refs)))
            since_ref += t1 - t0
            if since_ref >= REF_EVERY:
                refs.append(reference_s())
                since_ref = 0.0
    result = {"latencies": latencies, "busy": busy, "attempted": n, "failed": failed}
    if scaled:
        unpin()
        refs.append(reference_s())
        window = [
            statistics.median(refs[max(0, c - REF_WINDOW):c + REF_WINDOW])
            for c in range(1, len(refs))
        ]
        result["refs"] = refs
        result["scaled"] = [[t * REF_S / window[c - 1] for t, c in samples]
                            for samples in by_position]
    return result


def measure_traced(workload, deck, outcomes: Outcomes, seconds: float,
                   tracer) -> tuple[dict, dict, int]:
    """Whole passes over the deck, so that the traced ops are the same
    whatever the speed.  Within a pass, ops run untraced and then again
    traced, in chunks of about CHUNK_SECONDS, so that host drift hits both
    sides alike.  Passes go on until ``seconds`` of op time, both sides
    together, have passed; there is always at least one."""
    plain = {"busy": 0.0, "attempted": 0, "failed": 0}
    traced = dict(plain)
    passes = 0
    while passes == 0 or plain["busy"] + traced["busy"] < seconds:
        pin(passes)
        start = 0
        while start < len(deck):
            chunk = measure(workload, deck, outcomes, CHUNK_SECONDS, start=start,
                            limit=len(deck) - start)
            tracer.install()
            try:
                again = measure(workload, deck, outcomes, float("inf"), start=start,
                                limit=chunk["attempted"], tracer=tracer)
            finally:
                tracer.uninstall()
            for total, part in ((plain, chunk), (traced, again)):
                for key in total:
                    total[key] += part[key]
            start += chunk["attempted"]
        passes += 1
    unpin()
    return plain, traced, passes


def _judge(workload, k: int, x, out, outcomes: Outcomes) -> str | None:
    """None when the output is right; otherwise what is wrong with it.
    The oracle checks a position's first output; later outputs of the
    same position must render to the same digest."""
    try:
        digest = hashlib.sha256(workload.canonical(x, out).encode()).hexdigest()
        if outcomes.digest[k] is None:
            outcomes.problems[k] = workload.check(x, out)
            outcomes.digest[k] = digest
            outcomes.kept[k] = workload.keep(out)
    except Exception as exc:  # an output the oracle cannot read is wrong
        return f"oracle: {type(exc).__name__}: {exc}"
    problems = list(outcomes.problems[k])
    if outcomes.digest[k] != digest:
        problems.append("output differs from an earlier run of the same input")
    return "; ".join(problems) if problems else None


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 rounds: int | None = None) -> tuple[list[str], dict]:
    """Run one workload; returns (report lines, result object)."""
    workloads = _import_library()
    workload = workloads.WORKLOADS[name]
    if rounds is not None:
        workload.rounds = rounds
    deck, *first = setup(workload, seed, 0)
    setups = [first] + [setup(workload, seed, i)[1:] for i in range(1, SETUP_REPEATS)]
    outcomes = Outcomes(len(deck))
    lines = [f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}  deck {len(deck)}"]
    ref = [host_ref_ms() for _ in range(3)]
    problems: list[str] = []
    if not trace:
        loop = measure(workload, deck, outcomes, seconds, passes=MIN_PASSES, scaled=True)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # each deck position's median scaled latency
        typical = [statistics.median(v) for v in loop["scaled"]]
        values = {
            "throughput_ops_s": len(typical) / sum(typical),
            "latency_p50_ms": statistics.median(typical) * 1000,
            "latency_p90_ms": _quantile(typical, 90) * 1000,
            "peak_rss_mb": peak_rss_mb,
        }
        lat, refs = loop["latencies"], loop["refs"]
        lines.append(
            f"  as run, unscaled, {len(lat)} ops: {len(lat) / loop['busy']:.6g} ops/s, p50 "
            f"{statistics.median(lat) * 1000:.6g} ms, p90 {_quantile(lat, 90) * 1000:.6g} ms"
            + (f", p99 {_quantile(lat, 99) * 1000:.6g} ms" if len(lat) >= 1000 else "")
        )
        lines.append(
            f"  reference: {len(refs)} samples, median {statistics.median(refs) * 1e6:.6g} us, "
            f"quartiles {', '.join(f'{q * 1e6:.6g}' for q in statistics.quantiles(refs, n=4)[::2])} us; "
            f"scaled to {REF_S * 1e6:g} us"
        )
        attempted, failed = loop["attempted"], loop["failed"]
        setups += [setup(workload, seed, i)[1:] for i in range(SETUP_REPEATS)]
        values["setup_s"] = statistics.median(scaled for _, scaled in setups)
        lines.append(f"  setup_s unscaled, median of {len(setups)}: "
                     f"{statistics.median(s for s, _ in setups):.6g} s")
    else:
        cold_ms, bad = cold_start_ms()
        problems += bad
        tracer = tracing.Tracer()
        plain, traced, passes = measure_traced(workload, deck, outcomes, seconds, tracer)
        values = tracer.layer_metrics(passes)
        values["cli.cold_start_ms"] = cold_ms
        values["trace.overhead_ratio"] = traced["busy"] / plain["busy"]
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{name}.csv.gz"
        tracer.write(spans_path)
        lines.append(f"  {passes} passes of {len(deck)} ops; counts and self times are per pass")
        lines.append(f"  spans {len(tracer.start)} written to {spans_path.relative_to(ROOT)}")
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
    ref += [host_ref_ms() for _ in range(3)]
    values["host.ref_ms"] = statistics.median(ref)
    problems += workload.finish(deck, outcomes.kept)
    for k, error in sorted(outcomes.wrong.items())[:5]:
        problems.append(f"deck[{k}]: {error}")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for metric, m in metrics.items():
        lines.append(f"  {metric:40s} {m['value']:14.6g} {m['unit']}")
    if not trace:
        lines.append(f"  {'host.ref_ms':40s} {values['host.ref_ms']:14.6g} ms")
    lines.append(f"  {'error_rate':40s} {failed / attempted:14.6g} ({failed} failed / {attempted} attempted)")
    if not trace:
        lines.append(f"  output_sha256 {outcomes.output_sha256()}")
    lines.extend(f"  problem: {p}" for p in problems)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return lines, result


def run_all(seed: int, seconds: float, trace: bool) -> tuple[list[str], dict]:
    """Every workload in its own process; metrics are prefixed by workload."""
    lines: list[str] = []
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("census", "bases", "presentations"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
        out = done.stdout.splitlines()
        if done.returncode != 0 or not out:
            _fail(f"workload {name} exited {done.returncode}: {done.stderr.strip()}")
        lines.extend(out[:-1])
        result = json.loads(out[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return lines, merged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["census", "bases", "presentations", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        lines, result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        lines, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
