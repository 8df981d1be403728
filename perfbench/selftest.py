#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes; about a minute of CPU.

    python3 perfbench/selftest.py

Checks that every workload runs clean and emits every metric that
BENCHMARK.json declares, with tracing off and on; that a seed repeats its
output digest; that ``presentations`` pairs every op with both matrix
kinds and leaves the sympy oracle something to check; that a wrong answer injected into the library shows up in
the failure count of each workload; and that the benchmark refuses to run,
without printing a result, when the library's sources are missing.
"""

from __future__ import annotations

import contextlib
import json
import random
import shutil
import subprocess
import sys

import run

# one full pass over a short deck; census needs 40 rounds to reach every theorem
ROUNDS = {"census": 40, "bases": 1, "presentations": 1}


def _declared(kind: str) -> set[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


def _digest(lines: list[str]) -> str:
    return next(line.split()[-1] for line in lines if "output_sha256" in line)


@contextlib.contextmanager
def _patched(module, name: str, replacement):
    original = getattr(module, name)
    setattr(module, name, replacement(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def _flip_irreducible(original):
    from so3five.decide import Decision, Verdict

    def wrong(profile):
        d = original(profile)
        flipped = Verdict.NO if d.verdict is Verdict.YES else Verdict.YES
        return Decision(flipped, d.theorem, d.trace)

    return wrong


def _drop_torsion(original):
    from so3five.fgab import IntegerMatrix, SnfDecomposition

    def wrong(a):
        snf = original(a)
        rows = [list(r) for r in snf.D.entries]
        for i in range(min(a.rows, a.cols)):
            if rows[i][i] > 1:
                rows[i][i] = 1
        return SnfDecomposition(snf.U, IntegerMatrix.from_rows(rows) if rows else snf.D, snf.V)

    return wrong


def _never_found(original):
    return lambda *args, **kwargs: None


def _check_presentations_mix() -> None:
    import workloads

    pres = workloads.Presentations()
    mix: dict[tuple[str, bool], int] = {}
    for mode, _, known, _ in pres.generate(random.Random(5)):
        mix[mode, known is None] = mix.get((mode, known is None), 0) + 1
    for mode in ("inv", "snf", "proj"):
        assert mix[mode, True] == mix[mode, False] > 0, ("op and matrix kind are tied", mix)
    pres.rounds = ROUNDS["presentations"]
    deck = pres.generate(random.Random(5))
    kept = {i: pres.keep(pres.run(x)) for i, x in enumerate(deck) if x[0] == "inv"}
    assert workloads.sympy_sample(deck, kept), "the sympy oracle has nothing to check"
    print(f"selftest: presentations mixes op and matrix kind {mix}; sympy sample not empty")


def main() -> int:
    run._import_library()
    from so3five import constructors, decide, fgab

    _check_presentations_mix()

    for name in ("census", "bases", "presentations"):
        lines, result = run.run_workload(name, 5, 0.2, False, ROUNDS[name])
        assert result["correct"] and result["failed"] == 0, (name, lines)
        assert set(result["metrics"]) == _declared("end_to_end"), (name, result["metrics"])
        again, _ = run.run_workload(name, 5, 0.2, False, ROUNDS[name])
        assert _digest(lines) == _digest(again), (name, "digest does not repeat")
        lines, result = run.run_workload(name, 5, 0.2, True, ROUNDS[name])
        assert result["correct"], (name, lines)
        assert set(result["metrics"]) == _declared("per_layer"), (name, result["metrics"])
        print(f"selftest: {name} runs clean, metrics complete, digest repeats")

    faults = {
        "census": (decide, "decide_irreducible_so3", _flip_irreducible),
        "bases": (constructors, "find_euler_class", _never_found),
        "presentations": (fgab, "smith_normal_form", _drop_torsion),
    }
    for name, (module, attr, fault) in faults.items():
        with _patched(module, attr, fault):
            _, result = run.run_workload(name, 5, 0.2, False, ROUNDS[name])
        assert result["failed"] > 0 and not result["correct"], (name, "fault not detected")
        print(f"selftest: {name} counts an injected wrong answer "
              f"({result['failed']} of {result['attempted']} ops failed)")

    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert done.returncode != 0 and not done.stdout.strip(), done
    print("selftest: refuses to run without the library's sources")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
