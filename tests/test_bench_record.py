"""``bench/record.py`` reads run.py's output into a BENCH record.

The recorder is fed canned ``run.py --workload all`` output, so no
benchmark runs here and no timing is asserted; ``perfbench/selftest.py``
is the end-to-end check of the benchmark itself.
"""

import importlib.util
import json
from pathlib import Path

import pytest

RECORD = Path(__file__).resolve().parents[1] / "bench" / "record.py"


@pytest.fixture(scope="module")
def record():
    spec = importlib.util.spec_from_file_location("bench_record", RECORD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned(trace: int, metrics: dict) -> str:
    lines = []
    for workload in ("census", "presentations"):
        lines.append(f"workload {workload}  seed 7  seconds 10  trace {trace}  deck 480")
        lines.append(f"  {'error_rate':40s} {0:14.6g} (0 failed / 960 attempted)")
        if not trace:
            lines.append(f"  output_sha256 {workload[:3] * 21}0")
    result = {"correct": True, "attempted": 1920, "failed": 0, "metrics": metrics}
    return "\n".join(lines) + "\n" + json.dumps(result, sort_keys=True) + "\n"


PLAIN = canned(0, {
    "census.throughput_ops_s": {"value": 812.5, "unit": "ops/s"},
    "presentations.throughput_ops_s": {"value": 551.0, "unit": "ops/s"},
    "presentations.peak_rss_mb": {"value": 31.2, "unit": "MB"},
})
TRACED = canned(1, {
    "presentations.fgab.snf.calls": {"value": 120, "unit": "count"},
    "presentations.fgab.snf.max_coeff_bits": {"value": 3108, "unit": "bits"},
})


def test_parse_reads_the_last_line_and_the_digests(record):
    result, digests = record.parse(PLAIN)
    assert result["attempted"] == 1920
    assert digests == {"census": "cen" * 21 + "0", "presentations": "pre" * 21 + "0"}
    assert record.parse(TRACED)[1] == {}


def test_parse_refuses_output_without_a_result(record):
    with pytest.raises(ValueError):
        record.parse("")
    with pytest.raises(json.JSONDecodeError):
        record.parse("workload census\n  output_sha256 abc\n")


def test_record_groups_metrics_by_workload_with_units(record):
    out = record.assemble("abc1234" + "0" * 33, "3.11.2", 7, 10.0, PLAIN, TRACED)
    assert json.loads(json.dumps(out)) == out
    assert {k: out[k] for k in ("python", "seed", "seconds", "correct")} == {
        "python": "3.11.2", "seed": 7, "seconds": 10.0, "correct": True,
    }
    assert out["end_to_end"]["presentations"] == {
        "throughput_ops_s": {"value": 551.0, "unit": "ops/s"},
        "peak_rss_mb": {"value": 31.2, "unit": "MB"},
    }
    # per-layer names keep their own dots; only the workload prefix splits off
    assert out["per_layer"]["presentations"]["fgab.snf.max_coeff_bits"] == {"value": 3108, "unit": "bits"}
    assert set(out["output_sha256"]) == {"census", "presentations"}
    assert out["failed"] == {"trace0": 0, "trace1": 0}


def test_a_failed_run_marks_the_record(record):
    wrong = PLAIN.replace('"correct": true', '"correct": false')
    assert record.assemble("y", "3", 7, 10.0, wrong, TRACED)["correct"] is False


def test_the_record_states_the_commands_run(record):
    out = record.assemble("y", "3", 7, 0.5, PLAIN, TRACED)
    assert out["command"] == {f"trace{t}": " ".join(["python3", *record.command(7, 0.5, t)]) for t in (0, 1)}
    assert out["command"]["trace1"] == "python3 perfbench/run.py --workload all --seed 7 --seconds 0.5 --trace 1"
