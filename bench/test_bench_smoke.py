"""Smoke test of the benchmark harness itself.

Not part of the tier-1 suite (``testpaths = ["tests"]``); run it with
``python -m pytest bench/ -q``.  At ``--scale 0.05`` all five workloads,
both passes and the microbenchmarks finish in well under 30 s.
"""

import json
import math
import time

import pytest

import run

SPEC = run.SPEC
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SCALE = "0.05"
STARTED = time.perf_counter()


def measure(capsys, workload, seed, trace):
    """One harness invocation; returns (exit code, printed lines)."""
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.05", "--scale", SCALE,
                     "--trace", str(trace)])
    return code, capsys.readouterr().out.splitlines()


def check_emitted(lines, section):
    """Every declared metric once, finite, with its unit — both in the
    table a person reads and in the JSON line the driver reads."""
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(declared)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == declared[name], name
        assert math.isfinite(entry["value"]), name
    table = [line.split() for line in lines[:-1] if not line.startswith("#")]
    for name, unit in declared.items():
        rows = [cells for cells in table if cells[0] == name]
        assert len(rows) == 1, f"{name} printed {len(rows)} times"
        assert rows[0][2] == unit and rows[0][3] in ("wall", "simulated")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def simulated_only(metrics):
    return {k: v for k, v in metrics.items() if k not in run.WALL_METRICS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_pass(capsys, workload):
    code, lines = measure(capsys, workload, seed=1, trace=0)
    assert code == 0, "\n".join(lines)
    first = check_emitted(lines, "end_to_end")
    assert all(value > 0 for value in first.values())

    _, lines = measure(capsys, workload, seed=1, trace=0)
    again = check_emitted(lines, "end_to_end")
    assert simulated_only(again) == simulated_only(first)

    _, lines = measure(capsys, workload, seed=2, trace=0)
    other = check_emitted(lines, "end_to_end")
    assert simulated_only(other) != simulated_only(first)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_pass(capsys, workload):
    code, lines = measure(capsys, workload, seed=1, trace=1)
    assert code == 0, "\n".join(lines)
    metrics = check_emitted(lines, "per_layer")
    shares = [v for k, v in metrics.items() if k.endswith(".self_share")]
    assert math.isclose(sum(shares), 1.0, rel_tol=1e-9)
    trace_file = run.OUT_DIR / f"trace_{workload}.jsonl"
    kinds = {json.loads(line)["type"] for line in trace_file.open()}
    assert kinds == {"span", "self_time", "sim_event"}


def test_whole_smoke_run_is_quick():
    """Runs last (file order): everything above fitted the time cap."""
    assert time.perf_counter() - STARTED < 30.0
