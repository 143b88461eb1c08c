#!/usr/bin/env python3
"""The repo benchmark: one command, five workloads, two currencies.

    python3 bench/run.py                      # all workloads, both passes
    python3 bench/run.py --workload join_ship --seed 2 --seconds 8 --trace 0

With ``--workload`` it measures one workload in this process — the
end-to-end pass (``--trace 0``) or the per-layer pass (``--trace 1``) —
prints every metric by name with unit and currency, and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.  Without it,
each (workload, pass) runs in its own subprocess, one after another, and
the collected results land in ``bench/out/results.json`` for
``bench/check.py``.  Metric names, units and bounds live in
BENCHMARK.json; this harness refuses to emit a name that is not there.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Metrics whose value is a property of the host run, not of the model.
WALL_METRICS = ("setup_s", "wall_qps", "peak_rss_mb")


def declared(section: str):
    return {m["name"]: m for m in SPEC[section]}


def currency(name: str) -> str:
    if name in WALL_METRICS or name.startswith(("micro.", "setup.", "trace.")) \
            or name.endswith((".self_s", ".self_share", "_calls",
                              "wall_us_per_message", "plans_compiled")):
        return "wall"
    return "simulated"


def measure(args) -> int:
    if not (REPO / "src" / "repro").is_dir():
        print(f"bench: engine source not found at {REPO / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from measure import GateFailure, end_to_end, per_layer
    from micro import run_all
    from trace import SpanRecorder
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload].at_scale(args.scale)
    spans = SpanRecorder(workload.name)
    OUT_DIR.mkdir(exist_ok=True)
    section = "per_layer" if args.trace else "end_to_end"
    try:
        if args.trace:
            result = per_layer(workload, args.seed, spans)
            result["metrics"].update(
                run_all(spans, 0.5 * min(args.scale, 1.0), OUT_DIR))
        else:
            result = end_to_end(workload, args.seed, args.seconds, spans)
    except GateFailure as failure:
        result = {"attempted": 1, "failed": 0, "wrong_answers": 0,
                  "problems": failure.problems, "metrics": {}}

    names = declared(section)
    metrics = result["metrics"]
    problems = list(result["problems"])
    if metrics and set(metrics) != set(names):
        problems.append(
            f"metric names differ from BENCHMARK.json {section}: "
            f"missing {sorted(set(names) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(names))}")
    problems += [f"{name} is not finite: {value}"
                 for name, value in metrics.items()
                 if not math.isfinite(value)]

    print(f"# {workload.name} seed={args.seed} scale={args.scale} "
          f"pass={section} latency_samples={result.get('latency_samples')}")
    for name in names:
        if name in metrics:
            print(f"{name:<40} {metrics[name]:>16.6g} {names[name]['unit']:<8}"
                  f" {currency(name)}")
    failed_share = result["failed"] / result["attempted"]
    print(f"{'failed_share':<40} {failed_share:>16.6g} {'share':<8} simulated")
    print(f"{'wrong_answers':<40} {result['wrong_answers']:>16} {'count':<8} -")
    for problem in problems:
        print(f"GATE FAILED [{workload.name}]: {problem}")

    detail = {
        "workload": workload.name, "seed": args.seed, "scale": args.scale,
        "pass": section, "attempted": result["attempted"],
        "failed": result["failed"], "failed_share": failed_share,
        "wrong_answers": result["wrong_answers"], "problems": problems,
        "latency_samples": result.get("latency_samples"),
        "metrics": metrics, "wall": result.get("wall", {}),
    }
    (OUT_DIR / f"{section}_{workload.name}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if args.trace:
        spans.write(OUT_DIR / f"trace_{workload.name}.jsonl",
                    result.get("trace_records", ()))
    else:
        spans.write(OUT_DIR / f"spans_{workload.name}.jsonl")

    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": names[name]["unit"]}
                    for name in names if name in metrics},
    }))
    return 1 if problems else 0


def run_everything(args) -> int:
    """Each (workload, pass) in its own subprocess, one after another
    (the box has two cores; ``ru_maxrss`` must be the workload's own)."""
    status = 0
    results = {"seed": args.seed, "scale": args.scale,
               "seconds": args.seconds, "workloads": {}}
    for spec in SPEC["workloads"]:
        name = spec["name"]
        for trace in (0, 1):
            code = subprocess.run([
                sys.executable, str(BENCH_DIR / "run.py"),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--scale", str(args.scale),
                "--trace", str(trace),
            ]).returncode
            status = status or code
            section = "per_layer" if trace else "end_to_end"
            detail_path = OUT_DIR / f"{section}_{name}.json"
            if code in (0, 1) and detail_path.exists():
                results["workloads"].setdefault(name, {})[section] = json.loads(
                    detail_path.read_text(encoding="utf-8"))
    (OUT_DIR / "results.json").write_text(
        json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"# wrote {OUT_DIR / 'results.json'}"
          + ("" if status == 0 else "  (GATE FAILED, see above)"))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in SPEC["workloads"]],
                        help="measure this workload only (default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="feeds data, partitioning, queries and schedule")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="wall seconds of timed runs per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink data and job counts (smoke tests)")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_everything(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
