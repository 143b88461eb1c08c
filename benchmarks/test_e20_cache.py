"""E20 — The workload-adaptive distributed result cache (PR 9).

Sect. V's open problems include avoiding repeated work when "the same or
similar queries" recur. PR 9 answers it with a cross-query, per-site
semantic result cache (``repro.cache``): index nodes memoize primitive
pattern results, combine sites memoize whole-BGP sub-results, admission
is gated on observed access frequency, and correctness is delegated to
the key-scoped data-epoch ledger — a delta makes a stamped entry a miss,
never a wrong answer.

Claims under test, on a Zipf-skewed closed-loop of the Fig. 4-9 mix:

* **Bytes go down on a read-only skewed workload**: with the cache on
  and ``mutation_rate=0``, total inter-site traffic drops by at least
  25% versus the identical cache-off run.
* **Answers are invariant under mutation**: with ``mutation_rate=0.1``
  (live publish/unpublish deltas interleaved with the queries, at
  concurrency 1 so both runs see the same schedule), every query job
  returns bit-identical rows with the cache on and off.
* **Off means absent**: the cache-off runs report all-zero cache
  counters — the subsystem costs nothing when disabled.

The 2×2 grid (cache off/on × mutation_rate 0/0.1) is recorded in
``BENCH_PR9_cache.json`` for CI to archive.
"""

from __future__ import annotations

import json
import pathlib
from unittest.mock import patch

from repro.cache import result_cache
from repro.metrics import render_table
from repro.query import ExecutionOptions
from repro.workloads import LoadConfig, paper_example_partition, run_workload

from conftest import build_system, emit, run_once

JSON_PATH = pathlib.Path(__file__).parent / "BENCH_PR9_cache.json"

#: The skew regime a result cache is built for: a hot head of repeated
#: queries (zipf 1.2 over the Fig. 4-9 mix), one client, a long enough
#: run for the admission gate to stop mattering.
WORKLOAD = dict(
    num_queries=120,
    mode="closed",
    concurrency=1,
    zipf_s=1.2,
    seed=7,
    initiators=["D1"],
)

CACHE_ON = dict(result_cache=True)


#: Admit on the first miss: the short run should not spend its head on
#: the admission gate.
@patch.object(result_cache, "DEFAULT_ADMIT_THRESHOLD", 1)
def _run(mutation_rate, cached):
    system = build_system(num_index=8, parts=paper_example_partition())
    config = LoadConfig(mutation_rate=mutation_rate, **WORKLOAD)
    options = ExecutionOptions(**CACHE_ON) if cached else ExecutionOptions()
    report = run_workload(system, config, options)
    answers = [
        sorted(map(repr, job.result.rows))
        for job in report.jobs
        if job.kind == "query" and job.result is not None
    ]
    return report, answers


def run_grid():
    cells = {}
    answers = {}
    for mutation_rate in (0.0, 0.1):
        for cached in (False, True):
            report, rows = _run(mutation_rate, cached)
            key = f"mut{mutation_rate}_{'on' if cached else 'off'}"
            hits, probes = report.cache["hits"], report.cache["probes"]
            cells[key] = {
                "completed": report.completed,
                "failed": report.failed,
                "mutations": report.mutations,
                "bytes_total": report.bytes_total,
                "throughput": round(report.throughput, 2),
                "cache_hits": hits,
                "cache_probes": probes,
                "hit_ratio": round(hits / probes, 3) if probes else 0.0,
                "stale_drops": report.cache["stale_drops"],
                "cache_counters": report.cache,
            }
            answers[key] = rows
    return cells, answers


def test_e20_result_cache(benchmark):
    cells, answers = run_once(benchmark, run_grid)
    emit(render_table(
        ["cell", "bytes", "q/s", "hits/probes", "hit_ratio", "stale",
         "mutations"],
        [
            [key, cell["bytes_total"], cell["throughput"],
             f"{cell['cache_hits']}/{cell['cache_probes']}",
             cell["hit_ratio"], cell["stale_drops"], cell["mutations"]]
            for key, cell in cells.items()
        ],
        title="E20: workload-adaptive result cache "
              "(Fig. 4-9 mix, zipf 1.2, closed loop)",
    ))

    # Off means absent: the disabled runs did zero cache work.
    for key in ("mut0.0_off", "mut0.1_off"):
        assert all(v == 0 for v in cells[key]["cache_counters"].values()), key

    # Read-only skewed workload: >= 25% inter-site byte reduction.
    off, on = cells["mut0.0_off"]["bytes_total"], cells["mut0.0_on"]["bytes_total"]
    reduction = 1.0 - on / off
    assert reduction >= 0.25, (
        f"cache cut bytes by only {reduction:.1%} (off={off}, on={on})")

    # Mutating workload: deltas invalidate (stale entries were dropped,
    # not served) and every answer is bit-identical to the uncached run.
    assert cells["mut0.1_on"]["stale_drops"] > 0
    assert cells["mut0.1_on"]["mutations"] > 0
    assert answers["mut0.1_on"] == answers["mut0.1_off"]
    assert answers["mut0.0_on"] == answers["mut0.0_off"]

    payload = {
        "workload": "Fig. 4-9 mix, zipf_s=1.2, closed loop c=1, "
                    "120 jobs, seed 7",
        "byte_reduction_readonly": round(reduction, 4),
        "cells": cells,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n",
                         encoding="utf-8")
