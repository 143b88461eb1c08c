"""E21 — Query completion and tail latency under chaos, breakers off vs on (PR 10).

A closed-loop workload (48 queries, 8 clients) over the paper-example
dataset with rf=2, run against seeded message-level fault plans at two
severities (loss + delay spikes + a directional partition + a node
brownout). Cells:

* **baseline** — fault-free, classic options: reference answers and
  latency;
* **{mild,harsh} / breakers off** — retries + replica failover +
  partial results, but every timeout is paid in full;
* **{mild,harsh} / breakers on** — the same defenses plus the health
  ledger: consecutive-timeout peers trip a circuit and are
  short-circuited / routed around instead of re-dialled.

Claims under test:

* **Degradation is always visible**: every completed chaos-cell answer
  is either bit-identical to the fault-free answer or a *flagged*
  (``report.incomplete``) sub-multiset of it — never wrong or extra
  rows, at any severity, with breakers on or off.
* **The chaos layer actually fired**: each chaos cell injected faults;
  the harsh cells injected more than the mild ones.
* **Breakers do their job**: under harsh chaos the breaker cell trips
  at least one circuit and short-circuits at least one call, and its
  completion rate is no worse than with breakers off.

Writes ``BENCH_PR10_chaos.json`` next to this file for CI (from the
pinned seed's run). ``REPRO_E21_SEEDS`` (comma-separated) overrides the
chaos seed list; every listed seed must pass every claim above.
"""

from __future__ import annotations

import json
import os
import pathlib
from collections import Counter

import pytest

from repro.metrics import render_table
from repro.net.faults import chaos_plan
from repro.query import DistributedExecutor, ExecutionOptions
from repro.workloads import LoadConfig, run_workload

from conftest import build_system, emit, run_once

JSON_PATH = pathlib.Path(__file__).parent / "BENCH_PR10_chaos.json"

NUM_QUERIES = 48
CONCURRENCY = 8
SEED = 21


def _seeds():
    raw = os.environ.get("REPRO_E21_SEEDS")
    if raw:
        return tuple(int(s) for s in raw.split(",") if s.strip())
    return (SEED,)


MIX = [
    ("knows", "SELECT ?x ?y WHERE { ?x foaf:knows ?y . }"),
    ("name", 'SELECT ?x WHERE { ?x foaf:name "Smith" . }'),
    ("conj", "SELECT ?x ?n WHERE { ?x foaf:knows ?y . ?y foaf:name ?n . }"),
]

#: (label, chaos_plan kwargs) — the loss/brownout severity sweep.
SEVERITIES = [
    ("mild", dict(loss=0.02, delay=0.05, partitions=0, brownouts=1)),
    ("harsh", dict(loss=0.10, delay=0.15, partitions=1, brownouts=2)),
]

DEFENSE = dict(retries=2, backoff=0.05, failover=True, partial_results=True,
               query_deadline=30.0)


def canon(result):
    return Counter(
        tuple(sorted((v.name, t.n3()) for v, t in mu.items()))
        for mu in result.rows
    )


def is_sub_multiset(small: Counter, big: Counter) -> bool:
    return all(big[row] >= n for row, n in small.items())


def fresh_system():
    from repro.workloads import paper_example_partition

    return build_system(parts=paper_example_partition(),
                        replication_factor=2)


def measure_cell(options, severity=None, seed=SEED):
    system = fresh_system()
    faults = None
    if severity is not None:
        faults = chaos_plan(sorted(system.network.nodes), seed=seed,
                            window=600.0, **severity)
    config = LoadConfig(
        queries=MIX,
        initiators=tuple(sorted(system.storage_nodes)),
        mode="closed",
        concurrency=CONCURRENCY,
        num_queries=NUM_QUERIES,
        seed=seed,
        faults=faults,
    )
    report = run_workload(system, config, options)
    lat = report.latency
    return {
        "report": report,
        "completed": report.completed,
        "failed": report.failed,
        "incomplete": report.incomplete,
        "success_rate": report.completed / len(report.jobs),
        "p50_ms": lat.p50 * 1000 if lat else None,
        "p99_ms": lat.p99 * 1000 if lat else None,
        "failover": dict(report.failover),
        "faults_injected": dict(report.faults_injected),
    }


def run_cells(seed=SEED):
    oracle_system = fresh_system()
    oracle = {}
    for label, query in MIX:
        result, _ = DistributedExecutor(oracle_system).execute(
            query, initiator=sorted(oracle_system.storage_nodes)[0])
        oracle[label] = canon(result)
    cells = {"baseline": measure_cell(ExecutionOptions())}
    for name, severity in SEVERITIES:
        cells[f"{name}_breakers_off"] = measure_cell(
            ExecutionOptions(**DEFENSE), severity, seed)
        cells[f"{name}_breakers_on"] = measure_cell(
            ExecutionOptions(breaker=True, breaker_latency=1.0, **DEFENSE),
            severity, seed)
    return oracle, cells


@pytest.mark.parametrize("seed", _seeds())
def test_e21_chaos(benchmark, seed):
    oracle, cells = run_once(benchmark, lambda: run_cells(seed))

    rows = []
    payload = {"num_queries": NUM_QUERIES, "concurrency": CONCURRENCY,
               "replication_factor": 2, "seed": seed,
               "severities": {name: kw for name, kw in SEVERITIES},
               "cells": {}}
    for name, m in cells.items():
        fo = m["failover"]
        rows.append([
            name, m["completed"], m["failed"], m["incomplete"],
            f"{m['success_rate'] * 100:.1f}%",
            f"{m['p50_ms']:.1f}" if m["p50_ms"] is not None else "-",
            f"{m['p99_ms']:.1f}" if m["p99_ms"] is not None else "-",
            sum(m["faults_injected"].values()),
            fo.get("breaker_trips", 0),
            fo.get("breaker_short_circuits", 0),
        ])
        payload["cells"][name] = {
            "completed": m["completed"],
            "failed": m["failed"],
            "incomplete": m["incomplete"],
            "success_rate": round(m["success_rate"], 4),
            "p50_ms": round(m["p50_ms"], 3) if m["p50_ms"] is not None else None,
            "p99_ms": round(m["p99_ms"], 3) if m["p99_ms"] is not None else None,
            "faults_injected": m["faults_injected"],
            "failover": fo,
        }
    emit(render_table(
        ["cell", "done", "failed", "partial", "success", "p50_ms", "p99_ms",
         "faults", "trips", "shortckt"],
        rows,
        title=f"E21: {NUM_QUERIES} queries, {CONCURRENCY} clients, rf=2, "
              f"seeded loss/delay/partition/brownout chaos (seed {seed})",
    ))

    baseline = cells["baseline"]
    assert baseline["failed"] == 0
    for job in baseline["report"].jobs:
        assert canon(job.result) == oracle[job.label]

    for name, m in cells.items():
        if name == "baseline":
            continue
        # The chaos layer actually injected faults into every chaos cell.
        assert sum(m["faults_injected"].values()) > 0, name
        # Degradation is always visible: completed answers are exact or
        # flagged subsets — never silently short, never wrong rows.
        for job in m["report"].jobs:
            if job.result is None:
                continue
            got = canon(job.result)
            if got == oracle[job.label]:
                continue
            assert job.report is not None and job.report.incomplete, (
                f"{name} job {job.job_id}: silent divergence")
            assert is_sub_multiset(got, oracle[job.label]), (
                f"{name} job {job.job_id}: not a subset")

    # Harsh chaos injects strictly more faults than mild.
    assert (sum(cells["harsh_breakers_on"]["faults_injected"].values())
            > sum(cells["mild_breakers_on"]["faults_injected"].values()))

    # Under harsh chaos the breakers actually engage, and engaging them
    # does not cost completions.
    harsh_on = cells["harsh_breakers_on"]
    harsh_off = cells["harsh_breakers_off"]
    fo = harsh_on["failover"]
    assert fo.get("breaker_trips", 0) >= 1
    assert fo.get("breaker_short_circuits", 0) >= 1
    assert harsh_on["completed"] >= harsh_off["completed"]

    if seed != SEED:
        return
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n",
                         encoding="utf-8")
