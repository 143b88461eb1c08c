"""E8 — Churn resilience (paper Sect. III-C/D).

Claims under test:

* Storage-node failure "is not significant": queries still answer with
  the surviving providers' data, and the stale location-table entries are
  cleaned after the first timeout.
* Index-node *graceful departure* loses nothing (the successor takes the
  location table over).
* Index-node *failure* loses the primary rows unless the replication
  policy (r >= 2) kept copies at the successors — exactly the mechanism
  pair (successor list + replication) the paper names.
"""

from __future__ import annotations

import random


from repro.metrics import render_table
from repro.overlay import (
    depart_index_node,
    fail_index_node,
    fail_storage_node,
)
from repro.query import DistributedExecutor, ExecutionOptions
from repro.rdf import COMMON_PREFIXES
from repro.sparql import evaluate_query, parse_query
from repro.workloads import FoafConfig, generate_foaf_triples, partition_triples

from conftest import build_system, emit, run_once

QUERY = "SELECT ?x ?y WHERE { ?x foaf:knows ?y . }"


def fresh_system(replication_factor=1, seed=41):
    triples = generate_foaf_triples(FoafConfig(num_people=80, seed=seed))
    parts = partition_triples(triples, 5, overlap=0.2, seed=seed + 1)
    return build_system(num_index=12, parts=parts,
                        replication_factor=replication_factor)


def surviving_rows(system):
    from repro.rdf import Graph

    union = Graph()
    for node in system.storage_nodes.values():
        if node.alive:
            union.update(iter(node.graph))
    return evaluate_query(parse_query(QUERY, COMMON_PREFIXES), union).rows


def run_index_churn():
    rng = random.Random(5)
    rows = []
    results = {}
    for r in (1, 2, 3):
        for event in ("none", "depart", "fail"):
            system = fresh_system(replication_factor=r)
            expected = len(surviving_rows(system))
            # Kill/depart 3 index nodes *including the one owning the
            # query pattern's key* — the worst case for this query.
            from repro.overlay import key_for_pattern
            from repro.rdf import FOAF, TriplePattern, Variable

            pattern = TriplePattern(Variable("x"), FOAF.knows, Variable("y"))
            _, key = key_for_pattern(pattern, system.space)
            owner = system.ring.owner_of(key).node_id
            victims = [owner] + [
                n for n in sorted(system.index_nodes) if n != owner
            ][:2]
            if event == "depart":
                for v in victims:
                    depart_index_node(system, v)
            elif event == "fail":
                for v in victims:
                    fail_index_node(system, v)
            executor = DistributedExecutor(system)
            result, report = executor.execute(QUERY, initiator="D0")
            recall = len(result.rows) / expected if expected else 1.0
            results[(r, event)] = recall
            rows.append([r, event, expected, len(result.rows), round(recall, 3)])
    return results, rows


def test_e8_index_node_churn(benchmark):
    results, rows = run_once(benchmark, run_index_churn)
    emit(render_table(
        ["replication", "event", "expected_rows", "returned_rows", "recall"],
        rows,
        title="E8a: index-node churn — departure vs failure vs replication",
    ))
    for r in (1, 2, 3):
        # Graceful departure is always lossless (handover, Sect. III-D).
        assert results[(r, "depart")] == 1.0
        assert results[(r, "none")] == 1.0
    # Unreplicated failure may lose the rows the dead nodes owned;
    # replication restores full recall.
    assert results[(2, "fail")] == 1.0
    assert results[(3, "fail")] == 1.0
    # Without replicas, losing the key's owner loses the index rows.
    assert results[(1, "fail")] < 1.0


def run_storage_churn():
    system = fresh_system()
    executor = DistributedExecutor(system, ExecutionOptions())
    timeline = []

    baseline, report0 = executor.execute(QUERY, initiator="D0")
    timeline.append(["healthy", len(baseline.rows), report0.retries,
                     round(report0.response_time * 1000, 1)])

    fail_storage_node(system, "D2")
    first, report1 = executor.execute(QUERY, initiator="D0")
    timeline.append(["just after D2 crash", len(first.rows), report1.retries,
                     round(report1.response_time * 1000, 1)])

    second, report2 = executor.execute(QUERY, initiator="D0")
    timeline.append(["after cleanup", len(second.rows), report2.retries,
                     round(report2.response_time * 1000, 1)])

    return system, timeline, (first, report1), (second, report2)


def test_e8_storage_node_failure_timeline(benchmark):
    system, timeline, (first, report1), (second, report2) = run_once(
        benchmark, run_storage_churn
    )
    emit(render_table(
        ["phase", "rows", "chain_retries", "time_ms"],
        timeline,
        title="E8b: storage-node crash — first query pays the timeout, "
              "then the index is clean",
    ))
    expected = surviving_rows(system)
    # Both queries return exactly the surviving data.
    assert first.rows == expected
    assert second.rows == expected
    # The first query paid for failure detection; the second did not.
    assert report1.retries >= 1
    assert report2.retries == 0
    assert report2.response_time < report1.response_time
