#!/usr/bin/env python3
"""Churn in an ad-hoc system: nodes come, go, and crash (Sect. III-C/D).

Scenario: a conference hallway. Laptops share RDF data; people arrive,
suspend their machines, and leave without warning. We watch the system's
answers and its index through every membership event:

1. a new index node joins (location-table range transfer),
2. an index node departs gracefully (handover to its successor),
3. a storage node crashes (stale entries cleaned on query timeout),
4. an index node crashes — once without replication (rows lost), once
   with r=2 (the successor serves its replicas).

Run:  python examples/churn_resilience.py
"""

from repro import DistributedExecutor, ExecutionOptions, HybridSystem
from repro.overlay import (
    depart_index_node,
    fail_index_node,
    fail_storage_node,
    join_index_node,
    key_for_pattern,
)
from repro.rdf import FOAF, TriplePattern, Variable
from repro.workloads import FoafConfig, generate_foaf_triples, partition_triples

QUERY = "SELECT ?a ?b WHERE { ?a foaf:knows ?b . }"


def build(replication_factor: int) -> HybridSystem:
    triples = generate_foaf_triples(FoafConfig(num_people=80, seed=7))
    parts = partition_triples(triples, 5, overlap=0.2, seed=8)
    system = HybridSystem(replication_factor=replication_factor)
    for i in range(10):
        system.add_index_node(f"N{i}")
    system.build_ring()
    for i, part in enumerate(parts):
        system.add_storage_node(f"D{i}", part)
    return system


def ask(system, label):
    executor = DistributedExecutor(system, ExecutionOptions())
    result, report = executor.execute(QUERY, initiator="D0")
    retries = f", {report.retries} chain retries" if report.retries else ""
    print(f"  {label}: {len(result.rows)} rows "
          f"({report.response_time * 1000:.0f} ms{retries})")
    return len(result.rows)


def main() -> None:
    print("=== replication factor 1 ===")
    system = build(replication_factor=1)
    baseline = ask(system, "healthy system")

    join_index_node(system, "Nnew")
    assert system.ring.is_consistent()
    ask(system, "after index node join (range transferred)")

    depart_index_node(system, sorted(system.index_nodes)[0])
    ask(system, "after graceful index departure (table handed over)")

    fail_storage_node(system, "D2")
    ask(system, "just after storage crash (first query pays the timeout)")
    ask(system, "next query (stale entries already cleaned)")

    # Crash the index node owning the query key: without replicas the rows
    # for this key are gone.
    pattern = TriplePattern(Variable("a"), FOAF.knows, Variable("b"))
    _, key = key_for_pattern(pattern, system.space)
    owner = system.ring.owner_of(key).node_id
    fail_index_node(system, owner)
    ask(system, f"after crash of key owner {owner} (r=1: index rows lost)")

    print("\n=== replication factor 2 ===")
    system = build(replication_factor=2)
    ask(system, "healthy system")
    _, key = key_for_pattern(pattern, system.space)
    owner = system.ring.owner_of(key).node_id
    fail_index_node(system, owner)
    ask(system, f"after crash of key owner {owner} (r=2: replicas serve)")


if __name__ == "__main__":
    main()
