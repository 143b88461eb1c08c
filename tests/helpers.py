"""Shared test helpers (importable from test modules)."""

from __future__ import annotations

from repro.chord import IdentifierSpace
from repro.net.protocol import PROTOCOL, Method
from repro.overlay import HybridSystem
from repro.workloads import (
    FoafConfig, generate_foaf_triples, paper_example_dataset,
    paper_example_partition, partition_triples,
)


def declare(monkeypatch, *names: str) -> None:
    """Declare the test-only methods *names* (plain shipping-phase
    methods without a request record) for the rest of the test."""
    for name in names:
        monkeypatch.setitem(PROTOCOL, name, Method(name))


def build_system(
    num_index: int = 8,
    parts=None,
    replication_factor: int = 1,
    space_bits: int = 32,
    state_dir=None,
    fsync: bool = False,
    snapshot_every=None,
) -> HybridSystem:
    """A converged hybrid system with the given storage partitions."""
    system = HybridSystem(
        space=IdentifierSpace(space_bits),
        replication_factor=replication_factor,
        state_dir=state_dir,
        fsync=fsync,
        snapshot_every=snapshot_every,
    )
    for i in range(num_index):
        system.add_index_node(f"N{i}")
    system.build_ring()
    if parts is None:
        parts = paper_example_partition()
    if isinstance(parts, dict):
        for storage_id, triples in parts.items():
            system.add_storage_node(storage_id, triples)
    else:
        for i, triples in enumerate(parts):
            system.add_storage_node(f"D{i}", triples)
    return system


def foaf_ring(num_people: int) -> HybridSystem:
    """The paper's example graph grafted onto a FOAF population over
    eight providers and sixteen index nodes (the ``fig_mix`` layout)."""
    triples = paper_example_dataset() + generate_foaf_triples(
        FoafConfig(num_people=num_people, seed=1))
    parts = partition_triples(triples, 8, overlap=0.2, seed=1)
    return build_system(num_index=16, parts=parts)


def spy_dispatches(monkeypatch, initiator: str) -> list:
    """The sub-queries dispatched by queries from *initiator*, by algebra
    in arrival order, for the rest of the test: every
    ``execute_primitive`` an owner receives and every ``evaluate`` the
    initiator sends itself (a planned BASIC leaf's fan-out)."""
    from repro.overlay import IndexNode, StorageNode

    calls = []
    execute, evaluate = IndexNode.rpc_execute_primitive, StorageNode.rpc_evaluate

    def spy_execute(self, payload, src):
        calls.append(payload.algebra)
        return execute(self, payload, src)

    def spy_evaluate(self, payload, src):
        if src == initiator:
            calls.append(payload.algebra)
        return evaluate(self, payload, src)

    monkeypatch.setattr(IndexNode, "rpc_execute_primitive", spy_execute)
    monkeypatch.setattr(StorageNode, "rpc_evaluate", spy_evaluate)
    return calls


def oracle_rows(system, query_text: str):
    """*query_text*'s rows over the union of the storage nodes' graphs."""
    from repro.rdf import COMMON_PREFIXES
    from repro.sparql import evaluate_query, parse_query

    query = parse_query(query_text, COMMON_PREFIXES)
    return evaluate_query(query, system.union_graph()).rows
