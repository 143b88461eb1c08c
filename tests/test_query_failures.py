"""Failure injection during distributed query execution: broken chains,
fall-back to BASIC, stale-entry cleanup, combined churn."""

import pytest

from repro.overlay import fail_storage_node, key_for_pattern
from repro.query import DistributedExecutor, ExecutionOptions, PrimitiveStrategy
from repro.rdf import COMMON_PREFIXES, FOAF, TriplePattern, Variable
from repro.sparql import evaluate_query, parse_query
from repro.workloads import FoafConfig, generate_foaf_triples, partition_triples

from helpers import build_system

X, Y = Variable("x"), Variable("y")
QUERY = "SELECT ?x ?y WHERE { ?x foaf:knows ?y . }"


def spread_system():
    """knows-triples on every node so chains have length > 1."""
    triples = generate_foaf_triples(FoafConfig(num_people=40, seed=21))
    parts = partition_triples(triples, 4, overlap=0.3, seed=22)
    return build_system(num_index=6, parts=parts)


def surviving_oracle(system):
    """What a perfect system would answer using only live providers."""
    from repro.rdf import Graph

    union = Graph()
    for node in system.storage_nodes.values():
        if node.alive:
            union.update(iter(node.graph))
    return evaluate_query(parse_query(QUERY, COMMON_PREFIXES), union)


class TestChainBreakage:
    @pytest.mark.parametrize("strategy", [PrimitiveStrategy.CHAINED, PrimitiveStrategy.FREQ])
    def test_broken_chain_falls_back_to_basic(self, strategy):
        system = spread_system()
        executor = DistributedExecutor(
            system,
            ExecutionOptions(primitive_strategy=strategy),
        )
        fail_storage_node(system, "D2")
        result, report = executor.execute(QUERY, initiator="D0")
        assert report.retries >= 1
        oracle = surviving_oracle(system)
        assert result.rows == oracle.rows

    def test_fallback_cleans_stale_entries(self):
        system = spread_system()
        executor = DistributedExecutor(
            system,
            ExecutionOptions(primitive_strategy=PrimitiveStrategy.CHAINED),
        )
        fail_storage_node(system, "D2")
        executor.execute(QUERY, initiator="D0")
        kind, key = key_for_pattern(TriplePattern(X, FOAF.knows, Y), system.space)
        owner = system.ring.owner_of(key)
        assert all(e.storage_id != "D2" for e in owner.locate(key))

    def test_second_query_needs_no_retry(self):
        """After cleanup the route no longer contains the dead node."""
        system = spread_system()
        executor = DistributedExecutor(
            system,
            ExecutionOptions(primitive_strategy=PrimitiveStrategy.CHAINED),
        )
        fail_storage_node(system, "D2")
        executor.execute(QUERY, initiator="D0")
        result, report = executor.execute(QUERY, initiator="D0")
        assert report.retries == 0
        assert result.rows == surviving_oracle(system).rows


class TestBasicStrategyUnderFailure:
    def test_basic_skips_dead_provider(self):
        system = spread_system()
        executor = DistributedExecutor(
            system, ExecutionOptions(primitive_strategy=PrimitiveStrategy.BASIC)
        )
        fail_storage_node(system, "D1")
        result, report = executor.execute(QUERY, initiator="D0")
        assert result.rows == surviving_oracle(system).rows

    def test_multiple_dead_providers(self):
        system = spread_system()
        executor = DistributedExecutor(
            system, ExecutionOptions(primitive_strategy=PrimitiveStrategy.BASIC)
        )
        fail_storage_node(system, "D1")
        fail_storage_node(system, "D3")
        result, _ = executor.execute(QUERY, initiator="D0")
        assert result.rows == surviving_oracle(system).rows


class TestConjunctionUnderFailure:
    def test_conjunction_with_dead_provider(self):
        system = spread_system()
        executor = DistributedExecutor(
            system, ExecutionOptions()
        )
        fail_storage_node(system, "D3")
        query = """SELECT * WHERE {
            ?x foaf:name ?n . ?x foaf:knows ?y . }"""
        result, report = executor.execute(query, initiator="D0")
        from repro.rdf import Graph

        union = Graph()
        for node in system.storage_nodes.values():
            if node.alive:
                union.update(iter(node.graph))
        oracle = evaluate_query(parse_query(query, COMMON_PREFIXES), union)
        assert result.rows == oracle.rows


class TestPartialResults:
    WALK = """SELECT ?x ?y ?z WHERE {
        ?x foaf:knows ?z . ?x ns:knowsNothingAbout ?y . }"""

    @pytest.mark.parametrize("result_cache", [False, True])
    def test_walk_with_unreachable_index_row_is_flagged_empty(self, result_cache):
        """A walk pattern whose index owner is dead (no replica) drops the
        whole walk to a flagged empty subset, with or without the cache
        probe in front of it."""
        system = build_system()
        _kind, key = key_for_pattern(TriplePattern(X, FOAF.knows, Y), system.space)
        system.network.fail_node(system.ring.owner_of(key).node_id)
        executor = DistributedExecutor(
            system, partial_results=True, result_cache=result_cache)
        result, report = executor.execute(self.WALK, initiator="D1")
        assert result.rows == []
        assert report.incomplete
        assert "?x <http://xmlns.com/foaf/0.1/knows> ?z ." in report.dropped_patterns
