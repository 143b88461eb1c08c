"""Adaptive (cost-based) strategy selection — the Sect. V planner,
``plan_mode="cost"``, which pins BASIC or FREQ on every leaf."""

import pytest

from repro.net import LinkModel
from repro.overlay import LocationEntry
from repro.query import (
    CostModel,
    DistributedExecutor,
    ExecutionOptions,
    PrimitiveStrategy,
    choose_strategy,
)
from repro.query.physical import chain_leaves
from repro.workloads import FoafConfig, generate_foaf_triples, partition_triples

from helpers import build_system

LINK = LinkModel(latency=0.010, bandwidth=1_000_000.0)


def entries(*freqs):
    return [LocationEntry(f"D{i}", f) for i, f in enumerate(freqs)]


class TestCostModel:
    def test_single_provider_chain_cheaper_in_bytes(self):
        # One provider: FREQ ships the result once; BASIC ships it twice
        # (provider -> assembly -> initiator).
        costs = {c.strategy: c for c in CostModel(LINK).predict(entries(100))}
        assert costs[PrimitiveStrategy.FREQ].bytes < costs[PrimitiveStrategy.BASIC].bytes

    def test_many_uniform_providers_basic_cheaper_in_bytes(self):
        costs = {c.strategy: c for c in CostModel(LINK).predict(entries(*[50] * 16))}
        assert costs[PrimitiveStrategy.BASIC].bytes < costs[PrimitiveStrategy.FREQ].bytes

    def test_basic_always_predicted_at_least_as_fast_for_many_providers(self):
        costs = {c.strategy: c for c in CostModel(LINK).predict(entries(*[50] * 16))}
        assert costs[PrimitiveStrategy.BASIC].time <= costs[PrimitiveStrategy.FREQ].time

    def test_empty_row(self):
        strategy, costs = choose_strategy([], LINK, time_weight=0.5)
        assert strategy is PrimitiveStrategy.BASIC
        assert costs[0].bytes == 0.0


class TestChooseStrategy:
    def test_bytes_objective_prefers_chain_for_few_skewed_providers(self):
        strategy, _ = choose_strategy(entries(5, 10, 100), LINK, time_weight=0.0)
        assert strategy is PrimitiveStrategy.FREQ

    def test_time_objective_prefers_basic_for_many_providers(self):
        strategy, _ = choose_strategy(entries(*[30] * 12), LINK, time_weight=1.0)
        assert strategy is PrimitiveStrategy.BASIC

    def test_bytes_objective_prefers_basic_for_many_uniform_providers(self):
        strategy, _ = choose_strategy(entries(*[30] * 12), LINK, time_weight=0.0)
        assert strategy is PrimitiveStrategy.BASIC

    def test_weight_validated(self):
        with pytest.raises(ValueError):
            choose_strategy(entries(1), LINK, time_weight=1.5)


class TestAdaptiveExecution:
    @pytest.fixture
    def system(self):
        triples = generate_foaf_triples(FoafConfig(num_people=60, seed=71))
        parts = partition_triples(triples, 4, overlap=0.2, seed=72)
        return build_system(num_index=8, parts=parts)

    def test_adaptive_matches_oracle(self, system):
        from repro.rdf import COMMON_PREFIXES
        from repro.sparql import evaluate_query, parse_query

        query = "SELECT ?a ?b WHERE { ?a foaf:knows ?b . }"
        executor = DistributedExecutor(system, ExecutionOptions(
            plan_mode="cost", time_weight=0.3,
        ))
        result, report = executor.execute(query, initiator="D0")
        oracle = evaluate_query(parse_query(query, COMMON_PREFIXES), system.union_graph())
        assert result.rows == oracle.rows
        [leaf] = chain_leaves(report.plan)
        # The planner pinned the scheme, and the leaf ran it.
        assert leaf.plan_strategy in (PrimitiveStrategy.BASIC,
                                      PrimitiveStrategy.FREQ)
        assert leaf.detail["strategy"] == leaf.plan_strategy.value

    def test_adaptive_never_worse_than_worst_fixed_strategy(self, system):
        query = "SELECT ?a ?b WHERE { ?a foaf:knows ?b . }"
        measured = {}
        for label, options in (
            ("basic", dict(primitive_strategy=PrimitiveStrategy.BASIC)),
            ("freq", dict(primitive_strategy=PrimitiveStrategy.FREQ)),
            ("adaptive", dict(plan_mode="cost")),
        ):
            executor = DistributedExecutor(system, ExecutionOptions(
                time_weight=0.0, **options,
            ))
            _, report = executor.execute(query, initiator="D0")
            measured[label] = report.bytes_total
        assert measured["adaptive"] <= max(measured["basic"], measured["freq"])
