"""Shipping optimizations are pure transport-level changes: every
(primitive strategy × conjunction mode × join-site policy) combination,
under *any* subset of {semijoin, projection pushdown, dictionary
encoding}, must return bit-identical results on the paper's Fig. 4-9
queries (plus DISTINCT/ASK forms, where projection pushdown actually
engages). Besides the fixed strategies, the ``adaptive`` column runs the
Sect. V cost planner (``plan_mode="cost"``), which picks each leaf's
strategy itself."""

import itertools
from collections import Counter

import pytest

from repro.query import (
    ConjunctionMode,
    DistributedExecutor,
    ExecutionOptions,
    JoinSitePolicy,
    PrimitiveStrategy,
    join_site,
)

from helpers import build_system

FIGURE_QUERIES = {
    "fig4": """SELECT ?x ?y ?z WHERE {
        ?x foaf:name ?name . ?x foaf:knows ?z .
        ?x ns:knowsNothingAbout ?y . ?y foaf:knows ?z .
        FILTER regex(?name, "Smith") } ORDER BY DESC(?x)""",
    "fig5": "SELECT ?x WHERE { ?x foaf:knows ns:me . }",
    "fig6": """SELECT ?x ?y ?z WHERE {
        ?x foaf:knows ?z . ?x ns:knowsNothingAbout ?y . }""",
    "fig7": """SELECT ?x ?y WHERE {
        { ?x foaf:name "Smith" . ?x foaf:knows ?y . }
        OPTIONAL { ?y foaf:nick "Shrek" . } }""",
    "fig8": """SELECT ?x ?y ?z WHERE {
        { ?x foaf:name "Smith" . ?x foaf:knows ?y . }
        UNION
        { ?x foaf:mbox <mailto:abc@example.org> . ?x foaf:knows ?z . } }""",
    "fig9": """SELECT ?x ?y ?z WHERE {
        ?x foaf:name ?name ; ns:knowsNothingAbout ?y .
        FILTER regex(?name, "Smith")
        OPTIONAL { ?y foaf:knows ?z . } }""",
}

#: Query forms whose output spec makes projection pushdown *active*
#: (plain SELECT disables it to preserve duplicate-row counts).
EXTRA_QUERIES = {
    "distinct": """SELECT DISTINCT ?x WHERE {
        ?x foaf:knows ?y . ?y foaf:knows ?z . }""",
    "ask": "ASK { ?x foaf:name ?name . ?x foaf:knows ?y . }",
}

ALL_QUERIES = {**FIGURE_QUERIES, **EXTRA_QUERIES}

#: Strategy column label -> the options that select it.
STRATEGIES = {
    **{s.value: dict(primitive_strategy=s) for s in PrimitiveStrategy},
    "adaptive": dict(plan_mode="cost"),
}

COMBOS = list(itertools.product(STRATEGIES, ConjunctionMode, JoinSitePolicy))

SUBSETS = [
    dict(semijoin=sj, projection_pushdown=pp, dictionary_encoding=de)
    for sj in (False, True)
    for pp in (False, True)
    for de in (False, True)
]


def canon(result):
    """Order-insensitive, duplicate-preserving fingerprint of a result."""
    if result.boolean is not None:
        return result.boolean
    return Counter(
        tuple(sorted((v.name, t.n3()) for v, t in mu.items()))
        for mu in result.rows
    )


def run(system, text, strategy, mode, policy, **techniques):
    options = ExecutionOptions(
        conjunction_mode=mode,
        join_site_policy=policy,
        **STRATEGIES[strategy],
        **techniques,
    )
    executor = DistributedExecutor(system, options)
    result, _report = executor.execute(text, initiator="D1")
    return canon(result)


@pytest.fixture(autouse=True)
def digest_even_tiny_operands(monkeypatch):
    """Engage the semijoin digest path even on this tiny data."""
    monkeypatch.setattr(join_site, "SEMIJOIN_MIN_ROWS", 1)


@pytest.fixture(scope="module")
def system():
    return build_system()


@pytest.fixture(scope="module")
def baselines(system):
    return {
        name: run(system, text, "basic",
                  ConjunctionMode.BASIC, JoinSitePolicy.MOVE_SMALL)
        for name, text in ALL_QUERIES.items()
    }


@pytest.mark.parametrize("strategy,mode,policy", COMBOS,
                         ids=[f"{s}-{m.value}-{p.value}"
                              for s, m, p in COMBOS])
def test_every_combo_every_subset_core_shapes(system, baselines,
                                              strategy, mode, policy):
    """Full technique-subset sweep on the join / union / optional /
    distinct shapes (the ones the optimizations actually rewrite)."""
    for name in ("fig6", "fig8", "fig9", "distinct"):
        for techniques in SUBSETS:
            got = run(system, ALL_QUERIES[name], strategy, mode, policy,
                      **techniques)
            assert got == baselines[name], (name, techniques)


@pytest.mark.parametrize("strategy,mode,policy", COMBOS,
                         ids=[f"{s}-{m.value}-{p.value}"
                              for s, m, p in COMBOS])
def test_every_combo_all_techniques_remaining_queries(system, baselines,
                                                      strategy, mode, policy):
    techniques = dict(semijoin=True, projection_pushdown=True,
                      dictionary_encoding=True)
    for name in ("fig4", "fig5", "fig7", "ask"):
        got = run(system, ALL_QUERIES[name], strategy, mode, policy,
                  **techniques)
        assert got == baselines[name], name


def test_every_subset_every_query_default_combo(system, baselines):
    for name, text in ALL_QUERIES.items():
        for techniques in SUBSETS:
            got = run(system, text, "freq",
                      ConjunctionMode.OPTIMIZED, JoinSitePolicy.MOVE_SMALL,
                      **techniques)
            assert got == baselines[name], (name, techniques)


def test_order_by_row_order_is_preserved(system):
    """The one order-sensitive figure query keeps its row order under the
    full optimization stack."""
    def rows(**techniques):
        options = ExecutionOptions(**techniques)
        executor = DistributedExecutor(system, options)
        result, _ = executor.execute(FIGURE_QUERIES["fig4"], initiator="D1")
        return [tuple(sorted((v.name, t.n3()) for v, t in mu.items()))
                for mu in result.rows]

    assert rows() == rows(semijoin=True, projection_pushdown=True,
                          dictionary_encoding=True)
