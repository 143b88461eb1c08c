"""A cost-planned BASIC leaf fans out from the query site.

A leaf the cost planner pinned to BASIC lands at the initiator, which
read the leaf's location-table row in the statistics round. So the
initiator sends ``evaluate`` to every provider in that row itself and
unions the replies: no ``execute_primitive`` goes out, and each row
crosses one link instead of two (provider → owner → initiator). A
provider that does not answer sends the leaf down the owner path, whose
fan-out runs the Sect. III-D stale-entry rule. Every answer here is
checked against the local oracle on the ``fig_mix`` layout
(``foaf_ring(400)``), initiator D1.
"""

from collections import Counter

import pytest

from repro.net.faults import chaos_plan
from repro.overlay import fail_storage_node, key_for_pattern
from repro.query import DistributedExecutor, ExecutionOptions
from repro.query.executor import QueryFailed
from repro.query.physical import ChainShip, walk_plan
from repro.query.strategies import PrimitiveStrategy
from repro.rdf import COMMON_PREFIXES, Graph
from repro.sparql import evaluate_query, parse_query
from repro.workloads import PAPER_FIG_QUERIES

from helpers import foaf_ring, oracle_rows

COST = ExecutionOptions(plan_mode="cost")


def multiset(rows) -> Counter:
    return Counter(tuple(sorted((v.name, t.n3()) for v, t in mu.items()))
                   for mu in rows)


def run(system, query, options=COST):
    executor = DistributedExecutor(system, options)
    return executor.execute(query, initiator="D1")


def basic_leaves(plan) -> list:
    return [op for op in walk_plan(plan) if isinstance(op, ChainShip)
            and op.plan_strategy is PrimitiveStrategy.BASIC]


@pytest.fixture(scope="module")
def system():
    return foaf_ring(400)


@pytest.mark.parametrize("name", sorted(PAPER_FIG_QUERIES))
def test_answers_match_the_legacy_planner_and_the_oracle(system, name):
    query = PAPER_FIG_QUERIES[name]
    cost_result, _report = run(system, query)
    legacy_result, _report = run(system, query, ExecutionOptions())
    assert cost_result.rows == legacy_result.rows
    assert multiset(cost_result.rows) == multiset(oracle_rows(system, query))


def test_fig6_sends_no_execute_primitive(system):
    stats = system.network.stats
    before = Counter(stats.per_kind_bytes)
    _result, report = run(system, PAPER_FIG_QUERIES["fig6"])
    moved = Counter(stats.per_kind_bytes)
    moved.subtract(before)
    leaves = basic_leaves(report.plan)
    assert leaves and all(leaf.placement == "D1" for leaf in leaves)
    assert moved["execute_primitive"] == 0
    assert moved["execute_primitive.reply"] == 0
    assert moved["evaluate"] > 0 and moved["evaluate.reply"] > 0
    assert report.retries == 0


@pytest.mark.parametrize("name", ["fig4", "fig6"])
def test_crashed_provider_falls_back_to_the_owner(name):
    system = foaf_ring(400)
    query = PAPER_FIG_QUERIES[name]
    _result, report = run(system, query)
    leaf = basic_leaves(report.plan)[0]
    pattern = leaf.lookup.pattern
    victim = next(entry.storage_id for entry in leaf.lookup.info.entries
                  if entry.storage_id != "D1")
    fail_storage_node(system, victim)
    result, report = run(system, query)
    # Crash-stop: the answer is exact over the data still served.
    live = Graph()
    for node in system.storage_nodes.values():
        if node.node_id != victim:
            live.update(iter(node.graph))
    parsed = parse_query(query, COMMON_PREFIXES)
    assert multiset(result.rows) == multiset(evaluate_query(parsed, live).rows)
    assert multiset(result.rows) != multiset(oracle_rows(system, query))
    assert not report.incomplete
    fallbacks = [note for note in report.notes
                 if note.startswith("basic fallback")]
    assert fallbacks and report.retries == len(fallbacks)
    if name == "fig4":
        # Its leaves land one after another (probe-first), and once the
        # victim was silent, each later leaf listing it goes straight to
        # its owner: one fallback, one double wait.
        assert len(fallbacks) == 1
    _kind, key = key_for_pattern(pattern, system.space)
    owner = system.index_nodes[system.ring.owner_of(key).node_id]
    assert victim not in {entry.storage_id for entry in owner.table.lookup(key)}


#: No retries, so a lost ``evaluate`` reply leaves its provider silent
#: and sends the leaf down the owner path.
CHAOS = ExecutionOptions(plan_mode="cost", retries=0, failover=True,
                         breaker=True, partial_results=True,
                         query_deadline=30.0)


def test_chaos_answers_are_exact_flagged_or_failed():
    fallbacks = 0
    for seed in (0, 1, 2):
        system = foaf_ring(400)
        truth = {name: multiset(oracle_rows(system, query))
                 for name, query in PAPER_FIG_QUERIES.items()}
        system.network.install_faults(chaos_plan(
            sorted(system.network.nodes), seed=seed, loss=0.1,
            duplicate=0.05, delay=0.1, partitions=1, brownouts=1))
        for name, query in sorted(PAPER_FIG_QUERIES.items()):
            try:
                result, report = run(system, query, CHAOS)
            except QueryFailed:
                continue  # a typed failure is a permitted outcome
            fallbacks += sum(note.startswith("basic fallback")
                             for note in report.notes)
            got = multiset(result.rows)
            if got == truth[name]:
                continue
            assert report.incomplete, f"seed {seed} {name}: silent divergence"
            assert not got - truth[name], f"seed {seed} {name}: extra rows"
    assert fallbacks > 0  # the owner path ran behind a lossy fan-out


def test_result_cache_fills_through_the_owner():
    system = foaf_ring(400)
    query = PAPER_FIG_QUERIES["fig6"]
    options = ExecutionOptions(plan_mode="cost", result_cache=True)
    stats = system.network.stats
    before = stats.per_kind_messages["execute_primitive"]
    for _ in range(3):
        result, report = run(system, query, options)
        assert multiset(result.rows) == multiset(oracle_rows(system, query))
    assert basic_leaves(report.plan)
    assert stats.per_kind_messages["execute_primitive"] > before
    assert system.network.cache.admissions > 0
