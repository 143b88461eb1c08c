"""Concurrent-execution regression tests (PR 3 tentpole).

Three guarantees:

1. **Acceptance byte-identity** — every Fig. 4-9 query run alone, with
   the contention model attached, reports the exact same response time,
   message count, and byte total as the uncontended simulation (a single
   flow never queues against itself).
2. **Concurrent equivalence** — N queries interleaved in one simulation
   return bit-identical solutions to the same N queries run serially,
   across strategy combinations.
3. **Isolation** — per-query state (correlation namespaces, slots,
   caches) lives in the ExecutionContext; concurrent contexts share the
   system and nothing else, and correlation-id collisions are impossible
   (and asserted against) by construction.
"""

import pytest

from repro.net import ContentionModel
from repro.query import DistributedExecutor, ExecutionOptions
from repro.query.executor import ExecutionContext, ExecutionReport
from repro.query.strategies import (
    ConjunctionMode,
    JoinSitePolicy,
    PrimitiveStrategy,
)
from repro.rdf import COMMON_PREFIXES
from repro.sparql import evaluate_query, parse_query
from repro.workloads import PAPER_FIG_QUERIES

from helpers import build_system
from test_lifecycle_leaks import CLEAN, live_heap, peer_state

FIGS = sorted(PAPER_FIG_QUERIES)


def run_alone(query_text, *, contention, options=None, initiator="D1"):
    system = build_system()
    if contention:
        system.network.contention = ContentionModel()
    result, report = DistributedExecutor(system, options).execute(
        query_text, initiator=initiator)
    return system, result, report


def run_interleaved(system, queries, options=None, initiators=None):
    """Spawn every query as an execute_process coroutine in one
    simulation; returns the (result, report) pairs in submission order."""
    executor = DistributedExecutor(system, options)
    outcomes = [None] * len(queries)

    def runner(i, text, initiator):
        parsed = parse_query(text, COMMON_PREFIXES)
        outcomes[i] = yield from executor.execute_process(parsed, initiator)

    for i, text in enumerate(queries):
        initiator = initiators[i % len(initiators)] if initiators else "D1"
        system.sim.process(runner(i, text, initiator))
    system.sim.run()
    return outcomes


class TestAcceptanceByteIdentity:
    """Concurrency = 1 + contention enabled must change *nothing*."""

    @pytest.mark.parametrize("fig", FIGS)
    def test_fig_suite_identical_with_contention(self, fig):
        query = PAPER_FIG_QUERIES[fig]
        _, plain_result, plain = run_alone(query, contention=False)
        system, contended_result, contended = run_alone(query, contention=True)
        assert contended.response_time == plain.response_time
        assert contended.messages == plain.messages
        assert contended.bytes_total == plain.bytes_total
        assert contended_result.rows == plain_result.rows
        # And the single flow never waited anywhere.
        assert system.network.contention.total_wait() == 0.0

    @pytest.mark.parametrize("options", [
        *(ExecutionOptions(primitive_strategy=s) for s in PrimitiveStrategy),
        ExecutionOptions(plan_mode="cost"),
    ], ids=lambda o: ("cost" if o.plan_mode == "cost"
                      else str(o.primitive_strategy)))
    def test_strategies_identical_with_contention(self, options):
        query = PAPER_FIG_QUERIES["fig6"]
        _, r0, plain = run_alone(query, contention=False, options=options)
        _, r1, contended = run_alone(query, contention=True, options=options)
        assert (contended.response_time, contended.messages,
                contended.bytes_total) == (
            plain.response_time, plain.messages, plain.bytes_total)
        assert r1.rows == r0.rows


OPTION_COMBOS = [
    ExecutionOptions(),
    ExecutionOptions(
        primitive_strategy=PrimitiveStrategy.BASIC,
        conjunction_mode=ConjunctionMode.BASIC,
        join_site_policy=JoinSitePolicy.QUERY_SITE,
    ),
    ExecutionOptions(primitive_strategy=PrimitiveStrategy.CHAINED),
    # The Sect. V planner's adaptive per-leaf strategy choice.
    ExecutionOptions(
        plan_mode="cost",
        join_site_policy=JoinSitePolicy.THIRD_SITE,
    ),
    ExecutionOptions(semijoin=True, projection_pushdown=True,
                     dictionary_encoding=True),
]


class TestConcurrentEquivalence:
    @pytest.mark.parametrize("options", OPTION_COMBOS,
                             ids=lambda o: ("adaptive" if o.plan_mode == "cost"
                                            else o.primitive_strategy.value)
                             + ("+ship" if o.semijoin else ""))
    def test_interleaved_equals_serial(self, options):
        queries = [PAPER_FIG_QUERIES[f] for f in FIGS]
        serial_system = build_system()
        serial_exec = DistributedExecutor(serial_system, options)
        serial = [serial_exec.execute(q, initiator="D1") for q in queries]

        concurrent_system = build_system()
        concurrent = run_interleaved(concurrent_system, queries, options)

        for (s_result, _), (c_result, _) in zip(serial, concurrent):
            assert c_result.rows == s_result.rows
            assert c_result.variables == s_result.variables
        assert peer_state(concurrent_system) == CLEAN
        assert live_heap(concurrent_system.sim) == []

    def test_interleaved_with_contention_equals_oracle(self):
        """Contention changes *when* things happen, never *what* they
        compute: every interleaved query still matches the local oracle."""
        queries = [PAPER_FIG_QUERIES[f] for f in FIGS] * 2
        system = build_system()
        system.network.contention = ContentionModel()
        initiators = sorted(system.storage_nodes)
        outcomes = run_interleaved(system, queries, initiators=initiators)
        union = system.union_graph()
        for text, (result, report) in zip(queries, outcomes):
            oracle = evaluate_query(parse_query(text, COMMON_PREFIXES), union)
            assert result.rows == oracle.rows
            assert report.messages > 0
        # Twelve interleaved queries genuinely contended somewhere.
        assert system.network.contention.max_queue_depth() > 1
        assert peer_state(system) == CLEAN
        assert live_heap(system.sim) == []

    def test_same_initiator_concurrent_queries(self):
        """Multiple in-flight queries from ONE peer: the slot namespaces
        keep their correlation ids (and thus mailboxes) disjoint."""
        queries = [PAPER_FIG_QUERIES["fig6"]] * 4
        system = build_system()
        outcomes = run_interleaved(system, queries)  # all from D1
        baseline, _ = run_alone(PAPER_FIG_QUERIES["fig6"], contention=False)[1:]
        for result, _ in outcomes:
            assert result.rows == baseline.rows
        assert peer_state(system) == CLEAN


class TestQuerySlots:
    def test_slot_zero_preserves_serial_corr_format(self):
        system = build_system()
        ctx = ExecutionContext(
            system, "D1", ExecutionOptions(), ExecutionReport(), {})
        assert ctx.query_id == "D1"
        assert ctx.new_corr() == "D1#0"
        ctx.release()

    def test_concurrent_contexts_get_disjoint_namespaces(self):
        system = build_system()
        a = ExecutionContext(
            system, "D1", ExecutionOptions(), ExecutionReport(), {})
        b = ExecutionContext(
            system, "D1", ExecutionOptions(), ExecutionReport(), {})
        assert a.query_id == "D1"
        assert b.query_id == "D1~1"
        assert a.new_corr() != b.new_corr()
        a.release()
        # Slot 0 freed: the next context reuses the serial namespace.
        c = ExecutionContext(
            system, "D1", ExecutionOptions(), ExecutionReport(), {})
        assert c.query_id == "D1"
        b.release()
        c.release()

    def test_collision_asserts(self):
        system = build_system()
        peer = system.storage_nodes["D1"]
        peer.expect("dup#0", "D2")
        with pytest.raises(AssertionError, match="collision"):
            peer.expect("dup#0", "D2")
        peer.purge_corrs(["dup#0"])

    def test_executor_has_no_per_query_state(self):
        """The executor object is safe to share: beyond configuration it
        only holds the system reference (its QoS load view lives on the
        system, shared by design)."""
        system = build_system()
        executor = DistributedExecutor(system)
        before = dict(vars(executor))
        executor.execute(PAPER_FIG_QUERIES["fig5"], initiator="D1")
        assert dict(vars(executor)) == before
        assert executor.load is system.load
