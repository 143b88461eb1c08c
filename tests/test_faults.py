"""Chaos layer: fault injection, health/breakers, and defenses (PR 10).

Covers the deterministic :class:`FaultInjector` (seeded per-link fates,
window independence, brownout scaling), the :class:`HealthLedger`
breaker state machine, the transport's open-circuit short-circuit, the
duplicate-absorbing corr lifecycle across the release sweep boundary,
the one place a dead owner's replica holder is re-resolved, and the
all-zero guard: with every chaos feature off, none of the new machinery
runs.
"""

from __future__ import annotations

import inspect
from pathlib import Path

import pytest

import repro.query

from repro.chord.node import walk
from repro.metrics import FailoverCounters
from repro.net.faults import FaultInjector, FaultPlan, FaultRule, chaos_plan
from repro.net.health import CLOSED, HALF_OPEN, OPEN, HealthLedger
from repro.net.protocol import FindSuccessor, IndexLookup
from repro.net.sim import Simulator
from repro.net.transport import RpcTimeout
from repro.overlay import key_for_pattern
from repro.query import DistributedExecutor, ExecutionOptions, PrimitiveStrategy
from repro.query.executor import ExecutionContext
from repro.rdf import FOAF, TriplePattern, Variable
from repro.workloads import PAPER_FIG_QUERIES

from helpers import build_system
from test_churn_under_load import KNOWS_QUERY, fail_at, knows_owner

KNOWS_PATTERN = TriplePattern(Variable("x"), FOAF.knows, Variable("y"))


def _rows(result):
    return sorted(map(repr, result.rows))


def _oracle(query: str):
    result, _ = DistributedExecutor(build_system(replication_factor=2)).execute(query)
    return _rows(result)


# --------------------------------------------------------------------------
# FaultInjector determinism


class TestFaultInjector:
    def _fates(self, injector, n=40, src="A", dst="B", at=0.0):
        return [
            (f.drop, f.duplicate, round(f.extra_delay, 9), round(f.dup_delay, 9))
            for f in (injector.message_fate(src, dst, at) for _ in range(n))
        ]

    def test_same_seed_same_fates(self):
        plan = FaultPlan(
            rules=(
                FaultRule("loss", probability=0.3),
                FaultRule("delay", probability=0.4, delay=0.05, jitter=0.5),
            ),
            seed=11,
        )
        a = self._fates(FaultInjector(plan))
        b = self._fates(FaultInjector(plan))
        assert a == b
        assert any(drop for drop, _, _, _ in a)  # the plan actually fires

    def test_different_links_draw_independently(self):
        plan = FaultPlan(rules=(FaultRule("loss", probability=0.5),), seed=3)
        inj = FaultInjector(plan)
        ab = self._fates(inj, src="A", dst="B")
        # The reverse direction is a distinct link with its own stream.
        ba = self._fates(inj, src="B", dst="A")
        assert ab != ba

    def test_window_start_does_not_perturb_draws(self):
        """The RNG is keyed by (seed, link, ordinal) only: the same
        message ordinal gets the same fate no matter when the rule's
        window opened."""
        now = FaultPlan(rules=(FaultRule("loss", probability=0.5),), seed=5)
        late = FaultPlan(
            rules=(FaultRule("loss", probability=0.5, start=50.0),), seed=5
        )
        a = self._fates(FaultInjector(now), at=100.0)
        b = self._fates(FaultInjector(late), at=100.0)
        assert a == b

    def test_outside_window_is_clean_but_ordinals_advance(self):
        plan = FaultPlan(rules=(FaultRule("loss", probability=0.5,
                                          start=10.0, end=20.0),), seed=7)
        warm = FaultInjector(plan)
        # 25 pre-window messages: all clean, but each advances the link
        # ordinal...
        pre = self._fates(warm, n=25, at=0.0)
        assert all(fate == (False, False, 0.0, 0.0) for fate in pre)
        # ...so the in-window draws match a fresh injector fast-forwarded
        # to the same ordinals.
        cold = FaultInjector(plan)
        self._fates(cold, n=25, at=0.0)
        assert self._fates(warm, n=25, at=15.0) == self._fates(cold, n=25, at=15.0)

    def test_partition_is_directional(self):
        plan = FaultPlan(rules=(FaultRule("partition", src="A", dst="B"),))
        inj = FaultInjector(plan)
        assert inj.message_fate("A", "B", 0.0).drop
        assert not inj.message_fate("B", "A", 0.0).drop
        assert inj.injected["partition"] == 1

    def test_brownout_factor_windowed_and_multiplicative(self):
        plan = FaultPlan(
            rules=(
                FaultRule("brownout", node="N1", factor=8.0, start=5.0, end=15.0),
                FaultRule("brownout", node="N1", factor=2.0, start=10.0, end=20.0),
            )
        )
        inj = FaultInjector(plan)
        assert inj.brownout_factor("N1", 0.0) == 1.0
        assert inj.brownout_factor("N1", 6.0) == 8.0
        assert inj.brownout_factor("N1", 12.0) == 16.0  # overlap multiplies
        assert inj.brownout_factor("N1", 19.0) == 2.0
        assert inj.brownout_factor("N2", 12.0) == 1.0

    def test_chaos_plan_is_deterministic(self):
        nodes = [f"N{i}" for i in range(8)]
        a = chaos_plan(nodes, seed=4, loss=0.1, partitions=2, brownouts=1)
        b = chaos_plan(nodes, seed=4, loss=0.1, partitions=2, brownouts=1)
        assert a.as_dict() == b.as_dict()
        for rule in a.rules:
            if rule.kind == "partition":
                assert rule.src != rule.dst


# --------------------------------------------------------------------------
# Breaker state machine


def _ledger(**kwargs):
    sim = Simulator()
    counters = FailoverCounters()
    ledger = HealthLedger(sim, counters, **kwargs)
    return sim, counters, ledger


class TestBreakerStateMachine:
    def test_trips_after_consecutive_failures(self):
        _, counters, ledger = _ledger(failure_threshold=3)
        ledger.observe_failure("X")
        ledger.observe_failure("X")
        assert ledger.peer("X").state == CLOSED
        ledger.observe_failure("X")
        assert ledger.peer("X").state == OPEN
        assert counters.breaker_trips == 1
        assert counters.health_observations == 3

    def test_success_resets_failure_streak(self):
        _, _, ledger = _ledger(failure_threshold=3)
        ledger.observe_failure("X")
        ledger.observe_failure("X")
        ledger.observe_success("X", 0.01)
        ledger.observe_failure("X")
        ledger.observe_failure("X")
        assert ledger.peer("X").state == CLOSED

    def test_latency_trip_on_slow_ewma(self):
        """The gray failure: answering, but too slowly to be useful."""
        _, counters, ledger = _ledger(latency_threshold=0.1)
        ledger.observe_success("X", 0.01)
        assert ledger.peer("X").state == CLOSED
        for _ in range(20):
            ledger.observe_success("X", 5.0)
        assert ledger.peer("X").state == OPEN
        assert counters.breaker_trips == 1

    def test_open_rejects_until_reset_then_half_opens_one_probe(self):
        sim, counters, ledger = _ledger(failure_threshold=1, reset_after=2.0)
        ledger.observe_failure("X")
        assert not ledger.allow("X")
        assert ledger.open_now("X")
        sim.now = 3.0
        # Reset elapsed: exactly one probe is let through.
        assert ledger.allow("X")
        assert ledger.peer("X").state == HALF_OPEN
        assert not ledger.allow("X")  # second caller must wait for the probe
        assert counters.breaker_half_opens == 1

    def test_half_open_probe_success_closes(self):
        sim, _, ledger = _ledger(failure_threshold=1, reset_after=1.0)
        ledger.observe_failure("X")
        sim.now = 2.0
        assert ledger.allow("X")
        ledger.observe_success("X", 0.02)
        assert ledger.peer("X").state == CLOSED
        assert ledger.allow("X")

    def test_half_open_probe_failure_reopens(self):
        sim, _, ledger = _ledger(failure_threshold=1, reset_after=1.0)
        ledger.observe_failure("X")
        sim.now = 2.0
        assert ledger.allow("X")
        ledger.observe_failure("X")
        assert ledger.peer("X").state == OPEN
        assert ledger.peer("X").opened_at == 2.0
        assert not ledger.allow("X")

    def test_open_now_is_non_mutating(self):
        sim, counters, ledger = _ledger(failure_threshold=1, reset_after=1.0)
        ledger.observe_failure("X")
        sim.now = 2.0
        # Peeking after the reset period must not claim the probe.
        assert not ledger.open_now("X")
        assert ledger.peer("X").state == OPEN
        assert counters.breaker_half_opens == 0

    def test_open_breaker_short_circuits_transport_call(self):
        system = build_system()
        net = system.network
        net.health = HealthLedger(system.sim, net.failover,
                                  failure_threshold=1, reset_after=60.0)
        net.health.observe_failure("N0")
        seen = {}

        def proc():
            try:
                yield net.call("D1", "N0", "index_lookup", IndexLookup(key=1))
            except RpcTimeout as exc:
                seen["exc"] = exc

        started = system.sim.now
        system.sim.process(proc())
        system.sim.run()
        assert "circuit open" in str(seen["exc"])
        assert net.failover.breaker_short_circuits == 1
        # Short-circuit means *instant*: no real timeout was burned.
        assert system.sim.now == started


# --------------------------------------------------------------------------
# Satellite 1: duplicates across the release sweep boundary


class TestDuplicateStorm:
    def test_duplicates_across_sweep_boundary_stay_exact(self):
        """Every message is duplicated with a lag that straddles query
        completion: the late copies land after ``release()`` quarantined
        the query's corr ids and must be absorbed by the tombstones —
        which only the deferred sweep may remove. Serial queries then
        recycle initiator slot 0 (and with it the corr-id namespace), so
        any leaked duplicate would surface as extra rows in the *next*
        query's answer."""
        queries = ["fig4", "fig7", "fig5"]
        oracle = {name: _oracle(PAPER_FIG_QUERIES[name]) for name in queries}
        system = build_system(replication_factor=2)
        plan = FaultPlan(
            rules=(FaultRule("duplicate", probability=1.0,
                             delay=0.5, jitter=0.5),),
            seed=7,
        )
        system.network.install_faults(plan)
        executor = DistributedExecutor(
            system, ExecutionOptions(retries=2, failover=True))
        for name in queries:
            result, report = executor.execute(PAPER_FIG_QUERIES[name])
            assert _rows(result) == oracle[name], name
            assert not report.incomplete
        assert system.network.faults.injected["duplicate"] > 0
        # sim.run drained the heap, so every deferred sweep has fired:
        # no tombstones, mailboxes, or memoized replies may survive.
        for node in system.network.nodes.values():
            state = node.__dict__
            assert not state.get("_qp_mailbox"), node.node_id
            assert not state.get("_qp_dead_corrs"), node.node_id
            assert not state.get("_qp_replied"), node.node_id

    def test_duplicate_execute_primitive_absorbed_by_dedup(self):
        """Receiver-side idempotent dedup: a duplicated two-way RPC whose
        second copy arrives while (or after) the first executed must not
        re-run the primitive."""
        system = build_system(replication_factor=2)
        plan = FaultPlan(
            rules=(FaultRule("duplicate", probability=1.0, delay=0.2),),
            seed=1,
        )
        system.network.install_faults(plan)
        executor = DistributedExecutor(system, ExecutionOptions())
        for name in ("fig4", "fig6"):
            result, _ = executor.execute(PAPER_FIG_QUERIES[name])
            assert _rows(result) == _oracle(PAPER_FIG_QUERIES[name])
        assert system.network.failover.duplicates_dropped > 0


# --------------------------------------------------------------------------
# Re-resolving a dead owner's replica has one home


def avoid_hints(system, initiator):
    """Record every ``find_successor`` payload carrying an ``avoid`` hint
    that *initiator* sends into the ring."""
    seen = []
    call = system.network.call

    def spy(src, dst, method, payload=None, *args, **kwargs):
        if src == initiator and method == "find_successor" and payload.avoid:
            seen.append(payload)
        return call(src, dst, method, payload, *args, **kwargs)

    system.network.call = spy
    return seen


class TestReplicaOf:
    """Lookup failover and dispatch failover both find the replica holder
    through ``ExecutionContext.replica_of``."""

    OPTIONS = ExecutionOptions(failover=True, retries=1, backoff=0.02)
    #: Reads the knows row and the name row; only the first is the victim's.
    NAMED_WALK = "SELECT ?x ?y ?n WHERE { ?x foaf:knows ?y . ?y foaf:name ?n . }"

    @pytest.mark.parametrize("crash_at, counter", [
        (0.001, "lookup_failovers"),  # dies before its row is read
        (0.05, "dispatch_failovers"),  # dies after the read, before dispatch
    ])
    def test_failover_hint_shape(self, crash_at, counter):
        system = build_system(replication_factor=2)
        victim = knows_owner(system)
        initiator = next(sid for sid, node in sorted(system.storage_nodes.items())
                         if node.index_node_id != victim)
        seen = avoid_hints(system, initiator)
        fail_at(system, victim, crash_at)
        # A walk reads the row before it dispatches its leaves.
        DistributedExecutor(system, self.OPTIONS).execute(self.NAMED_WALK,
                                                          initiator=initiator)
        assert getattr(system.network.failover, counter) == 1
        _kind, key = key_for_pattern(KNOWS_PATTERN, system.space)
        assert seen == [FindSuccessor(key=key, avoid=[victim])]

    def test_failover_hint_shape_when_the_owner_reads(self):
        """The owner dies before its sub-query, sent unread, reaches it."""
        system = build_system(replication_factor=2)
        victim = knows_owner(system)
        initiator = next(sid for sid, node in sorted(system.storage_nodes.items())
                         if node.index_node_id != victim)
        seen = avoid_hints(system, initiator)
        fail_at(system, victim, 0.001)
        DistributedExecutor(system, self.OPTIONS).execute(KNOWS_QUERY,
                                                          initiator=initiator)
        assert system.network.failover.dispatch_failovers == 1
        assert system.network.failover.lookup_failovers == 0
        _kind, key = key_for_pattern(KNOWS_PATTERN, system.space)
        assert seen == [FindSuccessor(key=key, avoid=[victim])]

    def test_avoid_payload_built_only_in_replica_of(self):
        """The walk builds every ``avoid`` payload; the query layer hands
        it a dead owner to avoid only in ``replica_of``."""
        package = Path(repro.query.__file__).parent
        sources = [path.read_text() for path in sorted(package.glob("*.py"))]
        assert not any("FindSuccessor" in text for text in sources)
        assert inspect.getsource(walk).count("FindSuccessor(key=key, avoid=") == 1
        with_dead = [line.strip() for text in sources for line in text.splitlines()
                     if "ring_resolve(key, (dead" in line]
        assert with_dead == ["result = yield from self.ring_resolve(key, (dead,))"]
        assert with_dead[0] in inspect.getsource(ExecutionContext.replica_of)


class TestDispatchFailoverTag:
    """A dispatch failover re-mints the corr its delivery is waited on
    under, with or without a fault plan."""

    @staticmethod
    def _lose_first_owner_reply(plan):
        """Only the owner's ``execute_primitive`` reply is lost; its
        chain still delivers, under the first corr, to the same landing
        site. The initiator times out, tombstones that corr and
        re-dispatches to the replica holder. Had the replica's step kept
        the first corr, the first delivery's notification would satisfy
        the wait for the replica's and the answer would be read from an
        empty mailbox: zero rows, and nothing flagged."""
        expected = _oracle(KNOWS_QUERY)
        system = build_system(replication_factor=2)
        if plan is not None:
            system.network.install_faults(plan)
        owner = knows_owner(system)
        initiator = next(sid for sid, node in sorted(system.storage_nodes.items())
                         if node.index_node_id != owner)
        network = system.network
        respond = network._respond
        dropped = []

        def lose_owner_reply(call, target, value, exc):
            if (call is not None and call.spec.name == "execute_primitive"
                    and call.dst == owner and not dropped):
                dropped.append(call.src)
                return
            respond(call, target, value, exc)

        network._respond = lose_owner_reply
        options = ExecutionOptions(primitive_strategy=PrimitiveStrategy.CHAINED,
                                   failover=True)
        executor = DistributedExecutor(system, options)
        result, report = executor.execute(KNOWS_QUERY, initiator=initiator)
        assert dropped == [initiator]
        assert network.failover.dispatch_failovers == 1
        assert not report.incomplete
        assert _rows(result) == expected

    def test_late_delivery_of_the_first_owner_is_not_the_replicas(self):
        self._lose_first_owner_reply(FaultPlan(rules=()))

    def test_late_delivery_of_the_first_owner_without_a_fault_plan(self):
        self._lose_first_owner_reply(None)


# --------------------------------------------------------------------------
# Satellite 2: all chaos features off -> nothing moved


CHAOS_COUNTERS = (
    "breaker_trips",
    "breaker_half_opens",
    "breaker_short_circuits",
    "health_observations",
    "duplicates_dropped",
    "partial_patterns_dropped",
    "partial_results",
)


class TestChaosOffGuard:
    def test_default_run_leaves_chaos_layer_untouched(self):
        system = build_system(replication_factor=2)
        executor = DistributedExecutor(system)
        for query in PAPER_FIG_QUERIES.values():
            _, report = executor.execute(query)
            assert report.incomplete is False
            assert report.dropped_patterns == []
        network = system.network
        assert network.faults is None
        assert network.health is None
        counters = network.failover.as_dict()
        for name in CHAOS_COUNTERS:
            assert counters[name] == 0, name

    def test_fault_features_on_but_no_faults_stays_exact(self):
        """Breakers + partial results enabled against a healthy fabric:
        answers stay bit-identical and no degradation is recorded."""
        options = ExecutionOptions(retries=2, failover=True, breaker=True,
                                   partial_results=True)
        system = build_system(replication_factor=2)
        executor = DistributedExecutor(system, options)
        for name, query in PAPER_FIG_QUERIES.items():
            result, report = executor.execute(query)
            assert _rows(result) == _oracle(query), name
            assert not report.incomplete
        counters = system.network.failover
        assert counters.breaker_trips == 0
        assert counters.partial_patterns_dropped == 0
        assert counters.partial_results == 0


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
