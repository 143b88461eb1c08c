"""Event/mailbox lifecycle regression tests.

Two leak families fixed together with the tracing work:

1. ``Network.call`` used to leave its deadline timer live in the heap
   after the reply won the race — dragging ``sim.now`` to the deadline
   on the next ``run()`` and churning the heap. Timers are now cancelled
   (heap tombstones) by whichever racer loses.
2. After a ``DeliveryTimeout``, a late one-way ``deliver``/``delivered``
   used to land in ``QueryPeer.mailbox`` with nobody ever fetching it,
   and ``_expected`` callbacks lingered. Correlation state is now
   abandoned on timeout (dead-letter tombstones) and swept at query end.
"""

import gc

import pytest

from repro.net import Network, Node
from repro.net.protocol import Deliver, Delivered
from repro.query import DistributedExecutor, ExecutionOptions, PrimitiveStrategy
from repro.query.strategies import DELIVERY_TIMEOUT
from repro.overlay.peer import ROUTE_CAP, QueryPeer
from repro.workloads import PAPER_FIG_QUERIES

from helpers import build_system, declare, oracle_rows


class EchoNode(Node):
    def rpc_echo(self, payload, src):
        return payload


def live_heap(sim):
    pending = [*sim._heap, *sim._now_queue]
    return [entry for entry in pending if entry[2] is not None]


def peer_state(system):
    """Aggregate correlation-state sizes across every query peer."""
    mailbox = expected = early = dead = 0
    for node in system.network.nodes.values():
        if isinstance(node, QueryPeer):
            state = node.__dict__
            mailbox += len(state.get("_qp_mailbox") or ())
            expected += len(state.get("_qp_expected") or ())
            early += len(state.get("_qp_delivered_early") or ())
            dead += len(state.get("_qp_dead_corrs") or ())
    return {"mailbox": mailbox, "expected": expected, "early": early, "dead": dead}


CLEAN = {"mailbox": 0, "expected": 0, "early": 0, "dead": 0}


class TestTimerCancellation:
    def test_kernel_event_cancel(self):
        from repro.net.sim import Simulator

        sim = Simulator()
        event = sim.event()
        fired = []
        event.callbacks.append(lambda e: fired.append(e))
        assert event.cancel() is True
        assert event.cancelled
        with pytest.raises(Exception):
            event.succeed("late")  # cancelled events never trigger
        sim.run()
        assert fired == []

    def test_cancel_after_trigger_loses_race(self):
        from repro.net.sim import Simulator

        sim = Simulator()
        event = sim.event()
        event.succeed(1)
        assert event.cancel() is False
        assert not event.cancelled

    def test_cancelled_timeout_does_not_advance_clock(self):
        from repro.net.sim import Simulator

        sim = Simulator()
        long_timer = sim.timeout(1000.0)
        sim.timeout(0.5)
        long_timer.cancel()
        assert sim.run() == pytest.approx(0.5)

    def test_rpc_reply_cancels_deadline_timer(self, monkeypatch):
        """A successful call leaves no live deadline timer behind: the
        post-call clock is the reply time, not the (huge) deadline."""
        declare(monkeypatch, "echo")
        net = Network(default_timeout=10_000.0)
        net.register(EchoNode("a"))

        def proc():
            return (yield net.call("client", "a", "echo", "x"))

        assert net.sim.run_process(proc()) == "x"
        assert net.sim.now < 1.0
        assert live_heap(net.sim) == []

    def test_fail_fast_cancels_deadline_timer(self, monkeypatch):
        declare(monkeypatch, "echo")
        net = Network(default_timeout=10_000.0)
        net.register(EchoNode("a"))

        def proc():
            try:
                yield net.call("client", "ghost", "echo", "x")
            except Exception:
                pass
            return net.sim.now

        assert net.sim.run_process(proc()) < 1.0
        assert live_heap(net.sim) == []

    def test_heap_returns_to_baseline_after_query(self):
        system = build_system()
        baseline = len(live_heap(system.sim))
        DistributedExecutor(system).execute(
            "SELECT ?x ?y WHERE { ?x foaf:knows ?y . }", initiator="D1")
        assert len(live_heap(system.sim)) == baseline == 0

    def test_query_does_not_drag_clock_to_deadline(self):
        """Response time reflects the work, not the stale 5 s RPC
        deadlines the old code left in the heap."""
        system = build_system()
        _, report = DistributedExecutor(system).execute(
            "SELECT ?x WHERE { ?x foaf:knows ns:me . }", initiator="D1")
        assert report.response_time < 1.0
        assert system.sim.now < 1.0


class TestDeadCorrelations:
    def test_late_deliver_after_abandon_is_dropped(self):
        system = build_system()
        peer = system.storage_nodes["D1"]
        peer.abandon_corr("c1")
        peer.rpc_deliver(Deliver(corr="c1", data=[1, 2, 3]), "D2")
        assert "c1" not in peer.mailbox
        # The tombstone survives the first late arrival: a duplicated or
        # retried send can trail in more copies, and each must be
        # dropped. purge_corrs (the executor's sweep) removes it.
        peer.rpc_deliver(Deliver(corr="c1", data=[4, 5]), "D2")
        assert "c1" not in peer.mailbox
        assert "c1" in peer._dead_corrs
        assert peer.purge_corrs(["c1"]) == 1
        assert "c1" not in peer._dead_corrs

    def test_late_delivered_after_abandon_is_dropped(self):
        system = build_system()
        peer = system.storage_nodes["D1"]
        event = peer.expect("c2", "D2")
        peer.abandon_corr("c2")
        peer.rpc_delivered(Delivered(corr="c2", count=7), "D2")
        assert not event.triggered or event.cancelled
        assert ("c2", "D2") not in peer._delivered_early
        # A second late copy is dropped by the same tombstone.
        peer.rpc_delivered(Delivered(corr="c2", count=7), "D2")
        assert ("c2", "D2") not in peer._delivered_early
        assert "c2" in peer._dead_corrs
        assert peer.purge_corrs(["c2"]) == 1

    def test_chain_timeout_fallback_leaves_no_state(self):
        """The satellite-2 scenario: the chain's final delivery is slower
        than the delivery timeout and arrives *after* the BASIC fallback
        already re-executed. The late payload is dead-lettered instead of
        parking in a mailbox forever; the query succeeds and leaves every
        peer clean."""
        system = build_system()
        # Delay every one-way `deliver` by 6 s — past the 5 s delivery
        # timeout — while chain_step and RPC traffic run at normal speed,
        # so the chain *completes* but completes late.
        real_send = system.network.send

        def slow_send(src, dst, method, payload=None):
            if method == "deliver":
                system.sim.timeout(DELIVERY_TIMEOUT + 1.0).callbacks.append(
                    lambda _e: real_send(src, dst, method, payload))
            else:
                real_send(src, dst, method, payload)

        system.network.send = slow_send
        options = ExecutionOptions(
            primitive_strategy=PrimitiveStrategy.CHAINED)
        query = "SELECT ?x ?y WHERE { ?x foaf:knows ?y . }"
        # Initiate from an index node: it holds no data, so the chain's
        # last hop is a real message (interceptable above).
        result, report = DistributedExecutor(system, options).execute(
            query, initiator="N0")
        assert report.retries >= 1  # the chain did time out
        assert result.rows == oracle_rows(system, query)
        assert peer_state(system) == CLEAN
        assert live_heap(system.sim) == []

    def test_hundred_query_loop_no_growth(self):
        """The ISSUE acceptance criterion: a 100-query loop leaves no
        growth in the heap, mailboxes, or pending expectations."""
        system = build_system()
        executor = DistributedExecutor(system)
        queries = [
            "SELECT ?x WHERE { ?x foaf:knows ns:me . }",
            "ASK { ?x foaf:nick ?n . }",
            """SELECT ?x ?y ?z WHERE {
                ?x foaf:knows ?z . ?x ns:knowsNothingAbout ?y . }""",
            "SELECT * WHERE { ?x foaf:name ?n . FILTER regex(?n, \"Smith\") }",
        ]
        for i in range(100):
            executor.execute(queries[i % len(queries)], initiator="D1")
            assert peer_state(system) == CLEAN, f"leak after query {i}"
        assert live_heap(system.sim) == []
        assert system.sim._heap == []

    def test_failed_query_sweeps_state(self):
        system = build_system()
        executor = DistributedExecutor(system)
        with pytest.raises(Exception):
            executor.execute(
                "SELECT ?x FROM <http://g> WHERE { ?x ?p ?o . }", initiator="D1")
        assert peer_state(system) == CLEAN


class TestReleaseVisitsTouchedPeersOnly:
    """Per-query cleanup is proportional to the peers the query's
    messages addressed, not to the size of the network."""

    QUERIES = [
        "SELECT ?x WHERE { ?x foaf:knows ns:me . }",
        """SELECT ?x ?y ?z WHERE {
            ?x foaf:knows ?z . ?x ns:knowsNothingAbout ?y . }""",
        "SELECT * WHERE { ?x foaf:name ?n . OPTIONAL { ?x foaf:nick ?k . } }",
    ]

    @staticmethod
    def _peers_purged_per_query(monkeypatch, num_index, options, faults=None):
        """Runs QUERIES; returns, per query, the node of every
        ``purge_corrs`` call its release (and delayed sweep) made."""
        calls = []
        real = QueryPeer.purge_corrs

        def counting(self, corrs):
            calls.append(self.node_id)
            return real(self, corrs)

        monkeypatch.setattr(QueryPeer, "purge_corrs", counting)
        system = build_system(num_index=num_index)
        system.network.install_faults(faults)
        executor = DistributedExecutor(system, options)
        per_query = []
        for query in TestReleaseVisitsTouchedPeersOnly.QUERIES:
            before = len(calls)
            result, _ = executor.execute(query, initiator="D1")
            assert result.rows == oracle_rows(system, query)
            system.sim.run()  # let any delayed sweep fire
            per_query.append(calls[before:])
        # Nothing may be left anywhere — not only where release() looked.
        # The result cache and the route table are cross-query state by
        # design; the route table is held to its bound instead.
        for node in system.network.nodes.values():
            residue = {k: v for k, v in node.__dict__.items()
                       if k.startswith("_qp_") and v
                       and k not in ("_qp_result_cache", "_qp_routes")}
            assert not residue, (node.node_id, residue)
            routes = node.__dict__.get("_qp_routes")
            if routes is not None:
                assert node.node_id == "D1" and len(routes) <= ROUTE_CAP
        assert system.network.flow_peers == system.network.flow_reports == {}
        assert live_heap(system.sim) == []
        return per_query

    @pytest.mark.parametrize("options", [
        ExecutionOptions(),
        ExecutionOptions(primitive_strategy=PrimitiveStrategy.CHAINED),
    ], ids=["basic", "chained"])
    def test_purge_calls_do_not_grow_with_the_ring(self, monkeypatch, options):
        small = self._peers_purged_per_query(monkeypatch, 64, options)
        monkeypatch.undo()
        large = self._peers_purged_per_query(monkeypatch, 512, options)
        assert [len(c) for c in small] == [len(c) for c in large]
        # Initiator, one owner per pattern, the providers.
        assert max(len(c) for c in large) <= 4 + 1 + 2 + 1

    def test_same_peers_under_a_fault_plan(self, monkeypatch):
        from repro.net.faults import FaultPlan, FaultRule

        plan = FaultPlan(rules=(FaultRule("duplicate", probability=1.0,
                                          delay=0.2, jitter=0.5),), seed=3)
        healthy = self._peers_purged_per_query(
            monkeypatch, 64, ExecutionOptions())
        monkeypatch.undo()
        chaotic = self._peers_purged_per_query(
            monkeypatch, 64, ExecutionOptions(), faults=plan)
        # Quarantine changes when corrs are purged, not where.
        assert [set(c) for c in chaotic] == [set(c) for c in healthy]


class TestReceiverStateAfterRelease:
    """Receivers apply their declared delivery semantics (the per-corr
    ``execute_primitive`` ledger, the ``cache_admit`` reply memo, mailbox
    entries that no operation consumes) whether or not a fault plan is
    installed, and a query's release reclaims all of it. An empty plan
    changes only the sender side: delivery tags and the quarantine
    before corrs are purged."""

    QUERIES = [PAPER_FIG_QUERIES[name] for name in sorted(PAPER_FIG_QUERIES)]

    def _run(self, monkeypatch, faults):
        from repro.query.executor import ExecutionContext

        system = build_system()
        system.network.install_faults(faults)
        before_release = []
        release = ExecutionContext.release

        def snapshot(ctx):
            before_release.append(receiver_state(system))
            return release(ctx)

        monkeypatch.setattr(ExecutionContext, "release", snapshot)
        executor = DistributedExecutor(system, ExecutionOptions(
            result_cache=True,
            primitive_strategy=PrimitiveStrategy.CHAINED))
        answers = []
        for query in self.QUERIES * 3:  # the third round admits to the cache
            result, _ = executor.execute(query, initiator="D1")
            assert result.rows == oracle_rows(system, query)
            answers.append(sorted(map(repr, result.rows)))
        system.sim.run()  # let a quarantine's delayed sweep fire
        monkeypatch.undo()
        return (answers, before_release, receiver_state(system),
                system.stats.per_kind_messages, system.network.failover)

    def test_no_plan_and_empty_plan_leave_no_receiver_state(self, monkeypatch):
        from repro.net.faults import FaultPlan

        plain = self._run(monkeypatch, None)
        empty = self._run(monkeypatch, FaultPlan(rules=()))
        for answers, before, after, _messages, failover in (plain, empty):
            assert answers == plain[0]
            # Both ledgers were in use while the queries ran ...
            assert sum(s["inflight"] for s in before) > 0
            assert sum(s["replied"] for s in before) > 0
            # ... and nothing is left once they are released.
            assert after == {"mailbox": 0, "inflight": 0, "replied": 0}
            assert failover.duplicates_dropped == 0
        # The receivers held the same state, query by query, and the
        # same messages crossed the wire.
        assert empty[1] == plain[1]
        assert empty[3] == plain[3]


def receiver_state(system):
    """Receiver-side ledger sizes summed over every query peer."""
    state = {"mailbox": 0, "inflight": 0, "replied": 0}
    for node in system.network.nodes.values():
        if isinstance(node, QueryPeer):
            for key in state:
                state[key] += len(node.__dict__.get(f"_qp_{key}") or ())
    return state


class TestNoCyclicGarbage:
    """A settled RPC — retried, failed over or short-circuited — is freed
    by reference counting. Reference cycles left per call would hand
    every query's call state to the cycle collector, whose full passes
    scan every live object of a long-running system."""

    OPTIONS = ExecutionOptions(retries=2, per_attempt_timeout=0.5,
                               failover=True, breaker=True,
                               query_deadline=30.0)

    def _garbage_after(self, num_queries):
        system = build_system(replication_factor=2)
        # N2 owns index rows the mix reads: its lookups time out, retry,
        # trip its breaker and fail over to the replica holder.
        system.network.fail_node("N2")
        executor = DistributedExecutor(system, self.OPTIONS)
        queries = list(PAPER_FIG_QUERIES.values())
        gc.collect()
        for i in range(num_queries):
            executor.execute(queries[i % len(queries)], initiator="D1")
        return gc.collect(), system.network.failover

    def test_garbage_does_not_grow_with_queries(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            small, _ = self._garbage_after(6)
            large, failover = self._garbage_after(24)
        finally:
            if enabled:
                gc.enable()
        assert failover.retries and failover.breaker_short_circuits
        assert large <= small, (small, large)
