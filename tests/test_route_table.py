"""Owner arcs learned from ring lookups: repeat lookups skip the Chord walk.

A query peer remembers, per index node a ring lookup named, the arc of
keys that node owns (:class:`~repro.overlay.peer.RouteTable`). A later
lookup inside a remembered arc reads the owner's location-table row
directly, at 0 hops; the owner answers only for keys it owns, and a
bounce or a failed call sends the lookup back to the ring. A lookup
outside every remembered arc starts its ring walk at the learned owner
closest before the key instead of at the entry node.

The queries here are walks over one key: a walk plans from its leaves'
rows, so it reads the row (``index_lookup``) and both leaves share that
read. A single-pattern query sends its sub-query to the owner instead
of reading the row first; the same rules for that path are checked in
``test_owner_dispatch.py``.
"""

from __future__ import annotations

import pytest

from repro.chord import IdentifierSpace
from repro.chord.node import NodeRef
from repro.overlay import key_for_pattern
from repro.overlay.membership import depart_index_node, join_index_node
from repro.overlay.peer import ROUTE_CAP, RouteTable
from repro.query import DistributedExecutor, ExecutionOptions
from repro.query.executor import QueryFailed
from repro.rdf import FOAF, TriplePattern, Variable
from repro.trace import Tracer
from repro.workloads import PAPER_FIG_QUERIES

from helpers import build_system, oracle_rows
from test_churn_under_load import KNOWS_WALK, knows_owner

KNOWS_PATTERN = TriplePattern(Variable("x"), FOAF.knows, Variable("y"))


def _rows(result):
    return sorted(map(repr, result.rows))


def knows_key(system) -> int:
    return key_for_pattern(KNOWS_PATTERN, system.space)[1]


def lookup_spans(tracer):
    """The close details of every ``lookup`` span, in order."""
    return [event.detail for event in tracer.events
            if event.kind == "span_end" and event.name == "lookup"]


def traced_run(system, query, options=None, initiator="D1"):
    tracer = Tracer()
    executor = DistributedExecutor(system, options, tracer=tracer)
    result, report = executor.execute(query, initiator=initiator)
    return result, report, lookup_spans(tracer)


def spy_calls(system, method):
    """Record ``(src, dst, payload)`` of every *method* call from now on."""
    seen = []
    call = system.network.call

    def spy(src, dst, name, payload=None, *args, **kwargs):
        if name == method:
            seen.append((src, dst, payload))
        return call(src, dst, name, payload, *args, **kwargs)

    system.network.call = spy
    return seen


def warm(system, initiator="D1", query=KNOWS_WALK):
    """Run *query* (on the knows key) once, so *initiator* learns the
    knows arc."""
    result, _ = DistributedExecutor(system).execute(query, initiator=initiator)
    return _rows(result)


class TestRouteTable:
    SPACE = IdentifierSpace(8)

    def ref(self, ident):
        return NodeRef(ident, f"N{ident}")

    def test_learned_arc_ends_at_the_owner(self):
        table = RouteTable(self.SPACE)
        owner = self.ref(100)
        table.learn(90, owner)
        assert [k for k in range(256) if table.get(k) == owner] == \
            list(range(90, 101))

    def test_a_later_key_widens_the_arc_downward(self):
        table = RouteTable(self.SPACE)
        owner = self.ref(100)
        table.learn(90, owner)
        table.learn(60, owner)
        table.learn(95, owner)  # inside: the arc keeps its low end
        assert table.get(59) is None
        assert all(table.get(k) == owner for k in range(60, 101))
        assert table.get(101) is None
        assert len(table) == 1

    def test_a_named_predecessor_makes_the_arc_exact(self):
        table = RouteTable(self.SPACE)
        owner = self.ref(100)
        table.learn(90, owner)
        table.learn(95, owner, pred=40)  # the owner named its predecessor
        assert [k for k in range(256) if table.get(k) == owner] == \
            list(range(41, 101))
        table.learn(90, owner, pred=70)  # a later reply: the ring moved
        assert table.get(70) is None and table.get(71) == owner
        assert len(table) == 1

    def test_arc_across_zero(self):
        table = RouteTable(self.SPACE)
        first, last = self.ref(10), self.ref(200)
        table.learn(250, first)
        table.learn(150, last)
        assert table.get(255) == first and table.get(3) == first
        assert table.get(249) is None
        assert table.get(201) is None and table.get(200) == last

    def test_forget_drops_only_that_owner(self):
        table = RouteTable(self.SPACE)
        a, b = self.ref(50), self.ref(100)
        table.learn(40, a)
        table.learn(90, b)
        table.forget(a)
        assert table.get(45) is None and table.get(95) == b
        table.forget(a)  # forgetting twice is harmless
        assert len(table) == 1

    def test_preceding_is_the_closest_owner_before_the_key(self):
        table = RouteTable(self.SPACE)
        assert table.preceding(7) is None
        a, b = self.ref(50), self.ref(100)
        table.learn(40, a)
        table.learn(90, b)
        assert table.preceding(101) == b and table.preceding(51) == a
        # Across zero: nothing lies before 10, so the last owner does.
        assert table.preceding(10) == b and table.preceding(255) == b
        table.forget(b)
        assert table.preceding(101) == a and table.preceding(10) == a
        table.forget(a)
        assert table.preceding(101) is None

    def test_stays_within_its_cap_dropping_the_oldest(self):
        space = IdentifierSpace(32)
        table = RouteTable(space)
        refs = [NodeRef(1000 * (i + 1), f"N{i}") for i in range(ROUTE_CAP + 10)]
        for ref in refs:
            table.learn(ref.ident, ref)
            assert len(table) <= ROUTE_CAP
        assert len(table) == ROUTE_CAP
        assert all(table.get(ref.ident) is None for ref in refs[:10])
        assert all(table.get(ref.ident) == ref for ref in refs[10:])


class TestRoutedReads:
    def test_warm_lookup_skips_the_ring(self):
        system = build_system()
        reads = spy_calls(system, "index_lookup")
        first, cold, spans = traced_run(system, KNOWS_WALK)
        assert cold.lookup_hops == 2 and cold.messages == 20
        assert spans[0] == {"span": spans[0]["span"],
                            "duration": spans[0]["duration"], "hops": 2}
        second, hot, spans = traced_run(system, KNOWS_WALK)
        assert hot.lookup_hops == 0 and hot.messages == 14
        assert spans[0]["routed"] is True
        assert _rows(second) == _rows(first)
        owner, key = knows_owner(system), knows_key(system)
        assert reads == [("D1", owner, {"key": key}),
                         ("D1", owner, {"key": key, "routed": True})]

    def test_routes_are_per_initiator(self):
        system = build_system()
        warm(system, "D1")
        assert "_qp_routes" not in system.storage_nodes["D2"].__dict__
        _result, _report, spans = traced_run(system, KNOWS_WALK,
                                             initiator="D2")
        assert "routed" not in spans[0]

    def test_unrouted_read_is_answered_by_any_holder(self):
        system = build_system()
        key = knows_key(system)
        owner = system.index_nodes[knows_owner(system)]
        other = next(node for node in system.index_nodes.values()
                     if not node.owns(key))
        assert owner.rpc_index_lookup({"key": key, "routed": True}, "D1")
        assert other.rpc_index_lookup({"key": key, "routed": True}, "D1") is None
        assert other.rpc_index_lookup({"key": key}, "D1") == []

    def test_join_inside_a_learned_arc_bounces(self):
        system = build_system()
        expected = warm(system)
        key = knows_key(system)
        joined = join_index_node(system, "N8", ident=key)
        assert knows_owner(system) == joined.node_id
        result, report, spans = traced_run(system, KNOWS_WALK)
        assert _rows(result) == expected
        assert spans[0]["fallback"] == "bounce"
        assert report.lookup_hops > 0
        routes = system.storage_nodes["D1"].routes(system.space)
        assert routes.get(key).node_id == joined.node_id

    def test_departed_owner_is_unknown_then_the_ring_answers(self):
        system = build_system()
        expected = warm(system)
        departed = knows_owner(system)
        depart_index_node(system, departed)
        result, _report, spans = traced_run(system, KNOWS_WALK)
        assert _rows(result) == expected
        assert spans[0]["fallback"] == "NodeUnknown"
        routes = system.storage_nodes["D1"].routes(system.space)
        assert routes.get(knows_key(system)).node_id == knows_owner(system)

    def test_crashed_owner_times_out_then_fails_over(self):
        system = build_system(replication_factor=2)
        expected = warm(system)
        dead = knows_owner(system)
        system.network.fail_node(dead)
        reads = spy_calls(system, "index_lookup")
        options = ExecutionOptions(failover=True)
        result, report, spans = traced_run(system, KNOWS_WALK, options)
        assert _rows(result) == expected
        assert spans[0]["fallback"] == "RpcTimeout"
        assert system.network.failover.lookup_failovers == 1
        # The unstabilized ring still names the dead owner: the routed
        # read was its one timeout, failover went to the replica holder.
        assert [payload for _src, dst, payload in reads if dst == dead] == \
            [{"key": knows_key(system), "routed": True}]
        # A failover answer is never learned.
        routes = system.storage_nodes["D1"].routes(system.space)
        assert routes.get(knows_key(system)) is None

    def test_without_failover_the_ring_path_reads_the_owner_again(self):
        system = build_system(replication_factor=2)
        warm(system)
        dead = knows_owner(system)
        system.network.fail_node(dead)
        reads = spy_calls(system, "index_lookup")
        with pytest.raises(QueryFailed):
            DistributedExecutor(system).execute(KNOWS_WALK, initiator="D1")
        # The second leaf, which waited on the first's failed read, then
        # walks the ring itself.
        assert [payload for _src, dst, payload in reads if dst == dead] == \
            [{"key": knows_key(system), "routed": True}, {"key": knows_key(system)},
             {"key": knows_key(system)}]


def ring_state(system):
    return {node_id: (list(node.fingers), list(node.successor_list),
                      node.predecessor)
            for node_id, node in system.index_nodes.items()}


class TestLearnedStarts:
    """On a 64-node ring D1 enters at N10 and learns N37 from the knows
    lookup; the keys below lie outside N37's arc."""

    NOTHING_QUERY = ("SELECT ?x ?y ?z WHERE "
                     "{ ?x ns:knowsNothingAbout ?y . ?y ns:knowsNothingAbout ?z . }")
    NICK_QUERY = "SELECT ?x ?y ?z WHERE { ?x foaf:nick ?y . ?z foaf:nick ?y . }"

    def test_cold_peer_walks_from_the_entry(self):
        system = build_system(num_index=64)
        result, report, spans = traced_run(system, self.NOTHING_QUERY)
        assert (report.lookup_hops, report.messages,
                report.bytes_total) == (4, 24, 2548)
        assert "start" not in spans[0]
        assert result.rows == oracle_rows(system, self.NOTHING_QUERY)

    def test_miss_starts_at_the_nearest_learned_owner(self):
        system = build_system(num_index=64)
        warm(system)
        learned = knows_owner(system)
        walks = spy_calls(system, "find_successor")
        result, report, spans = traced_run(system, self.NOTHING_QUERY)
        assert [dst for src, dst, _ in walks if src == "D1"] == [learned]
        assert spans[0]["start"] == learned and "routed" not in spans[0]
        _result, fresh, _spans = traced_run(build_system(num_index=64),
                                            self.NOTHING_QUERY)
        assert report.lookup_hops == 1 < fresh.lookup_hops == 4
        assert result.rows == oracle_rows(system, self.NOTHING_QUERY)

    def test_dead_start_is_forgotten_and_the_entry_walks(self):
        system = build_system(num_index=64)
        warm(system)
        dead = knows_owner(system)
        system.network.fail_node(dead)
        before = ring_state(system)
        walks = spy_calls(system, "find_successor")
        result, report, spans = traced_run(system, self.NICK_QUERY)
        assert result.rows == oracle_rows(system, self.NICK_QUERY)
        entry = system.storage_nodes["D1"].index_node_id
        assert [dst for src, dst, _ in walks if src == "D1"] == [dead, entry]
        assert "start" not in spans[0] and report.lookup_hops == 2
        routes = system.storage_nodes["D1"].routes(system.space)
        assert routes.get(knows_key(system)) is None and len(routes) == 1
        # A failed start is a hint gone stale, never evidence to evict.
        assert ring_state(system) == before


@pytest.mark.parametrize("name", sorted(PAPER_FIG_QUERIES))
def test_cold_query_takes_the_ring_path(name, monkeypatch):
    """On a fresh system every lookup walks the ring: the run is
    message-for-message the one with route learning switched off."""
    query = PAPER_FIG_QUERIES[name]

    def run():
        system = build_system()
        tracer = Tracer()
        result, report = DistributedExecutor(system, tracer=tracer).execute(
            query, initiator="D1")
        messages = [(e.kind, e.src, e.dst, e.name, e.bytes, e.time)
                    for e in tracer.events if e.bytes]
        return (_rows(result), report.messages, report.bytes_total,
                report.lookup_hops, report.response_time, messages,
                lookup_spans(tracer))

    learned = run()
    assert not any("routed" in s or "fallback" in s for s in learned[-1])
    monkeypatch.setattr(RouteTable, "get", lambda self, key: None)
    assert run()[:-1] == learned[:-1]
