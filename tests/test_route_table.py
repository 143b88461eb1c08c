"""Owner arcs learned from ring lookups: repeat lookups skip the Chord walk.

A query peer remembers every index node its ring walks probed, and, per
owner a walk named, the arc of keys that node owns
(:class:`~repro.overlay.peer.RouteTable`). A later lookup inside a
remembered arc reads the owner's location-table row directly, at 0
hops; the owner answers only for keys it owns, and a bounce or a failed
call sends the lookup back to the ring. A lookup outside every
remembered arc starts its ring walk at the known node closest before
the key instead of at the entry node.

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
from repro.net.protocol import IndexLookup
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
        table.learn(owner, 89)
        assert [k for k in range(256) if table.get(k) == owner] == \
            list(range(90, 101))

    def test_a_named_predecessor_makes_the_arc_exact(self):
        """The walk's final responder is the owner's predecessor as the
        ring sees it; a later walk that names another one replaces it."""
        table = RouteTable(self.SPACE)
        owner = self.ref(100)
        table.learn(owner, 40)
        assert [k for k in range(256) if table.get(k) == owner] == \
            list(range(41, 101))
        table.learn(owner, 70)  # a later walk: the ring moved
        assert table.get(70) is None and table.get(71) == owner
        assert len(table) == 1

    def test_arc_across_zero(self):
        table = RouteTable(self.SPACE)
        first, last = self.ref(10), self.ref(200)
        table.learn(first, 249)
        table.learn(last, 149)
        assert table.get(255) == first and table.get(3) == first
        assert table.get(249) is None
        assert table.get(201) is None and table.get(200) == last

    def test_forget_drops_only_that_owner(self):
        table = RouteTable(self.SPACE)
        a, b = self.ref(50), self.ref(100)
        table.learn(a, 39)
        table.learn(b, 89)
        table.forget(a)
        assert table.get(45) is None and table.get(95) == b
        table.forget(a)  # forgetting twice is harmless
        assert len(table) == 1

    def test_preceding_is_the_closest_owner_before_the_key(self):
        table = RouteTable(self.SPACE)
        assert table.preceding(7) is None
        a, b = self.ref(50), self.ref(100)
        table.learn(a, 39)
        table.learn(b, 89)
        assert table.preceding(101) == b and table.preceding(51) == a
        # Across zero: nothing lies before 10, so the last owner does.
        assert table.preceding(10) == b and table.preceding(255) == b
        table.forget(b)
        assert table.preceding(101) == a and table.preceding(10) == a
        table.forget(a)
        assert table.preceding(101) is None

    def test_a_bare_node_is_a_start_but_never_an_owner(self):
        table = RouteTable(self.SPACE)
        owner, bare = self.ref(100), self.ref(60)
        table.note(bare)
        assert all(table.get(k) is None for k in range(256))
        assert table.preceding(61) == bare and table.preceding(10) == bare
        table.learn(owner, 60)
        assert table.get(60) is None and table.get(61) == owner
        assert table.preceding(100) == bare and table.preceding(101) == owner
        table.note(owner)  # probed later: the arc stays
        assert table.get(61) == owner
        table.learn(bare, 20)  # a bare node named as an owner gains its arc
        assert table.get(21) == bare and len(table) == 2

    def test_stays_within_its_cap_dropping_the_oldest(self):
        space = IdentifierSpace(32)
        table = RouteTable(space)
        refs = [NodeRef(1000 * (i + 1), f"N{i}") for i in range(ROUTE_CAP + 10)]
        for i, ref in enumerate(refs):
            if i % 2:
                table.note(ref)
            else:
                table.learn(ref, ref.ident - 1)
            assert len(table) <= ROUTE_CAP
        assert len(table) == ROUTE_CAP
        assert all(table.preceding(ref.ident + 1) != ref for ref in refs[:10])
        assert all(table.preceding(ref.ident + 1) == ref for ref in refs[10:])
        assert all(table.get(ref.ident) == ref for ref in refs[10::2])


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
        assert reads == [("D1", owner, IndexLookup(key=key)),
                         ("D1", owner, IndexLookup(key=key, routed=True))]

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
        routed = IndexLookup(key=key, routed=True)
        assert owner.rpc_index_lookup(routed, "D1")
        assert other.rpc_index_lookup(routed, "D1") is None
        assert other.rpc_index_lookup(IndexLookup(key=key), "D1") == []

    def test_join_inside_a_learned_arc_bounces(self):
        system = build_system()
        expected = warm(system)
        key = knows_key(system)
        joined = join_index_node(system, "N8", ident=key)
        assert knows_owner(system) == joined.node_id
        walks = spy_calls(system, "find_successor")
        result, report, spans = traced_run(system, KNOWS_WALK)
        assert _rows(result) == expected
        assert spans[0]["fallback"] == "bounce"
        # The bounce takes the ring: one probe of the old arc's final
        # responder, whose successor is now the newcomer.
        assert [dst for src, dst, _p in walks if src == "D1"] == [spans[0]["start"]]
        assert report.lookup_hops == 0
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
            [IndexLookup(key=knows_key(system), routed=True)]
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
            [IndexLookup(key=knows_key(system), routed=True),
             IndexLookup(key=knows_key(system)), IndexLookup(key=knows_key(system))]


def ring_state(system):
    return {node_id: (list(node.fingers), list(node.successor_list),
                      node.predecessor)
            for node_id, node in system.index_nodes.items()}


class TestLearnedStarts:
    """On a 64-node ring D1 enters at N10; the knows lookup probes N10,
    N11, N48 and N49 and names N37, whose arc (N49, N37] D1 learns. The
    keys below lie outside it, and N37 is the known node closest before
    the ns:knowsNothingAbout key."""

    NOTHING_QUERY = ("SELECT ?x ?y ?z WHERE "
                     "{ ?x ns:knowsNothingAbout ?y . ?y ns:knowsNothingAbout ?z . }")

    def test_cold_peer_walks_from_the_entry(self):
        system = build_system(num_index=64)
        walks = spy_calls(system, "find_successor")
        result, report, spans = traced_run(system, self.NOTHING_QUERY)
        assert (report.lookup_hops, report.messages,
                report.bytes_total) == (4, 24, 2493)
        # The originator sends every probe: the entry, then one per hop.
        assert [src for src, _dst, _p in walks] == ["D1"] * 5
        assert walks[0][1] == system.storage_nodes["D1"].index_node_id
        assert "start" not in spans[0]
        assert result.rows == oracle_rows(system, self.NOTHING_QUERY)

    def test_warm_peer_knows_every_probed_node(self):
        system = build_system(num_index=64)
        walks = spy_calls(system, "find_successor")
        warm(system)
        routes = system.storage_nodes["D1"].routes(system.space)
        probed = [system.index_nodes[dst].ref for _src, dst, _p in walks]
        assert len(routes) == len(probed) + 1  # and the owner
        assert all(routes.preceding(ref.ident + 1) == ref for ref in probed)
        # Only the owner answers get(): its arc ends at the last probe.
        owner = system.index_nodes[knows_owner(system)]
        assert routes.get(probed[-1].ident) is None
        assert routes.get(probed[-1].ident + 1) == owner.ref

    def test_miss_starts_at_the_nearest_learned_owner(self):
        system = build_system(num_index=64)
        warm(system)
        learned = knows_owner(system)
        walks = spy_calls(system, "find_successor")
        result, report, spans = traced_run(system, self.NOTHING_QUERY)
        probes = [dst for src, dst, _ in walks if src == "D1"]
        assert probes[0] == learned and len(probes) == report.lookup_hops + 1
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
        result, report, spans = traced_run(system, self.NOTHING_QUERY)
        assert result.rows == oracle_rows(system, self.NOTHING_QUERY)
        entry = system.storage_nodes["D1"].index_node_id
        probes = [(dst, p.avoid) for src, dst, p in walks if src == "D1"]
        # One timeout on the dead start; the entry's walk is told to
        # avoid it, so it is never probed again.
        assert probes[:2] == [(dead, None), (entry, [dead])]
        assert [dst for dst, _avoid in probes].count(dead) == 1
        assert "start" not in spans[0]
        assert report.lookup_hops == len(probes) - 2
        routes = system.storage_nodes["D1"].routes(system.space)
        assert routes.get(knows_key(system)) is None
        dead_ref = system.index_nodes[dead].ref
        assert routes.preceding(dead_ref.ident + 1) != dead_ref  # not even a start
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
