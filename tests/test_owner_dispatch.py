"""The key's owner reads its own row (Sect. IV-C).

A primitive leaf whose rows land at the initiator needs no location-table
row to plan, so the initiator resolves only the key's owner and sends it
``execute_primitive``; the owner reads the row when the sub-query
arrives. The ring walk's final responder is the owner's predecessor as
the ring sees it, so once the owner answers the initiator learns the
owner's whole arc (responder, owner]. Routing and failover follow the
row read's rules (``test_route_table.py``): a routed request to a
learned arc bounces off a node that does not own the key, a bounce or
failed call forgets the arc and takes the ring, a dead owner is never
dialed twice, and no arc is learned from a failover answer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.net.protocol import ExecutePrimitive
from repro.overlay import key_for_pattern
from repro.overlay.membership import depart_index_node, join_index_node
from repro.query import DistributedExecutor, ExecutionOptions, PrimitiveStrategy
from repro.query.cost import choose_strategy
from repro.query.executor import QueryFailed
from repro.query.physical import chain_leaves
from repro.rdf import FOAF, PatternShape
from repro.rdf.namespaces import COMMON_PREFIXES
from repro.sparql import parse_query
from repro.sparql.algebra import translate_pattern
from repro.workloads import (
    FoafConfig, QueryWorkload, generate_foaf_triples, paper_example_dataset,
)

from helpers import build_system, oracle_rows
from test_churn_under_load import KNOWS_QUERY, knows_owner
from test_route_table import (
    _rows, knows_key, ring_state, spy_calls, traced_run, warm,
)

#: No cost planner: a single-pattern query dispatches straight to the owner.
DISPATCH = ExecutionOptions()
#: A key of the knows owner's arc below the knows key: inside the exact
#: arc (pred, owner], outside (knows-1, owner].
ANNA_QUERY = "SELECT ?p ?o WHERE { <http://example.org/people/anna> ?p ?o . }"
NOTHING_QUERY = "SELECT ?x ?y WHERE { ?x ns:knowsNothingAbout ?y . }"


def spy_rpcs(system):
    """Record ``(src, dst, method, payload)`` of every call from now on."""
    seen = []
    call = system.network.call

    def spy(src, dst, method, payload=None, *args, **kwargs):
        seen.append((src, dst, method, payload))
        return call(src, dst, method, payload, *args, **kwargs)

    system.network.call = spy
    return seen


def routes_of(system, peer="D1"):
    return system.storage_nodes[peer].routes(system.space)


def pattern_key(system, query):
    """The ring key of single-pattern *query* (None: it broadcasts)."""
    (pattern,) = translate_pattern(parse_query(query, COMMON_PREFIXES).where).patterns
    located = key_for_pattern(pattern, system.space)
    return located and located[1]


class TestHealthyPath:
    def test_cold_query_dispatches_after_the_ring(self):
        system = build_system()
        calls = spy_rpcs(system)
        result, report, spans = traced_run(system, KNOWS_QUERY, DISPATCH)
        assert _rows(result) == _rows_of_oracle(system, KNOWS_QUERY)
        # D1 probes the entry and each of the two hops itself.
        assert Counter(m for src, _dst, m, _p in calls if src == "D1") == \
            {"find_successor": 3, "execute_primitive": 1}
        assert not any(m == "index_lookup" for _s, _d, m, _p in calls)
        assert (report.lookup_hops, report.messages) == (2, 10)
        assert spans == [{"span": spans[0]["span"],
                          "duration": spans[0]["duration"], "hops": 2}]

    def test_the_ring_named_owner_teaches_its_whole_arc(self):
        system = build_system()
        warm(system, query=KNOWS_QUERY)
        owner = system.index_nodes[knows_owner(system)]
        routes = routes_of(system)
        pred = owner.predecessor.ident
        assert routes.get(pred) is None
        assert all(routes.get(k) == owner.ref
                   for k in (pred + 1, knows_key(system), owner.ident))

    def test_warm_query_is_one_routed_dispatch(self):
        system = build_system()
        expected = warm(system, query=KNOWS_QUERY)
        calls = spy_rpcs(system)
        result, report, spans = traced_run(system, KNOWS_QUERY, DISPATCH)
        assert _rows(result) == expected
        sent = [(dst, m) for src, dst, m, _p in calls if src == "D1"]
        assert sent == [(knows_owner(system), "execute_primitive")]
        assert [p.routed for src, _d, _m, p in calls if src == "D1"] == [True]
        assert (report.lookup_hops, report.messages) == (0, 4)
        assert spans[0]["routed"] is True

    def test_second_key_inside_the_exact_arc_takes_no_hop(self):
        system = build_system()
        warm(system, query=KNOWS_QUERY)
        key = pattern_key(system, ANNA_QUERY)
        assert key != knows_key(system)
        assert routes_of(system).get(key).node_id == knows_owner(system)
        result, report, spans = traced_run(system, ANNA_QUERY, DISPATCH)
        assert result.rows == oracle_rows(system, ANNA_QUERY)
        assert report.lookup_hops == 0 and spans[0]["routed"] is True

    def test_empty_row_returns_no_rows(self):
        system = build_system()
        query = ("SELECT ?x WHERE { ?x foaf:knows "
                 "<http://example.org/people/nobody> . }")
        calls = spy_rpcs(system)
        result, report, _spans = traced_run(system, query, DISPATCH)
        assert result.rows == [] == oracle_rows(system, query)
        sent = [m for src, _d, m, _p in calls if src == "D1"]
        assert sent == ["find_successor"] * (report.lookup_hops + 1) + \
            ["execute_primitive"]

    def test_routes_are_per_initiator(self):
        system = build_system()
        warm(system, "D1", query=KNOWS_QUERY)
        assert "_qp_routes" not in system.storage_nodes["D2"].__dict__
        _result, _report, spans = traced_run(system, KNOWS_QUERY, DISPATCH,
                                             initiator="D2")
        assert "routed" not in spans[0]

    def test_routed_dispatch_is_answered_only_by_the_owner(self):
        system = build_system()
        key = knows_key(system)
        other = next(node for node in system.index_nodes.values()
                     if not node.owns(key))
        owner = system.index_nodes[knows_owner(system)]
        unrouted = ExecutePrimitive(algebra=None, key=key, strategy="basic",
                                    corr="t#0")
        routed = replace(unrouted, routed=True)
        assert other.rpc_execute_primitive(routed, "D1") is None
        # Answered (an execution, not yet run) by the owner, and unrouted
        # by any node: a replica holder taking over still has the dead
        # owner as its predecessor.
        assert owner.rpc_execute_primitive(routed, "D1") is not None
        assert other.rpc_execute_primitive(unrouted, "D1") is not None


class TestRerouting:
    def test_join_inside_a_learned_arc_bounces(self):
        system = build_system()
        expected = warm(system, query=KNOWS_QUERY)
        key = knows_key(system)
        joined = join_index_node(system, "N8", ident=key)
        assert knows_owner(system) == joined.node_id
        walks = spy_calls(system, "find_successor")
        result, report, spans = traced_run(system, KNOWS_QUERY, DISPATCH)
        assert _rows(result) == expected == _rows_of_oracle(system, KNOWS_QUERY)
        assert spans[0]["fallback"] == "bounce"
        # The bounce takes the ring: one probe of the old arc's final
        # responder, whose successor is now the newcomer.
        assert [dst for src, dst, _p in walks if src == "D1"] == [spans[0]["start"]]
        assert report.lookup_hops == 0
        assert routes_of(system).get(key).node_id == joined.node_id

    def test_departed_owner_is_unknown_then_the_ring_answers(self):
        system = build_system()
        expected = warm(system, query=KNOWS_QUERY)
        depart_index_node(system, knows_owner(system))
        result, _report, spans = traced_run(system, KNOWS_QUERY, DISPATCH)
        assert _rows(result) == expected
        assert spans[0]["fallback"] == "NodeUnknown"
        assert routes_of(system).get(knows_key(system)).node_id == \
            knows_owner(system)

    @pytest.mark.parametrize("warmed", [True, False])
    def test_crashed_owner_costs_one_timeout_then_fails_over(self, warmed):
        system = build_system(replication_factor=2)
        expected = _rows_of_oracle(system, KNOWS_QUERY)
        if warmed:
            warm(system, query=KNOWS_QUERY)
        dead = knows_owner(system)
        system.network.fail_node(dead)
        sent = spy_calls(system, "execute_primitive")
        options = ExecutionOptions(failover=True)
        result, _report, spans = traced_run(system, KNOWS_QUERY, options)
        assert _rows(result) == expected
        assert system.network.failover.dispatch_failovers == 1
        to_dead = [payload for _src, dst, payload in sent if dst == dead]
        assert len(to_dead) == 1
        assert to_dead[0].routed is (True if warmed else None)
        assert spans[0].get("fallback") == ("RpcTimeout" if warmed else None)
        (to_replica,) = [payload for _src, dst, payload in sent if dst != dead]
        assert to_replica.routed is None
        # A failover answer is never learned.
        assert routes_of(system).get(knows_key(system)) is None

    def test_an_error_raised_by_the_owner_keeps_the_arc(self, monkeypatch):
        """A RemoteError is the owner's answer, not a routing failure: the
        request is not re-sent along the ring and the arc is kept."""
        system = build_system()
        warm(system, query=KNOWS_QUERY)
        owner = system.index_nodes[knows_owner(system)]

        def spent(payload, src):
            raise ValueError("query deadline exceeded at the index node")

        monkeypatch.setattr(owner, "rpc_execute_primitive", spent)
        sent = spy_calls(system, "execute_primitive")
        with pytest.raises(QueryFailed):
            DistributedExecutor(system).execute(KNOWS_QUERY, initiator="D1")
        assert [(dst, p.routed) for _s, dst, p in sent] == \
            [(owner.node_id, True)]
        assert routes_of(system).get(knows_key(system)) == owner.ref

    def test_an_open_circuit_owner_is_routed_around(self):
        """The breaker's route-around before dialing: the owner whose
        circuit is open gets nothing, its replica holder the request."""
        system = build_system(replication_factor=2)
        expected = _rows_of_oracle(system, KNOWS_QUERY)
        executor = DistributedExecutor(system, ExecutionOptions(
            failover=True, breaker=True))
        owner = knows_owner(system)
        first, initiator = [sid for sid, node in sorted(system.storage_nodes.items())
                            if node.index_node_id != owner][:2]
        executor.execute(KNOWS_QUERY, initiator=first)  # installs the ledger
        health = system.network.health
        for _ in range(health.failure_threshold):
            health.observe_failure(owner)
        assert health.open_now(owner)
        sent = spy_calls(system, "execute_primitive")
        before = system.network.failover.breaker_short_circuits
        result, _report = executor.execute(KNOWS_QUERY, initiator=initiator)
        assert _rows(result) == expected
        assert len(sent) == 1 and sent[0][1] != owner
        assert system.network.failover.breaker_short_circuits == before
        assert system.network.failover.dispatch_failovers == 1
        assert routes_of(system, initiator).get(knows_key(system)) is None

    def test_without_failover_the_ring_path_dials_the_owner_again(self):
        system = build_system(replication_factor=2)
        warm(system, query=KNOWS_QUERY)
        dead = knows_owner(system)
        system.network.fail_node(dead)
        sent = spy_calls(system, "execute_primitive")
        with pytest.raises(QueryFailed):
            DistributedExecutor(system).execute(KNOWS_QUERY, initiator="D1")
        assert [p.routed for _s, dst, p in sent if dst == dead] == \
            [True, None]


class TestLoneCostLeaf:
    """A cost plan of one leaf has nothing to plan but its scheme, which
    the owner picks from the row it reads (Sect. V); its ack returns that
    row, so the plan shows what a statistics round would have shown."""

    def test_one_dispatch_and_the_owners_pick(self):
        system = build_system()
        calls = spy_rpcs(system)
        options = ExecutionOptions(plan_mode="cost", time_weight=0.3)
        result, report = DistributedExecutor(system, options).execute(
            KNOWS_QUERY, initiator="D1")
        assert _rows(result) == _rows_of_oracle(system, KNOWS_QUERY)
        sent = [(m, p) for src, _d, m, p in calls if src == "D1"]
        assert [m for m, _p in sent] == \
            ["find_successor"] * (report.lookup_hops + 1) + ["execute_primitive"]
        assert sent[-1][1].strategy == "cost"
        assert sent[-1][1].time_weight == 0.3
        owner = system.index_nodes[knows_owner(system)]
        row = owner.locate(knows_key(system))
        picked, _costs = choose_strategy(row, system.network.link, 0.3)
        [leaf] = chain_leaves(report.plan)
        assert leaf.plan_strategy is picked
        assert leaf.detail["strategy"] == picked.wire_name
        assert leaf.lookup.est_rows == sum(e.frequency for e in row)
        assert leaf.lookup.placement == owner.node_id

    @pytest.mark.parametrize("time_weight, scheme", [(0.0, "freq"),
                                                     (1.0, "basic")])
    def test_the_scheme_follows_the_objective(self, time_weight, scheme):
        """Three providers holding 1/6, 2/6 and 3/6 of the knows triples:
        the chain ships fewer bytes, the fan-out answers sooner."""
        knows = [t for t in generate_foaf_triples(FoafConfig(
            num_people=150, knows_per_person=4, seed=1)) if t.p == FOAF.knows]
        cut = len(knows) // 6
        parts = [knows[:cut], knows[cut:3 * cut], knows[3 * cut:]]
        system = build_system(num_index=10, parts=parts)
        options = ExecutionOptions(plan_mode="cost", time_weight=time_weight)
        result, report = DistributedExecutor(system, options).execute(
            KNOWS_QUERY, initiator="D0")
        assert result.rows == oracle_rows(system, KNOWS_QUERY)
        [leaf] = chain_leaves(report.plan)
        assert leaf.detail["strategy"] == scheme


class TestLearnedStarts:
    """On a 64-node ring D1 enters at N10 and learns N37's arc from the
    knows query; the keys below lie outside it, and N37 is the known node
    closest before the ns:knowsNothingAbout key."""

    def test_cold_peer_walks_from_the_entry(self):
        system = build_system(num_index=64)
        result, report, spans = traced_run(system, NOTHING_QUERY, DISPATCH)
        assert (report.lookup_hops, report.messages,
                report.bytes_total) == (4, 14, 1550)
        assert "start" not in spans[0]
        assert result.rows == oracle_rows(system, NOTHING_QUERY)

    def test_miss_starts_at_the_nearest_learned_owner(self):
        system = build_system(num_index=64)
        warm(system, query=KNOWS_QUERY)
        learned = knows_owner(system)
        walks = spy_calls(system, "find_successor")
        result, report, spans = traced_run(system, NOTHING_QUERY, DISPATCH)
        probes = [dst for src, dst, _ in walks if src == "D1"]
        assert probes[0] == learned and len(probes) == 2
        assert spans[0]["start"] == learned and "routed" not in spans[0]
        assert report.lookup_hops == 1
        assert result.rows == oracle_rows(system, NOTHING_QUERY)

    def test_dead_start_is_forgotten_and_the_entry_walks(self):
        system = build_system(num_index=64)
        warm(system, query=KNOWS_QUERY)
        dead = knows_owner(system)
        system.network.fail_node(dead)
        before = ring_state(system)
        walks = spy_calls(system, "find_successor")
        result, report, spans = traced_run(system, NOTHING_QUERY, DISPATCH)
        assert result.rows == oracle_rows(system, NOTHING_QUERY)
        entry = system.storage_nodes["D1"].index_node_id
        probes = [(dst, p.avoid) for src, dst, p in walks if src == "D1"]
        assert probes[:2] == [(dead, None), (entry, [dead])]
        assert [dst for dst, _avoid in probes].count(dead) == 1
        assert "start" not in spans[0]
        assert report.lookup_hops == len(probes) - 2
        routes = routes_of(system)
        assert routes.get(knows_key(system)) is None
        dead_ref = system.index_nodes[dead].ref
        assert routes.preceding(dead_ref.ident + 1) != dead_ref  # not even a start
        assert ring_state(system) == before


def _rows_of_oracle(system, query):
    return sorted(map(repr, oracle_rows(system, query)))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    shape=st.sampled_from(list(PatternShape)),
    strategy=st.sampled_from(list(PrimitiveStrategy)),
    plan=st.sampled_from(["legacy", "cost"]),
    warmed=st.booleans(),
    crash=st.booleans(),
    query_seed=st.integers(0, 1_000),
)
def test_property_owner_dispatch_matches_oracle(shape, strategy, plan, warmed,
                                                crash, query_seed):
    """Every pattern shape under every scheme, or the owner's pick under
    the cost planner, from a cold or a warm peer, with or without the
    key's owner crashed (rf=2, failover on): the answer is the oracle's."""
    system = build_system(replication_factor=2)
    text = QueryWorkload(paper_example_dataset(), seed=query_seed).primitive(shape)
    expected = oracle_rows(system, text)
    executor = DistributedExecutor(system, ExecutionOptions(
        primitive_strategy=strategy, plan_mode=plan, failover=True))
    if warmed:
        executor.execute(text, initiator="D1")
    key = pattern_key(system, text)
    if crash and key is not None:
        system.network.fail_node(system.ring.owner_of(key).node_id)
    result, _report = executor.execute(text, initiator="D1")
    assert result.rows == expected
