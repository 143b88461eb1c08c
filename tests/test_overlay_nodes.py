"""Storage-node and index-node behaviour: publication, local evaluation,
chains, primitive orchestration, mailbox peers."""


from repro.net.protocol import (
    ChainStep, Combine, Deliver, Delivered, Evaluate, ExecutePrimitive, Fetch,
    FilterBox,
)
from repro.net.wire import shipped_rows
from repro.overlay import KeyKind, key_for_pattern
from repro.rdf import FOAF, IRI, Literal, TriplePattern, Variable
from repro.sparql.algebra import BGP
from repro.sparql.solutions import SolutionMapping

from helpers import build_system

X, Y = Variable("x"), Variable("y")
KNOWS = TriplePattern(X, FOAF.knows, Y)


class TestStorageNode:
    def test_key_counts_cover_six_kinds_per_triple(self, paper_system):
        node = paper_system.storage_nodes["D1"]
        counts = node.key_counts(paper_system.space)
        assert sum(counts.values()) == 6 * len(node.graph)

    def test_key_counts_aggregate_shared_attributes(self, paper_system):
        node = paper_system.storage_nodes["D1"]  # holds all foaf:name triples
        counts = node.key_counts(paper_system.space)
        p_key = key_for_pattern(TriplePattern(X, FOAF.name, Y), paper_system.space)
        assert counts[(KeyKind.P, p_key[1])] == len(node.graph)

    def test_rpc_evaluate_local_only(self, paper_system):
        d2 = paper_system.storage_nodes["D2"]  # knows-triples live here
        rows = d2.rpc_evaluate(Evaluate(algebra=BGP((KNOWS,))), "test")
        assert len(rows) == d2.graph.count(KNOWS)


class TestChainStep:
    def test_chain_unions_and_delivers(self, paper_system):
        net = paper_system.network
        d2 = paper_system.storage_nodes["D2"]
        d4 = paper_system.storage_nodes["D4"]
        # D4 holds the duplicated nick triple; D2 also holds it: dedup check.
        nick_pattern = TriplePattern(X, FOAF.nick, Y)
        net.send("test", "D2", "chain_step", ChainStep(
            algebra=BGP((nick_pattern,)), acc=[], route=["D4"], final="D1",
            corr="c1", notify=None))
        net.sim.run()
        d1 = paper_system.storage_nodes["D1"]
        merged = d1.mailbox["c1"]
        # the duplicated triple appears once (set union en route)
        expected = d2.local_eval(BGP((nick_pattern,))) | d4.local_eval(BGP((nick_pattern,)))
        assert merged == expected

    def test_chain_final_at_self_needs_no_message(self, paper_system):
        net = paper_system.network
        before = net.stats.messages
        net.send("test", "D2", "chain_step", ChainStep(
            algebra=BGP((KNOWS,)), acc=[], route=[], final="D2", corr="self",
            notify=None))
        net.sim.run()
        assert "self" in paper_system.storage_nodes["D2"].mailbox
        assert net.stats.messages == before + 1  # only the kickoff


class TestIndexNode:
    def test_publication_placed_entries_at_owners(self, paper_system):
        kind, key = key_for_pattern(KNOWS, paper_system.space)
        owner = paper_system.ring.owner_of(key)
        entries = owner.locate(key)
        # knows-triples live on D2 (plus nothing else in this partition)
        assert [e.storage_id for e in entries] == ["D2"]
        assert entries[0].frequency == paper_system.storage_nodes["D2"].graph.count(KNOWS)

    def test_execute_primitive_basic_returns_union(self, paper_system):
        kind, key = key_for_pattern(KNOWS, paper_system.space)
        owner = paper_system.ring.owner_of(key)

        def proc():
            response = yield paper_system.network.call(
                "D1", owner.node_id, "execute_primitive",
                ExecutePrimitive(algebra=BGP((KNOWS,)), key=key,
                                 strategy="basic", corr="q"),
            )
            return response

        response = paper_system.sim.run_process(proc())
        assert response["mode"] == "direct"
        oracle = set()
        for node in paper_system.storage_nodes.values():
            oracle |= node.local_eval(BGP((KNOWS,)))
        assert shipped_rows(response["data"]) == oracle

    def test_execute_primitive_deposit_mode(self, paper_system):
        kind, key = key_for_pattern(KNOWS, paper_system.space)
        owner = paper_system.ring.owner_of(key)

        def proc():
            return (yield paper_system.network.call(
                "D1", owner.node_id, "execute_primitive",
                ExecutePrimitive(algebra=BGP((KNOWS,)), key=key,
                                 strategy="basic", corr="dep", deposit=True),
            ))

        response = paper_system.sim.run_process(proc())
        assert response["mode"] == "deposited"
        assert len(owner.mailbox["dep"]) == response["count"] > 0

    def test_basic_cleans_stale_entries_on_timeout(self, paper_system):
        """Sect. III-D: failed storage nodes are removed from the location
        table after the query timeout."""
        kind, key = key_for_pattern(KNOWS, paper_system.space)
        owner = paper_system.ring.owner_of(key)
        paper_system.network.fail_node("D2")

        def proc():
            return (yield paper_system.network.call(
                "D1", owner.node_id, "execute_primitive",
                ExecutePrimitive(algebra=BGP((KNOWS,)), key=key,
                                 strategy="basic", corr="q2"), timeout=30.0,
            ))

        response = paper_system.sim.run_process(proc())
        assert len(response["data"]) == 0
        assert owner.locate(key) == []  # stale entry removed

    def test_route_freq_ordering(self):
        system = build_system()
        n = system.any_index_node()
        from repro.overlay import LocationEntry
        entries = [LocationEntry("D1", 10), LocationEntry("D3", 20), LocationEntry("D4", 15)]
        assert n._route(entries, "freq") == ["D1", "D4", "D3"]
        assert n._route(entries, "chained") == ["D1", "D3", "D4"]
        assert n._route(entries, "freq", end_at="D4") == ["D1", "D3", "D4"]

    def test_get_attached(self, paper_system):
        attached = []
        for node in paper_system.index_nodes.values():
            attached.extend(node.rpc_get_attached(None, "t"))
        assert sorted(attached) == ["D1", "D2", "D3", "D4"]


class TestQueryPeerMailbox:
    def test_deliver_accumulates_by_union(self, paper_system):
        d1 = paper_system.storage_nodes["D1"]
        mu = SolutionMapping({X: IRI("http://x/a")})
        nu = SolutionMapping({X: IRI("http://x/b")})
        d1.rpc_deliver(Deliver(corr="m", data=[mu]), "t")
        d1.rpc_deliver(Deliver(corr="m", data=[mu, nu]), "t")
        assert d1.mailbox["m"] == {mu, nu}

    def test_combine_join(self, paper_system):
        d1 = paper_system.storage_nodes["D1"]
        a = SolutionMapping({X: IRI("http://x/a")})
        ay = SolutionMapping({X: IRI("http://x/a"), Y: IRI("http://x/y")})
        d1.mailbox["l"] = {a}
        d1.mailbox["r"] = {ay, SolutionMapping({X: IRI("http://x/b")})}
        summary = d1.rpc_combine(
            Combine(op="join", left="l", right="r", out="o", condition=None), "t")
        assert summary == {"count": 1}
        assert d1.mailbox["o"] == {ay}
        # Inputs stay for a repeat of the request; release purges them.
        assert "l" in d1.mailbox and "r" in d1.mailbox
        assert d1.purge_corrs(["l", "r", "o"]) == 3

    def test_fetch_leaves_the_entry_for_release(self, paper_system):
        d1 = paper_system.storage_nodes["D1"]
        mu = SolutionMapping({X: IRI("http://x/a")})
        d1.mailbox["f"] = {mu}
        assert shipped_rows(d1.rpc_fetch(Fetch(corr="f"), "t")) == {mu}
        # A repeated fetch reads the same answer until release purges it.
        assert shipped_rows(d1.rpc_fetch(Fetch(corr="f"), "t")) == {mu}
        assert d1.purge_corrs(["f"]) == 1 and "f" not in d1.mailbox

    def test_expect_latches_early_notification(self, paper_system):
        d1 = paper_system.storage_nodes["D1"]
        d1.rpc_delivered(Delivered(corr="early", count=3), "t")
        event = d1.expect("early", "t")
        assert event.triggered and event.value == 3

    def test_notification_from_another_site_is_not_this_wait(self, paper_system):
        """A chain lands mailbox corr C at S, and C's rows then ship on to
        T: a copy of S's ``delivered`` for C neither satisfies nor latches
        for the wait on (C, T)."""
        d1 = paper_system.storage_nodes["D1"]
        d1.rpc_delivered(Delivered(corr="c", count=3), "S")
        event = d1.expect("c", "T")
        d1.rpc_delivered(Delivered(corr="c", count=3), "S")
        assert not event.triggered
        assert ("c", "T") not in d1._delivered_early
        d1.rpc_delivered(Delivered(corr="c", count=5), "T")
        assert event.triggered and event.value == 5

    def test_late_notification_of_an_abandoned_corr_is_not_the_replicas(
            self, paper_system):
        """A dispatch failover tombstones the first owner's corr and
        re-dispatches under a fresh one to the same landing site: the
        first chain's late ``delivered`` cannot complete the replica's
        wait, nor latch for it."""
        d1 = paper_system.storage_nodes["D1"]
        d1.abandon_corr("first")
        event = d1.expect("replica", "D2")
        d1.rpc_delivered(Delivered(corr="first", count=9), "D2")
        assert not event.triggered and not d1._delivered_early
        d1.rpc_delivered(Delivered(corr="replica", count=4), "D2")
        assert event.triggered and event.value == 4

    def test_filter_box(self, paper_system):
        from repro.sparql import parse_query
        from repro.rdf import COMMON_PREFIXES
        q = parse_query(
            'SELECT * WHERE { ?x ?p ?n . FILTER regex(?n, "^A") }', COMMON_PREFIXES)
        condition = q.where.filters[0].expression
        d1 = paper_system.storage_nodes["D1"]
        n_var = Variable("n")
        d1.mailbox["in"] = {
            SolutionMapping({n_var: Literal("Anna")}),
            SolutionMapping({n_var: Literal("Bob")}),
        }
        summary = d1.rpc_filter_box(
            FilterBox(corr="in", out="out", condition=condition), "t")
        assert summary == {"count": 1}
