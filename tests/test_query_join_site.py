"""Join-site selection tests: Move-Small / Query-Site / Third-Site
behaviour and shipping mechanics."""

import pytest

from repro.query import (
    ConjunctionMode,
    DistributedExecutor,
    ExecutionOptions,
    JoinSitePolicy,
    ResultHandle,
    join_site,
)
from repro.query.executor import ExecutionContext, ExecutionReport
from repro.query.join_site import combine_handles, pick_join_site, ship_handle
from repro.rdf import COMMON_PREFIXES, IRI, Variable
from repro.sparql import evaluate_query, parse_query
from repro.sparql.solutions import SolutionMapping

X, Y = Variable("x"), Variable("y")


def make_ctx(system, initiator="D1", **options):
    executor = DistributedExecutor(system, **options)
    return ExecutionContext(
        system, initiator, executor.options, ExecutionReport(), executor.load
    )


def deposit(system, site, corr, mappings, vars=None):
    node = system.network.node(site)
    node.mailbox[corr] = set(mappings)
    return ResultHandle(site, corr, len(node.mailbox[corr]), vars)


def mus(n, var=X):
    return [SolutionMapping({var: IRI(f"http://x/t{i}")}) for i in range(n)]


class TestPickSite:
    def test_move_small_prefers_larger_operand(self, paper_system):
        ctx = make_ctx(paper_system, join_site_policy=JoinSitePolicy.MOVE_SMALL)
        small = ResultHandle("D2", "a", 2)
        large = ResultHandle("D3", "b", 10)
        assert pick_join_site(ctx, small, large) == "D3"
        assert pick_join_site(ctx, large, small) == "D3"

    def test_move_small_tie_keeps_left(self, paper_system):
        ctx = make_ctx(paper_system, join_site_policy=JoinSitePolicy.MOVE_SMALL)
        a, b = ResultHandle("D2", "a", 5), ResultHandle("D3", "b", 5)
        assert pick_join_site(ctx, a, b) == "D2"

    def test_query_site_is_initiator(self, paper_system):
        ctx = make_ctx(paper_system, join_site_policy=JoinSitePolicy.QUERY_SITE)
        a, b = ResultHandle("D2", "a", 1), ResultHandle("D3", "b", 100)
        assert pick_join_site(ctx, a, b) == "D1"

    def test_third_site_balances_load(self, paper_system):
        ctx = make_ctx(paper_system, join_site_policy=JoinSitePolicy.THIRD_SITE)
        a, b = ResultHandle("D2", "a", 1), ResultHandle("D3", "b", 1)
        first = pick_join_site(ctx, a, b)
        ctx.load[first] += 5
        second = pick_join_site(ctx, a, b)
        assert second != first  # QoS signal steers to the less-loaded node

    def test_third_site_skips_dead_nodes(self, paper_system):
        ctx = make_ctx(paper_system, join_site_policy=JoinSitePolicy.THIRD_SITE)
        a, b = ResultHandle("D2", "a", 1), ResultHandle("D3", "b", 1)
        paper_system.network.fail_node("D1")
        site = pick_join_site(ctx, a, b)
        assert site != "D1"


class TestShipping:
    def test_ship_noop_when_already_there(self, paper_system):
        ctx = make_ctx(paper_system)
        handle = deposit(paper_system, "D2", "c", mus(3))
        before = paper_system.stats.messages

        def proc():
            return (yield from ship_handle(ctx, handle, "D2"))

        shipped = paper_system.sim.run_process(proc())
        assert shipped == handle
        assert paper_system.stats.messages == before

    def test_ship_from_initiator(self, paper_system):
        ctx = make_ctx(paper_system)
        handle = ctx.local_deposit("c", mus(3))

        def proc():
            return (yield from ship_handle(ctx, handle, "D3"))

        shipped = paper_system.sim.run_process(proc())
        assert shipped.site == "D3"
        assert len(paper_system.storage_nodes["D3"].mailbox["c"]) == 3
        assert "c" not in ctx.initiator_peer.mailbox

    def test_ship_between_remote_sites(self, paper_system):
        ctx = make_ctx(paper_system)
        handle = deposit(paper_system, "D2", "c", mus(4))

        def proc():
            return (yield from ship_handle(ctx, handle, "D4"))

        shipped = paper_system.sim.run_process(proc())
        assert shipped.site == "D4" and shipped.count == 4
        # The holder keeps its copy for a repeated ship until release.
        assert len(paper_system.storage_nodes["D2"].mailbox["c"]) == 4
        assert len(paper_system.storage_nodes["D4"].mailbox["c"]) == 4


class TestCombine:
    def test_join_at_remote_site(self, paper_system):
        ctx = make_ctx(paper_system)
        left = deposit(paper_system, "D2", "l",
                       [SolutionMapping({X: IRI("http://x/a")})])
        right = deposit(paper_system, "D2", "r",
                        [SolutionMapping({X: IRI("http://x/a"), Y: IRI("http://x/b")}),
                         SolutionMapping({X: IRI("http://x/c")})])

        def proc():
            return (yield from combine_handles(ctx, "join", left, right, site="D2"))

        out = paper_system.sim.run_process(proc())
        assert out.site == "D2" and out.count == 1

    def test_combine_at_initiator_is_local(self, paper_system):
        ctx = make_ctx(paper_system, join_site_policy=JoinSitePolicy.QUERY_SITE)
        left = ctx.local_deposit("l", mus(2))
        right = ctx.local_deposit("r", mus(2))
        before = paper_system.stats.messages

        def proc():
            return (yield from combine_handles(ctx, "union", left, right))

        out = paper_system.sim.run_process(proc())
        assert out.count == 2  # same mappings, union dedups
        assert paper_system.stats.messages == before  # fully local

    def test_move_small_ships_fewer_bytes_than_opposite(self, paper_system):
        """Shipping the small operand must cost less than shipping the
        large one — the rationale of Move-Small."""
        ctx = make_ctx(paper_system)
        small = deposit(paper_system, "D2", "s", mus(2))
        large = deposit(paper_system, "D3", "b", mus(40, var=Y))

        cp = paper_system.stats.checkpoint()

        def proc():
            return (yield from combine_handles(ctx, "join", small, large))

        out = paper_system.sim.run_process(proc())
        move_small_bytes = paper_system.stats.delta(cp).bytes
        assert out.site == "D3"

        # opposite direction: force the join at the small side's site
        small2 = deposit(paper_system, "D2", "s2", mus(2))
        large2 = deposit(paper_system, "D3", "b2", mus(40, var=Y))
        cp2 = paper_system.stats.checkpoint()

        def proc2():
            return (yield from combine_handles(ctx, "join", small2, large2, site="D2"))

        paper_system.sim.run_process(proc2())
        opposite_bytes = paper_system.stats.delta(cp2).bytes
        assert move_small_bytes < opposite_bytes

    def test_reship_reaches_a_recovered_combine_site(self, paper_system):
        """No fault plan is installed. The combine site D4 is down when
        the first one-way ``deliver`` arrives and back before the retry:
        the holder kept its copy, so the one re-ship lands it under a
        fresh corr and the join is exact."""
        network, sim = paper_system.network, paper_system.sim
        assert network.faults is None
        ctx = make_ctx(paper_system)
        a, b = IRI("http://x/a"), IRI("http://x/b")
        left = deposit(paper_system, "D2", "l", [SolutionMapping({X: a})])
        right = deposit(paper_system, "D4", "r",
                        [SolutionMapping({X: a, Y: b}),
                         SolutionMapping({X: IRI("http://x/c")})])
        network.fail_node("D4")
        sim.timeout(1.0).callbacks.append(
            lambda _event: network.recover_node("D4"))

        def proc():
            return (yield from combine_handles(ctx, "join", left, right,
                                               site="D4"))

        out = sim.run_process(proc())
        assert ctx.report.notes == ["ship retry for l"]
        assert out.site == "D4" and out.count == 1
        assert paper_system.storage_nodes["D4"].mailbox[out.corr] == {
            SolutionMapping({X: a, Y: b})}

    def test_load_counter_increments(self, paper_system):
        ctx = make_ctx(paper_system)
        left = deposit(paper_system, "D2", "l", mus(1))
        right = deposit(paper_system, "D2", "r", mus(1))

        def proc():
            return (yield from combine_handles(ctx, "union", left, right, site="D2"))

        paper_system.sim.run_process(proc())
        assert ctx.load["D2"] == 1


class TestWalkPostFilter:
    """A walk over fully unbound patterns combines by broadcast; its
    cross-pattern FILTER must run wherever that combine landed."""

    QUERY = """SELECT ?s ?x WHERE { ?s ?p ?o . ?x ?y ?z .
        FILTER(?s = ?x && ?p = ?y && ?o = ?z) }"""

    @pytest.mark.parametrize("policy", list(JoinSitePolicy),
                             ids=lambda p: p.value)
    @pytest.mark.parametrize("initiator", ["D1", "D3"])
    def test_all_unbound_walk_filters_at_combine_site(
        self, paper_system, policy, initiator
    ):
        query = parse_query(self.QUERY, COMMON_PREFIXES)
        oracle = evaluate_query(query, paper_system.union_graph())
        executor = DistributedExecutor(paper_system, join_site_policy=policy)
        result, _ = executor.execute(self.QUERY, initiator=initiator)
        assert result.rows == oracle.rows
        assert len(result.rows) > 0


class TestSemijoinMinRows:
    """An operand with fewer than ``SEMIJOIN_MIN_ROWS`` rows skips the
    digest round trip; at the threshold the digest is fetched."""

    @pytest.mark.parametrize("above, fetched", [(1, False), (0, True)])
    def test_basic_walk(self, paper_system, monkeypatch, above, fetched):
        # Unreordered, the walk's first operand is every knows row.
        first = "SELECT * WHERE { ?x foaf:knows ?z . }"
        query = "SELECT ?x ?z ?n WHERE { ?x foaf:knows ?z . ?x foaf:name ?n . }"
        union = paper_system.union_graph()
        n = len(evaluate_query(parse_query(first, COMMON_PREFIXES), union).rows)
        monkeypatch.setattr(join_site, "SEMIJOIN_MIN_ROWS", n + above)
        executor = DistributedExecutor(paper_system, ExecutionOptions(
            semijoin=True, conjunction_mode=ConjunctionMode.BASIC,
            reorder_joins=False))
        result, report = executor.execute(query, initiator="D1")
        oracle = evaluate_query(parse_query(query, COMMON_PREFIXES), union)
        assert sorted(map(repr, result.rows)) == sorted(map(repr, oracle.rows))
        assert (report.digest_bytes > 0) is fetched

    @pytest.mark.parametrize("above, fetched", [(1, False), (0, True)])
    def test_combine_handles_join(self, paper_system, monkeypatch, above,
                                  fetched):
        n = 6
        monkeypatch.setattr(join_site, "SEMIJOIN_MIN_ROWS", n + above)
        ctx = make_ctx(paper_system, semijoin=True)
        anchor = deposit(paper_system, "D2", "l", mus(1), frozenset({X}))
        other = deposit(paper_system, "D3", "r", mus(n), frozenset({X}))

        def proc():
            return (yield from combine_handles(ctx, "join", anchor, other,
                                               site="D2"))

        out = paper_system.sim.run_process(proc())
        assert out.site == "D2" and out.count == 1
        assert (ctx.report.digest_bytes > 0) is fetched
