"""Probe-first shared-site walks and the basic walk's digest gate.

The cost planner marks an OPTIMIZED walk ``plan_probe`` when its
estimates say landing the most selective chain first, and sending that
chain's join-key digest with every other chain, wins on bytes *and*
time. Providers then shed rows that cannot join before they travel.
The digest never drops a joinable row, so every answer here is checked
against the local oracle.
"""

from dataclasses import replace

import pytest

from repro.overlay import LocationEntry, key_for_pattern
from repro.query import ConjunctionMode, DistributedExecutor, ExecutionOptions
from repro.query import cost
from repro.query.executor import QueryFailed
from repro.query.physical import BGPWalk, ChainShip, PhysOp
from repro.net.sizes import size_of
from repro.net.wire import JoinDigest
from repro.rdf import FOAF, IRI, Literal, TriplePattern, Variable
from repro.sparql.solutions import SolutionMapping

from helpers import build_system, foaf_ring, oracle_rows, spy_dispatches

X = Variable("x")
SMITH = """SELECT ?x ?y WHERE {
    ?x foaf:name "Smith" . ?x foaf:knows ?y . }"""
NOBODY = """SELECT ?x ?y WHERE {
    ?x foaf:name "Nobody At All" . ?x foaf:knows ?y . }"""
FIG8 = """SELECT ?x ?y ?z WHERE {
    { ?x foaf:name "Smith" . ?x foaf:knows ?y . }
    UNION
    { ?x foaf:mbox <mailto:abc@example.org> . ?x foaf:knows ?z . } }"""


def walks(plan: PhysOp):
    if isinstance(plan, BGPWalk):
        yield plan
    for child in plan.children:
        yield from walks(child)


def sides(walk: BGPWalk, link) -> tuple:
    """The probe rule's view of a cost-planned walk that nothing pushes
    a digest into: its first leaf as the probe and the others as
    targets, in the planned join order, each at its row's frequency
    under its pinned strategy."""
    found = [cost.chain_side(leaf.lookup.info, leaf.plan_strategy, link)
             for leaf in walk.plan_order]
    return found[0], found[1:]


def run(system, query, **options):
    executor = DistributedExecutor(system, ExecutionOptions(**options))
    result, report = executor.execute(query, initiator="D1")
    return result, report, list(walks(report.plan))


class TestBasicWalkDigestGate:
    def test_one_row_accumulated_side_sends_a_digest(self):
        """The gate reads the rows the digest would prune (the step's
        pattern), not the one accumulated row that builds it."""
        system = foaf_ring(150)
        result, report, (walk,) = run(
            system, SMITH, conjunction_mode=ConjunctionMode.BASIC,
            semijoin=True)
        first, second = walk.children
        assert first.actual_rows == 1
        assert second.lookup.est_rows >= 4  # the index row's frequency
        assert report.digest_bytes > 0
        assert report.rows_pruned > 0
        assert result.rows == oracle_rows(system, SMITH)


class TestProbePays:
    def test_false_on_the_paper_example(self):
        system = build_system()
        for query in (SMITH, FIG8):
            _result, _report, found = run(system, query, plan_mode="cost")
            assert found
            for walk in found:
                assert walk.plan_mode == "optimized"
                # Not even with the digest built at home for free.
                probe, rest = sides(walk, system.network.link)
                assert not cost._probe_pays(probe._replace(home=True), rest,
                                            system.network.link)
                assert not walk.plan_probe

    def test_true_at_fig_mix_scale(self):
        system = foaf_ring(400)
        _result, _report, (walk,) = run(system, SMITH, plan_mode="cost")
        assert walk.plan_probe
        # It pays even with the digest round trip priced.
        assert cost._probe_pays(*sides(walk, system.network.link),
                                system.network.link)
        assert "probe-first" in walk.describe()

    @pytest.mark.parametrize("keys, mode", [(64, "exact"), (65, "bloom")])
    def test_digest_price_is_the_built_digests_wire_size(self, keys, mode):
        """Both digest modes are priced at what they cost on the wire:
        *keys* distinct terms, each at the term prior."""
        terms = [IRI(f"http://people/{i:014d}") for i in range(keys)]
        assert {size_of(t) for t in terms} == {cost.TERM_BYTES}
        digest = JoinDigest.build([SolutionMapping({X: t}) for t in terms],
                                  [X])
        assert digest.mode == mode
        assert cost._digest_bytes(keys, [X]) == digest.wire_size()

    def test_a_bloom_sized_probe_is_decided_by_bytes_and_time(self):
        """No digest cap: a probe past the exact mode still pays when the
        later leaf is large, and does not when there is little to shed."""
        system = foaf_ring(400)
        _result, _report, (walk,) = run(system, SMITH, plan_mode="cost")
        first, second = walk.plan_order
        info, later = first.lookup.info, second.lookup.info
        bloom = cost.SEMIJOIN_EXACT_THRESHOLD + 1

        def with_rows(row, rows):
            return replace(row, entries=(
                LocationEntry(row.entries[0].storage_id, rows),))

        link = system.network.link
        probe = cost.chain_side(with_rows(info, bloom), first.plan_strategy,
                                link)
        assert later.total_frequency > 10 * bloom
        large = cost.chain_side(later, second.plan_strategy, link)
        assert cost._probe_pays(probe, [large], link)
        small = cost.chain_side(with_rows(later, bloom + 1),
                                second.plan_strategy, link)
        assert not cost._probe_pays(probe, [small], link)


class TestProbeFirstWalk:
    def test_fewer_bytes_than_the_same_plan_all_parallel(self, monkeypatch):
        probed_rows, probed, (walk,) = run(foaf_ring(150), SMITH,
                                           plan_mode="cost")
        assert walk.plan_probe
        pruned = walk.plan_order[1].detail["pruned"]
        assert pruned > 0 and probed.rows_pruned == pruned
        assert probed.digest_bytes > 0
        assert f"pruned={pruned}" in walk.plan_order[1].describe()

        monkeypatch.setattr(cost, "_probe_pays",
                            lambda probe, targets, link: False)
        system = foaf_ring(150)
        plain_rows, plain, (walk,) = run(system, SMITH, plan_mode="cost")
        assert not walk.plan_probe
        oracle = oracle_rows(system, SMITH)
        assert probed_rows.rows == plain_rows.rows == oracle
        assert probed.bytes_total < plain.bytes_total

    @pytest.mark.parametrize("options", [
        dict(semijoin=True),
        dict(plan_mode="cost"),
        dict(plan_mode="cost", semijoin=True),
    ], ids=["semijoin", "cost", "cost-semijoin"])
    def test_every_pruned_row_shows_on_its_leaf(self, options):
        """A fan-out leg's ack carries what its providers pruned; a
        chain's steps send no reply, so they credit their leaf by flow.
        Either way explain shows each leaf's share of ``rows_pruned``."""
        system = foaf_ring(150)
        result, report, (walk,) = run(system, SMITH, **options)
        assert walk.plan_probe
        assert result.rows == oracle_rows(system, SMITH)
        pruned = [leaf.detail.get("pruned", 0) for leaf in walk.children]
        assert report.rows_pruned > 0
        assert sum(pruned) == report.rows_pruned
        for leaf, count in zip(walk.children, pruned):
            if count:
                assert f"pruned={count}" in leaf.describe()

    def test_empty_probe_dispatches_no_other_chain(self, monkeypatch):
        calls = spy_dispatches(monkeypatch, "D1")
        system = foaf_ring(150)
        result, report, (walk,) = run(system, NOBODY, plan_mode="cost")
        assert walk.plan_probe
        assert result.rows == oracle_rows(system, NOBODY) == []
        assert calls == []
        # The spy sees the dispatches of a walk whose probe matches: both
        # of its sub-queries.
        run(system, SMITH, plan_mode="cost")
        assert len(set(calls)) == 2

    def test_cache_fill_then_hit(self):
        system = foaf_ring(150)
        oracle = oracle_rows(system, SMITH)
        verdicts = []
        for _ in range(4):
            result, _report, (walk,) = run(system, SMITH, plan_mode="cost",
                                           result_cache=True)
            assert result.rows == oracle
            assert walk.plan_probe
            verdicts.append(walk.detail.get("cache"))
        assert "fill" in verdicts
        assert verdicts.index("hit") > verdicts.index("fill")

    def test_dead_probe_owner_is_a_flagged_empty_subset(self, monkeypatch):
        system = foaf_ring(150)
        _kind, key = key_for_pattern(
            TriplePattern(Variable("x"), FOAF.name, Literal("Smith")),
            system.space)
        owner = system.ring.owner_of(key).node_id
        real = cost.annotate_plan

        def plan_then_crash(ctx, plan):
            # The owner dies after the planner read its row.
            yield from real(ctx, plan)
            system.network.fail_node(owner)

        monkeypatch.setattr(cost, "annotate_plan", plan_then_crash)
        result, report, (walk,) = run(system, SMITH, plan_mode="cost",
                                      partial_results=True)
        assert walk.plan_probe
        assert result.rows == []
        assert report.incomplete
        assert walk.detail["incomplete"]
        assert report.dropped_patterns == [
            '?x <http://xmlns.com/foaf/0.1/name> "Smith" .']


SMITH_NAME = '?x <http://xmlns.com/foaf/0.1/name> "Smith" .'
STANDALONE = 'SELECT ?x WHERE { ?x foaf:name "Smith" . }'
OPTIONAL_SMITH = """SELECT ?x ?y WHERE {
    ?x foaf:knows ?y . OPTIONAL { ?x foaf:name "Smith" . } }"""


def decisions(plan: PhysOp) -> list:
    """Every planner decision and estimate on *plan*, in tree order."""
    out = [(plan.kind, plan.est_rows, plan.est_bytes)]
    if isinstance(plan, ChainShip):
        out.append(plan.plan_strategy)
    if isinstance(plan, BGPWalk):
        out.append((plan.plan_mode, plan.plan_probe, plan.plan_site,
                    [str(leaf.lookup.pattern) for leaf in plan.plan_order]))
    for child in plan.children:
        out.extend(decisions(child))
    return out


class TestDeadOwnerAtPlanTime:
    """The statistics round honours ``partial_results``: a leaf whose
    owner is dead before the query is estimated at 0 rows, and execution
    flags it where the legacy path does, once. A lone leaf has no
    statistics round and stays unestimated."""

    @staticmethod
    def dead_smith_owner(system):
        _kind, key = key_for_pattern(
            TriplePattern(Variable("x"), FOAF.name, Literal("Smith")),
            system.space)
        system.network.fail_node(system.ring.owner_of(key).node_id)

    @pytest.mark.parametrize("query, dropped", [
        (SMITH, [SMITH_NAME]),
        (STANDALONE, [SMITH_NAME]),
        # A left join never returns unextended rows over a dropped
        # optional side: the only safe subset is the empty one.
        (OPTIONAL_SMITH, [SMITH_NAME, "optional"]),
    ])
    def test_flagged_empty_subset(self, query, dropped):
        for plan_mode in ("legacy", "cost"):
            system = foaf_ring(150)
            self.dead_smith_owner(system)
            result, report, found = run(system, query, plan_mode=plan_mode,
                                        partial_results=True)
            assert result.rows == []
            assert report.incomplete
            assert report.dropped_patterns == dropped
            if query == SMITH:
                assert found[0].detail["incomplete"]
            if plan_mode == "cost" and query == SMITH:
                assert report.plan.children[0].est_rows == 0
            if plan_mode == "cost" and query == STANDALONE:
                # A lone leaf pays no statistics round (its owner plans
                # it from the row it reads), so nothing was estimated.
                assert report.plan.children[0].est_rows is None

    @pytest.mark.parametrize("query", [SMITH, STANDALONE])
    def test_without_partial_results_the_query_fails(self, query):
        system = foaf_ring(150)
        self.dead_smith_owner(system)
        with pytest.raises(QueryFailed):
            run(system, query, plan_mode="cost")

    @pytest.mark.parametrize("query", [SMITH, FIG8, STANDALONE])
    def test_healthy_plan_is_unchanged(self, query):
        plans = [run(foaf_ring(150), query, plan_mode="cost",
                     partial_results=partial)[1].plan
                 for partial in (False, True)]
        assert decisions(plans[0]) == decisions(plans[1])


@pytest.mark.parametrize("query", [SMITH, FIG8])
def test_probe_first_span_records_probe_and_digest(query):
    from repro.trace import Tracer

    system = foaf_ring(400)
    tracer = Tracer()
    executor = DistributedExecutor(system, ExecutionOptions(plan_mode="cost"),
                                   tracer=tracer)
    executor.execute(query, initiator="D1")
    ends = [e.detail for e in tracer.events
            if e.name == "conjunction" and e.kind == "span_end"]
    assert ends and all(d["digest"] == "exact" for d in ends)
    assert all(d["probe"].startswith("?x <http://xmlns.com/foaf/0.1/")
               for d in ends)
    assert all(d["digest_bytes"] > 0 for d in ends)
