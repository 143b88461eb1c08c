"""Owner-assembled rows land where they are consumed (cost planner).

Under Sect. IV-C's BASIC scheme the owner index node assembles a leaf's
rows, so they cross provider -> owner -> destination whatever the
destination is. The cost planner therefore gives a BASIC leaf no home
provider, and combines an OPTIMIZED walk at the initiator (Sect. II's
Query-Site) unless a non-BASIC chain lists the walk's shared site among
its providers and so ends resident there. A ``CacheProbe`` walk keeps
its initiator-independent shared site, so every initiator finds the
same fill.

The paper example pins FREQ on every leaf, so its golden cells never
meet the rule; these tests run at ``fig_mix`` scale (``foaf_ring(400)``,
initiator D1), where most leaves pin BASIC. Every answer is checked
against the local oracle.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.overlay.peer import QueryPeer
from repro.query import DistributedExecutor, ExecutionOptions
from repro.query.physical import (
    BGPWalk, ChainShip, HashJoin, LeftJoinOp, PhysOp, UnionOp,
)
from repro.query.strategies import (
    ConjunctionMode, JoinSitePolicy, PrimitiveStrategy,
)
from repro.workloads import PAPER_FIG_QUERIES, paper_example_partition

from helpers import build_system, foaf_ring, oracle_rows

BENCH_PR8 = (Path(__file__).parent.parent / "benchmarks"
             / "BENCH_PR8_planner.json")


def nodes(plan: PhysOp, kind):
    if isinstance(plan, kind):
        yield plan
    for child in plan.children:
        yield from nodes(child, kind)


def walks(plan: PhysOp):
    return nodes(plan, BGPWalk)


def same_rows(result, system, query) -> bool:
    return Counter(map(str, result.rows)) == Counter(
        map(str, oracle_rows(system, query)))


@pytest.fixture(scope="module")
def ring():
    return foaf_ring(400)


@pytest.fixture
def remote_calls(monkeypatch):
    """The ``fetch``, ``ship`` and ``digest`` RPCs that crossed the
    network, by method name (a site serving itself is not a call)."""
    calls = Counter()
    for method in ("fetch", "ship", "digest"):
        real = getattr(QueryPeer, f"rpc_{method}")

        def spy(self, payload, src, real=real, method=method):
            if src != self.node_id:
                calls[method] += 1
            return real(self, payload, src)

        monkeypatch.setattr(QueryPeer, f"rpc_{method}", spy)
    return calls


def run_fig(system, name, initiator="D1", **options):
    executor = DistributedExecutor(
        system, ExecutionOptions(plan_mode="cost", **options))
    result, report = executor.execute(PAPER_FIG_QUERIES[name],
                                      initiator=initiator)
    assert same_rows(result, system, PAPER_FIG_QUERIES[name])
    return report


def test_fig6_walk_combines_at_the_initiator(ring, remote_calls):
    report = run_fig(ring, "fig6")
    (walk,) = walks(report.plan)
    assert all(leaf.plan_strategy is PrimitiveStrategy.BASIC
               for leaf in walk.children)
    assert walk.plan_site == walk.placement == "D1"
    assert remote_calls["fetch"] == 0


def test_fig9_basic_leaves_land_at_the_initiator(ring, remote_calls):
    report = run_fig(ring, "fig9")
    leaves = list(nodes(report.plan, ChainShip))
    assert len(leaves) == 3
    for leaf in leaves:
        assert leaf.plan_strategy is PrimitiveStrategy.BASIC
        assert leaf.placement == "D1"
    for combine in nodes(report.plan, (HashJoin, LeftJoinOp)):
        assert combine.placement == "D1"
        assert all(edge.detail.get("resident") for edge in combine.edges)
    assert remote_calls["ship"] == remote_calls["fetch"] == 0


@pytest.mark.parametrize("name, combine", [("fig7", LeftJoinOp),
                                           ("fig8", UnionOp)])
def test_probe_first_walks_digest_at_the_initiator(ring, remote_calls, name,
                                                   combine):
    report = run_fig(ring, name)
    found = list(walks(report.plan))
    assert found
    for walk in found:
        assert "probe-first" in walk.describe()
        pruned = walk.plan_order[1].detail["pruned"]
        assert pruned > 0
        assert f"pruned={pruned}" in walk.plan_order[1].describe()
        assert walk.placement == "D1"
    (root,) = nodes(report.plan, combine)
    assert root.placement == "D1"
    # The probe landed at the initiator, which builds its digest locally.
    assert remote_calls["digest"] == 0
    assert remote_calls["ship"] == remote_calls["fetch"] == 0


def test_freq_chain_keeps_its_shared_site_on_the_paper_example():
    """E19's cells (paper example, ``time_weight=0``): every leaf pins
    FREQ, so a walk whose chain ends resident at the shared site keeps
    it, and bytes and messages equal the checked-in E19 figures."""
    cells = json.loads(BENCH_PR8.read_text(encoding="utf-8"))["cells"]
    options = ExecutionOptions(
        primitive_strategy=PrimitiveStrategy.BASIC,
        conjunction_mode=ConjunctionMode.BASIC,
        join_site_policy=JoinSitePolicy.QUERY_SITE,
        plan_mode="cost", time_weight=0.0)
    for name, query in PAPER_FIG_QUERIES.items():
        system = build_system(num_index=8, parts=paper_example_partition())
        result, report = DistributedExecutor(system, options).execute(
            query, initiator="D1")
        assert same_rows(result, system, query), name
        assert (report.bytes_total, report.messages) == (
            cells[name]["cost_bytes"], cells[name]["cost_messages"]), name
        if name == "fig4":
            (walk,) = walks(report.plan)
            assert walk.plan_site is None
            assert walk.placement not in (None, "D1")


@pytest.mark.parametrize("name", ["fig4", "fig6"])
def test_cache_probe_fills_once_for_every_initiator(name):
    system = foaf_ring(400)
    verdicts, sites = [], set()
    for initiator in ("D1", "D2", "D1", "D2", "D3"):
        report = run_fig(system, name, initiator=initiator, result_cache=True)
        (walk,) = walks(report.plan)
        verdicts.append(walk.detail["cache"])
        sites.add(walk.placement)
    assert verdicts == ["miss", "fill", "hit", "hit", "hit"]
    assert len(sites) == 1 and "D1" not in sites
