"""Probe-first combines: a digest pushed across a join.

Under the cost planner a join (or a left join's required side) whose
selective operand pays for it lands that operand first, then pushes its
join-key digest down into the other operand's chains, which shed the
rows that cannot join before they travel. The push-down rule
(:func:`repro.query.physical.operand_digests`) says where a digest may
prune: every answer here is compared with the local oracle as a
multiset, on the ``fig_mix`` layout (``foaf_ring(400)``, seed 1).
"""

from collections import Counter

import pytest

from repro.overlay.index_node import IndexNode
from repro.query import DistributedExecutor, ExecutionOptions, cost
from repro.query.physical import (
    BGPWalk, ChainShip, HashJoin, LeftJoinOp, PhysOp, operand_digests,
    walk_plan,
)
from repro.rdf import Variable

from helpers import foaf_ring, oracle_rows

SMITH = 'FILTER regex(?name, "Smith")'
FIG4 = f"""SELECT ?x ?y ?z WHERE {{
    ?x foaf:name ?name . ?x foaf:knows ?z .
    ?x ns:knowsNothingAbout ?y . ?y foaf:knows ?z . {SMITH} }}"""
FIG9 = f"""SELECT ?x ?y ?z WHERE {{
    ?x foaf:name ?name ; ns:knowsNothingAbout ?y . {SMITH}
    OPTIONAL {{ ?y foaf:knows ?z . }} }}"""
#: No ?y knows its ?x back, so every required row comes out unextended.
UNMATCHED = f"""SELECT ?x ?y ?z WHERE {{
    ?x foaf:name ?name ; ns:knowsNothingAbout ?y . {SMITH}
    OPTIONAL {{ ?y foaf:knows ?z . FILTER (?z = ?x) }} }}"""
UNION = f"""SELECT ?x ?z WHERE {{
    ?x foaf:name ?name . {SMITH}
    {{ ?x foaf:knows ?z . }} UNION {{ ?x ns:knowsNothingAbout ?z . }} }}"""
#: The FILTER sits above a left join, so it is a Filter operator; the
#: digest passes through it to the required side only.
FILTERED = f"""SELECT ?x ?z ?k WHERE {{
    ?x foaf:name ?name . {SMITH}
    {{ ?x foaf:knows ?z . OPTIONAL {{ ?z foaf:nick ?k . }}
       FILTER (!bound(?k)) }} }}"""
NOBODY = FIG4.replace('"Smith"', '"Nobody At All"')
#: The optional side (nick) is far smaller than the required one.
SMALL_OPTIONAL = """SELECT ?x ?y ?k WHERE {
    ?x foaf:knows ?y . OPTIONAL { ?y foaf:nick ?k . } }"""


def multiset(rows) -> Counter:
    return Counter(tuple(sorted((v.name, t.n3()) for v, t in mu.items()))
                   for mu in rows)


def run(query, system=None):
    """*query* under the cost planner from D1 → (system, result, report);
    the answer is checked against the oracle."""
    system = system or foaf_ring(400)
    executor = DistributedExecutor(system, ExecutionOptions(plan_mode="cost"))
    result, report = executor.execute(query, initiator="D1")
    assert multiset(result.rows) == multiset(oracle_rows(system, query))
    return system, result, report


def ops(plan: PhysOp, kind) -> list:
    return [op for op in walk_plan(plan) if isinstance(op, kind)]


@pytest.mark.parametrize("query, combine", [
    (FIG4, HashJoin), (FIG9, LeftJoinOp), (UNMATCHED, LeftJoinOp),
    (UNION, HashJoin), (FILTERED, HashJoin),
], ids=["leaf-join-walk", "optional", "unmatched-optional", "union",
        "filter-above-join"])
def test_pushed_digest_keeps_the_answer(query, combine):
    _system, result, report = run(query)
    (probed,) = [op for op in ops(report.plan, combine) if op.plan_probe]
    assert probed.plan_probe == "left"
    assert probed.describe().startswith(("probe-first left", "+cond probe-first left"))
    assert report.rows_pruned > 0
    pruned = [leaf.detail.get("pruned", 0)
              for leaf in ops(report.plan, ChainShip)]
    assert sum(pruned) == report.rows_pruned
    if query == UNMATCHED:
        assert result.rows and all(mu.get(Variable("z")) is None
                                   for mu in result.rows)


def test_fig4_probes_at_both_levels():
    """The filtered leaf probes the walk, whose first step, cut by that
    digest, probes the walk's other chains."""
    _system, _result, report = run(FIG4)
    (join,) = ops(report.plan, HashJoin)
    (walk,) = ops(report.plan, BGPWalk)
    assert join.plan_probe == "left" and isinstance(join.left, ChainShip)
    assert join.left.lookup.condition is not None
    assert walk.plan_probe
    assert join.detail["digest_bytes"] > 0 and walk.detail["digest_bytes"] > 0
    # Every chain of the walk is pruned: the probe by the pushed digest,
    # the others by the walk's own.
    assert all(leaf.detail.get("pruned", 0) > 0 for leaf in walk.children)
    # The filtered leaf is estimated at the FILTER prior.
    info = join.left.lookup.info
    assert join.left.est_rows == info.total_frequency * cost.FILTER_SELECTIVITY


def test_empty_probe_dispatches_nothing_else(monkeypatch):
    calls = []
    real = IndexNode.rpc_execute_primitive

    def spy(self, payload, src):
        calls.append(payload.algebra)
        return real(self, payload, src)

    monkeypatch.setattr(IndexNode, "rpc_execute_primitive", spy)
    _system, result, report = run(NOBODY)
    (join,) = ops(report.plan, HashJoin)
    assert join.plan_probe == "left"
    assert result.rows == [] and len(calls) == 1


def test_optional_side_never_prunes_the_required_side(monkeypatch):
    """With every probe paying, a left join still probes from its
    required side only: a digest of the few optional rows would drop the
    required rows they do not extend."""
    monkeypatch.setattr(cost, "_probe_pays", lambda probe, targets, link: True)
    _system, result, report = run(SMALL_OPTIONAL)
    (left_join,) = ops(report.plan, LeftJoinOp)
    assert left_join.plan_probe == "left"
    assert any(mu.get(Variable("k")) is None for mu in result.rows)
    assert operand_digests(left_join, ("digest",)) == (("digest",), ())
