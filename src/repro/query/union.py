"""Union graph patterns (Sect. IV-F).

⟦P1 UNION P2⟧ = ⟦P1⟧ ∪ ⟦P2⟧: the branches "can be carried out in
parallel"; the union operation "can occur at any of the two nodes that
collect the solution mappings".

The optimization of the paper's example (S1 = {D1, D3}, S2 = {D2, D3}:
both chains end at D3 and the union is free) is implemented here: when
both branches bottom out in located triple patterns, their provider sets
are inspected *before* execution and, if they overlap, both branches'
chains are routed to end at a common storage node. Otherwise the branches
run at their home sites and the smaller result moves (move-small).
"""

from __future__ import annotations

from typing import Optional

from .join_site import combine_handles
from .physical import (
    ChainShip, PhysOp, UnionOp, certain_vars, note_result, operand_digests,
    pick_digest,
)
from .plan import choose_shared_site

__all__ = ["exec_union"]


def _leaf(node: PhysOp) -> Optional[ChainShip]:
    """The operand itself when it is a primitive leaf (a single-pattern
    BGP, possibly carrying a pushed-down condition); else None."""
    return node if isinstance(node, ChainShip) else None


def exec_union(ctx, node: UnionOp, digests: tuple = ()):
    """Generator: execute UnionOp(P1, P2) → ResultHandle.

    A digest pushed from a probe-first join above reaches both branches
    when its variables are certain in the union
    (:func:`~repro.query.physical.operand_digests`)."""
    from .executor import exec_subtrees_parallel
    from .primitive import exec_pattern_to_site, locate_leaves

    span = ctx.tracer.span("union")
    try:
        pushed = operand_digests(node, digests)
        leaves = [_leaf(node.left), _leaf(node.right)]
        if None not in leaves:
            # Plan the collection site from the location tables (Sect.
            # IV-F's D3 example): overlap -> both chains end at the
            # shared node.
            try:
                infos = yield from locate_leaves(ctx, leaves)
                site = None
                if all(info.owner is not None for info in infos):
                    site = choose_shared_site(infos)
                if site is not None:
                    ctx.report.merge_note(f"union site {site}")
                    left, right = yield ctx.sim.all_of([
                        ctx.sim.process(exec_pattern_to_site(
                            ctx, info, site, leaf=leaf,
                            digest=pick_digest(into, certain_vars(leaf))))
                        for leaf, info, into in zip(leaves, infos, pushed)
                    ])
                    for leaf, h in zip(leaves, (left, right)):
                        note_result(leaf, h)
                    return (yield from combine_handles(
                        ctx, "union", left, right, site=site, edges=node.edges))
            except ctx.degradable:
                # partial_results: the shared-site shortcut hit a dead
                # node or a lost delivery; fall through to the general
                # path, whose per-branch guards degrade an unreachable
                # branch instead of failing (union is monotone, so
                # surviving branches are a safe subset).
                ctx.report.merge_note("union shared-site path degraded")

        left, right = yield from exec_subtrees_parallel(
            ctx, [node.left, node.right], pushed)
        # Branches that ended at one node union there; otherwise the
        # join-site policy picks where.
        site = left.site if left.site == right.site else None
        return (yield from combine_handles(ctx, "union", left, right,
                                           site=site, edges=node.edges))
    finally:
        span.close()
