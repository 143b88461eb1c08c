"""Optional graph patterns: distributed left outer join (Sect. IV-E).

Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪ (Ω1 − Ω2). The paper prescribes the *move-small*
strategy: ship the smaller solution set to the node holding the other,
compute both the join and the difference there, and return the union of
the two directly to the query initiator. OPTIONAL is left-associative but
not commutative, so only the *site sequence* is optimized, never the
operator order — chains of OPTIONALs evaluate left to right.
"""

from __future__ import annotations

from .conjunction import empty_combine, exec_operands, probe_detail
from .join_site import combine_handles
from .physical import LeftJoinOp

__all__ = ["exec_leftjoin"]


def exec_leftjoin(ctx, node: LeftJoinOp, digests: tuple = ()):
    """Generator: execute LeftJoinOp(P1, P2, condition) → ResultHandle.

    A probe-first left join lands its required side first and prunes
    the optional side with its digest (:func:`exec_operands`); a
    required side of 0 rows is the answer."""
    span = ctx.tracer.span("optional")
    try:
        mark = len(ctx.report.dropped_patterns)
        try:
            left, right = yield from exec_operands(ctx, node, digests)
            if right is None and len(ctx.report.dropped_patterns) == mark:
                return empty_combine(node, (left, right))
            if len(ctx.report.dropped_patterns) == mark:
                # Move-small is the paper's stated choice for OPTIONAL;
                # other policies remain available for the join-site
                # experiment (E3/E4).
                return (yield from combine_handles(
                    ctx, "leftjoin", left, right, condition=node.condition,
                    edges=node.edges,
                ))
        except ctx.degradable:
            pass  # an operand, or this combine's own ship, degraded
        # partial_results: the left join is NOT monotone: a degraded
        # (subset) operand on either side could manufacture unextended
        # rows that are not in the true answer. The only always-safe
        # subset when anything below this operator degraded is the
        # empty set.
        ctx.flag_partial("optional", node=node)
        return ctx.local_deposit(ctx.new_corr(), set())
    finally:
        span.close(**probe_detail(node))
