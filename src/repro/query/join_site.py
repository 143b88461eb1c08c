"""Join site selection and inter-site combination (Sect. II, IV-D/E).

Given two materialized intermediate results (mailbox handles), decide
*where* to combine them — Move-Small, Query-Site, or Third-Site — ship
what must move, and run the combine operation at the chosen site. This is
the distributed-database machinery the paper imports into SPARQL
processing.

This module is also the choke point for the transmission-minimizing
shipping optimizations (toggled per-technique via
:class:`~repro.query.strategies.ExecutionOptions`; only dictionary
encoding is on by default):

* **projection pushdown** — every ship projects the moving rows onto the
  plan's live variables (``ctx.live_vars``, or a tighter per-edge set
  passed by the caller);
* **semijoin pre-filtering** — before a join/leftjoin operand moves, the
  resident side's digest (:class:`~repro.net.wire.JoinDigest`) is fetched
  and shipped to the holder, which drops rows that cannot join. The
  digest round-trip and its embeds are charged to
  ``report.digest_bytes`` — the technique's exact overhead bound;
* **dictionary encoding** — moving rows travel as
  :class:`~repro.net.wire.SolutionBatch` payloads, or as the plain row
  list when the option is off (the request's ``plain`` field).
"""

from __future__ import annotations

from typing import Optional

from ..net.protocol import Combine, Deliver, Digest, Ship
from ..net.sizes import HEADER_BYTES, size_of
from ..net.transport import RpcTimeout
from ..net.wire import JoinDigest, encode_solutions, shed
from ..sparql import ast
from ..trace.tracer import PHASE_JOIN, PHASE_SHIP
from .physical import may_prune
from .plan import ResultHandle, combine_vars
from .strategies import JoinSitePolicy

__all__ = ["pick_join_site", "least_loaded_site", "combine_handles",
           "ship_handle", "fetch_digest", "digest_request", "digest_embed_cost"]

_PER_ITEM_OVERHEAD = 2
#: The digest mode switch, and nothing more: at most this many distinct
#: join keys ship as an exact key set; above it, a counting-free Bloom
#: filter. Neither mode caps a probe (``cost._probe_pays`` prices both).
SEMIJOIN_EXACT_THRESHOLD = 64
#: Bloom digest density (bits per key).
SEMIJOIN_BLOOM_BITS = 10
#: Skip the semijoin digest round trip when the operand it would prune
#: has fewer rows: below this the digest costs more than it saves. Read
#: at call time, here and in :mod:`repro.query.conjunction`.
SEMIJOIN_MIN_ROWS = 4


def pick_join_site(ctx, left: ResultHandle, right: ResultHandle) -> str:
    """Choose the combine site under the executor's policy."""
    if ctx.options.plan_mode == "cost":
        # Byte-weighted move-small: the operand that is cheaper to move
        # (by the cost model's wire prior) is the one that travels.
        from .cost import choose_combine_site

        return choose_combine_site(left, right)
    policy = ctx.options.join_site_policy
    if policy is JoinSitePolicy.QUERY_SITE:
        return ctx.initiator
    if policy is JoinSitePolicy.MOVE_SMALL:
        # The smaller operand travels to the site of the larger one; with
        # equal sizes prefer keeping the left side still (deterministic).
        if left.count >= right.count:
            return left.site
        return right.site
    if policy is JoinSitePolicy.THIRD_SITE:
        return least_loaded_site(ctx)
    raise ValueError(f"unknown join-site policy {policy!r}")


def least_loaded_site(ctx) -> str:
    """Third-Site under simulated QoS: the live storage node that has
    served the fewest combine operations (ties by node id), else the
    initiator."""
    alive = [s for s in sorted(ctx.system.storage_nodes)
             if ctx.network.nodes[s].alive]
    if not alive:
        return ctx.initiator
    return min(alive, key=lambda node: (ctx.load[node], node))


def digest_embed_cost(digest: JoinDigest) -> int:
    """Extra bytes one payload grows by when a digest rides inside it."""
    return size_of("digest") + size_of(digest) + _PER_ITEM_OVERHEAD


def digest_request(corr: str, shared_vars) -> Digest:
    """The ``digest`` request for mailbox *corr* over *shared_vars*."""
    return Digest(corr=corr, vars=sorted(shared_vars, key=lambda v: v.name),
                  exact_threshold=SEMIJOIN_EXACT_THRESHOLD,
                  bloom_bits=SEMIJOIN_BLOOM_BITS)


def fetch_digest(ctx, handle: ResultHandle, shared_vars):
    """Generator: fetch a semijoin digest over *handle*'s join-key values.

    Returns the digest, or None when pruning with it would be unsound
    (some resident row does not bind every key variable). The round
    trip's full cost — request, payload, and digest reply — is charged to
    ``report.digest_bytes``; a local build at the initiator is free, like
    every other local mailbox operation.
    """
    payload = digest_request(handle.corr, shared_vars)
    span = ctx.tracer.span("digest", phase=PHASE_SHIP,
                           site=handle.site, corr=handle.corr)
    try:
        if handle.site == ctx.initiator:
            digest = ctx.initiator_peer.rpc_digest(payload, ctx.initiator)
        else:
            try:
                digest = yield ctx.call(handle.site, "digest", payload)
            except RpcTimeout:
                if not ctx.options.failover:
                    raise
                # The digest is an optimization, not a correctness
                # requirement: with failover on, a dead digest site just
                # means the operand ships unpruned.
                ctx.report.merge_note(f"digest skipped ({handle.corr})")
                return None
            ctx.report.digest_bytes += (
                2 * HEADER_BYTES + size_of("digest") + size_of(payload)
                + size_of(digest)
            )
    finally:
        span.close()
    return digest if digest.prunable else None


def _projection_for(ctx, handle: ResultHandle, live):
    """The keep-list for shipping *handle*, or None when projection is a
    no-op (pushdown off, vars unknown, or nothing to drop)."""
    if live is None:
        live = ctx.live_vars
    if live is None or handle.vars is None:
        return None
    kept = [v for v in handle.vars if v in live]
    if len(kept) == len(handle.vars):
        return None
    return sorted(kept, key=lambda v: v.name)


def ship_handle(ctx, handle: ResultHandle, site: str, live=None,
                digest: Optional[JoinDigest] = None):
    """Generator: move *handle*'s data into *site*'s mailbox.

    No-op when already there. Shipping from the initiator is a plain
    one-way deliver; shipping between two remote sites is a small control
    message to the holder followed by its one-way transfer (the
    "data shipping" of Fig. 3), acknowledged to the initiator.

    *live* (optional) overrides ``ctx.live_vars`` as the projection
    target; *digest* (optional) pre-filters the moving rows.
    """
    from .executor import DeliveryTimeout

    if handle.site == site:
        return handle
    keep = _projection_for(ctx, handle, live)
    shipped_vars = frozenset(keep) if keep is not None else handle.vars
    span = ctx.tracer.span("ship", phase=PHASE_SHIP,
                           src=handle.site, dst=site, corr=handle.corr)
    try:
        if handle.site == ctx.initiator:
            data, pruned = shed(ctx.initiator_peer.mailbox.pop(handle.corr, set()),
                                digest, keep)
            if pruned is not None:
                ctx.report.rows_pruned += pruned
            corr = handle.corr
            yield ctx.call(site, "deliver", Deliver(
                corr=corr, data=encode_solutions(data, ctx.plain)))
            return ResultHandle(site, corr, len(data), shipped_vars)
        payload = Ship(corr=handle.corr, dst=site, dst_corr=handle.corr,
                       notify=ctx.initiator, project=keep, digest=digest,
                       plain=ctx.plain)
        if digest is not None:
            ctx.report.digest_bytes += digest_embed_cost(digest)
        # The holder keeps its mailbox copy, so a transfer whose one-way
        # deliver vanished is re-shipped once, into a fresh landing corr
        # (the timed-out one is tombstoned).
        corr = handle.corr
        for retry in (False, True):
            payload.dst_corr = corr
            ack = yield ctx.call(handle.site, "ship", payload)
            if isinstance(ack, dict):
                count = ack["count"]
                ctx.report.rows_pruned += ack.get("pruned", 0)
            else:
                count = ack
            try:
                yield from ctx.wait_delivery(corr, site)
                break
            except DeliveryTimeout:
                if retry:
                    raise
                ctx.report.merge_note(f"ship retry for {handle.corr}")
                corr = ctx.new_corr()
        return ResultHandle(site, corr, count, shipped_vars)
    finally:
        span.close()


def _record_edge(edge, before: ResultHandle, after: ResultHandle,
                 site: str, pruned: Optional[int] = None) -> None:
    """Annotate a plan Ship/SemijoinShip edge with what the transfer did
    (display only — pure attribute writes on the plan tree)."""
    if edge is None:
        return
    edge.placement = site
    edge.actual_rows = after.count
    if before.site == site:
        edge.detail["resident"] = True
    else:
        edge.detail["shipped_from"] = before.site
    if pruned is not None:
        edge.detail["pruned"] = pruned


def combine_handles(
    ctx,
    op: str,
    left: ResultHandle,
    right: ResultHandle,
    condition: Optional[ast.Expression] = None,
    site: Optional[str] = None,
    live=None,
    edges=None,
):
    """Generator: bring both operands to one site and combine them there.

    Returns the ResultHandle of the combined result. ``op`` is one of
    join / union / leftjoin / minus (the operations on solution-mapping
    sets of Sect. IV-A). With the semijoin option on, the operand that is
    (or arrives) resident at the join site digests its join keys so the
    other side can shed non-joining rows before it moves.

    ``edges`` (optional) is the plan's ``(left_edge, right_edge)`` pair
    of Ship operators; each gets annotated with where its operand moved
    from and how many rows crossed the wire.
    """
    if site is None:
        site = pick_join_site(ctx, left, right)
    span = ctx.tracer.span("combine", phase=PHASE_JOIN, op=op, site=site)
    try:
        opts = ctx.options
        edge_for = {"left": edges[0], "right": edges[1]} if edges else {}
        order = [("left", left), ("right", right)]
        use_semijoin = opts.semijoin and op in ("join", "leftjoin")
        if use_semijoin:
            # Land an anchor first — prefer the operand already at the
            # site (free), else the smaller one — so its digest can
            # pre-filter the other side's transfer.
            order.sort(key=lambda item: (
                0 if item[1].site == site else 1, item[1].count, item[0]))
        first_role, first = order[0]
        second_role, second = order[1]
        first_before, second_before = first, second

        first = yield from ship_handle(ctx, first, site, live=live)
        _record_edge(edge_for.get(first_role), first_before, first, site)
        digest = None
        if (
            use_semijoin
            and may_prune(op, second_role)
            and second.site != site
            and second.count >= SEMIJOIN_MIN_ROWS
            and first.vars is not None
            and second.vars is not None
        ):
            shared = first.vars & second.vars
            if shared:
                digest = yield from fetch_digest(ctx, first, shared)
        second = yield from ship_handle(ctx, second, site, live=live,
                                        digest=digest)
        _record_edge(edge_for.get(second_role), second_before, second, site,
                     pruned=(second_before.count - second.count
                             if digest is not None else None))

        left, right = ((first, second) if first_role == "left"
                       else (second, first))
        out_corr = ctx.new_corr()
        ctx.load[site] += 1
        payload = Combine(op=op, left=left.corr, right=right.corr,
                          out=out_corr, condition=condition)
        if site == ctx.initiator:
            summary = ctx.initiator_peer.rpc_combine(payload, ctx.initiator)
        else:
            summary = yield ctx.call(site, "combine", payload)
        return ResultHandle(site, out_corr, summary["count"],
                            combine_vars(op, left.vars, right.vars))
    finally:
        span.close()
