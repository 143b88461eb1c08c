"""Primitive SPARQL queries: one triple pattern (Sect. IV-C).

Implements the three processing schemes of the paper:

* **basic** — the owner index node fans the sub-query out to every target
  storage node in parallel, assembles the union, and sends it to the
  initiator. "Parallelism is exploited, but ... high transmission
  overhead may be incurred."
* **chained** — the index node forwards the query with a sequence of
  target nodes; each node merges its matches into the accumulated
  solutions and passes them on; the last node returns the final mappings
  to the initiator. In-network aggregation trades response time for
  transmission.
* **freq** — as chained, but the sequence is "arranged in the increasing
  order of the frequency information", so the node with the most matching
  triples is last and its (largest) contribution travels only once,
  directly to the initiator.

The fully-unbound pattern (?s, ?p, ?o) has no index key: the dataset is
the union of all triples at all storage nodes (Sect. IV-A), resolved by a
ring walk over the index nodes followed by a fan-out to every attached
storage node.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional

from ..net.protocol import Deliver, Evaluate, ExecutePrimitive
from ..net.sizes import size_of
from ..net.wire import PRUNED_COUNTER_BYTES, JoinDigest, shipped_rows
from .failover import dispatch_primitive
from .join_site import digest_embed_cost
from .physical import (
    ChainShip, certain_vars, note_lookup, note_owner, pick_digest,
)
from .plan import PatternInfo, ResultHandle, subquery_algebra, unread_info
from .strategies import DELIVERY_TIMEOUT, PrimitiveStrategy

__all__ = ["exec_primitive", "locate_leaves", "exec_pattern_to_site", "exec_broadcast",
           "discover_all_storage", "note_dropped", "charge_digest"]


def exec_primitive(ctx, leaf: ChainShip, at_home: bool = False,
                   digests: tuple = ()):
    """Generator: resolve a primitive leaf operator. Returns a ResultHandle.

    The leaf's :class:`~repro.query.physical.IndexLookup` carries the
    pattern and any pushed-down condition; when the cost planner already
    fetched its location-table row (``lookup.info``), the consultation is
    skipped. Of the *digests* pushed from probe-first combines above, the
    nearest whose variables the pattern binds rides with the sub-query.

    ``at_home=False`` materializes at the initiator (the right choice for
    a top-level primitive query). ``at_home=True`` leaves the result at
    its *home site* — the provider holding the most matching triples — so
    that a downstream join/union/left-join's site selection has a real
    decision to make (otherwise everything would already sit at the query
    site and every policy would degenerate to Query-Site). A leaf the
    cost planner pinned to BASIC has no home: its owner index node
    assembles the rows, so they cross the network whichever site they
    land at, and they land at the initiator, where they are consumed.

    Only a home site is picked from the row, so a leaf landing at the
    initiator does not read it: the sub-query goes straight to the key's
    owner, which reads its own row (Sect. IV-C), one round trip fewer
    (:func:`~repro.query.failover.dispatch_primitive`).
    """
    lookup = leaf.lookup
    span = ctx.tracer.span("primitive", pattern=str(lookup.pattern))
    try:
        info = lookup.info
        at_home = at_home and leaf.plan_strategy is not PrimitiveStrategy.BASIC
        if info is None and at_home:
            info = yield from ctx.locate(lookup.pattern, lookup.condition)
            note_lookup(lookup, info)
        elif info is None:
            info = unread_info(lookup.pattern, lookup.condition, ctx.system.space)
        if info.key is None:
            return (yield from exec_broadcast(ctx, subquery_algebra(info)))
        site = (at_home and info.heaviest_provider()) or ctx.initiator
        digest = pick_digest(digests, certain_vars(leaf))
        return (yield from exec_pattern_to_site(ctx, info, site, leaf=leaf,
                                                digest=digest))
    except ctx.degradable:
        # partial_results: a pattern whose owner and replicas are all
        # unreachable, or whose rows never landed, contributes the empty
        # set (a safe subset), flagged on the report and the plan,
        # instead of failing the query.
        ctx.flag_partial(str(lookup.pattern), node=leaf)
        return ctx.local_deposit(
            ctx.new_corr(), set(),
            vars=frozenset(lookup.pattern.variables()))
    finally:
        span.close()


def locate_leaves(ctx, leaves: List[ChainShip], partial: bool = False,
                  flag: bool = True):
    """Generator: the location-table row of every leaf, in list order.

    A leaf whose row is already known (``lookup.info``) costs nothing;
    the others consult the index as parallel processes, in list order,
    and their rows are noted on the plan. With *partial*, a leaf whose
    owner and replicas are all unreachable comes back None instead of
    failing the caller, and is flagged unless *flag* is False (the cost
    planner's statistics round leaves the flag to execution).
    """
    pending = [leaf for leaf in leaves if leaf.lookup.info is None]
    located = {}
    if pending:
        infos = yield ctx.sim.all_of([
            ctx.sim.process(_locate_leaf(ctx, leaf, partial, flag))
            for leaf in pending
        ])
        for leaf, info in zip(pending, infos):
            located[id(leaf)] = info
            if info is not None:
                note_lookup(leaf.lookup, info)
    return [located.get(id(leaf), leaf.lookup.info) for leaf in leaves]


def _locate_leaf(ctx, leaf: ChainShip, partial: bool, flag: bool):
    try:
        return (yield from ctx.locate(leaf.lookup.pattern,
                                      leaf.lookup.condition))
    except ctx.degradable:
        if not partial:
            raise
        if flag:
            ctx.flag_partial(str(leaf.lookup.pattern), node=leaf)
        return None


def exec_pattern_to_site(ctx, info: PatternInfo, site: str,
                         leaf: Optional[ChainShip] = None,
                         digest: Optional[JoinDigest] = None):
    """Generator: evaluate one located pattern, delivering the union of
    provider matches into *site*'s mailbox. Returns a ResultHandle.

    Applies the leaf's cost-planned scheme, else the executor's primitive
    strategy; falls back to BASIC when a chain breaks (delivery timeout),
    which also triggers the stale-entry cleanup of Sect. III-D at the
    owner index node. A *digest* rides with the sub-query to every
    provider, which sheds the rows that cannot join before they travel.
    An unread *info* (no row) resolves its owner with the dispatch; a
    lone leaf of a cost plan, left unpinned, lets that owner pick the
    scheme from its row (the ``cost`` wire strategy).
    """
    from .executor import DeliveryTimeout  # local import: avoid cycle

    corr = ctx.new_corr()
    pattern_vars = frozenset(info.pattern.variables())
    keep = ctx.keep_vars(pattern_vars)
    result_vars = frozenset(keep) if keep is not None else pattern_vars
    if info.entries is not None and not info.entries:  # read, and empty
        if site == ctx.initiator:
            return ctx.local_deposit(corr, set(), vars=result_vars)
        # Install an empty box remotely so downstream combines find it.
        yield ctx.call(site, "deliver", Deliver(corr=corr, data=[]))
        return ResultHandle(site, corr, 0, result_vars)

    algebra = subquery_algebra(info)
    strategy = ctx.options.primitive_strategy
    if leaf is not None and leaf.plan_strategy is not None:
        strategy = leaf.plan_strategy  # pinned by the cost planner
    elif leaf is not None and ctx.options.plan_mode == "cost":
        strategy = None  # unpinned: the owner picks
    if leaf is not None and strategy is not None:
        leaf.detail["strategy"] = strategy.wire_name
    if strategy is PrimitiveStrategy.BASIC:
        return (yield from _basic(ctx, info, algebra, site, corr, keep=keep,
                                  result_vars=result_vars, digest=digest,
                                  leaf=leaf))

    timeout = None
    wire = strategy.wire_name if strategy is not None else "cost"
    payload = primitive_payload(ctx, info, algebra, wire, corr, keep,
                                final=site, end_at=site, notify=ctx.initiator,
                                digest=digest)
    if strategy is None:
        # The owner may fan out, which is bounded as _basic bounds it.
        payload.time_weight = ctx.options.time_weight
        payload.storage_timeout = DELIVERY_TIMEOUT
        timeout = DELIVERY_TIMEOUT * 4
    ack, info, corr = yield from _dispatch(ctx, info, payload, corr, leaf,
                                           timeout)
    if strategy is None:
        from .cost import annotate_leaf  # local import: cost imports us

        info = replace(info, entries=tuple(ack["row"]))
        annotate_leaf(ctx, leaf, info)
        leaf.detail["strategy"] = leaf.plan_strategy.wire_name
    # The digest rode in one chain_step per hop; the steps credit what
    # they pruned by flow (``ExecutionReport.credit_chain_step``).
    charge_digest(ctx, payload, ack, len(ack.get("route", ())), leaf)
    if ack["mode"] == "direct":
        # Empty route (no providers left), or the owner's fan-out:
        # materialize its rows.
        note_dropped(ctx, ack, info)
        if site == ctx.initiator:
            return ctx.local_deposit(corr, ack["data"], vars=result_vars)
        yield ctx.call(site, "deliver", Deliver(corr=corr, data=ack["data"]))
        return ResultHandle(site, corr, len(ack["data"]), result_vars)
    try:
        count = yield from ctx.wait_delivery(corr, site)
    except DeliveryTimeout:
        # A storage node on the route died mid-chain. Re-execute with the
        # BASIC strategy: its per-node timeouts clean the stale entries.
        ctx.report.retries += 1
        ctx.report.merge_note(f"chain fallback for {corr}")
        corr = ctx.new_corr()
        return (yield from _basic(ctx, info, algebra, site, corr, keep=keep,
                                  result_vars=result_vars, digest=digest,
                                  leaf=leaf))
    pruned = (ctx.report.chain_pruned or {}).pop(corr, None)
    if pruned is not None and leaf is not None:
        leaf.detail["pruned"] = pruned
    return ResultHandle(site, corr, count, result_vars)


def primitive_payload(ctx, info: PatternInfo, algebra, strategy: str,
                      corr: str, keep, **path) -> ExecutePrimitive:
    """The fields every ``execute_primitive`` request carries: the
    sub-query, its ring key, the scheme and the correlation id, plus the
    shipping directives the options turn on — ``project`` (*keep*),
    ``plain``, ``partial`` and the result-cache ``cache`` flag — and
    the caller's own *path* fields."""
    opts = ctx.options
    return ExecutePrimitive(
        algebra=algebra, key=info.key, strategy=strategy, corr=corr,
        project=keep, plain=ctx.plain,
        partial=opts.partial_results or None, cache=opts.result_cache or None,
        **path)


def _dispatch(ctx, info: PatternInfo, payload: ExecutePrimitive, corr: str,
              leaf: Optional[ChainShip], timeout: Optional[float] = None):
    """Generator: :func:`dispatch_primitive`. An unread *info* comes back
    resolved to the owner that read its own row, which is noted on
    *leaf*'s lookup; a read one was noted when it was read."""
    unread = info.entries is None
    ack, info, corr = yield from dispatch_primitive(ctx, info, payload, corr,
                                                    timeout)
    if unread and leaf is not None:
        note_owner(leaf.lookup, info)
    return ack, info, corr


def _basic(ctx, info: PatternInfo, algebra, site: str, corr: str,
           keep=None, result_vars=None, digest=None, leaf=None):
    # Bound the owner's per-provider wait so the whole fan-out always
    # finishes inside our own call deadline below.
    payload = primitive_payload(ctx, info, algebra, "basic", corr, keep,
                                storage_timeout=DELIVERY_TIMEOUT, digest=digest)
    if site != ctx.initiator:
        payload.final = site
        payload.notify = ctx.initiator
        ack, info, corr = yield from _dispatch(
            ctx, info, payload, corr, leaf, timeout=DELIVERY_TIMEOUT * 4)
        note_dropped(ctx, ack, info)
        if digest is not None:  # only a planned leg, which read its row
            charge_digest(ctx, payload, ack, len(info.entries), leaf)
        if ack["mode"] == "direct":
            yield ctx.call(site, "deliver", Deliver(corr=corr, data=ack["data"]))
            return ResultHandle(site, corr, len(ack["data"]), result_vars)
        yield from ctx.wait_delivery(corr, site)
        return ResultHandle(site, corr, ack["count"], result_vars)
    response, info, corr = yield from _dispatch(
        ctx, info, payload, corr, leaf, timeout=DELIVERY_TIMEOUT * 4)
    note_dropped(ctx, response, info)
    if digest is not None:  # only a planned leg, which read its row
        charge_digest(ctx, payload, response, len(info.entries), leaf)
    return ctx.local_deposit(corr, response["data"], vars=result_vars)


def charge_digest(ctx, payload, ack, embeds: int,
                  leaf: Optional[ChainShip] = None) -> None:
    """Charge the digest of an ``execute_primitive`` *payload*, if one
    rode in it, to ``report.digest_bytes`` and credit the rows it pruned.

    The digest rides in the call itself and in *embeds* provider
    messages (the owner's fan-out sub-queries or the chain steps). A
    fan-out's provider replies each carry the pruned counter, and the
    ack carries their sum; it is also noted on *leaf* for explain.
    """
    digest = payload.digest
    if digest is None:
        return
    ctx.report.digest_bytes += (1 + embeds) * digest_embed_cost(digest)
    pruned = ack.get("pruned")
    if pruned is None:
        return
    ctx.report.rows_pruned += pruned
    ctx.report.digest_bytes += (embeds * PRUNED_COUNTER_BYTES
                                + size_of("pruned") + size_of(pruned) + 2)
    if leaf is not None:
        leaf.detail["pruned"] = pruned


def note_dropped(ctx, ack, info: PatternInfo) -> None:
    """The gray-failure hint: the owner's fan-out silently timed some
    providers out (exact under crash-stop, a subset under message loss),
    and — because the payload opted in with ``partial`` — said so in the
    ack. Flag the report; the rows we did get remain a safe subset."""
    if ack.get("dropped"):
        ctx.flag_partial(f"{ack['dropped']} providers of {info.pattern}")


# --------------------------------------------------------------- broadcast


def discover_all_storage(ctx):
    """Generator: walk the ring collecting every attached storage node.

    Starts at the initiator's entry index node and follows successor
    pointers until the walk closes — O(#index nodes) messages.
    """
    storages: List[str] = []
    start = ctx.entry_index
    current = start
    visited = set()
    while current not in visited:
        visited.add(current)
        attached = yield ctx.call(current, "get_attached")
        storages.extend(attached)
        succ_list = yield ctx.call(current, "get_successor_list")
        nxt = None
        for ref in succ_list:
            node = ctx.network.nodes.get(ref.node_id)
            if node is not None and node.alive:
                nxt = ref.node_id
                break
        if nxt is None:
            break
        current = nxt
    return storages


def exec_broadcast(ctx, algebra):
    """Generator: evaluate a sub-query at *every* storage node (the
    union-of-all-providers dataset semantics for (?s, ?p, ?o))."""
    span = ctx.tracer.span("broadcast")
    try:
        storages = yield from discover_all_storage(ctx)
        ctx.report.merge_note(f"broadcast to {len(storages)} storage nodes")
        corr = ctx.new_corr()
        events = [
            ctx.call(storage_id, "evaluate",
                     Evaluate(algebra=algebra, plain=ctx.plain))
            for storage_id in sorted(set(storages))
        ]
        solutions = set()
        if events:
            results = yield ctx.sim.all_of(events)
            for batch in results:
                solutions.update(shipped_rows(batch))
        return ctx.local_deposit(corr, solutions)
    except ctx.degradable:
        # partial_results: an unreachable node on the ring walk or in the
        # fan-out degrades the broadcast to the empty (safe) subset.
        ctx.flag_partial("broadcast (?s ?p ?o)")
        return ctx.local_deposit(ctx.new_corr(), set())
    finally:
        span.close()
