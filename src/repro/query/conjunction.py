"""Conjunction graph patterns: multi-pattern BGPs (Sect. IV-D).

Two processing modes, as in the paper:

* **BASIC** — patterns resolve one after another at their owning index
  nodes; the accumulated solutions ship index-node to index-node and join
  locally at each step; the last index node sends the result to the
  initiator (the N4 → N15 → N1 walk of the paper's example).
* **OPTIMIZED** — exploit overlap between the patterns' storage-node
  sets: pick a shared storage node, run every pattern's chain in parallel
  with that node as the final stop, join everything there, and have it
  return the ultimate mappings directly to the initiator (the paper's
  S1 = {D1,D3,D4}, S2 = {D1,D2} example, joined at D1). Under the cost
  planner the shared site only pays off for a non-BASIC chain that lists
  it among its providers, whose rows then stay resident there; otherwise
  the walk combines at the initiator, where its result is consumed
  (:func:`walk_site` reads the pin).

Join *order* uses the location tables' frequency totals as cardinality
estimates — AND is associative and commutative (Sect. IV-D), so the
planner may reorder freely; smallest-estimate-first shrinks intermediate
results.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..net.protocol import FilterBox
from ..sparql import ast
from . import join_site
from .failover import dispatch_primitive
from .join_site import combine_handles, fetch_digest, least_loaded_site
from .physical import (
    BGPWalk, ChainShip, FilterOp, HashJoin, certain_vars, note_result,
    operand_digests, pick_digest,
)
from .plan import PatternInfo, ResultHandle, choose_shared_site, subquery_algebra
from .primitive import (
    charge_digest, exec_broadcast, exec_pattern_to_site, locate_leaves,
    note_dropped, primitive_payload,
)
from .strategies import DELIVERY_TIMEOUT, ConjunctionMode, JoinSitePolicy

__all__ = ["exec_bgp", "empty_walk", "exec_join", "exec_operands",
           "empty_combine", "probe_detail", "exec_filter", "walk_mode",
           "walk_site"]

#: One conjunction step: the plan leaf and its located index row.
Step = Tuple[ChainShip, PatternInfo]


def exec_bgp(ctx, walk: BGPWalk, digests: tuple = ()):
    """Generator: execute a conjunction walk operator → ResultHandle.

    *digests* were pushed down from probe-first combines above the walk
    (:func:`exec_operands`), nearest first; a chain carries the walk's
    own digest, else the nearest of them it binds every variable of."""
    mode = walk_mode(ctx, walk)
    span = ctx.tracer.span("conjunction", patterns=len(walk.children),
                           mode=mode.value)
    try:
        infos = yield from locate_leaves(ctx, walk.children,
                                         partial=ctx.options.partial_results)
        if any(info is None for info in infos):
            # partial_results: a pattern with no reachable index replica
            # was dropped; its contribution is the empty set and the whole
            # conjunction collapses to the (safe) empty subset.
            return empty_walk(ctx, walk)
        steps: List[Step] = list(zip(walk.children, infos))
        broadcast_steps = [s for s in steps if s[1].owner is None]
        indexed_steps = [s for s in steps if s[1].owner is not None]
        if walk.plan_order is not None:
            # The cost planner pinned the join order at plan time.
            position = {id(leaf): i for i, leaf in enumerate(walk.plan_order)}
            indexed_steps.sort(key=lambda s: position[id(s[0])])
        elif ctx.options.reorder_joins:
            # Smallest estimated cardinality first (frequency statistics).
            indexed_steps.sort(key=lambda s: (s[1].total_frequency,
                                              str(s[1].pattern)))

        handle: Optional[ResultHandle] = None
        if indexed_steps:
            walk.detail["mode"] = mode.value
            run = (_exec_basic_mode if mode is ConjunctionMode.BASIC
                   else _exec_optimized_mode)
            handle = yield from run(ctx, walk, indexed_steps, digests)
            if handle is None:
                # A pattern on the walk had no reachable replica (flagged
                # by the mode helper): degrade to the empty subset.
                return empty_walk(ctx, walk)
        # Fully unbound patterns have no index key: broadcast, join last.
        for _leaf, info in broadcast_steps:
            h = yield from exec_broadcast(ctx, subquery_algebra(info))
            handle = h if handle is None else (
                yield from combine_handles(ctx, "join", handle, h)
            )
        return (yield from _apply_post_filter(ctx, handle, walk.post_filter))
    finally:
        span.close(**probe_detail(walk))


def empty_walk(ctx, walk: BGPWalk):
    """The degraded (flagged) result of a conjunction walk with a dropped
    pattern: join(x, ∅) = ∅, so the whole walk contributes the empty set
    — a guaranteed subset of the true answer."""
    walk.detail["incomplete"] = True
    vars_ = frozenset()
    for leaf in walk.children:
        vars_ |= frozenset(leaf.lookup.pattern.variables())
    return ctx.local_deposit(ctx.new_corr(), set(), vars=vars_)


def _exec_basic_mode(ctx, walk: BGPWalk, steps: List[Step], digests: tuple):
    """The paper's basic conjunction walk over index nodes.

    With the shipping optimizations on, each step also (a) pushes the
    query-wide projection down into the storage fan-out, (b) embeds a
    semijoin digest of the accumulated solutions so providers shed
    non-joining rows before their results ever travel, and (c) ships the
    accumulated result onward projected to the variables still needed by
    the remaining patterns (per-edge liveness, tighter than the global
    set for the walk's middle hops).
    """
    opts = ctx.options
    infos = [info for _leaf, info in steps]
    pattern_vars = [frozenset(info.pattern.variables()) for info in infos]
    # suffix[i] = vars appearing in patterns i.. (suffix[len] = empty).
    suffix: List[frozenset] = [frozenset()] * (len(infos) + 1)
    for i in range(len(infos) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | pattern_vars[i]

    handle: Optional[ResultHandle] = None
    for i, (leaf, info) in enumerate(steps):
        corr = ctx.new_corr()
        keep = ctx.keep_vars(pattern_vars[i])
        payload = primitive_payload(ctx, info, subquery_algebra(info),
                                    "basic", corr, keep, deposit=True,
                                    storage_timeout=DELIVERY_TIMEOUT)
        if (
            handle is not None
            and opts.semijoin
            # Gate on the rows the digest would prune, not the side that
            # builds it: a 1-row accumulated side prunes the most.
            and info.total_frequency >= join_site.SEMIJOIN_MIN_ROWS
            and handle.vars
        ):
            shared = handle.vars & pattern_vars[i]
            if shared:
                payload.digest = yield from fetch_digest(ctx, handle, shared)
        if payload.digest is None:
            payload.digest = pick_digest(digests, pattern_vars[i])
        try:
            ack, info, corr = yield from dispatch_primitive(
                ctx, info, payload, corr,
                timeout=DELIVERY_TIMEOUT * 4)
        except ctx.degradable:
            ctx.flag_partial(str(info.pattern), node=leaf)
            return None
        note_dropped(ctx, ack, info)
        charge_digest(ctx, payload.digest, len(info.entries),
                      ack.get("pruned"), leaf)
        hvars = frozenset(keep) if keep is not None else pattern_vars[i]
        mine = ResultHandle(info.owner, corr, ack["count"], hvars)
        note_result(leaf, mine)
        if handle is None:
            handle = mine
        else:
            # Ship the accumulated solutions to this pattern's index node
            # and join there (N4 forwards its solutions to N15, which
            # carries out a local join). The accumulated side only needs
            # the globally-live vars plus whatever later patterns join on.
            edge_live = (None if ctx.live_vars is None
                         else ctx.live_vars | suffix[i + 1])
            handle = yield from combine_handles(
                ctx, "join", handle, mine, site=mine.site, live=edge_live
            )
    assert handle is not None
    return handle


def _exec_optimized_mode(ctx, walk: BGPWalk, steps: List[Step],
                         digests: tuple):
    """Overlap-aware parallel chains ending at a shared storage node.

    A probe-first walk first lands its first chain alone, then sends
    that chain's join-key digest with every other chain, so providers
    shed the rows that cannot join before they travel. The digest never
    drops a joinable row, so the answer is the same. One rule decides
    (:func:`~repro.query.cost._probe_pays`): the cost planner pins it in
    ``walk.plan_probe``, and a legacy walk under ``options.semijoin``
    applies it here to its located rows.
    """
    site = walk_site(ctx, walk, [info for _leaf, info in steps])
    ctx.report.merge_note(f"conjunction site {site}")
    if walk.plan_mode is None and ctx.options.semijoin and len(steps) > 1:
        from .cost import _probe_pays, chain_side  # local import: cost imports us

        link = ctx.network.link
        side = chain_side(steps[0][1], ctx.options.primitive_strategy, link)
        walk.plan_probe = _probe_pays(
            side, [chain_side(info) for _leaf, info in steps[1:]], link)

    handles: List[ResultHandle] = []
    probe_vars: frozenset = frozenset()
    walk_digests = {}  # shared variables -> the probe's digest over them

    def digest_for(info: PatternInfo):
        """The walk's own digest for a chain, else a pushed one."""
        pattern_vars = frozenset(info.pattern.variables())
        own = walk_digests.get(probe_vars & pattern_vars)
        return own if own is not None else pick_digest(digests, pattern_vars)

    if walk.plan_probe:
        (leaf, info), steps = steps[0], steps[1:]
        probe = yield from _pattern_to_site_or_drop(ctx, info, site, leaf,
                                                    digest_for(info))
        if probe is None:
            return None  # the probe dropped (flagged where it dropped)
        note_result(leaf, probe)
        walk.detail["probe"] = str(info.pattern)
        if probe.count == 0:
            # join(∅, Ω) = ∅: no other chain needs to run.
            vars_ = probe.vars.union(*(s[1].pattern.variables() for s in steps))
            return ResultHandle(site, probe.corr, 0, vars_)
        handles.append(probe)
        probe_vars = probe.vars
        for _leaf, info in steps:
            shared = probe_vars & frozenset(info.pattern.variables())
            if shared and shared not in walk_digests:
                walk_digests[shared] = yield from fetch_digest(ctx, probe,
                                                               shared)
        _note_digests(walk, walk_digests.values())

    processes = [
        ctx.sim.process(_pattern_to_site_or_drop(ctx, info, site, leaf,
                                                 digest_for(info)))
        for leaf, info in steps
    ]
    chained: List[ResultHandle] = yield ctx.sim.all_of(processes)
    if any(h is None for h in chained):
        return None  # a pattern dropped (flagged where it dropped)
    for (leaf, _info), h in zip(steps, chained):
        note_result(leaf, h)
    handles.extend(chained)

    # Pairwise joins at the site, smallest first to keep intermediates low.
    handles.sort(key=lambda h: (h.count, h.corr))
    handle = handles[0]
    for nxt in handles[1:]:
        handle = yield from combine_handles(ctx, "join", handle, nxt, site=site)
    return handle


def _note_digests(node, digests) -> None:
    """Record on *node* the mode and wire size of the probe digests it
    sent, for its span and ``repro explain``."""
    sent = [d for d in digests if d is not None]
    node.detail["digest"] = "/".join(sorted({d.mode for d in sent}))
    node.detail["digest_bytes"] = sum(d.wire_size() for d in sent)


def _pattern_to_site_or_drop(ctx, info: PatternInfo, site: str,
                             leaf: ChainShip, digest=None):
    """Generator: :func:`exec_pattern_to_site`, degrading an unreachable
    pattern, or one whose rows never landed, to ``None`` under
    ``options.partial_results``."""
    try:
        return (yield from exec_pattern_to_site(ctx, info, site, leaf=leaf,
                                                digest=digest))
    except ctx.degradable:
        ctx.flag_partial(str(info.pattern), node=leaf)
        return None


def walk_mode(ctx, walk: BGPWalk) -> ConjunctionMode:
    """The walk's conjunction mode: pinned by the cost planner, else the
    executor's option."""
    if walk.plan_mode is not None:
        return ConjunctionMode(walk.plan_mode)
    return ctx.options.conjunction_mode


def walk_site(ctx, walk: BGPWalk, infos: List[PatternInfo]) -> str:
    """Where an OPTIMIZED walk combines: the site the cost planner pinned,
    else the patterns' best shared provider (:func:`choose_shared_site`),
    else the join-site policy's choice."""
    if walk.plan_site is not None:
        return walk.plan_site
    site = choose_shared_site(infos)
    if site is not None:
        return site
    policy = ctx.options.join_site_policy
    if policy is JoinSitePolicy.QUERY_SITE:
        return ctx.initiator
    if policy is JoinSitePolicy.THIRD_SITE:
        return least_loaded_site(ctx)
    # MOVE_SMALL: bring the small sides to the largest pattern's biggest
    # provider, so the bulkiest data moves least.
    biggest = max(infos, key=lambda i: i.total_frequency)
    return biggest.heaviest_provider() or ctx.initiator


def _apply_post_filter(ctx, handle: ResultHandle,
                       post_filter: Optional[ast.Expression]):
    """Generator: apply a non-pushable filter where the data sits."""
    if post_filter is None:
        return handle
    out = ctx.new_corr()
    payload = FilterBox(corr=handle.corr, out=out, condition=post_filter)
    if handle.site == ctx.initiator:
        summary = ctx.initiator_peer.rpc_filter_box(payload, ctx.initiator)
    else:
        summary = yield ctx.call(handle.site, "filter_box", payload)
    return ResultHandle(handle.site, out, summary["count"], handle.vars)


def exec_filter(ctx, node: FilterOp, at_home: bool = False,
                digests: tuple = ()):
    """Generator: execute FilterOp(condition, operand) → ResultHandle.

    Compile-time placement sends a condition covered by one pattern with
    that pattern's sub-query and one covering a BGP along the walk as its
    ``post_filter``; this is the residual case over an arbitrary
    sub-plan: evaluate the operand, then filter where its result sits.
    """
    from .executor import exec_plan

    span = ctx.tracer.span("filter")
    try:
        handle = yield from exec_plan(ctx, node.operand, at_home=at_home,
                                      digests=digests)
        return (yield from _apply_post_filter(ctx, handle, node.condition))
    finally:
        span.close()


def exec_operands(ctx, node, digests: tuple = ()):
    """Generator: land both operands of a join or left join → their
    ``(left, right)`` handles.

    They run in parallel, unless the cost planner pinned a probe
    (``node.plan_probe``): then the probe operand lands first, and its
    join-key digest goes down into the other operand's chains, ahead of
    the *digests* pushed from above
    (:func:`~repro.query.physical.operand_digests`). Landed at the
    initiator, the probe builds its digest there and sends no message. A
    probe that lands 0 rows ends the combine: the other handle is None,
    and nothing else is dispatched.
    """
    from .executor import exec_plan, exec_subtrees_parallel

    pushed = operand_digests(node, digests)
    if node.plan_probe is None:
        return (yield from exec_subtrees_parallel(
            ctx, [node.left, node.right], pushed))
    first = 0 if node.plan_probe == "left" else 1
    operands = (node.left, node.right)
    node.detail["probe"] = node.plan_probe
    handles = [None, None]
    probe = handles[first] = yield from exec_plan(
        ctx, operands[first], at_home=True, digests=pushed[first])
    if probe.count == 0:
        return handles
    other = operands[1 - first]
    shared = (probe.vars or frozenset()) & certain_vars(other)
    digest = (yield from fetch_digest(ctx, probe, shared)) if shared else None
    _note_digests(node, [digest])
    own = () if digest is None else (digest,)
    handles[1 - first] = yield from exec_plan(
        ctx, other, at_home=True, digests=own + pushed[1 - first])
    return handles


def empty_combine(node, handles) -> ResultHandle:
    """The result of a probe-first combine whose probe landed 0 rows:
    the probe's own empty box, binding what the combine would."""
    probe = handles[0] if handles[0] is not None else handles[1]
    return ResultHandle(probe.site, probe.corr, 0, certain_vars(node))


def exec_join(ctx, node: HashJoin, digests: tuple = ()):
    """Generator: a general Join of two sub-plans (produced e.g. by the
    optimizer splitting a filtered BGP)."""
    span = ctx.tracer.span("join")
    try:
        left, right = yield from exec_operands(ctx, node, digests)
        if left is None or right is None:
            return empty_combine(node, (left, right))
        return (yield from combine_handles(ctx, "join", left, right,
                                           edges=node.edges))
    finally:
        span.close(**probe_detail(node))


def probe_detail(node) -> dict:
    """The probe facts a walk or combine span closes with."""
    return {key: node.detail[key] for key in ("probe", "digest", "digest_bytes")
            if key in node.detail}
