"""Combine-site BGP caching: the :class:`CacheProbe` operator's runtime.

The distributed compiler emits a :class:`~repro.query.physical.CacheProbe`
(a :class:`~repro.query.physical.BGPWalk` subclass) for every
multi-pattern conjunction when the result cache is on. Before running
the walk, this module asks the *planned combine site* whether it already
holds the walk's whole solution set:

* **hit** — the site installs the memoized solutions into its mailbox
  under a fresh correlation id, exactly where the walk would have left
  them; every chain, provider fan-out, and pairwise join is skipped.
* **miss past the admission gate** — the walk runs normally (pinned to
  the probed site), then its finished mailbox entry is admitted with a
  stamp taken *before* the walk started, so a delta that raced the
  computation invalidates the entry rather than corrupting it.
* **cold miss** — the walk runs; only the key's frequency is counted.

The probe falls back to the plain walk whenever memoization is unsound
or has no single home: broadcast patterns (no index key), pushed-down
filter conditions, a post-filter, or the BASIC conjunction mode (which
walks index node to index node and has no stable combine site).
"""

from __future__ import annotations

from ..net.protocol import CacheAdmit, CacheProbe
from .keys import bgp_cache_key

__all__ = ["exec_cache_probe"]


def exec_cache_probe(ctx, walk):
    """Generator: execute a CacheProbe operator → ResultHandle."""
    from ..query.conjunction import empty_walk, exec_bgp, walk_mode, walk_site
    from ..query.plan import ResultHandle
    from ..query.primitive import locate_leaves
    from ..query.strategies import ConjunctionMode

    if not ctx.options.result_cache:
        return (yield from exec_bgp(ctx, walk))

    # Locate every leaf up front (the walk needs the rows anyway); pin
    # the results so the fallback walk never consults the index twice.
    infos = yield from locate_leaves(ctx, walk.children,
                                     partial=ctx.options.partial_results)
    for leaf, info in zip(walk.children, infos):
        leaf.lookup.info = info
    if any(info is None for info in infos):
        # partial_results dropped a pattern (flagged while locating): the
        # walk is the empty subset and there is nothing to probe.
        walk.detail["cache"] = "bypass"
        return empty_walk(ctx, walk)

    if (
        walk_mode(ctx, walk) is not ConjunctionMode.OPTIMIZED
        or walk.post_filter is not None
        or any(info.owner is None for info in infos)
        or any(leaf.lookup.condition is not None for leaf in walk.children)
    ):
        walk.detail["cache"] = "bypass"
        return (yield from exec_bgp(ctx, walk))

    # The probe site must be exactly where the walk would combine, so a
    # fill lands where the next probe looks. Pin it on the plan.
    site = walk.plan_site = walk_site(ctx, walk, infos)

    ckey = bgp_cache_key(
        [leaf.lookup.pattern for leaf in walk.children], ctx.live_vars)
    corr = ctx.new_corr()
    span = ctx.tracer.span("cache", key=ckey, site=site)
    payload = CacheProbe(ckey=ckey, corr=corr)
    if site == ctx.initiator:
        resp = ctx.initiator_peer.rpc_cache_probe(payload, ctx.initiator)
    else:
        resp = yield ctx.call(site, "cache_probe", payload)

    if resp["hit"]:
        walk.detail["cache"] = "hit"
        span.close(outcome="hit", rows=resp["count"])
        return ResultHandle(site, corr, resp["count"], resp["vars"])

    admit = resp["admit"]
    # The stamp covers every leaf's ring key and is taken before the
    # walk: any matching delta necessarily advances one of them.
    stamp = ctx.network.data_epochs.stamp(info.key for info in infos)

    handle = yield from exec_bgp(ctx, walk)

    if admit and handle.site == site:
        admit_payload = CacheAdmit(ckey=ckey, corr=handle.corr, vars=handle.vars,
                                   stamps=stamp.epochs,
                                   membership=stamp.membership)
        if site == ctx.initiator:
            ctx.initiator_peer.rpc_cache_admit(admit_payload, ctx.initiator)
        else:
            yield ctx.call(site, "cache_admit", admit_payload)
        walk.detail["cache"] = "fill"
        span.close(outcome="fill", rows=handle.count)
    else:
        walk.detail["cache"] = "miss"
        span.close(outcome="miss")
    return handle
