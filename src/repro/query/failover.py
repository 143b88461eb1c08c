"""Failover in the distributed query path (PR 6).

Sect. III-D replicates each index node's location table across its
successor list so the system "can eventually recover" from failure.
:func:`dispatch_primitive` makes in-flight queries exploit that
replication *now*: when a dispatch to a key's owner times out, the key's
replica holder is re-resolved (:meth:`ExecutionContext.replica_of`) and
the timed-out step is re-dispatched there instead of abandoning the
query. Index lookups fail over the same way in
:meth:`ExecutionContext._resolve`. The paper's two steps, a timeout
that detects the dead owner and a successor-list replica that recovers
from it, are the whole mechanism.

Without ``ExecutionOptions.failover`` the dispatch is one plain call.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..net.transport import RpcTimeout
from ..trace.tracer import PHASE_LOOKUP

__all__ = ["dispatch_primitive"]


def dispatch_primitive(ctx, info, payload: dict, corr: str,
                       timeout: Optional[float] = None):
    """Generator: dispatch ``execute_primitive`` to *info.owner*, failing
    over to the replica holder if the owner times out.

    Returns ``(ack, info, corr, tag)`` — *info* updated to the node that
    actually served the step, *corr* re-minted on failover so a late
    reply from a half-dead owner can never collide with the replica's
    answer (the original id is tombstoned here and at the final site),
    and *tag* the ``notify_corr`` delivery tag, re-minted with *corr* so
    the first owner's late ``delivered`` cannot end the replica's wait.
    Without ``options.failover`` this is exactly one plain call.

    With a health ledger installed (``options.breaker``) an owner whose
    circuit is currently open is routed around *before* being dialed:
    the step goes straight to the replica holder, with no timeout burned
    from the query deadline on a peer recent history already condemned.
    """
    if ctx.deadline_at is not None:
        payload = dict(payload, deadline=ctx.deadline_at)
    tag = payload.get("notify_corr")
    failover = ctx.options.failover and info.key is not None
    health = ctx.network.health
    if not (failover and health is not None and health.open_now(info.owner)):
        try:
            ack = yield ctx.call(info.owner, "execute_primitive", payload,
                                 timeout=timeout)
            return ack, info, corr, tag
        except RpcTimeout:
            if not failover:
                raise
    dead = info.owner
    span = ctx.tracer.span("failover", phase=PHASE_LOOKUP, dead=dead,
                           key=info.key, corr=corr)
    try:
        # The dead owner may have started the fan-out before dying: a
        # late delivery under the old id must be dropped on arrival.
        ctx.abandon(corr, site=payload.get("final"))
        if tag is not None:
            ctx.abandon(tag)
        owner_id, _hops = yield from ctx.replica_of(info.key, dead)
        corr = ctx.new_corr()
        payload = dict(payload, corr=corr)
        if tag is not None:
            tag = ctx.delivery_tag(payload)
        ack = yield ctx.call(owner_id, "execute_primitive", payload, timeout=timeout)
    finally:
        span.close()
    ctx.network.failover.dispatch_failovers += 1
    ctx.report.merge_note(f"dispatch failover {dead} -> {owner_id}")
    return ack, replace(info, owner=owner_id), corr, tag
