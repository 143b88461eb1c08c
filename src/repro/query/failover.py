"""Failover in the distributed query path (PR 6).

Sect. III-D replicates each index node's location table across its
successor list so the system "can eventually recover" from failure.
:func:`owner_or_replica` makes in-flight queries exploit that
replication *now*: when a request to a key's owner times out, the key's
replica holder is re-resolved (:meth:`ExecutionContext.replica_of`) and
the request is put there instead of abandoning the query. Row reads
(:meth:`ExecutionContext.locate`) and sub-query dispatches
(:func:`dispatch_primitive`) fail over by this one rule. The paper's two
steps, a timeout that detects the dead owner and a successor-list
replica that recovers from it, are the whole mechanism.

Without ``ExecutionOptions.failover`` a request is one plain call.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..net.protocol import ExecutePrimitive
from ..net.transport import RpcTimeout
from ..trace.tracer import PHASE_LOOKUP

__all__ = ["PrimitiveCall", "dispatch_primitive", "owner_or_replica"]


def owner_or_replica(ctx, key: int, owner_id: str, request,
                     skip: bool = False):
    """Generator: put *request* to *owner_id*, or to *key*'s replica
    holder when the owner times out → ``(node_id, reply, hops)``.

    *skip* says the owner is already condemned (a timeout a moment ago),
    as does an open circuit for a request that routes around one
    (``request.condemns``): it is not dialed, because that would cost a
    timeout for nothing. The replica holder gets the request once, never
    ``routed`` (*hops* are the re-resolution's), and the caller learns no
    arc from its answer. Without ``options.failover`` the owner is
    dialed whatever *skip* says, and its timeout raised.
    """
    failover = ctx.options.failover
    if not (failover and (skip or request.condemns(owner_id))):
        try:
            reply = yield from request.send(owner_id)
            return owner_id, reply, 0
        except RpcTimeout:
            if not failover:
                raise
    span = ctx.tracer.span("failover", phase=PHASE_LOOKUP, dead=owner_id,
                           key=key)
    try:
        request.give_up(owner_id)
        # The replica holder's IndexNode.locate promotes its replica row
        # on read.
        alt_id, hops = yield from ctx.replica_of(key, owner_id)
        reply = yield from request.send(alt_id)
    finally:
        span.close()
    request.failed_over(owner_id, alt_id)
    return alt_id, reply, hops


class PrimitiveCall:
    """One ``execute_primitive`` request and *corr*, the correlation id
    its answer arrives under."""

    def __init__(self, ctx, payload: ExecutePrimitive,
                 timeout: Optional[float] = None) -> None:
        if ctx.deadline_at is not None:
            payload.deadline = ctx.deadline_at
        self.ctx, self.payload, self.timeout = ctx, payload, timeout
        self.corr = payload.corr

    def send(self, node_id: str, routed: bool = False):
        """Generator → the ack. A ``routed`` request is bounced (ack
        None) by a node that does not own the key."""
        payload = self.payload
        if routed:  # only ever the first send
            payload.routed = True
        elif payload.routed:  # the routed one may still be in flight
            payload = self.payload = payload.copy(routed=None)
        return (yield self.ctx.call(node_id, "execute_primitive", payload,
                                    timeout=self.timeout))

    def condemns(self, node_id: str) -> bool:
        """With a health ledger installed (``options.breaker``) an owner
        whose circuit is open is routed around *before* being dialed: no
        timeout is burned from the query deadline on a peer recent
        history already condemned."""
        health = self.ctx.network.health
        return health is not None and health.open_now(node_id)

    def give_up(self, dead: str) -> None:
        """The dead owner may have started the fan-out before dying: its
        ids are tombstoned here and at the final site, and the replica's
        step runs under fresh ones, so no late delivery or ``delivered``
        of the first owner can pass for the replica's."""
        ctx = self.ctx
        ctx.abandon(self.corr, site=self.payload.final)
        self.corr = ctx.new_corr()
        self.payload = self.payload.copy(corr=self.corr)

    def failed_over(self, dead: str, alt: str) -> None:
        self.ctx.network.failover.dispatch_failovers += 1
        self.ctx.report.merge_note(f"dispatch failover {dead} -> {alt}")


def dispatch_primitive(ctx, info, payload: ExecutePrimitive, corr: str,
                       timeout: Optional[float] = None):
    """Generator: dispatch ``execute_primitive`` for *info*'s key,
    failing over to the replica holder if the owner times out.

    Returns ``(ack, info, corr)`` — *info* updated to the node that
    actually served the step, and the :class:`PrimitiveCall`'s *corr*,
    re-minted on failover. Without ``options.failover`` this is exactly
    one plain call to a located owner.

    An unread *info* (no row, no owner yet) is resolved and dispatched
    in one step by :meth:`ExecutionContext.consult`: the owner reads its
    own row, so no ``index_lookup`` round trip precedes the dispatch.
    Either way an owner whose circuit is open is routed around
    (:meth:`PrimitiveCall.condemns`).
    """
    request = PrimitiveCall(ctx, payload, timeout)
    if info.owner is None:
        owner_id, ack, hops = yield from ctx.consult(info.pattern, info.key,
                                                     request)
        info = replace(info, owner=owner_id, lookup_hops=hops)
    else:
        owner_id, ack, _hops = yield from owner_or_replica(
            ctx, info.key, info.owner, request)
        if owner_id != info.owner:
            info = replace(info, owner=owner_id)
    return ack, info, request.corr
