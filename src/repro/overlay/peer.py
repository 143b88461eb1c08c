"""Query-peer behaviour shared by index and storage nodes.

The distributed execution model of Sect. IV moves *sets of solution
mappings* between sites and combines them where they meet (join site
selection). This mixin gives every overlay node:

* a **mailbox** of named intermediate results (``corr`` ids), filled by
  one-way ``deliver`` messages — the "data shipping" of the paper;
* local **combine** operations (join / union / left outer join / minus /
  filter) over mailbox entries, so any node can be the join site;
* ``ship`` / ``fetch`` to move a result on, or pull it to the query
  initiator as the final answer;
* orchestration plumbing: an initiator can ``expect()`` a notification
  that some site received its inputs, which is how the executor sequences
  multi-site plans without global knowledge;
* a **route table** of index nodes its ring walks probed and of owner
  arcs, so a repeat lookup skips the ring and any other lookup starts
  its ring walk near the key.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Any, Dict, List, Optional

from ..net.protocol import (
    CacheAdmit, CacheProbe, ChainStep, Combine, Deliver, Delivered, Digest,
    Fetch, FilterBox, Ship,
)
from ..net.sim import Event
from ..net.wire import JoinDigest, encode_solutions, shed, shipped_rows
from ..sparql.expr import filter_rows, row_predicate
from ..sparql.solutions import combine_sets

__all__ = ["QueryPeer", "RouteTable", "ROUTE_CAP"]

ROUTE_CAP = 1024  # known index nodes per peer; the oldest learned goes first


def _lazy(name: str, factory, doc: Optional[str] = None) -> property:
    """A property holding per-node state in ``__dict__[name]``, created
    by *factory* on first touch (so the mixin needs no ``__init__``)."""
    def get(self):
        state = self.__dict__.get(name)
        if state is None:
            state = self.__dict__[name] = factory()
        return state
    return property(get, doc=doc)


class RouteTable:
    """Index nodes learned from ring lookups, one entry per node keyed by
    its ident. Every node that answered a probe of a walk
    (:func:`~repro.chord.node.walk`) is a *bare* entry: a live node to
    start later walks at. The owner a walk named holds its exact arc
    (via, owner] once it answered, *via* being the walk's final
    responder: the owner's predecessor as the ring sees it. Only an arc
    answers :meth:`get`. A hint, never an authority: the owner checks
    every routed request (``IndexNode._bounces``), and the caller forgets
    an arc that bounced or whose owner did not answer."""

    def __init__(self, space) -> None:
        self.space = space
        self._idents: List[int] = []  # known idents in ring order
        #: ident -> ref, oldest learned first.
        self._refs: Dict[int, Any] = {}
        #: ident -> low, for the owners among them: the arc (low, ident].
        self._lows: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._refs)

    def get(self, key: int):
        """The remembered owner of *key*, or None."""
        if not self._idents:
            return None
        ident = self._idents[bisect_left(self._idents, key) % len(self._idents)]
        low = self._lows.get(ident)
        if low is None or not self.space.between_right_closed(key, low, ident):
            return None
        return self._refs[ident]

    def preceding(self, key: int):
        """The known node closest before *key* (wrapping across zero), or
        None: an index node near *key* to start a ring walk at."""
        if not self._idents:
            return None
        return self._refs[self._idents[bisect_left(self._idents, key) - 1]]

    def learn(self, ref, low: int) -> None:
        """Record that *ref* owns the arc (low, ref.ident]."""
        self.forget(ref)  # learned again: now the newest entry
        self.note(ref)
        self._lows[ref.ident] = low

    def note(self, ref) -> None:
        """Record that *ref* answered a probe (an arc already held stays)."""
        if ref.ident in self._refs:
            return
        if len(self._refs) >= ROUTE_CAP:
            self.forget(next(iter(self._refs.values())))
        insort(self._idents, ref.ident)
        self._refs[ref.ident] = ref

    def forget(self, ref) -> None:
        """Drop *ref*'s entry (it bounced a routed request or did not
        answer)."""
        if self._refs.get(ref.ident) == ref:
            del self._refs[ref.ident]
            self._lows.pop(ref.ident, None)
            del self._idents[bisect_left(self._idents, ref.ident)]


class QueryPeer:
    """Mixin for :class:`~repro.net.transport.Node` subclasses adding the
    mailbox and local solution-set operators.

    Implemented as a pure mixin with lazily-created state so it composes
    with both plain storage nodes and Chord-derived index nodes without
    cooperative ``__init__`` gymnastics.
    """

    # The concrete class provides these (from Node):
    node_id: str
    network: Any
    sim: Any

    #: corr -> Set[SolutionMapping]: named intermediate results.
    mailbox = _lazy("_qp_mailbox", dict)
    #: (corr, landing site) -> Event awaiting that site's ``delivered``
    #: notification for mailbox corr.
    _expected = _lazy("_qp_expected", dict)
    #: (corr, landing site) -> count of a notification that beat its
    #: ``expect()``.
    _delivered_early = _lazy("_qp_delivered_early", dict)
    _dead_corrs = _lazy("_qp_dead_corrs", set, """Correlation ids
        abandoned after a delivery timeout: a late ``deliver``/``delivered``
        for one of these is dropped on arrival instead of parking in the
        mailbox with no one ever fetching it.

        Tombstones persist until :meth:`purge_corrs` sweeps them (they
        are *not* consumed by the first late arrival): under message
        duplication or a retried send, several late copies can trail in,
        and a tombstone that vanished after copy one would let copy two
        land in a recycled correlation slot of a later query.""")

    # --------------------------------------------------- idempotent receivers
    # A repeated request (message duplication, or a retry whose original
    # was merely slow) is answered as the first was. No mailbox operation
    # consumes its inputs, so a repeated fetch, ship or combine re-reads
    # the same entries; :meth:`purge_corrs` reclaims them at release.

    _inflight = _lazy("_qp_inflight", dict, """Corr-keyed ledger of
        ``execute_primitive`` (:data:`~repro.net.protocol.ONCE`): the first
        delivery installs an event that settles with the reply, and a
        repeat awaits it instead of re-executing.""")
    _replied = _lazy("_qp_replied", dict, """Corr-keyed memo of
        ``cache_admit`` replies (:data:`~repro.net.protocol.MEMO`): a repeat
        gets the recorded reply instead of admitting (and charging cache
        bytes) twice.""")

    # ------------------------------------------------------ result cache (S13)

    @property
    def result_cache(self):
        """The node's cross-query result cache, or None if no cached
        execution ever reached this node (state stays lazy, like the
        mailbox)."""
        return self.__dict__.get("_qp_result_cache")

    def result_cache_for(self):
        """The node's result cache, created on first cached request with
        the fixed ``DEFAULT_CACHE_BYTES`` budget and the admission gate
        ``DEFAULT_ADMIT_THRESHOLD``, read from the module at that call."""
        from ..cache import result_cache

        cache = self.__dict__.get("_qp_result_cache")
        if cache is None:
            cache = self.__dict__["_qp_result_cache"] = result_cache.ResultCache(
                self.network,
                admit_threshold=result_cache.DEFAULT_ADMIT_THRESHOLD,
            )
        return cache

    def rpc_cache_probe(self, payload: CacheProbe, src: str) -> Dict[str, Any]:
        """Consult the result cache for a whole BGP sub-result.

        On a hit the cached solutions are installed into this node's
        mailbox under ``corr`` — exactly where the walk they replace
        would have combined them — so downstream steps run unchanged.
        The miss reply also says whether the key has cleared the
        admission gate, steering the initiator's fill decision.
        """
        cache = self.result_cache_for()
        entry, admit = cache.probe(payload.ckey)
        if entry is None:
            return {"hit": False, "admit": admit}
        data = set(entry.value)
        self.mailbox[payload.corr] = data
        return {"hit": True, "count": len(data), "vars": entry.vars}

    def rpc_cache_admit(self, payload: CacheAdmit, src: str) -> Dict[str, Any]:
        """Materialize a finished mailbox entry into the result cache.

        ``stamps``/``membership`` were captured by the initiator *before*
        the walk computed the entry, so a delta that raced the walk makes
        the entry dead on arrival rather than silently stale. The reply
        is memoized per corr (``_replied``).
        """
        memo = self._replied.setdefault(payload.corr, {})
        reply = memo.get("cache_admit")
        if reply is not None:
            self.network.failover.duplicates_dropped += 1
            return reply
        reply = memo["cache_admit"] = self._cache_admit(payload)
        return reply

    def _cache_admit(self, payload: CacheAdmit) -> Dict[str, Any]:
        data = self.mailbox.get(payload.corr)
        if data is None:
            # The result never landed here (failover moved the walk).
            return {"admitted": False}
        cache = self.result_cache_for()
        admitted = cache.admit(payload.ckey, frozenset(data), payload.vars,
                               payload.stamps, payload.membership)
        return {"admitted": admitted}

    def routes(self, space) -> RouteTable:
        """Index nodes and owner arcs this peer learned as an initiator
        (cross-query)."""
        table = self.__dict__.get("_qp_routes")
        if table is None:
            table = self.__dict__["_qp_routes"] = RouteTable(space)
        return table

    # ------------------------------------------------------- query namespaces

    _query_slots = _lazy("_qp_query_slots", set)

    def acquire_query_slot(self) -> int:
        """Reserve the smallest free correlation-id namespace slot.

        Every query initiated at this peer holds a slot for its lifetime;
        slot 0 yields the classic ``<node>#<seq>`` correlation ids, later
        slots the ``<node>~<slot>#<seq>`` form — so correlation ids of
        queries running *concurrently* from the same initiator can never
        collide, while a lone query keeps byte-identical wire traffic.
        """
        slots = self._query_slots
        slot = 0
        while slot in slots:
            slot += 1
        slots.add(slot)
        return slot

    def release_query_slot(self, slot: int) -> None:
        self._query_slots.discard(slot)

    # ------------------------------------------------------ lifecycle hygiene

    def abandon_corr(self, corr: str) -> None:
        """Forget all correlation state for *corr* and dead-letter any
        late arrival (the executor calls this on delivery timeout)."""
        self.mailbox.pop(corr, None)
        self._drop_notices({corr})
        self._dead_corrs.add(corr)

    def _drop_notices(self, corrs) -> int:
        """Cancel the expectations and drop the latched notifications of
        every (corr, site) pair whose corr is in the set *corrs*. Returns
        how many went."""
        removed = 0
        state = self.__dict__
        expected = state.get("_qp_expected")
        if expected:
            for key in [key for key in expected if key[0] in corrs]:
                expected.pop(key).cancel()
                removed += 1
        early = state.get("_qp_delivered_early")
        if early:
            for key in [key for key in early if key[0] in corrs]:
                del early[key]
                removed += 1
        return removed

    def purge_corrs(self, corrs) -> int:
        """Drop every trace of the given correlation ids (mailbox,
        expectations, early notifications, dead-letter marks). Called by
        the executor when a query finishes or fails, so long-running
        systems don't accumulate per-query state. Returns the number of
        entries removed."""
        removed = self._drop_notices(set(corrs))
        state = self.__dict__
        ledgers = [ledger for ledger in map(state.get, (
            "_qp_mailbox", "_qp_replied")) if ledger]
        dead = state.get("_qp_dead_corrs")
        inflight = state.get("_qp_inflight")
        for corr in corrs:
            for ledger in ledgers:
                if ledger.pop(corr, None) is not None:
                    removed += 1
            if dead and corr in dead:
                dead.discard(corr)
                removed += 1
            if inflight:
                event = inflight.pop(corr, None)
                if event is not None:
                    if not event.triggered:
                        # Unblock any duplicate still awaiting the first
                        # execution with a benign empty ack.
                        event.succeed({"mode": "direct", "data": []})
                    removed += 1
        return removed

    # ----------------------------------------------------- orchestrator side

    def expect(self, corr: str, site: str) -> Event:
        """Event that succeeds when *site*'s ``delivered`` notification
        for mailbox *corr* reaches this node (value: the reported
        solution count).

        A notification is sent by the site its rows landed at, and a
        query waits on one (corr, site) pair at most once, so the pair
        names the wait: a copy of an earlier notification for *corr*
        from another site can neither satisfy nor latch for this one.
        Notifications latch: if the delivery raced ahead of ``expect``,
        the event succeeds immediately.
        """
        key = (corr, site)
        event = self.sim.event()
        if key in self._delivered_early:
            event.succeed(self._delivered_early.pop(key))
            return event
        # Collision-freedom: correlation ids are globally unique among
        # live queries (per-initiator slot namespaces), so two waiters on
        # the same pair can only mean id-minting is broken.
        assert key not in self._expected, (
            f"correlation id collision at {self.node_id}: {key!r} already "
            "has a pending expectation"
        )
        self._expected[key] = event
        return event

    def rpc_delivered(self, payload: Delivered, src: str) -> None:
        corr = payload.corr
        if corr in self._dead_corrs:
            # Late notification for an abandoned delivery (the waiter
            # already timed out and fell back): swallow it. The tombstone
            # stays — further copies may trail in — until purge_corrs
            # sweeps it.
            return
        key = (corr, src)
        count = payload.count
        event = self._expected.pop(key, None)
        if event is not None and not event.triggered:
            event.succeed(count)
        else:
            self._delivered_early[key] = count

    # ------------------------------------------------------------ messages

    @staticmethod
    def _chain_step_msg(payload, acc, route) -> ChainStep:
        """The ``chain_step`` message carrying a chained primitive's
        sub-query, its shipping directives and the rows accumulated so
        far (*acc*) to the next node of the chain; *route* is what is
        left of the chain after that node. *payload* is the
        ``execute_primitive`` or ``chain_step`` request relayed."""
        return ChainStep(
            algebra=payload.algebra, acc=acc, route=route,
            final=payload.final, corr=payload.corr, notify=payload.notify,
            digest=payload.digest, project=payload.project,
            plain=payload.plain, flow=payload.flow)

    @staticmethod
    def _deliver_msg(payload, corr: str, data) -> Deliver:
        """The one-way ``deliver`` message landing *data* in mailbox
        *corr*, with the notification directives of the request
        (*payload*) that caused it."""
        return Deliver(corr=corr, data=data, notify=payload.notify,
                       flow=payload.flow)

    # ------------------------------------------------------------- mailbox

    def rpc_deliver(self, payload: Deliver, src: str) -> None:
        """Receive a batch of solutions (one-way data shipping).

        Multiple deliveries to the same corr id accumulate by set union —
        that is what the in-network aggregation chains rely on.
        """
        corr = payload.corr
        if corr in self._dead_corrs:
            # The orchestrator gave up on this correlation id (delivery
            # timeout → fallback already re-executed): drop the payload
            # instead of leaking it into the mailbox, and send no
            # notification that could re-latch upstream state. The
            # tombstone persists for any further late copies.
            return
        box = self.mailbox.setdefault(corr, set())
        box.update(shipped_rows(payload.data))
        notify = payload.notify
        if notify is None:
            return
        # Sent from here, the landing site: the initiator matches it to
        # its wait by (corr, this site).
        note = Delivered(corr=corr, count=len(box), flow=payload.flow)
        if notify == self.node_id:
            # The initiator is the final site: resolve locally, no message.
            self.rpc_delivered(note, self.node_id)
        else:
            self.network.send(self.node_id, notify, "delivered", note)

    def rpc_fetch(self, payload: Fetch, src: str):
        """Return a mailbox entry — the final result transfer to the
        query initiator, charged as reply traffic."""
        return encode_solutions(self.mailbox.get(payload.corr, set()), payload.plain)

    def rpc_ship(self, payload: Ship, src: str):
        """Forward a mailbox entry to another site's mailbox (one-way),
        shed by the ``digest`` (a :class:`~repro.net.wire.JoinDigest`)
        and ``project`` fields and encoded per ``plain``. The reply is
        the shipped count, with the pruned-row count when a digest rode.
        """
        data, pruned = shed(self.mailbox.get(payload.corr, set()),
                            payload.digest, payload.project)
        assert self.network is not None
        self.network.send(self.node_id, payload.dst, "deliver", self._deliver_msg(
            payload, payload.dst_corr,
            encode_solutions(data, payload.plain)))
        if pruned is not None:
            return {"count": len(data), "pruned": pruned}
        return len(data)

    def rpc_digest(self, payload: Digest, src: str) -> JoinDigest:
        """Build a semijoin digest over a mailbox entry's join-key values
        (``vars``, the prospective join variables). The reply's wire size
        is the digest's real cost — the price of the pre-filtering bet.
        """
        return JoinDigest.build(self.mailbox.get(payload.corr, set()), payload.vars,
                                exact_threshold=payload.exact_threshold,
                                bloom_bits=payload.bloom_bits)

    # ------------------------------------------------------------- operators

    def rpc_combine(self, payload: Combine, src: str) -> Dict[str, int]:
        """Combine two mailbox entries at this site into ``out``. Returns
        the result cardinality (a small control reply; the data stays
        here).
        """
        condition = payload.condition
        out = combine_sets(payload.op, self.mailbox.get(payload.left, set()),
                           self.mailbox.get(payload.right, set()),
                           None if condition is None else row_predicate(condition))
        self.mailbox[payload.out] = out
        return {"count": len(out)}

    def rpc_filter_box(self, payload: FilterBox, src: str) -> Dict[str, int]:
        """Apply a FILTER condition to a mailbox entry into ``out``."""
        out = filter_rows(payload.condition, self.mailbox.get(payload.corr, set()))
        self.mailbox[payload.out] = out
        return {"count": len(out)}
