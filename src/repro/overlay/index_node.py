"""Index nodes: ring members hosting the distributed index.

An index node is a Chord participant (Sect. III-A) that additionally
keeps a :class:`~repro.overlay.location_table.LocationTable` for the keys
it owns (Sect. III-B), orchestrates primitive-query resolution over the
storage nodes listed there (Sect. IV-C), and replicates its rows to ring
successors so that the system "can eventually recover" from index-node
failures (Sect. III-D).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, deque
from operator import itemgetter
from typing import Any, Dict, Iterable, List, NamedTuple, Optional

from ..cache.keys import canonical_rows, pattern_cache_key, rebind_rows
from ..chord.idspace import IdentifierSpace
from ..chord.node import ChordNode, NodeRef, walk
from ..net.protocol import (
    Evaluate, ExecutePrimitive, IndexEntries, IndexLookup, Publish, RingKeys,
    StorageRef,
)
from ..net.transport import RpcError
from ..net.wire import (
    FilteredResult, encode_solutions, rebound_batch, shed, shipped_rows,
)
from .location_table import LocationEntry, LocationTable
from .peer import QueryPeer

__all__ = ["IndexNode", "IndexPut", "PublicationFailed", "PRIMITIVE_STRATEGIES"]

#: Strategy names understood by rpc_execute_primitive (Sect. IV-C):
#: * ``basic`` — parallel fan-out, union at the index node (assembly site)
#: * ``chained`` — in-network aggregation along an arbitrary node sequence
#: * ``freq`` — chain ordered by increasing frequency; the node with the
#:   most matching triples is last and returns directly to the initiator.
PRIMITIVE_STRATEGIES = ("basic", "chained", "freq")

#: Times one publication entry may bounce off an index node that does
#: not own it (each bounce is followed by a fresh lookup) before the
#: publication fails.
MAX_BOUNCES = 3


class PublicationFailed(RuntimeError):
    """Index entries kept bouncing off the nodes their lookups named."""


class IndexPut(NamedTuple):
    """Reply of ``index_put``: the receiver's successor and the entries
    it refused because it does not own their keys."""

    successor: NodeRef
    bounced: List[tuple]


class IndexNode(QueryPeer, ChordNode):
    """A ring node hosting part of the two-level distributed index."""

    def __init__(
        self,
        node_id: str,
        ident: int,
        space: IdentifierSpace,
        successor_list_size: int = 3,
        replication_factor: int = 1,
        table: Optional[LocationTable] = None,
    ) -> None:
        ChordNode.__init__(self, node_id, ident, space, successor_list_size)
        if replication_factor < 1:
            raise ValueError("replication factor must be >= 1")
        # An externally built table — e.g. a
        # :class:`~repro.storage.durable.DurableLocationTable` recovered
        # from disk — slots in transparently; every index write below
        # goes through it.
        self.table = table if table is not None else LocationTable()
        #: Rows replicated here by ring predecessors (kept apart from the
        #: primary table so load accounting stays honest).
        self.replicas = LocationTable()
        self.replication_factor = replication_factor
        #: Storage nodes attached beneath this index node (Sect. III-A).
        self.attached_storage: List[str] = []

    # ------------------------------------------------- index write handlers

    def rpc_index_put(self, payload: IndexEntries, src: str) -> IndexPut:
        """Install the location-table entries this node owns; replicate
        them to successors.

        ``entries``: a list of (key, storage_id, frequency).
        Entries outside this node's arc (a lookup or successor pointer
        that raced a join) are not installed but returned as ``bounced``
        for the publisher to re-resolve; the reply also names this
        node's successor, the owner of the publisher's next arc. Each
        install advances its key's data epoch, here where the row is
        written (:mod:`repro.cache.epoch`).
        """
        owned, bounced = [], []
        for entry in payload.entries:
            (owned if self.owns(entry[0]) else bounced).append(entry)
        advance = self.network.data_epochs.advance
        for key, storage_id, freq in owned:
            self.table.add(key, storage_id, freq)
            advance(key)
        if owned:
            self._replicate(owned)
        return IndexPut(self.successor, bounced)

    def rpc_replica_put(self, payload: IndexEntries, src: str) -> None:
        for key, storage_id, freq in payload.entries:
            self.replicas.import_row(key, {storage_id: freq})

    def rpc_index_remove_storage(self, payload: StorageRef, src: str) -> int:
        """Remove all entries of a departed/failed storage node (III-D)."""
        storage_id = payload.storage_id
        touched = self.table.remove_storage_node(storage_id)
        self.replicas.remove_storage_node(storage_id)
        if storage_id in self.attached_storage:
            self.attached_storage.remove(storage_id)
        return touched

    def _replicate(self, entries) -> None:
        if self.replication_factor <= 1 or self.network is None:
            return
        put = IndexEntries(entries=entries)
        for ref in self.successor_list[: self.replication_factor - 1]:
            if ref != self.ref:
                self.network.send(self.node_id, ref.node_id, "replica_put", put)

    def rpc_publish(self, payload: Publish, src: str):
        """Publication entry point for an attached storage node — the
        index-construction process of Sect. III-B.

        ``entries`` are the storage node's (key, frequency) pairs in
        ascending ring-key order. The walk goes clockwise round the ring
        from this node, arc by arc: an owner O takes every pending key up
        to ``O.ident`` in one ``index_put``, whose reply names O's
        successor, the owner of the next arc. The first hint is this
        node's own successor and its own keys come last, installed
        locally. A ``find_successor`` is sent only where the hint owns
        none of the next keys (a gap in a sparse batch) or an owner
        bounced entries outside its arc; an entry that bounces more than
        ``MAX_BOUNCES`` times fails the publication with
        :class:`PublicationFailed`, never silently.
        """
        storage_id = payload.storage_id
        entries = payload.entries
        cut = bisect_right(entries, self.ident, key=itemgetter(0))
        todo = deque((key, storage_id, freq)
                     for key, freq in entries[cut:] + entries[:cut])
        within = self.space.between_right_closed
        low, target = self.ident, self.successor
        bounces: Counter = Counter()
        installed = 0
        while todo:
            if target is None:
                key = todo[0][0]
                found = yield from walk(self.call, self.ref, key)
                low, target = key - 1, found.ref
            run = []
            while todo and within(todo[0][0], low, target.ident):
                run.append(todo.popleft())
            if not run:  # the hint owns none of the next keys
                target = None
                continue
            put = IndexEntries(entries=run)
            if target == self.ref:
                reply = self.rpc_index_put(put, self.node_id)
            else:
                reply = yield self.call(target.node_id, "index_put", put)
            installed += len(run) - len(reply.bounced)
            if not reply.bounced:
                low, target = target.ident, reply.successor
                continue
            keys = {key for key, _, _ in reply.bounced}
            bounces.update(keys)
            if max(bounces[key] for key in keys) > MAX_BOUNCES:
                raise PublicationFailed(
                    f"{len(reply.bounced)} entries of {storage_id} still "
                    f"bounce at {target.node_id} after {MAX_BOUNCES} lookups")
            todo.extendleft(reversed(reply.bounced))
            target = None
        return installed

    # ------------------------------------------------------- index lookups

    def locate(self, key: int) -> List[LocationEntry]:
        """Location-table row for *key*, falling back to replicas.

        The replica fallback is the takeover path after a predecessor
        failure: this node now owns the key range and serves it from the
        replicated rows, which it promotes on first touch.
        """
        entries = self.table.lookup(key)
        if entries:
            return entries
        replica_row = self.replicas.row_dict(key)
        if replica_row:
            self.table.import_row(key, replica_row)
            self.replicas.drop_row(key)
            entries = self.table.lookup(key)
            # Takeover makes this node the row's primary: push copies to
            # our *own* successors right away, otherwise the promoted row
            # exists exactly once and one more failure silently loses it.
            if self.replication_factor > 1 and self.network is not None:
                self._replicate(
                    [(key, e.storage_id, e.frequency) for e in entries]
                )
                self.network.failover.promotions_rereplicated += 1
            return entries
        return []

    def _bounces(self, payload) -> bool:
        """A ``routed`` request (sent from a learned arc) is answered only
        if this node ``owns()`` its key, else bounced with None and
        nothing done; an unrouted one always, as a replica holder taking
        over still has the dead owner as predecessor."""
        return bool(payload.routed) and not self.owns(payload.key)

    def rpc_index_lookup(self, payload: IndexLookup,
                         src: str) -> Optional[List[LocationEntry]]:
        """Row for ``key``, or None for a bounced routed read."""
        if self._bounces(payload):
            return None
        return self.locate(payload.key)

    def rpc_replica_drop(self, payload: RingKeys, src: str) -> int:
        """Drop the replica rows we hold for *keys* (graceful-departure
        sweep: the primary moved to an heir, so copies replicated by the
        old owner are stale and a later takeover could promote outdated
        frequencies)."""
        dropped = 0
        for key in payload.keys:
            if self.replicas.row_dict(key):
                self.replicas.drop_row(key)
                dropped += 1
        if dropped and self.network is not None:
            self.network.failover.replica_rows_swept += dropped
        return dropped

    def rpc_rereplicate(self, payload: RingKeys, src: str) -> int:
        """Replicate the primary rows for *keys* to our successors — run
        by an heir after inheriting a departed predecessor's table, so the
        moved rows regain their full replica count."""
        entries = []
        for key in payload.keys:
            for e in self.table.lookup(key):
                entries.append((key, e.storage_id, e.frequency))
        if entries:
            self._replicate(entries)
        return len(entries)

    # ----------------------------------------- primitive query orchestration

    def rpc_execute_primitive(self, payload: ExecutePrimitive, src: str):
        """Resolve a single-triple-pattern sub-query (Sect. IV-C): the
        ``algebra`` (a BGP of one pattern, possibly wrapped in a
        pushed-down Filter) under ``strategy`` (one of
        :data:`PRIMITIVE_STRATEGIES`, or ``cost``: pick basic or freq from
        the row under ``time_weight``, and return the row in the ack as
        ``row``), with delivery directives:

        * ``deposit`` — assemble here and keep the result in this node's
          mailbox under ``corr`` (the basic conjunction scheme of IV-D,
          where the next step ships index-node to index-node);
        * ``final`` — the site the result must reach: for *basic* the
          assembled union is shipped there one-way; for *chained*/*freq*
          the chain's last node delivers there (``end_at`` pins the shared
          site to the end of the route, as in the paper's D1 example);
        * neither — *basic* replies with the data directly (the reply to
          the caller is the N7→N1 transfer of the paper's basic scheme).

        The request is idempotent per corr (:data:`~repro.net.protocol.ONCE`,
        the ``_inflight`` ledger): never a second execution, never a second
        chain kickoff. A corr the initiator already tombstoned is
        acknowledged emptily without executing at all. A ``routed``
        request bounces like a routed ``index_lookup``.
        """
        if self._bounces(payload):
            return None
        corr = payload.corr
        if corr in self._dead_corrs:
            self.network.failover.duplicates_dropped += 1
            return {"mode": "direct", "data": []}
        inflight = self._inflight
        done = inflight.get(corr)
        if done is not None:
            self.network.failover.duplicates_dropped += 1
            return self._await_primitive(done)
        done = inflight[corr] = self.sim.event()
        return self._execute_primitive(payload, src, done)

    def _await_primitive(self, done):
        """Generator: a duplicate request rides the first execution's
        inflight event and replies with the same ack."""
        reply = yield done
        return reply

    def _execute_primitive(self, payload: ExecutePrimitive, src: str, done):
        """Generator: run the primitive and settle the inflight event so
        any duplicate deliveries observe this execution's outcome."""
        try:
            entries = self.locate(payload.key)
            ack = yield from self._primitive_ack(payload, src, entries)
        except BaseException as exc:
            if not done.triggered:
                done.fail(exc)
            raise
        if payload.strategy == "cost":
            # The row the scheme was picked from: the planner's statistics.
            ack["row"] = entries
        if not done.triggered:
            done.succeed(ack)
        return ack

    def _primitive_ack(self, payload: ExecutePrimitive, src: str,
                       entries: List[LocationEntry]):
        strategy = payload.strategy
        if payload.cache:
            served = yield from self._execute_cached(payload, src, entries)
            if served is not None:
                return served
        if strategy == "cost":
            # A lone leaf of a cost plan: this row is the planner's
            # statistics, so the scheme is picked here (Sect. V).
            from ..query.cost import choose_strategy  # deferred: query imports overlay

            strategy = choose_strategy(entries, self.network.link,
                                       payload.time_weight)[0].wire_name
        if strategy == "basic":
            result, pruned, dropped = yield from self._execute_basic(
                payload, entries)
            return self._primitive_reply(payload, src, result, pruned,
                                         dropped)
        if strategy in ("chained", "freq"):
            route = self._route(entries, strategy, end_at=payload.end_at)
            if not route:
                return {"mode": "direct", "data": []}
            self._kickoff_chain(payload, route)
            return {"mode": "chained", "route": route}
        raise ValueError(f"unknown primitive strategy {strategy!r}")

    def _primitive_reply(self, payload: ExecutePrimitive, src: str,
                         result, pruned, dropped: int = 0):
        """Deliver a basic-scheme result per the request's directives
        (deposit here / ship to ``final`` / reply directly).

        ``dropped`` — providers that vanished during the fan-out — rides
        back in the ack only when the initiator asked for it via the
        request's ``partial`` flag.
        """
        corr = payload.corr
        final = payload.final
        plain = payload.plain
        if payload.deposit:
            self.mailbox[corr] = set(result)
            ack = {"mode": "deposited", "count": len(result)}
        elif final is not None and final != src:
            assert self.network is not None
            self.network.send(self.node_id, final, "deliver", self._deliver_msg(
                payload, corr, encode_solutions(result, plain)))
            ack = {"mode": "shipped", "count": len(result)}
        else:
            ack = {"mode": "direct", "data": encode_solutions(result, plain)}
        # *pruned* is set only when a digest rode with the request: a
        # basic walk's deposited step or a later leg of a probe-first walk.
        if pruned is not None:
            ack["pruned"] = pruned
        if dropped and payload.partial:
            ack["dropped"] = dropped
        return ack

    def _execute_cached(self, payload: ExecutePrimitive, src: str,
                        entries: List[LocationEntry]):
        """Generator: serve a primitive through the result cache (S13).

        Returns the finished ack on a hit or an admission fill, or None
        when the normal (uncached) path should run — either the
        sub-query is uncacheable (a pushed-down FILTER rides with it) or
        the key has not yet cleared the admission gate.

        A hit serves the *full* memoized rows and applies the request's
        shipping decorations (digest pre-filter, projection) right here,
        where the providers would have applied them; so one cached entry
        serves every projection/digest variant of its pattern. A fill
        forces an undecorated basic fan-out — chains deliver past this
        node, so only the fan-out lets the owner see the rows it admits.
        """
        algebra = payload.algebra
        patterns = getattr(algebra, "patterns", None)
        if patterns is None or len(patterns) != 1:
            return None
        ckey, variables = pattern_cache_key(patterns[0])
        cache = self.result_cache_for()
        entry, admit = cache.probe(ckey)
        tracer = self.sim.tracer
        if entry is not None:
            span = tracer.span("cache", key=ckey, outcome="hit")
            rows = rebind_rows(entry.value, variables)
        elif admit:
            # The stamp is taken before the fan-out: a delta racing the
            # evaluation makes the admitted entry dead on arrival.
            stamp = self.network.data_epochs.stamp((payload.key,))
            span = tracer.span("cache", key=ckey, outcome="fill")
            bare = payload.copy(digest=None, project=None)
            rows, _, _dropped = yield from self._execute_basic(bare, entries)
            cache.admit(ckey, canonical_rows(rows, variables), variables,
                        stamp.epochs, stamp.membership)
            entry = cache.entries.get(ckey)
        else:
            return None
        result, pruned = shed(rows, payload.digest, payload.project)
        if entry is not None and (payload.digest is None
                                  and payload.project is None
                                  and not (payload.plain or payload.deposit)):
            # The entry's own rows ship: priced from the entry.
            result = rebound_batch(result, entry)
        span.close(rows=len(result))
        return self._primitive_reply(payload, src, result, pruned)

    def _execute_basic(self, payload: ExecutePrimitive, entries: List[LocationEntry]):
        """Parallel fan-out to every target storage node; union here.

        ``storage_timeout`` (the initiator's delivery timeout) bounds how long
        we wait for each provider before declaring it failed.
        """
        assert self.network is not None
        per_node_timeout = payload.storage_timeout
        # Deadline propagation: the initiator's remaining budget rides in
        # the request; clamp the per-provider wait to it. A timeout under
        # a clamped wait may just mean the budget is tight — not that the
        # provider died — so stale-entry cleanup is suppressed then.
        blame_timeouts = True
        deadline = payload.deadline
        if deadline is not None:
            remaining = deadline - self.sim.now
            if remaining <= 0:
                raise ValueError("query deadline exceeded at the index node")
            if per_node_timeout is None or remaining < per_node_timeout:
                per_node_timeout = remaining
                blame_timeouts = False
        # The sub-queries contend as the query's flow, copied forward.
        sub_query = Evaluate(algebra=payload.algebra, digest=payload.digest,
                             project=payload.project, plain=payload.plain,
                             flow=payload.flow)
        calls = [(entry.storage_id, self.call(entry.storage_id, "evaluate",
                                              sub_query, timeout=per_node_timeout))
                 for entry in entries]
        solutions: set = set()
        pruned = 0 if payload.digest is not None else None
        dropped = 0
        for storage_id, event in calls:
            try:
                batch = yield event
            except RpcError:
                if not blame_timeouts:
                    raise ValueError(
                        "query deadline exceeded during storage fan-out")
                # No acknowledgement within the timeout: the storage node
                # is gone — drop its stale entries (Sect. III-D), which
                # keeps a crash-stop answer exact. Under a fault plan a
                # timeout is ambiguous (the provider may be alive and its
                # reply lost): deleting its row would shrink every later
                # answer, so only the drop count is kept, which rides
                # back to initiators that asked for partial results.
                if self.network.faults is None:
                    self.table.remove_storage_node(storage_id)
                    self.replicas.remove_storage_node(storage_id)
                dropped += 1
                continue
            if isinstance(batch, FilteredResult):
                pruned = (pruned or 0) + batch.pruned
                batch = batch.data
            solutions |= shipped_rows(batch)
        return solutions, pruned, dropped

    def _route(
        self,
        entries: List[LocationEntry],
        strategy: str,
        end_at: Optional[str] = None,
    ) -> List[str]:
        if strategy == "freq":
            # Increasing frequency; the largest provider is the final node
            # and returns the result directly to the initiator (IV-C).
            ordered = sorted(entries, key=lambda e: (e.frequency, e.storage_id))
        else:
            ordered = sorted(entries, key=lambda e: e.storage_id)
        route = [e.storage_id for e in ordered]
        if end_at is not None and end_at in route:
            # The shared join site is visited last (IV-D: the chains for
            # P1 and P2 both end at D1).
            route.remove(end_at)
            route.append(end_at)
        return route

    def _kickoff_chain(self, payload: ExecutePrimitive, route: List[str]) -> None:
        assert self.network is not None
        self.network.send(self.node_id, route[0], "chain_step",
                          self._chain_step_msg(payload, [], route[1:]))

    def rpc_get_attached(self, payload: Any, src: str) -> List[str]:
        """Storage nodes attached beneath this index node (used by the
        ring walk that resolves fully-unbound patterns)."""
        return list(self.attached_storage)

    # --------------------------------------------- key transfer (Chord hook)

    def export_keys(self):
        return list(self.table.export_range())

    def import_keys(self, items: Dict[int, Any]) -> None:
        for key, row in items.items():
            self.table.import_row(key, row)

    def drop_keys(self, keys: Iterable[int]) -> None:
        for key in list(keys):
            self.table.drop_row(key)
