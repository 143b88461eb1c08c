"""The distributed query executor — the paper's Fig. 3 workflow, live.

``DistributedExecutor.execute`` runs a SPARQL query end to end on a
:class:`~repro.overlay.system.HybridSystem`:

1. **Query Parsing** — :func:`repro.sparql.parse_query`;
2. **Query Transformation** — :func:`repro.sparql.translate_pattern`;
3. **Global Query Optimization** — algebraic rewriting (filter pushing)
   plus frequency-statistics join reordering, producing a distributed
   plan;
4. **Local Query Execution** — sub-queries shipped to index and storage
   nodes, evaluated there, with intermediate results moving site-to-site
   per the chosen strategies;
5. **Post-Processing** — solution sequence modifiers applied at the
   initiator, which returns the final result.

Every run yields an :class:`ExecutionReport` with the simulated response
time and exact transmission totals — the quantities the paper's
optimization study trades against each other.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from ..chord.node import walk
from ..net.protocol import Fetch, IndexLookup
from ..net.sim import Event
from ..net.transport import NodeUnknown, RpcError, RpcTimeout
from ..net.wire import as_solution_set, shipped_rows
from ..trace.tracer import (
    NULL_TRACER, PHASE_FINALIZE, PHASE_LOOKUP, PhaseStats, Tracer,
)
from ..overlay.peer import QueryPeer
from ..overlay.system import HybridSystem
from ..rdf.graph import Graph
from ..rdf.terms import IRI, Variable
from ..rdf.triple import TriplePattern
from ..sparql import ast
from ..sparql.algebra import Algebra, translate_pattern
from ..sparql.errors import SparqlError
from ..sparql.eval import QueryResult, apply_modifiers
from ..sparql.optimizer import optimize as optimize_algebra
from ..sparql.parser import parse_query
from ..sparql.solutions import EMPTY_MAPPING, SolutionMapping
from ..rdf.namespaces import COMMON_PREFIXES
from .physical import (
    BGPWalk, CacheProbe, ChainShip, EmptyScan, FilterOp,
    HashJoin, LeftJoinOp, PhysOp, UnionOp, compile_query_plan,
    execution_root, note_result, pattern_leaf, record_postprocess,
)
from .failover import owner_or_replica
from .plan import PatternInfo, ResultHandle, compute_live_vars, unread_info
from .strategies import DELIVERY_TIMEOUT, ExecutionOptions

__all__ = ["DistributedExecutor", "ExecutionReport", "ExecutionContext",
           "QueryFailed", "QueryDeadlineExceeded"]


class QueryFailed(SparqlError):
    """Distributed execution could not complete (e.g. unreachable sites)."""


class DeliveryTimeout(QueryFailed):
    """An expected one-way delivery never arrived (broken chain)."""


class QueryDeadlineExceeded(QueryFailed):
    """The query's wall-clock budget ran out before completion."""


@dataclass
class ExecutionReport:
    """What one distributed query execution cost."""

    response_time: float = 0.0
    messages: int = 0
    bytes_total: int = 0
    #: DHT hops spent consulting the two-level index.
    lookup_hops: int = 0
    #: Chain fall-backs after a delivery timeout (failure handling).
    retries: int = 0
    result_count: int = 0
    #: Per-query lookup-memo effectiveness (the executor's memo over
    #: two-level index consultations; see ExecutionContext.locate).
    lookup_cache_hits: int = 0
    lookup_cache_misses: int = 0
    #: Cross-query result-cache effectiveness during this execution's
    #: stats window (system-wide counters; see ExecutionOptions.result_cache).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Rows dropped by semijoin digests before they could cross a link.
    rows_pruned: int = 0
    #: The part of ``rows_pruned`` each chain's steps dropped, by the
    #: chain's correlation id (None until one does; see
    #: :meth:`credit_chain_step`).
    chain_pruned: Optional[Dict[str, int]] = None
    #: Exact overhead the semijoin technique added: digest round trips
    #: plus digest embeds in ship/evaluate payloads. The documented bound:
    #: enabling semijoin never costs more than this many extra bytes.
    digest_bytes: int = 0
    #: Degraded-mode flag (``ExecutionOptions.partial_results``): True
    #: when some sub-pattern's contribution was dropped because its owner
    #: and replicas were all unreachable — the answer is then a verified
    #: *subset* of the true answer, never wrong or extra rows.
    incomplete: bool = False
    #: Which patterns were dropped (human-readable, for reports/explain).
    dropped_patterns: List[str] = field(default_factory=list)
    #: Name of the plan shape actually executed (diagnostics).
    notes: List[str] = field(default_factory=list)
    #: Per-workflow-phase cost breakdown (lookup / ship / join / finalize),
    #: populated only when the query ran with a tracer; the phases' byte
    #: totals partition ``bytes_total`` exactly.
    phases: Dict[str, PhaseStats] = field(default_factory=dict)
    #: The tracer that recorded this execution (None when tracing is off).
    trace: Optional[Tracer] = None
    #: The physical operator plan the query compiled to, annotated with
    #: placements, estimates (cost mode), and per-operator actuals after
    #: execution — what ``repro explain`` renders.
    plan: Optional[Any] = None

    def merge_note(self, note: str) -> None:
        self.notes.append(note)

    def credit_chain_step(self, corr: str, pruned: int) -> None:
        """Credit the rows a digest dropped at one step of chain *corr*:
        a chain step sends no reply to carry the count, so the storage
        node credits the report it finds by flow."""
        self.rows_pruned += pruned
        chains = self.chain_pruned
        if chains is None:
            chains = self.chain_pruned = {}
        chains[corr] = chains.get(corr, 0) + pruned

    def phase_bytes(self, phase: str) -> int:
        stats = self.phases.get(phase)
        return stats.bytes if stats is not None else 0


class _RowRead:
    """The location-table read of *key* that :meth:`ExecutionContext.locate`
    puts to the key's owner: ``index_lookup``, or a local read when the
    initiator is that index node."""

    def __init__(self, ctx: "ExecutionContext", key: int) -> None:
        self.ctx, self.key = ctx, key

    def send(self, node_id: str, routed: bool = False):
        """Generator → the row; a routed read bounced by a node that does
        not own the key gives None."""
        ctx = self.ctx
        if node_id == ctx.initiator:
            return ctx.system.index_nodes[node_id].locate(self.key)
        return (yield ctx.call(node_id, "index_lookup",
                               IndexLookup(key=self.key, routed=routed or None)))

    def condemns(self, node_id: str) -> bool:
        """A row read dials even an open-circuit owner: the transport
        short-circuits it, or lets it through as the half-open probe."""
        return False

    def give_up(self, dead: str) -> None:
        """A row read leaves nothing behind at a dead owner."""

    def failed_over(self, dead: str, alt: str) -> None:
        self.ctx.network.failover.lookup_failovers += 1


class ExecutionContext:
    """Per-query state shared by the operator modules."""

    def __init__(
        self,
        system: HybridSystem,
        initiator: str,
        options: ExecutionOptions,
        report: ExecutionReport,
        load: Counter,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.system = system
        self.initiator = initiator
        self.options = options
        self.report = report
        #: Absolute simulation time the whole query must finish by
        #: (None = unbounded). Every RPC — and the retry schedule — is
        #: clamped to the remaining budget, and the deadline travels with
        #: dispatched sub-queries so remote fan-outs honor it too.
        self.deadline_at: Optional[float] = (
            system.sim.now + options.query_deadline
            if options.query_deadline is not None else None
        )
        self._retry = options.retry_policy()
        #: The ``plain`` field of every request that ships solution sets:
        #: None (rows travel as dictionary-delta batches) unless
        #: dictionary encoding is off.
        self.plain: Optional[bool] = None if options.dictionary_encoding else True
        if options.breaker and system.network.health is None:
            # First breaker-enabled query installs the network-wide
            # ledger; later queries (and the transport) share it, so
            # health observed during one query protects the next.
            from ..net.health import HealthLedger

            system.network.health = HealthLedger(
                system.sim,
                system.network.failover,
                latency_threshold=options.breaker_latency,
            )
        #: Observability hook shared by the operator modules; the no-op
        #: tracer by default, so untraced spans cost one method call.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Cross-query per-node load counter (the executor's simulated QoS
        #: monitor, feeding the Third-Site policy).
        self.load = load
        self._corr_seq = itertools.count()
        self._slot: Optional[int] = None
        #: Correlation ids abandoned after a delivery timeout: a late
        #: message may still be in flight for these, so their dead-letter
        #: tombstones outlive the query (swept by a delayed timer).
        self._abandoned: Set[str] = set()
        #: Every correlation id this query minted, so ``release()`` can
        #: sweep stragglers out of peer mailboxes when the query ends.
        self._corrs: List[str] = []
        #: Global keep-set for projection pushdown (None = pruning off or
        #: unsound for this query form); set by the executor after plan
        #: analysis (:func:`repro.query.plan.compute_live_vars`).
        self.live_vars: Optional[FrozenSet] = None
        #: Per-query memo over (key kind, ring key) → (stamp, done event,
        #: (owner, entries) or None while in flight); see ``locate``.
        self._lookup_cache: Dict[Tuple[Any, int], tuple] = {}
        #: Providers that did not answer this query's own fan-out of a
        #: planned BASIC leaf: a later leaf whose row lists one goes
        #: straight to its owner (:func:`~repro.query.primitive._basic`).
        self.silent: Set[str] = set()
        node = system.network.node(initiator)
        if not isinstance(node, QueryPeer):
            raise QueryFailed(f"initiator {initiator!r} is not a query peer")
        self.initiator_peer: QueryPeer = node
        #: Ring entry point: the initiator itself if it is an index node,
        #: otherwise the index node it is attached to (Sect. III-A).
        if initiator in system.index_nodes:
            self.entry_index = initiator
        else:
            storage = system.storage_nodes.get(initiator)
            if storage is None or storage.index_node_id is None:
                raise QueryFailed(f"initiator {initiator!r} has no ring entry point")
            entry = storage.index_node_id
            parent = system.index_nodes.get(entry)
            if parent is None or not parent.alive:
                # The attachment point died (Sect. III-D): re-attach to a
                # live index node, like a storage node re-joining the system
                # (same placement rule as the original attachment).
                entry = self._reattach(storage)
            self.entry_index = entry
        # Globally unique query id among live executions: per-initiator
        # namespace slots.  A lone (or serial) query always holds slot 0
        # and keeps the classic `<initiator>#<seq>` correlation ids —
        # byte-identical wire traffic — while concurrent queries from the
        # same initiator mint from disjoint `<initiator>~<slot>` spaces.
        # The slot doubles as the query's flow id for the network's
        # contention model.  Acquired last, so a failed __init__ never
        # holds a slot.
        self._slot = self.initiator_peer.acquire_query_slot()
        self.query_id = (
            initiator if self._slot == 0 else f"{initiator}~{self._slot}"
        )
        # From here on the transport notes every node this query's
        # messages address, so release() knows where its state can be.
        system.network.flow_peers[self.query_id] = {initiator}
        system.network.flow_reports[self.query_id] = report

    def _reattach(self, storage) -> str:
        from ..chord.hashing import hash_string

        try:
            new_parent = self.system.ring.owner_of(
                hash_string(storage.node_id, self.system.space)
            )
        except LookupError as exc:
            raise QueryFailed("no live index nodes remain") from exc
        old = storage.index_node_id
        storage.index_node_id = new_parent.node_id
        if storage.node_id not in new_parent.attached_storage:
            new_parent.attached_storage.append(storage.node_id)
        self.system.network.failover.entry_failovers += 1
        self.report.merge_note(
            f"re-attached {storage.node_id}: {old} -> {new_parent.node_id}"
        )
        return new_parent.node_id

    # ------------------------------------------------------------- plumbing

    @property
    def sim(self):
        return self.system.sim

    @property
    def network(self):
        return self.system.network

    def new_corr(self) -> str:
        corr = f"{self.query_id}#{next(self._corr_seq)}"
        self._corrs.append(corr)
        return corr

    def call(self, dst: str, method: str, payload: Any = None,
             timeout: Optional[float] = None, retry: bool = True) -> Event:
        if self.deadline_at is not None and self.sim.now >= self.deadline_at:
            self.network.failover.deadline_exhausted += 1
            raise QueryDeadlineExceeded(
                f"query deadline exceeded before calling {dst}.{method}")
        return self.network.call(self.initiator, dst, method, payload, timeout,
                                 flow=self.query_id,
                                 retry=self._retry if retry else None,
                                 deadline=self.deadline_at)

    def probe(self, dst: str, method: str, payload: Any = None) -> Event:
        """:meth:`call` in one attempt: a ring walk's probe. The walk's
        own retry is to avoid the silent node and ask the last responder
        again, as a recursive forward routed round a dead hop. The probe
        is still one attempt of the query's retry policy, capped at its
        ``per_attempt_timeout``, and the query deadline still bounds it."""
        timeout = self._retry.per_attempt_timeout if self._retry else None
        return self.call(dst, method, payload, timeout, retry=False)

    def abandon(self, corr: str, site: Optional[str] = None) -> None:
        """Tombstone *corr* at the initiator (and at *site*, the intended
        delivery destination) so any late in-flight message under it is
        dropped on arrival instead of leaking into an unread mailbox."""
        self.initiator_peer.abandon_corr(corr)
        if site is not None and site != self.initiator:
            target = self.network.nodes.get(site)
            if isinstance(target, QueryPeer):
                target.abandon_corr(corr)
                # Tombstoned by hand, not by a message: release() must
                # still find it.
                self.network.flow_peers[self.query_id].add(site)
        self._abandoned.add(corr)

    def flag_partial(self, what: str, node=None) -> None:
        """Record that *what* (a sub-pattern / branch) contributed nothing
        because every replica was unreachable: the query's answer is now a
        flagged *subset* of the truth (``options.partial_results``)."""
        self.report.incomplete = True
        self.report.dropped_patterns.append(what)
        self.network.failover.partial_patterns_dropped += 1
        self.report.merge_note(f"partial: dropped {what}")
        if node is not None:
            node.detail["dropped"] = True
            node.actual_rows = 0

    @property
    def degradable(self) -> Tuple[type, ...]:
        """The failures an ``options.partial_results`` query degrades
        instead of failing on: a peer that does not answer
        (:class:`RpcTimeout`) and a delivery that never lands
        (:class:`DeliveryTimeout`). The part that hit one is flagged and
        contributes a safe subset; a spent query deadline
        (:class:`QueryDeadlineExceeded`) still fails the query. Empty
        without ``partial_results``, so ``except ctx.degradable`` then
        catches nothing."""
        return (RpcTimeout, DeliveryTimeout) if self.options.partial_results else ()

    def wait_delivery(self, corr: str, site: str):
        """Generator: wait for *site*'s `delivered` notification for
        mailbox *corr*, with a timeout.

        Returns the delivered solution count; raises DeliveryTimeout when
        the chain broke (e.g. a storage node on the route crashed). The
        loser of the race never lingers: a won delivery cancels the timer;
        a timeout abandons the correlation id here and at *site*, so a
        late arrival is dropped instead of leaking into a mailbox no one
        reads. The wait is keyed by (corr, site)
        (:meth:`~repro.overlay.peer.QueryPeer.expect`).
        """
        wait = DELIVERY_TIMEOUT
        if self.deadline_at is not None:
            wait = min(wait, max(self.deadline_at - self.sim.now, 0.0))
        expected = self.initiator_peer.expect(corr, site)
        timer = self.sim.timeout(wait)
        index, value = yield self.sim.any_of([expected, timer])
        if index == 1:
            self.abandon(corr, site=site)
            if (self.deadline_at is not None
                    and self.sim.now >= self.deadline_at):
                self.network.failover.deadline_exhausted += 1
                raise QueryDeadlineExceeded(
                    f"delivery {corr}: query deadline exceeded")
            raise DeliveryTimeout(f"delivery {corr} timed out")
        timer.cancel()
        return value

    def release(self) -> int:
        """Sweep every correlation id this query minted out of the query
        peers its messages touched and free the initiator's namespace
        slot — run when the query completes or fails, so long-running
        multi-query systems accumulate no mailbox/expectation state.

        Correlation ids abandoned after a delivery timeout keep their
        dead-letter tombstones for one more ``DELIVERY_TIMEOUT``: a late
        one-way message may still be in flight, and the tombstone is what
        drops it on arrival.  A delayed sweep removes the tombstones —
        and only then frees the initiator's namespace slot, so a recycled
        slot can never mint a correlation id that a still-in-flight late
        reply would land in.

        With a fault plan installed *every* minted corr is quarantined
        this way (not just the explicitly abandoned ones): message-level
        duplication means any corr may have a trailing copy in flight.
        """
        network = self.network
        slot, self._slot = self._slot, None
        if slot is None:
            return 0
        del network.flow_reports[self.query_id]
        # Stays registered (and growing) until the slot is freed, so the
        # delayed sweep also reaches a node first addressed after release.
        touched = network.flow_peers[self.query_id]

        def peers() -> List[QueryPeer]:
            nodes = (network.nodes.get(node_id) for node_id in sorted(touched))
            return [node for node in nodes if isinstance(node, QueryPeer)]

        def free() -> None:
            del network.flow_peers[self.query_id]
            self.initiator_peer.release_query_slot(slot)

        if network.faults is not None:
            late = sorted(self._corrs)
            prompt: List[str] = []
            # A duplicated one-way may trail in at any peer the query
            # addressed, not just the sites abandon() knew about.
            for node in peers():
                node._dead_corrs.update(late)
        else:
            late = sorted(self._abandoned)
            prompt = [c for c in self._corrs if c not in self._abandoned]
        removed = sum(node.purge_corrs(prompt) for node in peers())
        if late:
            def sweep(_event) -> None:
                for node in peers():
                    node.purge_corrs(late)
                free()

            self.sim.timeout(DELIVERY_TIMEOUT).callbacks.append(sweep)
            self._abandoned = set()
        else:
            free()
        self._corrs.clear()
        return removed

    def local_deposit(self, corr: str, solutions, vars=None) -> ResultHandle:
        """Materialize solutions (rows or wire data) at the initiator, in
        a mailbox set of their own, without any message."""
        self.initiator_peer.mailbox[corr] = as_solution_set(solutions)
        return ResultHandle(self.initiator, corr,
                            len(self.initiator_peer.mailbox[corr]), vars)

    def keep_vars(self, pattern_vars) -> Optional[List]:
        """Projection keep-list for a pattern's provider-side results, or
        None when pruning is off or nothing would be dropped."""
        if self.live_vars is None:
            return None
        kept = [v for v in pattern_vars if v in self.live_vars]
        if len(kept) == len(pattern_vars):
            return None
        return sorted(kept, key=lambda v: v.name)

    # --------------------------------------------------------------- lookup

    def locate(self, pattern: TriplePattern,
               condition: Optional[ast.Expression] = None):
        """Generator: consult the two-level index for *pattern* (Fig. 2).

        Step 1: find the index node owning Hash(attributes) via the ring
        (free if the initiator's entry node already owns the key).
        Step 2: read that node's location-table row.

        Rows are memoized per query, one ``(stamp, done, row)`` entry per
        distinct ring key. The stamp is taken before the consultation and
        the entry is reused only while it is current
        (:mod:`repro.cache.epoch`); ``row`` is None while the
        consultation is in flight, and parallel askers of the key wait on
        ``done`` instead of issuing a duplicate, then look again.
        """
        info = unread_info(pattern, condition, self.system.space)
        if info.key is None:
            return info
        located = kind, key = info.key_kind, info.key
        ledger = self.network.data_epochs
        memo = self._lookup_cache
        entry = memo.get(located)
        while entry is not None and ledger.current(entry[0]):
            if entry[2] is not None:
                self.report.lookup_cache_hits += 1
                self.tracer.span("lookup", phase=PHASE_LOOKUP,
                                 pattern=str(pattern), cached=True).close(hops=0)
                owner_id, entries = entry[2]
                return PatternInfo(pattern, kind, key, owner_id, entries,
                                   0, condition)
            try:
                yield entry[1]
            except RpcError:
                # The filler died and removed its entry: resolve for
                # ourselves rather than inherit a loss a retry may fix.
                pass
            entry = memo.get(located)
        stamp, done = ledger.stamp((key,)), self.sim.event()
        entry = memo[located] = (stamp, done, None)
        try:
            owner_id, entries, hops = yield from self.consult(pattern, key,
                                                          _RowRead(self, key))
        except BaseException as exc:
            if memo.get(located) is entry:
                del memo[located]
            done.fail(exc)
            raise
        entries = tuple(entries)
        if memo.get(located) is entry:
            memo[located] = (stamp, done, (owner_id, entries))
        done.succeed()
        return PatternInfo(pattern, kind, key, owner_id, entries, hops, condition)

    def ring_resolve(self, key: int, avoid=()):
        """Generator: the ring walk (:func:`~repro.chord.node.walk`) for
        *key* from the ring entry point, failing over to a fresh entry
        when the current one is dead (``options.failover`` and a
        storage-node initiator only)."""
        nodes = self.system.index_nodes
        routes = self.initiator_peer.routes(self.system.space)
        try:
            return (yield from walk(self.probe, nodes[self.entry_index].ref,
                                    key, avoid, routes))
        except RpcTimeout:
            storage = self.system.storage_nodes.get(self.initiator)
            if not self.options.failover or storage is None:
                raise
            # The ring entry point died mid-query: re-enter elsewhere,
            # like a storage node re-joining the system.
            self.entry_index = self._reattach(storage)
        return (yield from walk(self.probe, nodes[self.entry_index].ref,
                                key, avoid, routes))

    def consult(self, pattern: TriplePattern, key: int, request):
        """Generator: :meth:`owner_call` under a ``lookup`` span, its
        hops charged to the report → ``(node_id, reply, hops)``."""
        span = self.tracer.span("lookup", phase=PHASE_LOOKUP, pattern=str(pattern))
        hops, route = 0, {}
        try:
            node_id, reply, hops = yield from self.owner_call(key, route, request)
        finally:
            span.close(hops=hops, **route)
        self.report.lookup_hops += hops
        self.report.lookup_cache_misses += 1
        return node_id, reply, hops

    def owner_call(self, key: int, route: Dict[str, Any], request):
        """Generator: put *request* (a row read or a
        :class:`~repro.query.failover.PrimitiveCall`) to *key*'s owner →
        ``(node_id, reply, hops)``.

        The owner is the entry node when the initiator is the index node
        owning *key*; else a learned owner arc
        (:class:`~repro.overlay.peer.RouteTable`), sent ``routed`` at 0
        hops. A bounce (None) or failed call forgets the arc and takes
        the ring, whose walk starts at the known node closest before
        *key* (the entry node, told to avoid that start, if it fails to
        answer). The walk keeps every node that answered it as a start;
        the owner it named, once it answered, is learned with its exact
        arc (responder, owner]. A dead owner is left to
        :func:`~repro.query.failover.owner_or_replica`. *route* gets the
        span's ``routed``/``fallback``/``start``.
        """
        entry_node = self.system.index_nodes[self.entry_index]
        if self.initiator == self.entry_index and entry_node.owns(key):
            reply = yield from request.send(self.entry_index)
            return self.entry_index, reply, 0
        routes = self.initiator_peer.routes(self.system.space)
        ref = routes.get(key)
        if ref is not None:
            try:
                reply = yield from request.send(ref.node_id, routed=True)
                reason = "bounce"
            except (RpcTimeout, NodeUnknown) as exc:
                # A failure to reach the owner, not one the owner raised
                # (a RemoteError, such as a spent deadline, propagates).
                reply, reason = None, type(exc).__name__
            if reply is not None:
                route["routed"] = True
                return ref.node_id, reply, 0
            routes.forget(ref)
            route["fallback"] = reason
        result, avoid = None, ()
        start = routes.preceding(key)
        if start is not None:
            try:
                result = yield from walk(self.probe, start, key, (), routes)
                route["start"] = start.node_id
            except (RpcTimeout, NodeUnknown):
                avoid = (start.node_id,)  # forgotten by the walk
        if result is None:
            result = yield from self.ring_resolve(key, avoid)
        owner = result.ref
        local = owner.node_id == self.initiator
        # An owner the routed request just timed out on is not dialed twice.
        timed_out = (route.get("fallback") == "RpcTimeout"
                     and ref.node_id == owner.node_id)
        node_id, reply, alt_hops = yield from owner_or_replica(
            self, key, owner.node_id, request, skip=timed_out)
        if node_id == owner.node_id and not local and result.via is not None:
            routes.learn(owner, result.via.ident)
        return node_id, reply, result.hops + alt_hops

    def replica_of(self, key: int, dead: str):
        """Generator: *key*'s replica holder once its owner *dead* failed
        → ``(node_id, hops)``.

        The ring answers an ``avoid`` hint with the first other member of
        the owner's successor list, which under successor-list replication
        (Sect. III-D) is the node taking over the dead owner's keys.
        Raises :class:`RpcTimeout` when the ring knows no alternative, and
        when the system keeps no replicas (``replication_factor`` 1): the
        successor then holds no copy of the owner's rows, and its empty
        row would pass for the answer.
        """
        if self.system.replication_factor <= 1:
            raise RpcTimeout(f"{dead}: no replica holder for key {key}")
        result = yield from self.ring_resolve(key, (dead,))
        if result.ref.node_id == dead:
            raise RpcTimeout(f"{dead}: no replica holder for key {key}")
        return result.ref.node_id, result.hops

    # ------------------------------------------------------------ finishing

    def finalize(self, handle: ResultHandle):
        """Generator: bring the final solutions to the initiator."""
        span = self.tracer.span("finalize", phase=PHASE_FINALIZE,
                                site=handle.site, corr=handle.corr)
        try:
            if handle.site == self.initiator:
                data = self.initiator_peer.mailbox.pop(handle.corr, set())
                return data
            data = yield self.call(handle.site, "fetch",
                                   Fetch(corr=handle.corr, plain=self.plain))
            return shipped_rows(data)
        finally:
            span.close()


def exec_plan(ctx: ExecutionContext, node: PhysOp, at_home: bool = False,
              digests: tuple = ()):
    """Generator: execute a physical operator distributedly → ResultHandle.

    Dispatches to the per-operator modules; subtrees of binary operators
    run as parallel simulation processes (the paper's "in parallel" for
    union branches and conjunction chains). ``at_home`` asks primitive
    leaves to leave their results at a data site rather than dragging them
    to the initiator — see :func:`repro.query.primitive.exec_primitive`.
    ``digests`` are the join-key digests probe-first combines above push
    down into this sub-plan, nearest first
    (:func:`repro.query.conjunction.exec_operands`).

    Every dispatch records the operator's observations — where its result
    landed, how many rows it produced, and the network-stats byte delta
    across its execution window — onto the plan node for explain renders.
    The recording is pure reads of existing counters: zero effect on the
    simulated metrics.
    """
    from . import conjunction, optional, primitive, union

    before = ctx.system.stats.checkpoint()
    if isinstance(node, EmptyScan):
        handle = ctx.local_deposit(ctx.new_corr(), {EMPTY_MAPPING},
                                   vars=frozenset())
    elif isinstance(node, ChainShip):
        handle = yield from primitive.exec_primitive(ctx, node, at_home,
                                                     digests)
    elif isinstance(node, CacheProbe):
        from ..cache.runtime import exec_cache_probe  # deferred: PR 9 layer

        # No pushed digest: a cache fill must hold the whole BGP.
        handle = yield from exec_cache_probe(ctx, node)
    elif isinstance(node, BGPWalk):
        handle = yield from conjunction.exec_bgp(ctx, node, digests)
    elif isinstance(node, FilterOp):
        handle = yield from conjunction.exec_filter(ctx, node, at_home,
                                                    digests)
    elif isinstance(node, HashJoin):
        handle = yield from conjunction.exec_join(ctx, node, digests)
    elif isinstance(node, UnionOp):
        handle = yield from union.exec_union(ctx, node, digests)
    elif isinstance(node, LeftJoinOp):
        handle = yield from optional.exec_leftjoin(ctx, node, digests)
    else:
        raise QueryFailed(
            f"cannot execute physical operator {type(node).__name__}")
    note_result(node, handle)
    node.actual_bytes = ctx.system.stats.delta(before).bytes
    return handle


def exec_subtrees_parallel(ctx: ExecutionContext, nodes: List[PhysOp],
                           digests: List[tuple]):
    """Generator: run several sub-plans as concurrent processes, each
    with its own pushed *digests*.

    Subtree results stay at their home sites (``at_home=True``) so that
    the caller's join-site policy decides what moves where.
    """
    processes = [ctx.sim.process(exec_plan(ctx, n, at_home=True, digests=d))
                 for n, d in zip(nodes, digests)]
    handles = yield ctx.sim.all_of(processes)
    return handles


class DistributedExecutor:
    """Facade: execute SPARQL queries against a hybrid system.

    Pass a :class:`~repro.trace.Tracer` to record a structured per-query
    trace (message flow, operator spans, per-phase cost); with the
    default ``tracer=None`` the execution path is byte-for-byte the
    untraced one.
    """

    def __init__(self, system: HybridSystem, options: Optional[ExecutionOptions] = None,
                 tracer: Optional[Tracer] = None, **option_overrides) -> None:
        self.system = system
        if options is None:
            options = ExecutionOptions(**option_overrides)
        elif option_overrides:
            raise ValueError("pass either options or overrides, not both")
        self.options = options
        self.tracer = tracer

    @property
    def load(self) -> Counter:
        """The system-wide per-node load counter (Third-Site QoS input).

        Delegates to :attr:`HybridSystem.load` so that concurrent
        executors — and concurrent execution contexts — observe one
        another through the shared system only, never through executor
        instance state.
        """
        return self.system.load

    # ----------------------------------------------------------------- API

    def execute(
        self, query_text: str, initiator: Optional[str] = None
    ) -> Tuple[QueryResult, ExecutionReport]:
        """Run *query_text* from *initiator* (default: first storage node).

        Returns (result, report). The result is bit-equal to the local
        oracle evaluation over the union of all provider graphs.
        """
        query = parse_query(query_text, COMMON_PREFIXES)
        return self.execute_parsed(query, initiator)

    def execute_parsed(
        self, query: ast.Query, initiator: Optional[str] = None
    ) -> Tuple[QueryResult, ExecutionReport]:
        """Run one parsed query alone: spawn :meth:`execute_process` as a
        simulation process and drive the simulator to completion.

        This is the classic single-tenant entry point; the coroutine it
        wraps is the multi-tenant one (a workload harness spawns many of
        them against one simulator).
        """
        sim = self.system.sim
        tracer = self.tracer
        prev_tracer = sim.tracer
        if tracer is not None:
            tracer.attach(sim)
            sim.tracer = tracer
        try:
            return sim.run_process(
                self.execute_process(query, initiator, tracer=tracer)
            )
        finally:
            if tracer is not None:
                sim.tracer = prev_tracer

    def execute_process(
        self,
        query: ast.Query,
        initiator: Optional[str] = None,
        report: Optional[ExecutionReport] = None,
        tracer: Optional[Tracer] = None,
    ):
        """Generator: execute one query as an ordinary sim process.

        Returns ``(result, report)``.  Re-entrant: any number of these
        coroutines may run interleaved in one simulation — every piece of
        per-query mutable state (correlation ids, mailbox expectations,
        lookup cache, report, spans) lives in this invocation's
        :class:`ExecutionContext`, keyed by a query id that is unique
        among live executions.  Distributed failures surface as
        :class:`QueryFailed`, and the context is always swept on the way
        out, so one failing query never corrupts its neighbours.
        """
        if initiator is None:
            if not self.system.storage_nodes:
                raise QueryFailed("system has no storage nodes to initiate from")
            initiator = min(self.system.storage_nodes)
        if not query.dataset.is_union_of_all:
            # Sect. IV-A: in the ad-hoc system, data "is maintained by
            # individual data providers instead of at a source that can be
            # easily identified by some reference already known" — there
            # are no addressable graph IRIs, so FROM / FROM NAMED cannot
            # be honored. Refuse loudly rather than silently mis-scope.
            raise QueryFailed(
                "FROM / FROM NAMED datasets are not addressable in the "
                "ad-hoc system; the dataset is always the union of all "
                "storage nodes (paper Sect. IV-A)"
            )
        if report is None:
            report = ExecutionReport()
        algebra = translate_pattern(query.where)
        if self.options.optimize:
            algebra = optimize_algebra(algebra, estimate=None, reorder=False)
        # The distributed plan is a pure 1:1 image of the algebra under
        # the legacy flags, and the surface `repro explain` renders after
        # execution. Compiling sends nothing, so a refused query (GRAPH)
        # fails here before it takes a query slot.
        try:
            plan = compile_query_plan(query, algebra, self.options)
        except SparqlError as exc:
            raise QueryFailed(str(exc)) from exc
        report.plan = plan
        root = execution_root(plan)

        ctx = ExecutionContext(self.system, initiator, self.options, report,
                               self.load, tracer=tracer)
        if self.options.optimize:  # after a re-attachment's note, as ever
            report.merge_note("optimized")
        if self.options.projection_pushdown:
            ctx.live_vars = compute_live_vars(query, algebra)

        checkpoint = self.system.stats.checkpoint()
        cache_before = self.system.network.cache.checkpoint()
        t0 = self.sim_now()
        trace_checkpoint = tracer.checkpoint() if tracer is not None else None
        query_span = ctx.tracer.span("query", initiator=initiator,
                                     form=type(query).__name__)
        try:
            try:
                if self.options.plan_mode == "cost":
                    # Frequency-driven planning: fetch leaf statistics
                    # (real lookups, inside the measured window) and pin
                    # join order / walk modes / strategies / sites.
                    from .cost import annotate_plan

                    yield from annotate_plan(ctx, root)
                handle = yield from exec_plan(ctx, root)
                solutions = yield from ctx.finalize(handle)
                t_done = self.sim_now()
                delta = self.system.stats.delta(checkpoint)
                report.response_time = t_done - t0
                report.messages = delta.messages
                report.bytes_total = delta.bytes
                cache_delta = self.system.network.cache.delta(cache_before)
                report.cache_hits = cache_delta["hits"]
                report.cache_misses = cache_delta["misses"]
                if tracer is not None:
                    # Snapshot here so the phase totals cover exactly the
                    # same window as the stats delta (they partition
                    # bytes_total); DESCRIBE post-processing traffic is
                    # traced as events but, like the stats delta, stays
                    # out of the report scalars.  Under concurrency the
                    # delta window also carries neighbouring queries'
                    # traffic — per-query attribution needs the tracer.
                    report.phases = tracer.phase_breakdown(since=trace_checkpoint)
                    report.trace = tracer
                result = yield from self._postprocess(query, algebra, solutions, ctx)
            except RpcError as exc:
                # A site died under us mid-execution: surface the loss as
                # a clean per-query failure, never a raw transport error.
                raise QueryFailed(f"distributed execution failed: {exc}") from exc
        finally:
            query_span.close()
            # Whether the query succeeded or failed mid-flight, sweep its
            # correlation state out of every peer (mailboxes, pending
            # expectations, dead-letter marks) and free its id-namespace
            # slot — see the leak regression tests in
            # tests/test_lifecycle_leaks.py.
            ctx.release()
        report.result_count = self._count_results(query, result)
        record_postprocess(plan, root.actual_rows, report.result_count,
                           initiator)
        if report.incomplete:
            # Counted only for queries that *returned* (flagged) answers;
            # a query that degrades and then fails anyway is not a
            # partial result.
            self.system.network.failover.partial_results += 1
        return result, report

    @staticmethod
    def _count_results(query: ast.Query, result: QueryResult) -> int:
        """Per-query-form result cardinality.

        Explicit by form: SELECT counts solution rows (0 for an empty
        sequence), ASK counts its boolean (False → 0), CONSTRUCT and
        DESCRIBE count triples in the output graph.
        """
        if isinstance(query, ast.AskQuery):
            return int(bool(result.boolean))
        if isinstance(query, (ast.ConstructQuery, ast.DescribeQuery)):
            return len(result.graph) if result.graph is not None else 0
        return len(result.rows)

    def sim_now(self) -> float:
        return self.system.sim.now

    # ------------------------------------------------------ post-processing

    def _postprocess(
        self,
        query: ast.Query,
        algebra: Algebra,
        solutions: Set[SolutionMapping],
        ctx: ExecutionContext,
    ):
        """Generator: the paper's Post-Processing stage, at the initiator.

        A generator because DESCRIBE issues follow-up distributed
        primitives, which must run inside the calling query's process
        (``yield from``), not through a nested simulator run.
        """
        if isinstance(query, ast.AskQuery):
            return QueryResult(boolean=bool(solutions))

        if isinstance(query, ast.SelectQuery):
            projection = list(query.projection)
            if not projection:
                projection = sorted(algebra.in_scope_vars(), key=lambda v: v.name)
            rows = apply_modifiers(solutions, query.modifiers, projection)
            return QueryResult(rows=rows, variables=projection)

        if isinstance(query, ast.ConstructQuery):
            out = Graph()
            for mu in solutions:
                for template in query.template:
                    bound = template.substitute(mu.as_dict())
                    if bound.is_concrete():
                        try:
                            out.add(bound.as_triple())
                        except TypeError:
                            continue
                    # else: leave unbound template rows out, per spec
            return QueryResult(graph=out)

        if isinstance(query, ast.DescribeQuery):
            return (yield from self._describe(query, solutions, ctx))

        raise QueryFailed(f"unknown query form {type(query).__name__}")

    def _describe(
        self, query: ast.DescribeQuery, solutions: Set[SolutionMapping], ctx: ExecutionContext
    ):
        """Generator: DESCRIBE fetches the outgoing edges of every target
        via further primitive distributed queries, inside this query's
        own process."""
        from .primitive import exec_primitive

        # The follow-up primitives bind fresh variables (__dp/__do) that
        # the main plan's keep-set knows nothing about — pruning them
        # would erase the descriptions.
        ctx.live_vars = None
        targets = []
        for subject in query.subjects:
            if isinstance(subject, IRI):
                targets.append(subject)
            else:
                for mu in sorted(solutions, key=lambda m: len(m)):
                    term = mu.get(subject)
                    if term is not None and term not in targets:
                        targets.append(term)
        out = Graph()
        var_p, var_o = Variable("__dp"), Variable("__do")
        for target in targets:
            if not isinstance(target, IRI):
                continue
            pattern = TriplePattern(target, var_p, var_o)
            handle = yield from exec_primitive(ctx, pattern_leaf(pattern))
            data = yield from ctx.finalize(handle)
            for mu in data:
                p, o = mu.get(var_p), mu.get(var_o)
                if p is not None and o is not None:
                    try:
                        out.add(TriplePattern(target, p, o).as_triple())
                    except TypeError:
                        continue
        return QueryResult(graph=out)
