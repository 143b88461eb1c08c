"""Simulated message transport: nodes, links, and RPC.

Models the ad-hoc network substrate of the paper: every node "has an IP
address by which it may be contacted" (Sect. III-A) — here a string node
id — and exchanges messages whose cost is ``latency + bytes/bandwidth``.
All traffic is charged to :class:`~repro.net.stats.NetworkStats`, giving
the exact transmission totals the optimization study compares.

The RPC layer dispatches a message of method ``m``, declared in
:data:`~repro.net.protocol.PROTOCOL`, to the destination node's
``rpc_m`` method. A handler may return a value directly or be a
generator that performs further RPCs (that is how sub-query shipping
chains through storage nodes). Failed nodes silently drop traffic; callers
observe an :class:`RpcTimeout`, which is precisely the failure-detection
mechanism Sect. III-D prescribes ("no acknowledgement ... after a timeout
period").

Every message kind (request, one-way, reply, error reply) crosses the
wire through one model, :meth:`Network._transmit`. One RPC attempt costs
one slotted :class:`_Call` plus the raw heap entries it schedules
(:meth:`Simulator._schedule_after`); a settled call is freed by reference
counting (DESIGN.md §4).
"""

from __future__ import annotations

import random
from types import GeneratorType
from dataclasses import dataclass
from typing import Any, Dict, Optional, Set

from ..cache.epoch import DataEpochLedger
from ..metrics.counters import CacheCounters, FailoverCounters
from .contention import ContentionModel
from .faults import FaultInjector, FaultPlan
from .health import HealthLedger
from .protocol import Method, method as declared
from .sim import Event, SimError, Simulator
from .sizes import HEADER_BYTES, size_of
from .stats import NetworkStats


__all__ = [
    "LinkModel",
    "Node",
    "Network",
    "RetryPolicy",
    "RpcError",
    "RpcTimeout",
    "RemoteError",
    "NodeUnknown",
]


class RpcError(Exception):
    """Base class for RPC failures."""


class RpcTimeout(RpcError):
    """No response within the timeout (dead or partitioned peer)."""


class RemoteError(RpcError):
    """The remote handler raised; carries the original message."""


class NodeUnknown(RpcError):
    """Destination id was never registered."""


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Budget for re-issuing a timed-out RPC.

    The paper's failure detection is the timeout itself (Sect. III-D:
    "no acknowledgement ... after a timeout period"); a retry policy
    turns that detection into recovery. ``attempts`` is the *total*
    attempt count (1 = classic fail-fast). The backoff before attempt
    ``k`` grows exponentially from ``base_backoff`` and carries
    deterministic seeded jitter — the schedule is a pure function of
    (seed, call key, attempt), so runs with the same seed stay
    byte-identical, the property every experiment relies on. Only
    :class:`RpcTimeout` is retried: a :class:`RemoteError` or
    :class:`NodeUnknown` would fail identically on every attempt.
    """

    attempts: int = 3
    base_backoff: float = 0.05
    multiplier: float = 2.0
    max_backoff: float = 2.0
    #: Jitter as a +/- fraction of the raw backoff (0 disables it).
    jitter: float = 0.5
    seed: int = 0
    #: Cap on each attempt's individual timeout; None keeps the caller's
    #: timeout for every attempt.
    per_attempt_timeout: Optional[float] = None

    def backoff_before(self, attempt: int, key: str = "") -> float:
        """Seconds to wait before *attempt* (2-based; attempt 1 is free).

        Deterministic: the jitter is drawn from an RNG seeded with
        (policy seed, *key*, attempt), never from global random state.
        """
        if attempt <= 1:
            return 0.0
        raw = min(
            self.max_backoff,
            self.base_backoff * self.multiplier ** (attempt - 2),
        )
        if self.jitter <= 0:
            return raw
        u = random.Random(f"{self.seed}|{key}|{attempt}").random()
        return max(0.0, raw * (1.0 + self.jitter * (2.0 * u - 1.0)))


@dataclass(frozen=True, slots=True)
class LinkModel:
    """Per-message cost model.

    Defaults approximate a broadband WAN: 10 ms one-way latency, 1 MB/s.
    Absolute values are arbitrary; experiments only compare strategies
    under the *same* link model (and sweep it where relevant).
    """

    latency: float = 0.010
    bandwidth: float = 1_000_000.0

    def delay(self, nbytes: int) -> float:
        return self.latency + nbytes / self.bandwidth


class Node:
    """Base class for simulated nodes.

    Subclasses expose RPC handlers as methods named ``rpc_<kind>`` taking
    ``(payload, src)``. ``compute_delay`` adds a fixed local-processing
    cost per handled request (0 by default: the paper's cost model is
    communication-dominated).
    """

    compute_delay: float = 0.0

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self.network: Optional["Network"] = None
        self.alive = True

    @property
    def sim(self) -> Simulator:
        assert self.network is not None, "node not registered with a network"
        return self.network.sim

    # Convenience for handler code -------------------------------------------

    def call(self, dst: str, method: str, payload: Any = None,
             timeout: Optional[float] = None) -> Event:
        assert self.network is not None
        return self.network.call(self.node_id, dst, method, payload, timeout)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "up" if self.alive else "down"
        return f"<{type(self).__name__} {self.node_id} ({status})>"


class _Call:
    """One RPC attempt in flight: the caller's event and what its reply
    needs. Settled, its deadline entry is tombstoned or spent, so the
    call dies with the last heap entry that names it."""

    __slots__ = ("network", "result", "src", "dst", "spec", "flow",
                 "timer", "done", "target", "health", "started")

    def __init__(self, network: "Network", result: Event, src: str, dst: str,
                 spec: Method, flow: Optional[str]) -> None:
        self.network = network
        self.result = result
        self.src = src
        self.dst = dst
        self.spec = spec
        self.flow = flow
        self.done = False

    def observe(self, event: Event) -> None:
        """Result callback: feed the outcome to the health ledger."""
        if event.failure is None:
            self.health.observe_success(self.dst, event.sim.now - self.started)
        elif isinstance(event.failure, RpcTimeout):
            self.health.observe_failure(self.dst)

    def replied(self, event: Event) -> None:
        """Callback of a generator handler's process: answer the caller."""
        if event.failure is not None:
            self.network._respond(self, self.target, None, RemoteError(
                f"{self.dst}.{self.spec.name}: {event.failure}"))
        else:
            self.network._respond(self, self.target, event.value, None)


class _Retrying:
    """The retry loop of one :meth:`Network.call` (see there). Attempts
    reach it only through their callbacks, so no cycle outlives it."""

    __slots__ = ("network", "outer", "src", "dst", "spec", "payload",
                 "timeout", "flow", "retry", "deadline", "attempt", "clamped")

    def __init__(self, network: "Network", src: str, dst: str, spec: Method,
                 payload: Any, timeout: float, flow: Optional[str],
                 retry: Optional[RetryPolicy], deadline: Optional[float]) -> None:
        self.network = network
        self.outer = network.sim.event()
        self.src = src
        self.dst = dst
        self.spec = spec
        self.payload = payload
        self.timeout = timeout
        self.flow = flow
        self.retry = retry
        self.deadline = deadline
        self.attempt = 0

    def launch(self) -> None:
        network = self.network
        self.attempt += 1
        self.clamped = False
        per = self.timeout
        retry = self.retry
        if retry is not None and retry.per_attempt_timeout is not None:
            per = min(per, retry.per_attempt_timeout)
        deadline = self.deadline
        if deadline is not None:
            remaining = deadline - network.sim.now
            if remaining <= 0:
                network.failover.deadline_exhausted += 1
                self.outer.fail(RpcTimeout(
                    f"{self.src} -> {self.dst}.{self.spec.name}: "
                    "query deadline exhausted"))
                return
            if remaining < per:
                per = remaining
                self.clamped = True
        inner = network._call_once(self.src, self.dst, self.spec,
                                   self.payload, per, self.flow)
        inner.callbacks.append(self.settle)

    def settle(self, event: Event) -> None:
        network = self.network
        failure = event.failure
        if failure is None:
            if self.attempt > 1:
                network.failover.retries_recovered += 1
            self.outer.succeed(event.value)
            return
        # A timeout on a deadline-clamped attempt is the deadline's doing,
        # not the peer's — attribute it (and never retry past it).
        retry = self.retry
        deadline_hit = isinstance(failure, RpcTimeout) and self.clamped
        exhausted = (
            retry is None
            or not isinstance(failure, RpcTimeout)
            or self.attempt >= retry.attempts
        )
        if not exhausted and not deadline_hit:
            delay = retry.backoff_before(
                self.attempt + 1, key=f"{self.src}>{self.dst}.{self.spec.name}")
            if self.deadline is not None and network.sim.now + delay >= self.deadline:
                deadline_hit = True
        if exhausted or deadline_hit:
            if deadline_hit:
                network.failover.deadline_exhausted += 1
            self.outer.fail(failure)
            return
        network.failover.retries += 1
        tracer = network.sim.tracer
        if tracer.enabled:
            tracer.record(
                "rpc_retry", src=self.src, dst=self.dst, name=self.spec.name,
                phase=self.spec.phase,
                detail={"attempt": self.attempt + 1, "backoff": delay},
            )
        network.sim._schedule_after(delay, self.launch)


class Network:
    """The simulated network: node registry + message fabric."""

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        link: Optional[LinkModel] = None,
        stats: Optional[NetworkStats] = None,
        default_timeout: float = 5.0,
    ) -> None:
        self.sim = sim or Simulator()
        self.link = link or LinkModel()
        self.stats = stats or NetworkStats()
        self.default_timeout = default_timeout
        #: Shared ledger of retry/failover work (see
        #: :class:`~repro.metrics.counters.FailoverCounters`); stays all
        #: zeros unless a caller opts into retry, deadline, or failover.
        self.failover = FailoverCounters()
        self.nodes: Dict[str, Node] = {}
        #: Per-ring-key data epochs, advanced where a location-table row
        #: is written, plus the membership epoch: the freshness rule of
        #: every memo of index-derived state (:mod:`repro.cache.epoch`).
        self.data_epochs = DataEpochLedger()
        #: Shared ledger of the cross-query result cache's work; stays
        #: all zeros unless an executor opts in via ``--result-cache``.
        self.cache = CacheCounters()
        #: Optional shared-resource capacity model (see
        #: :mod:`repro.net.contention`).  ``None`` — the default — keeps
        #: the classic infinite-parallelism link model; assign a
        #: :class:`~repro.net.contention.ContentionModel` to make
        #: concurrent flows queue for node ingress/egress bandwidth and
        #: compute.  Messages without a flow id bypass the model either
        #: way, so single-query runs are byte-identical in both settings.
        self.contention: Optional[ContentionModel] = None
        #: Chaos layer (see :mod:`repro.net.faults`): ``None`` — the
        #: default — delivers every message exactly once at its modeled
        #: delay; :meth:`install_faults` swaps in a deterministic
        #: injector for loss / duplication / delay spikes / partitions /
        #: brownouts.
        self.faults: Optional[FaultInjector] = None
        #: Gray-failure defense (see :mod:`repro.net.health`): ``None``
        #: until an executor opts in via ``ExecutionOptions.breaker``;
        #: then every call attempt feeds the ledger and consults the
        #: per-peer circuit breaker.
        self.health: Optional[HealthLedger] = None
        #: Live flow (query) id → the nodes its messages were addressed
        #: to, except stateless ring-lookup callees: the only places that
        #: can hold the query's correlation state. The executor opens the
        #: entry with the query and pops it on release; other flows are
        #: not tracked.
        self.flow_peers: Dict[str, Set[str]] = {}
        #: Live flow (query) id → the query's report, opened and closed
        #: with its ``flow_peers`` entry: a chain step, which sends no
        #: reply, credits the rows its digest shed here.
        self.flow_reports: Dict[str, Any] = {}

    def install_faults(self, plan: Optional[FaultPlan]) -> Optional[FaultInjector]:
        """Attach (or, with ``None``, detach) a chaos plan. When a
        contention model is present its service times inherit the plan's
        brownout factors, so a browned-out node is slow on the wire *and*
        in its queues."""
        self.faults = FaultInjector(plan) if plan is not None else None
        if self.contention is not None:
            self.contention.service_scale = (
                self.faults.brownout_factor if self.faults is not None else None
            )
        return self.faults

    # ----------------------------------------------------------- membership

    def register(self, node: Node) -> Node:
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        node.network = self
        self.nodes[node.node_id] = node
        self.data_epochs.membership += 1
        return node

    def deregister(self, node_id: str) -> None:
        if self.nodes.pop(node_id, None) is not None:
            self.data_epochs.membership += 1

    @property
    def membership_epoch(self) -> int:
        """Bumped on every membership change (join/leave/crash/recovery)."""
        return self.data_epochs.membership

    def node(self, node_id: str) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise NodeUnknown(node_id) from None

    def fail_node(self, node_id: str) -> None:
        """Crash a node: it stops answering but keeps its state (III-D)."""
        self.node(node_id).alive = False
        self.data_epochs.membership += 1

    def recover_node(self, node_id: str) -> None:
        self.node(node_id).alive = True
        self.data_epochs.membership += 1

    # ------------------------------------------------------------------ rpc

    def call(
        self,
        src: str,
        dst: str,
        method: str,
        payload: Any = None,
        timeout: Optional[float] = None,
        flow: Optional[str] = None,
        *,
        retry: Optional[RetryPolicy] = None,
        deadline: Optional[float] = None,
    ) -> Event:
        """Invoke ``rpc_<method>`` on *dst*, returning an Event.

        The event succeeds with the handler's return value, or fails with
        :class:`RpcTimeout` / :class:`RemoteError`. Both the request and
        the response are charged to the traffic stats. *flow* names the
        query this message belongs to for the contention model (the
        request record's ``flow`` when omitted); the reply inherits it.
        An undeclared *method* raises ValueError before anything is sent,
        a negative *timeout* :class:`SimError`.

        *retry* re-issues the call on :class:`RpcTimeout` per the
        :class:`RetryPolicy`. *deadline* is an absolute simulation time
        that bounds the whole call including retries: each attempt's
        timeout is clamped to the remaining budget, and no retry is
        launched past it.
        """
        spec = declared(method)
        if retry is None and deadline is None:
            return self._call_once(src, dst, spec, payload, timeout, flow)
        retrying = _Retrying(
            self, src, dst, spec, payload,
            timeout if timeout is not None else self.default_timeout,
            flow, retry, deadline)
        retrying.launch()
        return retrying.outer

    def _call_once(
        self,
        src: str,
        dst: str,
        spec: Method,
        payload: Any = None,
        timeout: Optional[float] = None,
        flow: Optional[str] = None,
    ) -> Event:
        """One attempt of :meth:`call`: the classic fail-fast RPC."""
        deadline = timeout if timeout is not None else self.default_timeout
        if deadline < 0:
            # A deadline entry in the past would time the call out at once.
            raise SimError(f"negative RPC timeout {deadline}")
        sim = self.sim
        health = self.health
        if health is not None and not health.allow(dst):
            # Open circuit: fail this attempt immediately instead of
            # burning a real timeout on a peer recent history condemned.
            self.failover.breaker_short_circuits += 1
            result = sim.event()
            sim._schedule_now(
                result.fail,
                RpcTimeout(f"{src} -> {dst}.{spec.name}: circuit open"))
            return result
        result = Event(sim)
        nbytes, flow = self._frame(spec, payload, flow)
        call = _Call(self, result, src, dst, spec, flow)
        peers = self.flow_peers.get(flow)
        if peers is not None and not spec.stateless:
            peers.add(dst)
        if health is not None:
            call.health = health
            call.started = sim.now
            result.callbacks.append(call.observe)
        # Whichever reply settles the call first tombstones this entry,
        # so no dead timer lingers in the heap.
        call.timer = sim._schedule_after(deadline, self._expire, (call, deadline))

        if dst not in self.nodes:
            # Unknown address: fail fast (a real stack would ICMP-reject).
            sim._schedule_now(self._settle, call, None, NodeUnknown(dst))
        else:
            self._transmit(src, dst, spec.name, nbytes, spec.phase, flow,
                           None, "rpc_request", self._deliver,
                           (src, dst, spec, payload, call))
        return result

    @staticmethod
    def _frame(spec: Method, payload: Any, flow: Optional[str]):
        """A request's bytes and flow. A record of the method's declared
        type is sized by its rule and carries the flow: one the caller
        names is stamped on it (relaying handlers copy it forward), else
        the record's own is the message's."""
        if type(payload) is spec.request:
            if flow is None:
                flow = payload.flow
            else:
                payload.flow = flow
            return spec.header_bytes + spec.size(payload), flow
        return spec.header_bytes + size_of(payload), flow

    def send(self, src: str, dst: str, method: str, payload: Any = None,
             flow: Optional[str] = None) -> None:
        """One-way (unacknowledged) message — used for sub-query shipping
        along storage-node chains, where the paper's optimized strategies
        deliberately avoid response traffic. Dropped silently when the
        destination is unknown or dead, like a datagram. An undeclared
        *method* raises ValueError, as for :meth:`call`."""
        spec = declared(method)
        if dst not in self.nodes:
            return
        nbytes, flow = self._frame(spec, payload, flow)
        peers = self.flow_peers.get(flow)
        if peers is not None:
            peers.add(dst)
        self._transmit(src, dst, method, nbytes, spec.phase, flow, None,
                       "oneway", self._deliver, (src, dst, spec, payload, None))

    def _transmit(self, src: str, dst: str, kind: str, nbytes: int,
                  phase: str, flow: Optional[str], compute: Optional[float],
                  trace_kind: str, fn, args: tuple, detail=None) -> None:
        """The wire model, once for every message kind: price *nbytes*
        from *src* to *dst*, charge and trace it (to the workflow *phase*
        of its method), then schedule
        ``fn(*args)`` at its arrival — unless the fault plan drops it, and
        a second time first if the plan duplicates it.

        *compute* is the responder's ``compute_delay`` on a value reply
        (``None`` for every other kind): it is added to the delay, slowed
        by a brownout like the bytes, and queued for at the responder's
        compute resource before the transfer (DESIGN.md §4).
        """
        sim = self.sim
        link = self.link
        transfer = nbytes / link.bandwidth
        delay = link.delay(nbytes)
        busy = transfer
        if compute is not None:
            delay += compute
            busy = transfer + compute
        faults = self.faults
        fate = None
        if faults is not None:
            now = sim.now
            scale = faults.brownout_factor(src, now)
            if scale != 1.0:
                # Brownout: the sender's NIC (and, replying, its compute)
                # serves `scale` times slower.
                delay += busy * (scale - 1.0)
            fate = faults.message_fate(src, dst, now)
            delay += fate.extra_delay
        contention = self.contention
        if contention is not None:
            now = sim.now
            wait = 0.0
            if compute is not None:
                wait = contention.compute_wait(src, flow, now, compute)
                now = now + wait + compute
            delay += wait + contention.transfer_wait(src, dst, flow, now,
                                                     transfer)
        self.stats.record(src, dst, kind, nbytes)
        tracer = sim.tracer
        if tracer.enabled:
            tracer.message(trace_kind, src, dst, kind, nbytes, phase, delay,
                           detail=detail)
        if fate is not None:
            if fate.drop:
                # Lost in flight (bytes already charged to the sender); a
                # waiting caller's timer will fire.
                return
            if fate.duplicate:
                sim._schedule_after(delay + fate.dup_delay, fn, args)
        sim._schedule_after(delay, fn, args)

    @staticmethod
    def _settle(call: _Call, value: Any, exc: Optional[Exception]) -> None:
        """Settle *call* with *value* or *exc* and tombstone its deadline
        entry — unless the deadline (or an earlier copy) won the race."""
        if call.done:
            return
        call.done = True
        entry = call.timer
        entry[2] = None  # run() drops it without firing
        entry[3] = ()
        if exc is None:
            call.result.succeed(value)
        else:
            call.result.fail(exc)

    def _expire(self, call: _Call, deadline: float) -> None:
        if call.done:
            return
        call.done = True
        call.timer = None  # spent: its entry names this call
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.record("rpc_timeout", src=call.src, dst=call.dst,
                          name=call.spec.name, phase=call.spec.phase,
                          detail={"deadline": deadline})
        call.result.fail(
            RpcTimeout(f"{call.src} -> {call.dst}.{call.spec.name} timed out"))

    def _deliver(self, src: str, dst: str, spec: Method, payload: Any,
                 call: Optional[_Call]) -> None:
        """Run the declared handler of *spec* at *dst*. A request (*call*
        given) is answered with the handler's value or a
        :class:`RemoteError`; a one-way message's failures vanish, like
        UDP."""
        target = self.nodes.get(dst)
        if target is None or not target.alive:
            return  # dropped; a waiting caller's timer will fire
        handler = getattr(target, spec.attr, None)
        if handler is None:
            self._respond(call, target, None, RemoteError(
                f"{dst} has no handler {spec.attr}"))
            return
        try:
            outcome = handler(payload, src)
        except Exception as exc:  # noqa: BLE001 - remote fault becomes RemoteError
            self._respond(call, target, None,
                          RemoteError(f"{dst}.{spec.name}: {exc}"))
            return
        if type(outcome) is GeneratorType:
            process = self.sim.process(outcome)
            if call is not None:
                call.target = target
                process.callbacks.append(call.replied)
        else:
            self._respond(call, target, outcome, None)

    def _respond(self, call: Optional[_Call], target: Node, value: Any,
                 exc: Optional[Exception]) -> None:
        """Send *call*'s reply: *value*, or the error *exc* (nothing for a
        one-way message, which has no caller)."""
        if call is None or not target.alive:
            return  # a responder that crashed mid-handler sends nothing
        if exc is None:
            spec = call.spec
            self._transmit(call.dst, call.src, spec.reply,
                           HEADER_BYTES + size_of(value), spec.phase, call.flow,
                           target.compute_delay, "rpc_reply",
                           self._settle, (call, value, None))
        else:
            text = str(exc)
            self._transmit(call.dst, call.src, call.spec.error,
                           HEADER_BYTES + size_of(text), call.spec.phase,
                           call.flow, None,
                           "rpc_error", self._settle, (call, None, exc),
                           detail={"error": text})
