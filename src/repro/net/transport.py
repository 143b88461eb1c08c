"""Simulated message transport: nodes, links, and RPC.

Models the ad-hoc network substrate of the paper: every node "has an IP
address by which it may be contacted" (Sect. III-A) — here a string node
id — and exchanges messages whose cost is ``latency + bytes/bandwidth``.
All traffic is charged to :class:`~repro.net.stats.NetworkStats`, giving
the exact transmission totals the optimization study compares.

The RPC layer dispatches a message of kind ``m`` to the destination
node's ``rpc_m`` method. A handler may return a value directly or be a
generator that performs further RPCs (that is how sub-query shipping
chains through storage nodes). Failed nodes silently drop traffic; callers
observe an :class:`RpcTimeout`, which is precisely the failure-detection
mechanism Sect. III-D prescribes ("no acknowledgement ... after a timeout
period").
"""

from __future__ import annotations

import random
from types import GeneratorType
from dataclasses import dataclass
from typing import Any, Dict, Optional, Set

from ..cache.epoch import DataEpochLedger
from ..metrics.counters import CacheCounters, FailoverCounters
from ..trace.tracer import phase_for_method
from .contention import ContentionModel
from .faults import FaultInjector, FaultPlan
from .health import HealthLedger
from .sim import Event, Simulator, Timeout
from .sizes import HEADER_BYTES, size_of
from .stats import NetworkStats

_RPC_ATTRS: Dict[str, str] = {}


def _rpc_attr(method: str) -> str:
    """Memoized ``rpc_<method>`` attribute name (no per-delivery f-string)."""
    name = _RPC_ATTRS.get(method)
    if name is None:
        name = _RPC_ATTRS[method] = "rpc_" + method
    return name


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

    # Wiring ----------------------------------------------------------------

    def attach(self, network: "Network") -> None:
        self.network = network

    @property
    def sim(self) -> Simulator:
        assert self.network is not None, "node not registered with a network"
        return self.network.sim

    # Convenience for handler code -------------------------------------------

    def call(self, dst: str, method: str, payload: Any = None,
             timeout: Optional[float] = None,
             flow: Optional[str] = None,
             retry: Optional["RetryPolicy"] = None,
             deadline: Optional[float] = None) -> Event:
        assert self.network is not None
        return self.network.call(self.node_id, dst, method, payload, timeout,
                                 flow=flow, retry=retry, deadline=deadline)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "up" if self.alive else "down"
        return f"<{type(self).__name__} {self.node_id} ({status})>"


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
        #: Bumped on every membership change (join/leave/crash/recovery);
        #: cheap staleness check for caches of lookup results.
        self.membership_epoch = 0
        #: Per-ring-key data versions, advanced by every live publication
        #: (publish/unpublish deltas and attach-time bulk publish); the
        #: staleness oracle for cached lookup rows and cached results.
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
        #: to: the only places that can hold the query's correlation
        #: state. The executor opens the entry with the query and pops it
        #: on release; other flows are not tracked.
        self.flow_peers: Dict[str, Set[str]] = {}

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

    @staticmethod
    def _sniff_flow(payload: Any) -> Optional[str]:
        """Derive a flow id from a payload's correlation id, if any.

        Correlation ids are minted as ``<query-id>#<seq>``, so the prefix
        identifies the owning query — the flow every message of that
        query contends as.
        """
        if isinstance(payload, dict):
            corr = payload.get("corr")
            if isinstance(corr, str):
                return corr.rsplit("#", 1)[0]
        return None

    # ----------------------------------------------------------- membership

    def register(self, node: Node) -> Node:
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        node.attach(self)
        self.nodes[node.node_id] = node
        self.membership_epoch += 1
        return node

    def deregister(self, node_id: str) -> None:
        if self.nodes.pop(node_id, None) is not None:
            self.membership_epoch += 1

    def node(self, node_id: str) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise NodeUnknown(node_id) from None

    def fail_node(self, node_id: str) -> None:
        """Crash a node: it stops answering but keeps its state (III-D)."""
        self.node(node_id).alive = False
        self.membership_epoch += 1

    def recover_node(self, node_id: str) -> None:
        self.node(node_id).alive = True
        self.membership_epoch += 1

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
        query this message belongs to for the contention model (sniffed
        from the payload's correlation id when omitted); the reply
        inherits the request's flow.

        *retry* re-issues the call on :class:`RpcTimeout` per the
        :class:`RetryPolicy`. *deadline* is an absolute simulation time
        that bounds the whole call including retries: each attempt's
        timeout is clamped to the remaining budget, and no retry is
        launched past it. With both omitted (the default) the call takes
        the classic single-attempt path, byte-identical to before.
        """
        if retry is None and deadline is None:
            return self._call_once(src, dst, method, payload, timeout, flow)
        return self._call_retrying(src, dst, method, payload, timeout, flow,
                                   retry, deadline)

    def _call_retrying(
        self,
        src: str,
        dst: str,
        method: str,
        payload: Any,
        timeout: Optional[float],
        flow: Optional[str],
        retry: Optional[RetryPolicy],
        deadline: Optional[float],
    ) -> Event:
        """Retry loop around :meth:`_call_once` (see :meth:`call`)."""
        outer = self.sim.event()
        base_timeout = timeout if timeout is not None else self.default_timeout
        attempts = retry.attempts if retry is not None else 1
        key = f"{src}>{dst}.{method}"
        state = {"attempt": 0}

        def launch() -> None:
            state["attempt"] += 1
            state["clamped"] = False
            per = base_timeout
            if retry is not None and retry.per_attempt_timeout is not None:
                per = min(per, retry.per_attempt_timeout)
            if deadline is not None:
                remaining = deadline - self.sim.now
                if remaining <= 0:
                    self.failover.deadline_exhausted += 1
                    outer.fail(RpcTimeout(
                        f"{src} -> {dst}.{method}: query deadline exhausted"))
                    return
                if remaining < per:
                    per = remaining
                    state["clamped"] = True
            inner = self._call_once(src, dst, method, payload, per, flow)
            inner.callbacks.append(settle)

        def settle(event: Event) -> None:
            failure = event.failure
            if failure is None:
                if state["attempt"] > 1:
                    self.failover.retries_recovered += 1
                outer.succeed(event.value)
                return
            # A timeout on a deadline-clamped attempt is the deadline's
            # doing, not the peer's — attribute it (and never retry past
            # it).
            deadline_hit = isinstance(failure, RpcTimeout) and state["clamped"]
            exhausted = (
                retry is None
                or not isinstance(failure, RpcTimeout)
                or state["attempt"] >= attempts
            )
            if not exhausted and not deadline_hit:
                delay = retry.backoff_before(state["attempt"] + 1, key=key)
                if deadline is not None and self.sim.now + delay >= deadline:
                    deadline_hit = True
            if exhausted or deadline_hit:
                if deadline_hit:
                    self.failover.deadline_exhausted += 1
                outer.fail(failure)
                return
            self.failover.retries += 1
            tracer = self.sim.tracer
            if tracer.enabled:
                tracer.record(
                    "rpc_retry", src=src, dst=dst, name=method,
                    phase=phase_for_method(method),
                    detail={"attempt": state["attempt"] + 1, "backoff": delay},
                )
            self.sim.timeout(delay).callbacks.append(lambda _e: launch())

        launch()
        return outer

    def _call_once(
        self,
        src: str,
        dst: str,
        method: str,
        payload: Any = None,
        timeout: Optional[float] = None,
        flow: Optional[str] = None,
    ) -> Event:
        """One attempt of :meth:`call`: the classic fail-fast RPC."""
        health = self.health
        if health is not None and not health.allow(dst):
            # Open circuit: fail this attempt immediately instead of
            # burning a real timeout on a peer recent history condemned.
            self.failover.breaker_short_circuits += 1
            result = self.sim.event()
            self.sim._schedule_now(
                result.fail,
                RpcTimeout(f"{src} -> {dst}.{method}: circuit open"))
            return result
        result = self.sim.event()
        deadline = timeout if timeout is not None else self.default_timeout
        if flow is None:
            flow = self._sniff_flow(payload)
        peers = self.flow_peers.get(flow)
        if peers is not None:
            peers.add(dst)
        state: dict = {"done": False, "flow": flow}
        if health is not None:
            started = self.sim.now

            def observe(event: Event) -> None:
                if event.failure is None:
                    health.observe_success(dst, self.sim.now - started)
                elif isinstance(event.failure, RpcTimeout):
                    health.observe_failure(dst)

            result.callbacks.append(observe)

        def expire(_event: Event) -> None:
            if not state["done"]:
                state["done"] = True
                tracer = self.sim.tracer
                if tracer.enabled:
                    tracer.record("rpc_timeout", src=src, dst=dst, name=method,
                                  phase=phase_for_method(method),
                                  detail={"deadline": deadline})
                result.fail(RpcTimeout(f"{src} -> {dst}.{method} timed out"))

        timer = self.sim.timeout(deadline)
        timer.callbacks.append(expire)
        # The winner of the reply/deadline race cancels the loser, so no
        # dead timer lingers in the heap after the call settles.
        state["timer"] = timer

        request_bytes = HEADER_BYTES + size_of(method) + size_of(payload)
        target = self.nodes.get(dst)
        if target is None:
            # Unknown address: fail fast (a real stack would ICMP-reject).
            self.sim._schedule_now(self._fail_fast, result, state, NodeUnknown(dst))
            return result

        delay = self.link.delay(request_bytes)
        faults = self.faults
        fate = None
        if faults is not None:
            now = self.sim.now
            scale = faults.brownout_factor(src, now)
            if scale != 1.0:
                # Brownout: the sender's NIC serves bytes `scale` slower.
                delay += (request_bytes / self.link.bandwidth) * (scale - 1.0)
            fate = faults.message_fate(src, dst, now)
            delay += fate.extra_delay
        if self.contention is not None:
            delay += self.contention.transfer_wait(
                src, dst, flow, self.sim.now,
                request_bytes / self.link.bandwidth,
            )
        self.stats.record(self.sim.now, src, dst, method, request_bytes)
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.message("rpc_request", src, dst, method, request_bytes, delay)
        if fate is not None:
            if fate.drop:
                # Lost in flight (bytes already charged to the sender);
                # the caller's timer will fire.
                return result
            if fate.duplicate:
                dup = self.sim.timeout(delay + fate.dup_delay)
                dup.callbacks.append(
                    lambda _e: self._deliver(src, dst, method, payload,
                                             result, state)
                )
        arrival = self.sim.timeout(delay)
        arrival.callbacks.append(
            lambda _e: self._deliver(src, dst, method, payload, result, state)
        )
        return result

    def send(self, src: str, dst: str, method: str, payload: Any = None,
             flow: Optional[str] = None) -> None:
        """One-way (unacknowledged) message — used for sub-query shipping
        along storage-node chains, where the paper's optimized strategies
        deliberately avoid response traffic. Dropped silently when the
        destination is unknown or dead, like a datagram."""
        nbytes = HEADER_BYTES + size_of(method) + size_of(payload)
        if dst not in self.nodes:
            return
        if flow is None:
            flow = self._sniff_flow(payload)
        peers = self.flow_peers.get(flow)
        if peers is not None:
            peers.add(dst)
        delay = self.link.delay(nbytes)
        faults = self.faults
        fate = None
        if faults is not None:
            now = self.sim.now
            scale = faults.brownout_factor(src, now)
            if scale != 1.0:
                delay += (nbytes / self.link.bandwidth) * (scale - 1.0)
            fate = faults.message_fate(src, dst, now)
            delay += fate.extra_delay
        if self.contention is not None:
            delay += self.contention.transfer_wait(
                src, dst, flow, self.sim.now, nbytes / self.link.bandwidth
            )
        self.stats.record(self.sim.now, src, dst, method, nbytes)
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.message("oneway", src, dst, method, nbytes, delay)
        if fate is not None:
            if fate.drop:
                return  # datagram lost in flight
            if fate.duplicate:
                dup = self.sim.timeout(delay + fate.dup_delay)
                dup.callbacks.append(
                    lambda _e: self._deliver_oneway(src, dst, method, payload))
        arrival = self.sim.timeout(delay)
        arrival.callbacks.append(lambda _e: self._deliver_oneway(src, dst, method, payload))

    def _deliver_oneway(self, src: str, dst: str, method: str, payload: Any) -> None:
        target = self.nodes.get(dst)
        if target is None or not target.alive:
            return
        handler = getattr(target, _rpc_attr(method), None)
        if handler is None:
            return
        try:
            outcome = handler(payload, src)
        except Exception:  # noqa: BLE001 - one-way faults vanish, like UDP
            return
        if type(outcome) is GeneratorType:
            self.sim.process(outcome)

    @staticmethod
    def _settle(state: dict) -> bool:
        """Mark the call settled and cancel its deadline timer. Returns
        False when the timeout already won the race."""
        if state["done"]:
            return False
        state["done"] = True
        timer: Optional[Timeout] = state.get("timer")
        if timer is not None:
            timer.cancel()
        return True

    @classmethod
    def _fail_fast(cls, result: Event, state: dict, exc: Exception) -> None:
        if cls._settle(state):
            result.fail(exc)

    def _deliver(
        self, src: str, dst: str, method: str, payload: Any, result: Event, state: dict
    ) -> None:
        target = self.nodes.get(dst)
        if target is None or not target.alive:
            return  # dropped; the caller's timer will fire
        handler = getattr(target, _rpc_attr(method), None)
        if handler is None:
            self._respond_failure(src, dst, method, result, state,
                                  RemoteError(f"{dst} has no handler rpc_{method}"))
            return
        try:
            outcome = handler(payload, src)
        except Exception as exc:  # noqa: BLE001 - remote fault becomes RemoteError
            self._respond_failure(src, dst, method, result, state,
                                  RemoteError(f"{dst}.{method}: {exc}"))
            return
        if type(outcome) is GeneratorType:
            proc = self.sim.process(outcome)
            proc.callbacks.append(
                lambda event: self._respond_event(src, dst, method, event, result, state, target)
            )
        else:
            self._respond_value(src, dst, method, outcome, result, state, target)

    def _respond_event(
        self, src: str, dst: str, method: str, event: Event, result: Event, state: dict, target: Node
    ) -> None:
        if event.failure is not None:
            self._respond_failure(src, dst, method, result, state,
                                  RemoteError(f"{dst}.{method}: {event.failure}"))
        else:
            self._respond_value(src, dst, method, event.value, result, state, target)

    def _respond_value(
        self, src: str, dst: str, method: str, value: Any, result: Event, state: dict, target: Node
    ) -> None:
        if not target.alive:
            return  # crashed before replying
        response_bytes = HEADER_BYTES + size_of(value)
        self.stats.record(self.sim.now, dst, src, f"{method}.reply", response_bytes)
        total_delay = self.link.delay(response_bytes) + target.compute_delay
        faults = self.faults
        fate = None
        if faults is not None:
            now = self.sim.now
            scale = faults.brownout_factor(dst, now)
            if scale != 1.0:
                # Browned-out responder: its compute and egress both slow.
                total_delay += (
                    response_bytes / self.link.bandwidth + target.compute_delay
                ) * (scale - 1.0)
            fate = faults.message_fate(dst, src, now)
            total_delay += fate.extra_delay
        if self.contention is not None:
            flow = state.get("flow")
            now = self.sim.now
            compute_wait = self.contention.compute_wait(
                dst, flow, now, target.compute_delay
            )
            total_delay += compute_wait + self.contention.transfer_wait(
                dst, src, flow, now + compute_wait + target.compute_delay,
                response_bytes / self.link.bandwidth,
            )
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.message("rpc_reply", dst, src, f"{method}.reply",
                           response_bytes, total_delay)

        def finish(_event: Event) -> None:
            if self._settle(state):
                result.succeed(value)

        if fate is not None:
            if fate.drop:
                return  # reply lost in flight; the caller's timer fires
            if fate.duplicate:
                dup = self.sim.timeout(total_delay + fate.dup_delay)
                dup.callbacks.append(finish)
        arrival = self.sim.timeout(total_delay)
        arrival.callbacks.append(finish)

    def _respond_failure(
        self, src: str, dst: str, method: str, result: Event, state: dict, exc: Exception
    ) -> None:
        response_bytes = HEADER_BYTES + size_of(str(exc))
        delay = self.link.delay(response_bytes)
        faults = self.faults
        fate = None
        if faults is not None:
            now = self.sim.now
            scale = faults.brownout_factor(dst, now)
            if scale != 1.0:
                delay += (response_bytes / self.link.bandwidth) * (scale - 1.0)
            fate = faults.message_fate(dst, src, now)
            delay += fate.extra_delay
        if self.contention is not None:
            delay += self.contention.transfer_wait(
                dst, src, state.get("flow"), self.sim.now,
                response_bytes / self.link.bandwidth,
            )
        self.stats.record(self.sim.now, dst, src, f"{method}.error", response_bytes)
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.message("rpc_error", dst, src, f"{method}.error",
                           response_bytes, delay, detail={"error": str(exc)})

        def finish(_event: Event) -> None:
            if self._settle(state):
                result.fail(exc)

        if fate is not None:
            if fate.drop:
                return  # error reply lost; the caller's timer fires
            if fate.duplicate:
                dup = self.sim.timeout(delay + fate.dup_delay)
                dup.callbacks.append(finish)
        arrival = self.sim.timeout(delay)
        arrival.callbacks.append(finish)
