"""Per-query distributed tracing (Fig. 2/3 observability).

The paper's workflow — index lookup, sub-query shipping, site-to-site
intermediate results, post-processing — collapses into four scalars in
:class:`~repro.query.executor.ExecutionReport`. This module records the
*structure* underneath those scalars: every message that crosses a link
(request / reply / error / timeout / one-way), every simulation process
spawned and finished, and named operator spans with start/end sim-time.

Design constraints, both load-bearing for the experiments:

* **Zero overhead when off.** The default tracer on every
  :class:`~repro.net.sim.Simulator` is :data:`NULL_TRACER`, whose
  ``enabled`` flag is ``False``; instrumented hot paths guard with a
  single attribute check and never build event objects. Strategy
  comparisons with tracing disabled are byte-for-byte unchanged.
* **Determinism.** Timestamps are simulated time only — never wall
  clock — so two runs with the same seed produce identical traces
  (and identical rendered sequence diagrams).

Every message event is attributed to one of the four workflow **phases**
(:data:`PHASE_LOOKUP`, :data:`PHASE_SHIP`, :data:`PHASE_JOIN`,
:data:`PHASE_FINALIZE`) by its RPC method's declared phase
(:data:`~repro.net.protocol.PROTOCOL`), so per-phase byte totals
partition the query's traffic exactly: they sum to
``ExecutionReport.bytes_total``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "TraceEvent",
    "Span",
    "PhaseStats",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "PHASE_LOOKUP",
    "PHASE_SHIP",
    "PHASE_JOIN",
    "PHASE_FINALIZE",
    "PHASES",
    "MESSAGE_KINDS",
]

#: The four stages of the paper's distributed workflow (Fig. 2/3) that
#: traffic is attributed to.
PHASE_LOOKUP = "lookup"      #: consulting the two-level index (ring + tables)
PHASE_SHIP = "ship"          #: sub-query shipping + intermediate-result movement
PHASE_JOIN = "join"          #: combining solution sets at join sites
PHASE_FINALIZE = "finalize"  #: bringing the final result to the initiator

PHASES: Tuple[str, ...] = (PHASE_LOOKUP, PHASE_SHIP, PHASE_JOIN, PHASE_FINALIZE)

#: Event kinds that correspond to a message on a link (and therefore
#: carry bytes charged to :class:`~repro.net.stats.NetworkStats`).
MESSAGE_KINDS = frozenset({"rpc_request", "rpc_reply", "rpc_error", "oneway"})


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One structured trace record.

    ``kind`` is one of: ``rpc_request``, ``rpc_reply``, ``rpc_error``,
    ``oneway`` (messages); ``rpc_timeout`` (a caller's deadline fired);
    ``span_start`` / ``span_end`` (operator spans); ``process_spawn`` /
    ``process_finish`` (simulation kernel); ``mark`` (free-form).
    """

    seq: int
    time: float
    kind: str
    src: Optional[str] = None
    dst: Optional[str] = None
    name: Optional[str] = None
    bytes: int = 0
    phase: Optional[str] = None
    detail: Optional[Dict[str, Any]] = None


@dataclass(frozen=True, slots=True)
class PhaseStats:
    """Aggregate cost of one workflow phase."""

    messages: int = 0
    bytes: int = 0
    #: Summed transmission time (link delays) of the phase's messages.
    #: Phases overlap under parallel execution, so these do *not* sum to
    #: the wall-clock response time; they measure link occupancy.
    time: float = 0.0


class Span:
    """A named operator span: start/end in sim-time, optional detail."""

    __slots__ = ("_tracer", "span_id", "name", "phase", "start", "end")

    def __init__(self, tracer: "Tracer", span_id: int, name: str,
                 phase: Optional[str]) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.name = name
        self.phase = phase
        self.start = tracer.now()
        self.end: Optional[float] = None

    def close(self, **detail: Any) -> None:
        """Record the span's end (idempotent)."""
        if self.end is not None:
            return
        self.end = self._tracer.now()
        self._tracer.record(
            "span_end", name=self.name, phase=self.phase,
            detail={"span": self.span_id, "duration": self.end - self.start,
                    **detail},
        )

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class _NullSpan:
    """Do-nothing span returned by :class:`NullTracer`."""

    __slots__ = ()
    span_id = -1
    name = ""
    phase = None
    start = 0.0
    end = 0.0

    def close(self, **detail: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The no-op tracer: the zero-overhead default.

    Instrumentation sites guard with ``if tracer.enabled:`` so the off
    path costs one attribute load; the methods exist anyway so code that
    holds a tracer handle never needs a None check.
    """

    __slots__ = ()
    enabled = False

    def now(self) -> float:
        return 0.0

    def attach(self, sim: Any) -> None:
        pass

    def record(self, kind: str, **kwargs: Any) -> "NullTracer":
        return self

    def message(self, *args: Any, **kwargs: Any) -> None:
        pass

    def span(self, name: str, phase: Optional[str] = None, **detail: Any) -> _NullSpan:
        return _NULL_SPAN

    def phase_breakdown(self) -> Dict[str, PhaseStats]:
        return {}


#: Shared process-wide no-op tracer instance.
NULL_TRACER = NullTracer()


class Tracer:
    """Records structured events for one (or more) query executions.

    Attach to a simulator (``tracer.attach(sim)``) so events carry
    sim-time timestamps; the executor does this automatically when a
    tracer is passed to :class:`~repro.query.executor.DistributedExecutor`.
    """

    enabled = True

    def __init__(self, sim: Any = None) -> None:
        self._sim = sim
        self._seq = itertools.count()
        self._span_ids = itertools.count()
        self.events: List[TraceEvent] = []
        self.phase_bytes: Counter = Counter()
        self.phase_messages: Counter = Counter()
        self.phase_time: Counter = Counter()
        #: Bytes attributed to the site that *sent* them.
        self.site_bytes: Counter = Counter()

    # ------------------------------------------------------------- plumbing

    def attach(self, sim: Any) -> "Tracer":
        """Bind the simulator whose clock stamps subsequent events."""
        self._sim = sim
        return self

    def now(self) -> float:
        return self._sim.now if self._sim is not None else 0.0

    # ------------------------------------------------------------ recording

    def record(
        self,
        kind: str,
        src: Optional[str] = None,
        dst: Optional[str] = None,
        name: Optional[str] = None,
        nbytes: int = 0,
        phase: Optional[str] = None,
        detail: Optional[Dict[str, Any]] = None,
    ) -> TraceEvent:
        """Append a raw event (low-level; prefer message()/span())."""
        event = TraceEvent(
            seq=next(self._seq), time=self.now(), kind=kind, src=src,
            dst=dst, name=name, bytes=nbytes, phase=phase, detail=detail,
        )
        self.events.append(event)
        return event

    def message(
        self,
        kind: str,
        src: str,
        dst: str,
        method: str,
        nbytes: int,
        phase: str,
        delay: float = 0.0,
        detail: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record one message on a link, attributing its cost to *phase*,
        its method's declared phase.

        Called from the transport next to every
        :meth:`~repro.net.stats.NetworkStats.record`, so traced bytes and
        the stats ledger agree exactly.
        """
        self.record(kind, src=src, dst=dst, name=method, nbytes=nbytes,
                    phase=phase, detail=detail)
        self.phase_bytes[phase] += nbytes
        self.phase_messages[phase] += 1
        self.phase_time[phase] += delay
        self.site_bytes[src] += nbytes

    def span(self, name: str, phase: Optional[str] = None, **detail: Any) -> Span:
        """Open a named operator span; ``close()`` (or ``with``) ends it."""
        span = Span(self, next(self._span_ids), name, phase)
        self.record("span_start", name=name, phase=phase,
                    detail={"span": span.span_id, **detail})
        return span

    # ----------------------------------------------------------- summaries

    @property
    def bytes_total(self) -> int:
        return sum(self.phase_bytes.values())

    def checkpoint(self) -> Tuple[Counter, Counter, Counter]:
        """Snapshot of the phase counters; pass to :meth:`phase_breakdown`
        to scope a breakdown to one query on a reused tracer."""
        return (
            Counter(self.phase_messages),
            Counter(self.phase_bytes),
            Counter(self.phase_time),
        )

    def phase_breakdown(
        self, since: Optional[Tuple[Counter, Counter, Counter]] = None
    ) -> Dict[str, PhaseStats]:
        """Per-phase cost, in canonical phase order (all four keys).

        With *since* (a :meth:`checkpoint`), only activity after the
        snapshot is counted — the per-query window the executor uses, so
        the phases' byte totals partition that query's ``bytes_total``
        exactly.
        """
        msgs0, bytes0, time0 = since if since is not None else ({}, {}, {})
        return {
            phase: PhaseStats(
                messages=self.phase_messages.get(phase, 0) - msgs0.get(phase, 0),
                bytes=self.phase_bytes.get(phase, 0) - bytes0.get(phase, 0),
                time=self.phase_time.get(phase, 0.0) - time0.get(phase, 0.0),
            )
            for phase in PHASES
        }

    def message_events(self) -> List[TraceEvent]:
        return [e for e in self.events if e.kind in MESSAGE_KINDS]

    def spans(self) -> List[Tuple[TraceEvent, Optional[TraceEvent]]]:
        """(start, end) event pairs for every span, in start order."""
        ends: Dict[int, TraceEvent] = {}
        starts: List[TraceEvent] = []
        for event in self.events:
            if event.detail is None or "span" not in event.detail:
                continue
            if event.kind == "span_start":
                starts.append(event)
            elif event.kind == "span_end":
                ends[event.detail["span"]] = event
        return [(s, ends.get(s.detail["span"])) for s in starts]

    def clear(self) -> None:
        """Drop all recorded state (reuse one tracer across queries)."""
        self.events.clear()
        self.phase_bytes.clear()
        self.phase_messages.clear()
        self.phase_time.clear()
        self.site_bytes.clear()
