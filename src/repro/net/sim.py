"""Discrete-event simulation kernel.

A small, deterministic, generator-based process simulator in the style of
SimPy, purpose-built for the paper's evaluation: processes are Python
generators that ``yield`` events (timeouts, other processes, composites);
the kernel advances virtual time event by event.

Determinism: ties in the event heap break on a monotonically increasing
sequence number, never on object identity, so repeated runs with the same
seed produce byte-identical traces. That property underpins every number
in EXPERIMENTS.md.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Generator, Iterable, List, Optional

from ..trace.tracer import NULL_TRACER

__all__ = ["Simulator", "Event", "Timeout", "Process", "AllOf", "AnyOf", "SimError"]


class SimError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


#: Action slot of a deferred call not yet due (see _schedule_after).
_DUE = object()


class Event:
    """A one-shot occurrence with a value and callbacks.

    Events are created pending, then either *succeed* or *fail* exactly
    once. Processes waiting on an event are resumed with its value (or
    have the failure raised inside them).
    """

    __slots__ = ("sim", "callbacks", "_value", "_failure", "_done", "_cancelled")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._failure: Optional[BaseException] = None
        self._done = False
        self._cancelled = False

    @property
    def triggered(self) -> bool:
        return self._done

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def value(self) -> Any:
        if not self._done:
            raise SimError("event has not triggered yet")
        return self._value

    @property
    def failure(self) -> Optional[BaseException]:
        return self._failure

    def succeed(self, value: Any = None) -> "Event":
        if self._done:
            raise SimError("event already triggered")
        self._done = True
        self._value = value
        self.sim._ready(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self._done:
            raise SimError("event already triggered")
        self._done = True
        self._failure = exception
        self.sim._ready(self)
        return self

    def cancel(self) -> bool:
        """Withdraw a pending event: it will never trigger, its callbacks
        are dropped, and waiters are never resumed. Returns False when the
        event already triggered (cancellation lost the race)."""
        if self._done:
            return False
        self._done = True
        self._cancelled = True
        self.callbacks.clear()
        return True


class Timeout(Event):
    """An event that succeeds after a fixed delay.

    Cancelling a pending Timeout tombstones its heap entry, so the event
    loop discards it without advancing the clock — stale timers (e.g. an
    RPC deadline whose reply already won) neither churn the heap nor drag
    ``sim.now`` forward after the useful work completed.
    """

    __slots__ = ("delay", "_entry")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimError(f"negative timeout delay {delay}")
        super().__init__(sim)
        self.delay = delay
        self._entry: Optional[list] = sim._schedule_at(sim.now + delay, self._fire, value)

    def _fire(self, value: Any) -> None:
        self._entry = None
        self.succeed(value)

    def cancel(self) -> bool:
        if not super().cancel():
            return False
        entry = self._entry
        if entry is not None:
            entry[2] = None  # tombstone: run() drops it without firing
            entry[3] = ()
            self._entry = None
        return True


class Process(Event):
    """A running generator; completes (as an Event) when it returns.

    The generator yields Events; it is resumed with each event's value.
    A failed awaited event is thrown into the generator so processes can
    ``try/except`` simulated failures (e.g. RPC timeouts).
    """

    __slots__ = ("_gen", "_pid")

    def __init__(self, sim: "Simulator", gen: Generator[Event, Any, Any]) -> None:
        super().__init__(sim)
        self._gen = gen
        self._pid = next(sim._proc_ids)
        tracer = sim.tracer
        if tracer.enabled:
            tracer.record("process_spawn", name=self.name, detail={"pid": self._pid})
        sim._schedule_now(self._resume, None, None)

    @property
    def name(self) -> str:
        """The generator function's name (stable across runs)."""
        code = getattr(self._gen, "gi_code", None)
        return code.co_name if code is not None else "process"

    def _trace_finish(self, outcome: str) -> None:
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.record("process_finish", name=self.name,
                          detail={"pid": self._pid, "outcome": outcome})

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self._trace_finish("ok")
            self.succeed(stop.value)
            return
        except Exception as failure:  # noqa: BLE001 - propagate into waiters
            self._trace_finish("failed")
            self.fail(failure)
            return
        if not isinstance(target, Event):
            self._gen.close()
            self._trace_finish("failed")
            self.fail(SimError(f"process yielded non-Event {target!r}"))
            return
        if target.triggered:
            self.sim._schedule_now(self._resume, target.value, target.failure)
        else:
            target.callbacks.append(self._on_event)

    def _on_event(self, event: Event) -> None:
        self._resume(event.value, event.failure)


class AllOf(Event):
    """Succeeds when all child events have succeeded.

    Value: list of child values in the order given. This is the kernel's
    *parallel fan-out* primitive: completion time is the max of the
    children — exactly the paper's "parallelism is exploited" timing for
    the BASIC strategy. Fails fast if any child fails.
    """

    __slots__ = ("_children", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._children = list(events)
        self._pending = 0
        for event in self._children:
            if event.triggered:
                if event.failure is not None:
                    if not self.triggered:
                        self.fail(event.failure)
                    return
            else:
                self._pending += 1
                event.callbacks.append(self._on_child)
        if self._pending == 0 and not self.triggered:
            self.succeed([e.value for e in self._children])

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if event.failure is not None:
            self.fail(event.failure)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([e.value for e in self._children])


class AnyOf(Event):
    """Succeeds with (index, value) of the first child to succeed."""

    __slots__ = ("_children",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._children = list(events)
        if not self._children:
            raise SimError("AnyOf requires at least one event")
        for i, event in enumerate(self._children):
            if event.triggered and not self.triggered:
                if event.failure is not None:
                    self.fail(event.failure)
                else:
                    self.succeed((i, event.value))
                return
        for i, event in enumerate(self._children):
            event.callbacks.append(lambda e, i=i: self._on_child(i, e))

    def _on_child(self, index: int, event: Event) -> None:
        if self.triggered:
            return
        if event.failure is not None:
            self.fail(event.failure)
        else:
            self.succeed((index, event.value))


class Simulator:
    """The event loop: a heap of [time, seq, action, args] entries.

    Entries are mutable lists so a cancelled Timeout can tombstone its
    slot in place (``entry[2] = None``); ``run()`` discards tombstones
    without advancing the clock. ``tracer`` is the observability hook —
    :data:`~repro.trace.tracer.NULL_TRACER` by default, so an untraced
    simulation pays one attribute check per instrumented site.

    Fast path: entries scheduled at the *current* time (event dispatch,
    process resumption, zero-delay timers) bypass the heap and go on a
    FIFO deque. Such entries carry ``time == now`` with a monotonically
    increasing sequence number, so the deque is sorted by construction;
    ``run()`` merges deque and heap by comparing heads on (time, seq),
    which reproduces the exact total order the single heap produced —
    same events, same clock, same traces — without paying heap churn for
    the majority of entries.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[list] = []
        self._now_queue: "deque[list]" = deque()
        self._seq = itertools.count()
        self._proc_ids = itertools.count()
        self.tracer = NULL_TRACER

    # ------------------------------------------------------------ factories

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: Generator[Event, Any, Any]) -> Process:
        if not hasattr(gen, "send"):
            raise SimError("process() requires a generator (did you forget to call it?)")
        return Process(self, gen)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # ------------------------------------------------------------ internals

    def _schedule_at(self, time: float, fn: Callable, *args: Any) -> list:
        entry = [time, next(self._seq), fn, args]
        if time <= self.now:
            # Due immediately (zero-delay timer): the deque stays sorted
            # because seq is monotonic and the clock never runs backward.
            self._now_queue.append(entry)
        else:
            heapq.heappush(self._heap, entry)
        return entry

    def _schedule_now(self, fn: Callable, *args: Any) -> list:
        entry = [self.now, next(self._seq), fn, args]
        self._now_queue.append(entry)
        return entry

    def _schedule_after(self, delay: float, fn: Callable, args: tuple = ()) -> list:
        """Run ``fn(*args)`` *delay* from now, without an Event. When due,
        the entry takes a second sequence number and queues behind what is
        already due: the two a :class:`Timeout` and its ``_dispatch`` take,
        so one may replace the other. ``entry[2] = None`` withdraws it."""
        return self._schedule_at(self.now + delay, _DUE, fn, args)

    def _ready(self, event: Event) -> None:
        # Run callbacks via the queue so triggering is never re-entrant.
        self._schedule_now(self._dispatch, event)

    @staticmethod
    def _dispatch(event: Event) -> None:
        callbacks, event.callbacks = event.callbacks, []
        for callback in callbacks:
            callback(event)

    # ----------------------------------------------------------------- run

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the heap drains or *until* is reached.

        With *until* the clock ends at *until* whether or not an event
        remains beyond it. Returns the final simulation time.
        """
        heap = self._heap
        queue = self._now_queue
        heappop = heapq.heappop
        while True:
            entry = None
            from_heap = False
            if queue:
                head = queue[0]
                if head[2] is None:
                    # Tombstone left by a cancelled timer: drop it without
                    # touching the clock.
                    queue.popleft()
                    continue
                entry = head
            if heap:
                head = heap[0]
                if head[2] is None:
                    heappop(heap)
                    continue
                if entry is None or head[0] < entry[0] or (
                    head[0] == entry[0] and head[1] < entry[1]
                ):
                    entry = head
                    from_heap = True
            if entry is None or (until is not None and entry[0] > until):
                # Drained or paused: either way the clock reads *until*
                # (never earlier than it already reads).
                if until is not None and until > self.now:
                    self.now = until
                return self.now
            time = entry[0]
            if from_heap:
                heappop(heap)
            else:
                queue.popleft()
            self.now = time
            if entry[2] is _DUE:  # a deferred call's first hop
                entry[1] = next(self._seq)
                entry[2], entry[3] = entry[3]
                queue.append(entry)
            else:
                entry[2](*entry[3])

    def run_process(self, gen: Generator[Event, Any, Any]) -> Any:
        """Convenience: spawn *gen*, run to completion, return its value.

        Raises the process's failure, if any — so simulated exceptions
        surface naturally in tests.
        """
        proc = self.process(gen)
        self.run()
        if not proc.triggered:
            raise SimError("deadlock: process never completed")
        if proc.failure is not None:
            raise proc.failure
        return proc.value
