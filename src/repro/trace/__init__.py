"""Tracing/observability subsystem (S14): structured per-query traces.

A :class:`Tracer` hooks into the simulation kernel, the transport, and
the query operators to record where a strategy spends its bytes and time
across the paper's workflow phases — the observability layer every perf
comparison measures against. Disabled (the :data:`NULL_TRACER` default)
it costs one attribute check per instrumentation site.
"""

from .tracer import (
    MESSAGE_KINDS,
    NULL_TRACER,
    NullTracer,
    PHASE_FINALIZE,
    PHASE_JOIN,
    PHASE_LOOKUP,
    PHASE_SHIP,
    PHASES,
    PhaseStats,
    Span,
    TraceEvent,
    Tracer,
)
from .export import to_jsonl, write_jsonl
from .render import render_phases, render_sequence, render_spans

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceEvent",
    "Span",
    "PhaseStats",
    "PHASES",
    "PHASE_LOOKUP",
    "PHASE_SHIP",
    "PHASE_JOIN",
    "PHASE_FINALIZE",
    "MESSAGE_KINDS",
    "to_jsonl",
    "write_jsonl",
    "render_sequence",
    "render_phases",
    "render_spans",
]
