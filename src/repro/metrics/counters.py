"""Aggregation helpers for experiment measurements."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from statistics import mean, median
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = ["Summary", "summarize", "DurabilityCounters", "FailoverCounters",
           "CacheCounters"]


@dataclass(frozen=True, slots=True)
class Summary:
    """Five-number-ish summary of a measurement series."""

    count: int
    mean: float
    median: float
    minimum: float
    maximum: float
    p95: float
    #: Order-statistic percentiles (nearest-rank). ``p50`` is the lower
    #: middle order statistic, which differs from ``median`` (mean of the
    #: two middle values) on even-length series.
    p50: float = 0.0
    p99: float = 0.0

    def __str__(self) -> str:  # pragma: no cover - presentation
        return (
            f"n={self.count} mean={self.mean:.3f} median={self.median:.3f} "
            f"min={self.minimum:.3f} max={self.maximum:.3f} "
            f"p50={self.p50:.3f} p95={self.p95:.3f} p99={self.p99:.3f}"
        )


def _nearest_rank(data: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted series."""
    return data[min(len(data) - 1, math.ceil(q * len(data)) - 1)]


@functools.cache
def _counter_names(cls: type) -> Tuple[str, ...]:
    """The ledger dataclass's counters: every field is one."""
    return tuple(f.name for f in fields(cls))


class _Ledger:
    """Checkpoint/delta over a dataclass ledger's integer counters."""

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in _counter_names(type(self))}

    def checkpoint(self):
        """A frozen copy, for before/after deltas."""
        return type(self)(**self.as_dict())

    def delta(self, since) -> Dict[str, int]:
        return {name: value - getattr(since, name)
                for name, value in self.as_dict().items()}


@dataclass
class DurabilityCounters(_Ledger):
    """Ledger of the durability subsystem's work (one per system).

    Shared by every WAL, snapshot store, and durable wrapper of a
    :class:`~repro.overlay.system.HybridSystem`, so experiments can
    measure recovery cost (records replayed, torn tails repaired) and
    steady-state overhead (records appended, fsyncs, snapshot bytes)
    with the same checkpoint/delta discipline as the network stats.
    """

    wal_records_appended: int = 0
    wal_records_replayed: int = 0
    wal_torn_records_truncated: int = 0
    wal_fsyncs: int = 0
    snapshots_written: int = 0
    snapshots_loaded: int = 0
    snapshot_bytes_written: int = 0
    #: Completed node recoveries (restart_index_node / restart_storage_node
    #: / recover_system, one per node brought back).
    recoveries: int = 0
    #: Location-table cells dropped at restart because their storage node
    #: was gone (stale-entry detection via membership epoch, Sect. III-D).
    stale_entries_dropped: int = 0
    #: Replica rows merged back into a restarted index node's table.
    replica_rows_reconciled: int = 0


@dataclass
class FailoverCounters(_Ledger):
    """Ledger of the fault-tolerance layer's work (one per network).

    Shared by the transport's retry loop and the executor's failover
    paths, with the same checkpoint/delta discipline as
    :class:`DurabilityCounters`, so experiments can attribute exactly how
    much repair work a churn episode caused.
    """

    #: RPC attempts re-issued after a timeout (transport retry budget).
    retries: int = 0
    #: Retried calls that ultimately succeeded within their budget.
    retries_recovered: int = 0
    #: Calls abandoned because the query deadline left no room to retry.
    deadline_exhausted: int = 0
    #: Index lookups re-resolved around a dead owner via its successors.
    lookup_failovers: int = 0
    #: ``execute_primitive`` steps re-dispatched to a replica holder.
    dispatch_failovers: int = 0
    #: Ring re-entries after the initiator's entry index node died.
    entry_failovers: int = 0
    #: Promoted replica rows re-replicated to the new owner's successors.
    promotions_rereplicated: int = 0
    #: Stale third-party replica rows swept on graceful departure.
    replica_rows_swept: int = 0
    #: Circuit breakers tripped closed -> open (consecutive timeouts or
    #: an EWMA latency above the gray-failure threshold).
    breaker_trips: int = 0
    #: Open breakers that let a single half-open probe through.
    breaker_half_opens: int = 0
    #: Call attempts rejected instantly by an open breaker (each one a
    #: full RPC timeout the query did not have to wait out).
    breaker_short_circuits: int = 0
    #: RPC outcomes fed to the health ledger (successes + timeouts).
    health_observations: int = 0
    #: Duplicate ``execute_primitive``/``cache_admit`` deliveries
    #: absorbed by receiver-side idempotent dedup instead of
    #: re-executing.
    duplicates_dropped: int = 0
    #: Sub-patterns whose contribution was dropped (owner and replicas
    #: all unreachable) under ``partial_results``.
    partial_patterns_dropped: int = 0
    #: Queries that returned a flagged-incomplete answer instead of
    #: failing outright.
    partial_results: int = 0


@dataclass
class CacheCounters(_Ledger):
    """Ledger of the cross-query result cache's work (one per network).

    All per-node caches increment the shared instance, so experiments
    see the system-wide hit ratio with the same checkpoint/delta
    discipline as :class:`FailoverCounters`.
    """

    #: Cache consultations (primitive executions + BGP probes).
    probes: int = 0
    #: Probes answered from a current cached entry.
    hits: int = 0
    #: Probes that found no entry for the key.
    misses: int = 0
    #: Probes that found an entry whose epoch stamps had gone stale
    #: (counted *in addition to* the miss they become).
    stale_drops: int = 0
    #: Entries admitted after clearing the frequency gate.
    admissions: int = 0
    #: Fills skipped because the key had not yet cleared the gate.
    admission_deferred: int = 0
    #: Entries evicted to stay under the byte budget.
    evictions: int = 0
    #: Bytes currently resident across all caches.
    bytes_cached: int = 0
    #: Bytes freed by evictions (stale drops included).
    bytes_evicted: int = 0

    def hit_ratio(self) -> float:
        """Hits over probes (0.0 before any probe)."""
        return self.hits / self.probes if self.probes else 0.0


def summarize(values: Iterable[float]) -> Summary:
    data: List[float] = sorted(float(v) for v in values)
    if not data:
        raise ValueError("cannot summarize an empty series")
    return Summary(
        count=len(data),
        mean=mean(data),
        median=median(data),
        minimum=data[0],
        maximum=data[-1],
        p95=_nearest_rank(data, 0.95),
        p50=_nearest_rank(data, 0.50),
        p99=_nearest_rank(data, 0.99),
    )
