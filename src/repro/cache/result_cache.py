"""The per-node cross-query result store.

Admission is *workload-adaptive*: every probe bumps the key's observed
access frequency, and a result is only materialized into the cache once
its key has been asked for ``admit_threshold`` times — under a Zipf'd
query mix the handful of hot keys clear the gate almost immediately
while the long tail never pays the fill cost. Residency is bounded by a
per-node byte budget with LFU-tie-broken-LRU eviction (frequencies
survive eviction, so a re-heated key re-enters the cache quickly).

Correctness is delegated entirely to the freshness rule of
:mod:`repro.cache.epoch`: every entry records one stamp, taken *before*
its result was computed, and a probe serves it only while the ledger
says the stamp is current; otherwise the entry is dropped. Stale entries
can cost a re-execution, never a wrong answer.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..net.sizes import size_of
from .epoch import Stamp

__all__ = ["CacheEntry", "ResultCache"]

#: Default per-node residency budget (bytes of cached solution data).
DEFAULT_CACHE_BYTES = 262144

#: Default admission gate: probes a key must accumulate before its
#: result is materialized.
DEFAULT_ADMIT_THRESHOLD = 2


class CacheEntry:
    """One memoized sub-result plus everything needed to revalidate it.

    ``terms`` is the (count, bytes) of the distinct terms in ``value``,
    taken by the first hit that ships the entry as a batch
    (:func:`repro.net.wire.rebound_batch`); None until then.
    """

    __slots__ = ("value", "vars", "stamp", "nbytes", "last_used", "terms")

    def __init__(self, value: Any, vars: Any, stamp: Stamp,
                 nbytes: int, last_used: int) -> None:
        self.value = value
        self.vars = vars
        self.stamp = stamp
        self.nbytes = nbytes
        self.last_used = last_used
        self.terms = None


class ResultCache:
    """Byte-budgeted store of sub-results for one index/combine node.

    All instances share the network's :class:`CacheCounters`, so the
    system-wide hit ratio aggregates naturally.
    """

    __slots__ = ("network", "byte_cap", "admit_threshold",
                 "entries", "frequencies", "bytes_used", "_clock")

    def __init__(self, network, byte_cap: int = DEFAULT_CACHE_BYTES,
                 admit_threshold: int = DEFAULT_ADMIT_THRESHOLD) -> None:
        self.network = network
        self.byte_cap = byte_cap
        self.admit_threshold = admit_threshold
        self.entries: Dict[str, CacheEntry] = {}
        #: Probe counts per key; survives eviction (the LFU signal).
        self.frequencies: Dict[str, int] = {}
        self.bytes_used = 0
        self._clock = 0

    # ------------------------------------------------------------- probing

    def probe(self, key: str) -> Tuple[Optional[CacheEntry], bool]:
        """Look *key* up, bump its frequency, revalidate the stamps.

        Returns ``(entry, admit)``: *entry* is the current cached entry
        (None on a miss) and *admit* says whether a fresh result for the
        key has cleared the admission gate.
        """
        counters = self.network.cache
        counters.probes += 1
        freq = self.frequencies.get(key, 0) + 1
        self.frequencies[key] = freq
        entry = self.entries.get(key)
        if entry is not None:
            if self.network.data_epochs.current(entry.stamp):
                counters.hits += 1
                self._clock += 1
                entry.last_used = self._clock
                return entry, False
            # A row write or membership change outdated the stamp.
            self._drop(key, entry)
            counters.stale_drops += 1
        counters.misses += 1
        if freq >= self.admit_threshold:
            return None, True
        counters.admission_deferred += 1
        return None, False

    # ----------------------------------------------------------- admission

    def admit(self, key: str, value: Any, vars: Any,
              epochs: Dict[int, int], membership: int) -> bool:
        """Materialize a result computed under the stamp of *epochs* and
        *membership* (the two parts a ``cache_admit`` message carries).

        The stamp must have been taken *before* the result was computed:
        a delta that raced the computation then makes the entry dead on
        arrival instead of silently wrong.
        """
        nbytes = size_of(value)
        if nbytes > self.byte_cap:
            return False
        counters = self.network.cache
        old = self.entries.get(key)
        if old is not None:
            self._drop(key, old)
        while self.bytes_used + nbytes > self.byte_cap and self.entries:
            victim = min(
                self.entries,
                key=lambda k: (self.frequencies.get(k, 0),
                               self.entries[k].last_used),
            )
            self._drop(key=victim, entry=self.entries[victim])
            counters.evictions += 1
        self._clock += 1
        self.entries[key] = CacheEntry(value, vars, Stamp(epochs, membership),
                                       nbytes, self._clock)
        self.bytes_used += nbytes
        counters.admissions += 1
        counters.bytes_cached += nbytes
        return True

    # ------------------------------------------------------------ internal

    def _drop(self, key: str, entry: CacheEntry) -> None:
        del self.entries[key]
        self.bytes_used -= entry.nbytes
        counters = self.network.cache
        counters.bytes_cached -= entry.nbytes
        counters.bytes_evicted += entry.nbytes

    def __len__(self) -> int:
        return len(self.entries)
