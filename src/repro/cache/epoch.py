"""The one freshness rule for state derived from location-table rows.

Two memos hold such state: the per-query lookup memo of
:mod:`repro.query.executor` and the cross-query result cache of this
package. Both follow one rule, in two halves:

* **a data epoch advances where a row is written** —
  ``HybridSystem._place`` (fast placement), ``HybridSystem.unpublish_delta``
  and ``IndexNode.rpc_index_put`` (every message-level install, the
  publishing node's own included). Any triple that can change the answer
  of a primitive pattern carries one of the six index keys of that
  pattern (Sect. IV-A), so a write that matters advances a key the
  value was computed from;
* **a memo entry records one stamp, taken before its value is
  computed, and is reused only while** :meth:`DataEpochLedger.current`
  **holds**. The stamp also carries the membership epoch, which every
  join, departure, crash and recovery advances: a membership change may
  move the owner of any key.

This module is the only reader of both counters. Readers compare
integers only — a stale stamp produces a miss, never a wrong answer.
"""

from __future__ import annotations

from typing import Dict, Iterable, NamedTuple

__all__ = ["DataEpochLedger", "Stamp"]


class Stamp(NamedTuple):
    """The versions a memoized value was computed under."""

    #: Ring key (a bare hashed int) -> its data epoch.
    epochs: Dict[int, int]
    membership: int


class DataEpochLedger:
    """Monotonic per-ring-key data epochs plus the membership epoch."""

    __slots__ = ("_epochs", "membership")

    def __init__(self) -> None:
        self._epochs: Dict[int, int] = {}
        #: Advanced by the network on every membership change.
        self.membership = 0

    def advance(self, key: int) -> int:
        """Bump *key*'s epoch (a row write touched it); returns it."""
        epoch = self._epochs.get(key, 0) + 1
        self._epochs[key] = epoch
        return epoch

    def stamp(self, keys: Iterable[int]) -> Stamp:
        """The versions of *keys* as of now — taken before computing."""
        get = self._epochs.get
        return Stamp({key: get(key, 0) for key in keys}, self.membership)

    def current(self, stamp: Stamp) -> bool:
        """Is *stamp* still the live version? (False ⇒ miss.)"""
        if stamp.membership != self.membership:
            return False
        get = self._epochs.get
        return all(get(key, 0) == epoch for key, epoch in stamp.epochs.items())
