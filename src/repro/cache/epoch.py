"""Key-scoped data-version ledger for delta-exact cache invalidation.

Every live publication path (``publish_delta`` / ``unpublish_delta`` and
the bulk publish that runs at attach time) advances the epoch of each
ring key whose location-table row it touches. Any triple that can change
the answer of a primitive pattern necessarily carries one of the six
index keys of that pattern (Sect. IV-A), so a cached result stamped with
the epochs of the keys it was computed from is provably current exactly
when every stamp still matches the ledger.

The ledger is deliberately dependency-free: the network transport owns
one instance, and both the per-query lookup memo and the cross-query
result cache validate against it. Readers compare integers only — a
stale stamp produces a miss, never a wrong answer.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

__all__ = ["DataEpochLedger"]

#: A ring key as the overlay uses it: ``(KeyKind, hashed identifier)``.
RingKey = Tuple[object, int]


class DataEpochLedger:
    """Monotonic per-ring-key version counters, plus a global counter.

    ``global_epoch`` advances on every key advance; it is the stamp used
    for results whose key set is unknowable (the fully-unbound broadcast
    pattern matches every triple, so any delta must invalidate it).
    """

    __slots__ = ("_epochs", "global_epoch")

    def __init__(self) -> None:
        self._epochs: Dict[RingKey, int] = {}
        self.global_epoch = 0

    def advance(self, key: RingKey) -> int:
        """Bump *key*'s epoch (a delta touched its row); returns it."""
        epoch = self._epochs.get(key, 0) + 1
        self._epochs[key] = epoch
        self.global_epoch += 1
        return epoch

    def get(self, key: RingKey) -> int:
        """Current epoch of *key* (0 if it never saw a delta)."""
        return self._epochs.get(key, 0)

    def snapshot(self, keys: Iterable[RingKey]) -> Dict[RingKey, int]:
        """Stamps for *keys* as of now — what a cache entry records."""
        get = self._epochs.get
        return {key: get(key, 0) for key in keys}

    def current(self, stamps: Dict[RingKey, int]) -> bool:
        """Are all *stamps* still the live epochs? (False ⇒ miss.)"""
        get = self._epochs.get
        return all(get(key, 0) == epoch for key, epoch in stamps.items())

    def __len__(self) -> int:
        return len(self._epochs)
