"""Traffic and timing accounting for the simulated network.

Every experiment in EXPERIMENTS.md reports some subset of: total bytes
shipped between sites, message count, per-link breakdowns, and response
times. This module is the single source of those numbers, as counters;
per-message detail lives in an attached :class:`~repro.trace.Tracer`.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["NetworkStats"]


@dataclass
class NetworkStats:
    """Aggregate counters, resettable between experiment phases.

    ``checkpoint()``/``delta()`` let the harness measure a single query's
    traffic in the middle of a long-lived system without rebuilding it.
    """

    messages: int = 0
    bytes_total: int = 0
    per_kind_bytes: Counter = field(default_factory=Counter)
    per_kind_messages: Counter = field(default_factory=Counter)
    per_link_bytes: Dict[Tuple[str, str], int] = field(
        default_factory=lambda: defaultdict(int)
    )

    def record(self, src: str, dst: str, kind: str, nbytes: int) -> None:
        self.messages += 1
        self.bytes_total += nbytes
        self.per_kind_bytes[kind] += nbytes
        self.per_kind_messages[kind] += 1
        self.per_link_bytes[(src, dst)] += nbytes

    def reset(self) -> None:
        self.messages = 0
        self.bytes_total = 0
        self.per_kind_bytes.clear()
        self.per_kind_messages.clear()
        self.per_link_bytes.clear()

    def checkpoint(self) -> Tuple[int, int]:
        return (self.messages, self.bytes_total)

    def delta(self, checkpoint: Tuple[int, int]) -> "StatsDelta":
        msgs, nbytes = checkpoint
        return StatsDelta(self.messages - msgs, self.bytes_total - nbytes)

    def bytes_for(self, *kinds: str) -> int:
        return sum(self.per_kind_bytes[k] for k in kinds)

    def summary(self) -> str:
        lines = [f"messages={self.messages} bytes={self.bytes_total}"]
        for kind in sorted(self.per_kind_bytes):
            lines.append(
                f"  {kind}: {self.per_kind_messages[kind]} msgs, "
                f"{self.per_kind_bytes[kind]} bytes"
            )
        return "\n".join(lines)


@dataclass(frozen=True, slots=True)
class StatsDelta:
    messages: int
    bytes: int
