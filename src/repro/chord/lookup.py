"""Client-side lookup helpers and hop-count measurement.

Experiment E7 of DESIGN.md measures the two-level index's scalability
claim: locating the index node responsible for a key costs O(log N)
messages on the ring. These helpers run the measured lookups.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from statistics import mean
from typing import List, Optional, Sequence

from ..net.transport import Network
from .node import LookupResult, NodeRef, walk
from .ring import ChordRing

__all__ = ["lookup", "LookupSample", "measure_lookups"]


def lookup(network: Network, entry: NodeRef, key: int, initiator: str = "client") -> LookupResult:
    """Resolve *key* starting at *entry*; runs the simulation to completion.

    Returns the :class:`LookupResult` (owner + hop count). The probe of
    the entry node is not counted as a hop, matching the convention of
    the Chord paper (hops = forwarding steps on the ring).
    """
    return network.sim.run_process(
        walk(partial(network.call, initiator), entry, key))


@dataclass(frozen=True, slots=True)
class LookupSample:
    """Aggregate of a batch of measured lookups."""

    count: int
    mean_hops: float
    max_hops: int
    mean_latency: float

    def __str__(self) -> str:  # pragma: no cover - presentation
        return (
            f"{self.count} lookups: mean hops {self.mean_hops:.2f}, "
            f"max {self.max_hops}, mean latency {self.mean_latency * 1000:.1f} ms"
        )


def measure_lookups(
    ring: ChordRing,
    num_lookups: int,
    rng: Optional[random.Random] = None,
    entries: Optional[Sequence[NodeRef]] = None,
) -> LookupSample:
    """Issue *num_lookups* lookups for uniform random keys from random
    entry nodes and aggregate hop counts and latencies."""
    rng = rng or random.Random(0)
    refs = entries if entries is not None else ring.sorted_refs()
    if not refs:
        raise LookupError("cannot measure lookups on an empty ring")
    network = ring.network
    call = partial(network.call, "client")
    hops: List[int] = []
    latencies: List[float] = []
    for _ in range(num_lookups):
        key = rng.randrange(ring.space.size)
        entry = refs[rng.randrange(len(refs))]

        def proc(entry=entry, key=key):
            start = network.sim.now
            result = yield from walk(call, entry, key)
            return result, network.sim.now - start

        result, elapsed = network.sim.run_process(proc())
        hops.append(result.hops)
        latencies.append(elapsed)
    return LookupSample(
        count=num_lookups,
        mean_hops=mean(hops),
        max_hops=max(hops),
        mean_latency=mean(latencies),
    )
