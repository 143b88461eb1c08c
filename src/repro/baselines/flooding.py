"""Unstructured-P2P (Gnutella-style) flooding baseline.

The paper's introduction motivates the hybrid design against plain
unstructured P2P: flooding needs no index but has "unsatisfactory
scalability" — every query touches a neighborhood that grows with the
network, and bounded TTLs trade recall for cost.

This baseline implements exactly that comparator: storage nodes form a
random k-regular-ish neighbor graph; a query floods with a TTL; each
reached node evaluates the sub-query locally and sends its matches
straight back to the initiator. Duplicate arrivals are suppressed by
query id (standard Gnutella semantics).

Experiment E11 compares messages, bytes, and recall against the two-level
index for the same query on the same data.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..net.protocol import Flood, FloodAnswer
from ..net.transport import Network
from ..overlay.storage_node import StorageNode
from ..rdf.triple import Triple
from ..sparql.algebra import Algebra
from ..sparql.solutions import SolutionMapping, canonical_key

__all__ = ["FloodingNode", "FloodingSystem"]


class FloodingNode(StorageNode):
    """A storage node that forwards queries to its neighbors."""

    def __init__(self, node_id: str, triples: Optional[Iterable[Triple]] = None) -> None:
        super().__init__(node_id, triples)
        self.neighbors: List[str] = []
        self._seen_queries: Set[str] = set()

    def rpc_flood(self, payload: Flood, src: str) -> None:
        """One-way flood step: evaluate locally, answer the initiator,
        forward to neighbors while TTL remains."""
        assert self.network is not None
        qid = payload.qid
        if qid in self._seen_queries:
            return
        self._seen_queries.add(qid)

        matches = self.local_eval(payload.algebra)
        if matches:
            self.network.send(
                self.node_id, payload.initiator, "deliver",
                FloodAnswer(corr=qid, data=sorted(matches, key=canonical_key),
                            notify=None, flow=qid))
        ttl = payload.ttl - 1
        if ttl <= 0:
            return
        forward = payload.copy(ttl=ttl)
        for neighbor in self.neighbors:
            if neighbor != src:
                self.network.send(self.node_id, neighbor, "flood", forward)


class FloodingSystem:
    """A random unstructured overlay of :class:`FloodingNode`."""

    def __init__(self, network: Optional[Network] = None) -> None:
        self.network = network or Network()
        self.nodes: Dict[str, FloodingNode] = {}
        self._qid_seq = 0

    @property
    def sim(self):
        return self.network.sim

    @property
    def stats(self):
        return self.network.stats

    def add_node(self, node_id: str, triples: Iterable[Triple] = ()) -> FloodingNode:
        node = FloodingNode(node_id, triples)
        self.network.register(node)
        self.nodes[node_id] = node
        return node

    def wire_random(self, degree: int, seed: int = 0) -> None:
        """Connect each node to ~degree random peers (undirected union of
        a ring — guaranteeing connectivity — plus random chords)."""
        ids = sorted(self.nodes)
        if len(ids) < 2:
            return
        rng = random.Random(seed)
        edges: Set[Tuple[str, str]] = set()
        for i, node_id in enumerate(ids):  # connectivity backbone
            edges.add(tuple(sorted((node_id, ids[(i + 1) % len(ids)]))))
        for node_id in ids:
            while sum(1 for e in edges if node_id in e) < degree:
                other = ids[rng.randrange(len(ids))]
                if other != node_id:
                    edges.add(tuple(sorted((node_id, other))))
        for a, b in edges:
            self.nodes[a].neighbors.append(b)
            self.nodes[b].neighbors.append(a)
        for node in self.nodes.values():
            node.neighbors.sort()

    # ---------------------------------------------------------------- query

    def query(
        self,
        initiator_id: str,
        algebra: Algebra,
        ttl: int,
        settle_time: float = 3.0,
    ) -> List[SolutionMapping]:
        """Flood *algebra* from *initiator_id* and collect the answers
        that arrive within *settle_time* simulated seconds.

        Flooding has no completion detection (a core weakness of the
        paradigm): the initiator simply waits out a deadline, so recall
        depends on both TTL and patience.
        """
        initiator = self.nodes[initiator_id]
        self._qid_seq += 1
        qid = f"flood-{self._qid_seq}"

        def proc():
            # Seed the flood at the initiator itself.
            initiator.rpc_flood(
                Flood(qid=qid, algebra=algebra, ttl=ttl, initiator=initiator_id),
                initiator_id)
            yield self.sim.timeout(settle_time)
            collected = initiator.mailbox.pop(qid, set())
            return sorted(collected, key=canonical_key)

        return self.sim.run_process(proc())

    def nodes_reached(self) -> int:
        """How many nodes saw the most recent query (recall diagnostics)."""
        qid = f"flood-{self._qid_seq}"
        return sum(1 for n in self.nodes.values() if qid in n._seen_queries)
