"""Ring construction and maintenance driving.

Two construction modes:

* **static** — given the full node set, wire predecessors, successor
  lists, and finger tables exactly (what a long-stabilized ring looks
  like). Experiments that measure query processing use this so that DHT
  convergence noise never contaminates query numbers.
* **dynamic** — nodes join through the Chord protocol and the ring is
  repaired by explicitly driven stabilization rounds. The churn
  experiments (E8) use this mode.

Stabilization is round-driven rather than running as free background
processes: each call performs one deterministic sweep, which keeps every
experiment reproducible and lets tests assert convergence after a known
number of rounds.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from ..net.transport import Network
from .idspace import IdentifierSpace
from .node import ChordNode, NodeRef

__all__ = ["ChordRing"]


class ChordRing:
    """Manages a set of :class:`ChordNode` on one simulated network."""

    def __init__(self, network: Network, space: IdentifierSpace) -> None:
        self.network = network
        self.space = space
        self.nodes: Dict[str, ChordNode] = {}
        self._ident_holder: Dict[int, str] = {}
        #: (membership epoch, node count) → (live refs sorted by ident,
        #: their idents): the ground-truth helpers bisect this instead of
        #: re-sorting the ring per call.
        self._live_key: Optional[Tuple[int, int]] = None
        self._live: Tuple[List[NodeRef], List[int]] = ([], [])

    # ------------------------------------------------------------- building

    def add_node(self, node: ChordNode) -> ChordNode:
        if node.space != self.space:
            raise ValueError("node identifier space differs from ring space")
        # (A node removed from ``nodes`` leaves a stale holder id behind.)
        existing = self.nodes.get(self._ident_holder.get(node.ident))
        if existing is not None and existing.ident == node.ident:
            raise ValueError(
                f"identifier collision: {node.node_id} and {existing.node_id} "
                f"both hash to {node.ident}"
            )
        self.network.register(node)
        self.nodes[node.node_id] = node
        self._ident_holder[node.ident] = node.node_id
        return node

    def sorted_refs(self, alive_only: bool = True) -> List[NodeRef]:
        if alive_only:
            return list(self._live_ring()[0])
        return sorted((n.ref for n in self.nodes.values()),
                      key=lambda r: r.ident)

    def _live_ring(self) -> Tuple[List[NodeRef], List[int]]:
        """Live refs in ring order and their idents, re-sorted only when
        membership changed (every join, leave, crash and recovery bumps
        the network's membership epoch)."""
        key = (self.network.membership_epoch, len(self.nodes))
        if key != self._live_key:
            refs = sorted((n.ref for n in self.nodes.values() if n.alive),
                          key=lambda r: r.ident)
            self._live = (refs, [r.ident for r in refs])
            self._live_key = key
        return self._live

    def build_static(self) -> None:
        """Wire the fully-converged ring topology directly."""
        refs = self.sorted_refs(alive_only=False)
        if not refs:
            return
        n = len(refs)
        idents = [ref.ident for ref in refs]
        for i, ref in enumerate(refs):
            node = self.nodes[ref.node_id]
            node.predecessor = refs[(i - 1) % n]
            succs = [refs[(i + k) % n] for k in range(1, node.successor_list_size + 1)]
            node.successor_list = succs[: max(1, min(node.successor_list_size, n - 1) or 1)]
            if n == 1:
                node.successor_list = [ref]
            for f in range(self.space.bits):
                start = self.space.finger_start(ref.ident, f)
                node.fingers[f] = refs[self._successor_index(idents, start)]

    @staticmethod
    def _successor_index(sorted_idents: Sequence[int], key: int) -> int:
        """Position of the first ident >= *key*, wrapping to the start."""
        return bisect_left(sorted_idents, key) % len(sorted_idents)

    # -------------------------------------------------------------- dynamic

    def join_via(self, node: ChordNode, bootstrap: Optional[NodeRef] = None) -> None:
        """Run the join protocol for *node* (must already be added)."""
        if bootstrap is None:
            others = [r for r in self.sorted_refs() if r != node.ref]
            if not others:
                node.predecessor = None
                node.successor_list = [node.ref]
                node.fingers[0] = node.ref
                return
            bootstrap = others[0]
        self.network.sim.run_process(node.join(bootstrap))

    def stabilize_round(self) -> None:
        """One deterministic sweep: every live node stabilizes, checks its
        predecessor, and fixes every finger."""
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            if not node.alive:
                continue
            self.network.sim.run_process(node.stabilize())
            self.network.sim.run_process(node.check_predecessor())
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            if not node.alive:
                continue
            for f in range(self.space.bits):
                self.network.sim.run_process(node.fix_finger(f))

    def stabilize(self, rounds: int = 2) -> None:
        for _ in range(rounds):
            self.stabilize_round()

    # ------------------------------------------------------------- checking

    def is_consistent(self) -> bool:
        """True when successor/predecessor pointers form the sorted cycle."""
        refs = self.sorted_refs()
        if not refs:
            return True
        n = len(refs)
        for i, ref in enumerate(refs):
            node = self.nodes[ref.node_id]
            expected_succ = refs[(i + 1) % n]
            expected_pred = refs[(i - 1) % n]
            if n == 1:
                expected_succ = expected_pred = ref
            if node.successor != expected_succ:
                return False
            if node.predecessor != expected_pred:
                return False
        return True

    def owner_of(self, key: int) -> ChordNode:
        """Ground-truth successor of *key* among live nodes (no messages)."""
        refs, idents = self._live_ring()
        if not refs:
            raise LookupError("empty ring")
        ref = refs[self._successor_index(idents, self.space.normalize(key))]
        return self.nodes[ref.node_id]
