"""A Chord ring participant and the iterative lookup.

Implements the Chord protocol of Stoica et al. [5] as used by the paper's
index nodes (Sect. III): finger tables for O(log N) lookup, a successor
list for fault tolerance, the stabilize/notify repair protocol, and
key-range transfer on join/leave (Sect. III-C/D).

The lookup is iterative and driven by its originator, in the Kademlia
shape (SNIPPETS.md snippet 3): :func:`walk` probes one node at a time
with ``find_successor``, and each probe is a single step at the probed
node (:meth:`ChordNode.rpc_find_successor`) that names the key's owner
or the next hop, or says that every hop it knows is avoided, and never
calls on. The originator thus owns the
walk's one timeout per probe, hears from every hop, and can keep each
probed node as a start for later walks. A probe that times out is not
evidence against anyone's routing tables: the node joins the walk's
``avoid`` set, the last responder is asked again, and nothing is
evicted. Hops and messages equal those of a recursive walk from the same
start: ``hops = probes - 1`` and a probe costs a request and a reply,
like a forward and its reply.

The class is transport-level: lookups are real simulated RPCs, so hop
counts and lookup latencies measured in experiments are the message-level
truth, not formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Collection, Dict, List, Optional

from ..net.protocol import FindSuccessor, KeyRange
from ..net.sim import Event
from ..net.transport import Node, NodeUnknown, RpcError, RpcTimeout
from .idspace import IdentifierSpace

__all__ = ["NodeRef", "ChordNode", "LookupResult", "LookupStep", "walk"]


@dataclass(frozen=True, slots=True, order=True)
class NodeRef:
    """A (ring id, address) pair — how nodes refer to one another."""

    ident: int
    node_id: str

    def wire_size(self) -> int:
        return 8 + len(self.node_id)


@dataclass(frozen=True, slots=True)
class LookupResult:
    """Outcome of a :func:`walk`: the owner and the route length.

    *via* is the final responder, the owner's predecessor as the ring
    sees it, so the owner's arc is (via, ref]; None when the answer names
    no arc (:attr:`LookupStep.FINAL`).
    """

    ref: NodeRef
    hops: int
    via: Optional[NodeRef] = None


@dataclass(frozen=True, slots=True)
class LookupStep:
    """One probe's reply. *flag* says what *ref* is: ``NEXT``, the next
    hop; ``OWNER``, the key's owner and the responder's successor, so the
    owner's arc is (responder, ref]; ``FINAL``, an answer that names no
    arc — a backup standing in for an avoided owner; ``DEAD_END``, the
    responder itself, which knows no hop toward the key that is not
    avoided. The 4-byte field that carried a recursive walk's hop count
    carries the flag, since the originator counts its own hops."""

    NEXT, OWNER, FINAL, DEAD_END = 0, 1, 2, 3

    ref: NodeRef
    flag: int

    def wire_size(self) -> int:
        return self.ref.wire_size() + 4


class ChordNode(Node):
    """One node of the Chord ring.

    Subclasses (the overlay's index nodes) may override
    :meth:`export_keys` / :meth:`import_keys` to move their application
    state (location-table rows) during membership changes.
    """

    def __init__(
        self,
        node_id: str,
        ident: int,
        space: IdentifierSpace,
        successor_list_size: int = 3,
    ) -> None:
        super().__init__(node_id)
        self.space = space
        self.ident = space.normalize(ident)
        self.ref = NodeRef(self.ident, node_id)
        self.fingers: List[Optional[NodeRef]] = [None] * space.bits
        self.successor_list: List[NodeRef] = []
        self.successor_list_size = successor_list_size
        self.predecessor: Optional[NodeRef] = None
        self._next_finger_to_fix = 0

    # ------------------------------------------------------------ topology

    @property
    def successor(self) -> NodeRef:
        if self.successor_list:
            return self.successor_list[0]
        return self.ref

    def set_successor(self, ref: NodeRef) -> None:
        if self.successor_list:
            self.successor_list[0] = ref
        else:
            self.successor_list = [ref]
        self.fingers[0] = ref

    def owns(self, key: int) -> bool:
        """True when this node is the successor of *key*.

        A node owns the keys in (predecessor, self]; with no predecessor
        known (single-node ring) it owns everything.
        """
        if self.predecessor is None:
            return True
        return self.space.between_right_closed(key, self.predecessor.ident, self.ident)

    def closest_preceding(self, key: int, avoid: Collection[str] = ()) -> NodeRef:
        """Best known strictly-preceding hop toward *key* (fingers, then
        successor list), skipping the node ids in *avoid*."""
        between = self.space.between_open
        for finger in reversed(self.fingers):
            if (finger is not None and between(finger.ident, self.ident, key)
                    and finger.node_id not in avoid):
                return finger
        for ref in reversed(self.successor_list):
            if between(ref.ident, self.ident, key) and ref.node_id not in avoid:
                return ref
        return self.ref

    # -------------------------------------------------------- RPC handlers

    def rpc_ping(self, payload: Any, src: str) -> bool:
        return True

    def rpc_get_predecessor(self, payload: Any, src: str) -> Optional[NodeRef]:
        return self.predecessor

    def rpc_get_successor_list(self, payload: Any, src: str) -> List[NodeRef]:
        return list(self.successor_list)

    def rpc_find_successor(self, payload: FindSuccessor, src: str) -> LookupStep:
        """One step of an iterative lookup: the owner of ``key`` if it
        lies in (self, successor], else the closest preceding hop.

        An optional ``avoid`` list names nodes the originator has seen
        time out. They are skipped as next hops, and our successor is the
        first member of our successor list not avoided: instead of
        returning an avoided owner we answer with that member — in Chord's
        successor-list replication (Sect. III-D) exactly the replica
        holder about to take over the dead owner's keys.
        """
        key = payload.key
        avoid = payload.avoid or ()
        owner = self.successor
        if avoid:
            owner = next((ref for ref in self.successor_list
                          if ref.node_id not in avoid), owner)
        if self.space.between_right_closed(key, self.ident, owner.ident):
            exact = owner == self.successor and owner.node_id not in avoid
            return LookupStep(owner, LookupStep.OWNER if exact else LookupStep.FINAL)
        nxt = self.closest_preceding(key, avoid)
        if nxt == self.ref:
            # Every hop we know past ourselves is avoided: we are not the
            # owner, and must not be named as one.
            return LookupStep(nxt, LookupStep.DEAD_END)
        return LookupStep(nxt, LookupStep.NEXT)

    def rpc_notify(self, candidate: NodeRef, src: str) -> bool:
        """Chord notify: *candidate* believes it is our predecessor."""
        if self.predecessor is None or self.space.between_open(
            candidate.ident, self.predecessor.ident, self.ident
        ):
            self.predecessor = candidate
            return True
        return False

    def rpc_export_keys(self, payload: KeyRange, src: str) -> Dict[int, Any]:
        """Hand over the keys in (lo, hi] to a joining predecessor
        (Sect. III-C: 'transfer of a portion of the location table')."""
        lo, hi = payload.lo, payload.hi
        exported = {
            key: value
            for key, value in self.export_keys()
            if self.space.between_right_closed(key, lo, hi)
        }
        self.drop_keys(exported.keys())
        return exported

    def rpc_import_keys(self, payload: Dict[int, Any], src: str) -> int:
        self.import_keys(payload)
        return len(payload)

    # ----------------------------------------- application-state interface

    def export_keys(self):
        """Iterable of (key, value) pairs of application state; overridden
        by the overlay's index node."""
        return ()

    def import_keys(self, items: Dict[int, Any]) -> None:  # pragma: no cover
        pass

    def drop_keys(self, keys) -> None:  # pragma: no cover
        pass

    # ------------------------------------------------------- ring protocols

    def join(self, bootstrap: NodeRef):
        """Generator process: join the ring known to *bootstrap* and pull
        our key range from our new successor."""
        self.predecessor = None
        result = yield from walk(self.call, bootstrap, self.ident)
        self.set_successor(result.ref)
        # Take over (successor.predecessor, self] — approximated by asking
        # for (our id's predecessor range]; the successor computes the cut.
        pred: Optional[NodeRef] = yield self.call(result.ref.node_id, "get_predecessor")
        # With no predecessor known (e.g. a single-node ring) the successor
        # keeps (self, successor] and we take the complement (successor, self].
        lo = pred.ident if pred is not None else result.ref.ident
        imported = yield self.call(
            result.ref.node_id, "export_keys", KeyRange(lo=lo, hi=self.ident)
        )
        self.import_keys(imported)
        yield from self.stabilize()

    def stabilize(self):
        """One stabilize round: verify successor, adopt a closer one,
        notify it, and refresh the successor list."""
        try:
            candidate: Optional[NodeRef] = yield self.call(
                self.successor.node_id, "get_predecessor"
            )
        except RpcError:
            self._advance_successor()
            return
        if candidate is not None and self.space.between_open(
            candidate.ident, self.ident, self.successor.ident
        ):
            self.set_successor(candidate)
        try:
            yield self.call(self.successor.node_id, "notify", self.ref)
            succ_list: List[NodeRef] = yield self.call(
                self.successor.node_id, "get_successor_list"
            )
        except RpcError:
            self._advance_successor()
            return
        merged = [self.successor] + [r for r in succ_list if r != self.ref]
        self.successor_list = merged[: self.successor_list_size]
        self.fingers[0] = self.successor

    def fix_finger(self, index: Optional[int] = None):
        """Refresh one finger-table entry via a real lookup."""
        if index is None:
            index = self._next_finger_to_fix
            self._next_finger_to_fix = (self._next_finger_to_fix + 1) % self.space.bits
        start = self.space.finger_start(self.ident, index)
        try:
            result = yield from walk(self.call, self.ref, start)
            self.fingers[index] = result.ref
        except RpcError:
            self.fingers[index] = None

    def check_predecessor(self):
        """Clear a dead predecessor so notify can repair it."""
        if self.predecessor is None:
            return
        try:
            yield self.call(self.predecessor.node_id, "ping")
        except RpcError:
            self.predecessor = None

    # ------------------------------------------------------------ internals

    def _advance_successor(self) -> None:
        if len(self.successor_list) > 1:
            self.successor_list.pop(0)
        else:
            self.successor_list = [self.ref]
        self.fingers[0] = self.successor


def walk(call: Callable[..., Event], start: NodeRef, key: int,
         avoid: Collection[str] = (), known=None):
    """Generator: the iterative lookup of *key* from *start* → a
    :class:`LookupResult`.

    *call* is the originator's ``call(dst, method, payload)``. Each probe
    is one ``find_successor`` to one node; a reply names the next hop or
    the owner (:class:`LookupStep`). *known*, the originator's
    :class:`~repro.overlay.peer.RouteTable` if given, notes every node
    that answered and forgets every node that did not.

    A probe that fails to reach its node (:class:`RpcTimeout`,
    :class:`NodeUnknown`) puts the node in the walk's ``avoid`` set and
    asks the last responder again, now told to skip it; with no responder
    left the failure is raised. A responder that answers ``DEAD_END``
    (everything it knows past itself is avoided) is avoided and stepped
    back from the same way; with none left the walk raises
    :class:`RpcTimeout`, as the key is unreachable. Each reply names a
    node strictly closer to *key* than its responder, so no node is
    probed twice except a responder asked again after such a failure or
    dead end: a walk probes at most ring-size distinct nodes. ``hops``
    counts the distinct responders after the first, as a recursive walk
    counts its forwards.
    """
    avoid = set(avoid)
    path: List[NodeRef] = []  # responders still believed alive, in order
    answered = set()
    target = start
    while True:
        payload = FindSuccessor(key=key, avoid=sorted(avoid) if avoid else None)
        try:
            step: LookupStep = yield call(target.node_id, "find_successor", payload)
        except (RpcTimeout, NodeUnknown):
            avoid.add(target.node_id)
            if known is not None:
                known.forget(target)
            if path and path[-1] == target:
                path.pop()  # it died since it answered
            if not path:
                raise
            target = path[-1]
            continue
        if target.node_id not in answered:
            answered.add(target.node_id)
            path.append(target)
            if known is not None:
                known.note(target)
        if step.flag == LookupStep.DEAD_END:
            avoid.add(target.node_id)
            path.pop()
            if not path:
                raise RpcTimeout(f"{target.node_id}: no hop left toward key {key}")
            target = path[-1]
            continue
        if step.flag != LookupStep.NEXT:
            via = target if step.flag == LookupStep.OWNER else None
            return LookupResult(step.ref, len(answered) - 1, via)
        target = step.ref
