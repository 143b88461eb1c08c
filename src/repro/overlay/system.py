"""Assembly of the hybrid two-level P2P system (Sect. III).

:class:`HybridSystem` wires the pieces together: a simulated network, a
Chord ring of index nodes, storage nodes attached beneath them, and the
two-level distributed index built by publishing every storage node's
triples under the six keys of Sect. III-B.

Publication modes:

* ``publish_protocol`` — the faithful message-level process: the storage
  node ships its key batch to its index node, which walks the sorted
  keys round the ring arc by arc — one ``index_put`` per owning index
  node, each reply naming the next owner, a ``find_successor`` only for
  a gap or a bounced entry. Used by the experiments that *measure*
  publication.
* ``publish_fast`` — ground-truth placement without messages (identical
  resulting index). Used to set up large systems whose experiments only
  measure the query phase.

The module also provides :func:`fig1_network`, the paper's example
topology: index nodes N1, N4, N7, N12, N15 and storage nodes D1..D4 in a
4-bit identifier space.
"""

from __future__ import annotations

import pathlib
from collections import Counter
from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..chord.hashing import hash_string
from ..chord.idspace import IdentifierSpace
from ..chord.ring import ChordRing
from ..metrics.counters import DurabilityCounters
from ..net.protocol import Publish
from ..net.transport import LinkModel, Network
from ..rdf.triple import Triple
from .index_node import IndexNode
from .storage_node import StorageNode

__all__ = ["HybridSystem", "fig1_network", "FIG1_INDEX_IDS", "FIG1_STORAGE_IDS"]


def _ordered(counts):
    """Six-key *counts* items in publication order: ascending ring key,
    key-kind name breaking ties."""
    return sorted(counts.items(), key=lambda kv: (kv[0][1], kv[0][0].name))


class HybridSystem:
    """A complete ad-hoc Semantic Web data sharing system instance."""

    def __init__(
        self,
        space: Optional[IdentifierSpace] = None,
        network: Optional[Network] = None,
        replication_factor: int = 1,
        successor_list_size: int = 3,
        link: Optional[LinkModel] = None,
        state_dir=None,
        fsync: bool = False,
        snapshot_every: Optional[int] = None,
        _recovering: bool = False,
    ) -> None:
        self.space = space or IdentifierSpace(32)
        self.network = network or Network(link=link)
        self.ring = ChordRing(self.network, self.space)
        self.replication_factor = replication_factor
        self.successor_list_size = successor_list_size
        self.index_nodes: Dict[str, IndexNode] = {}
        self.storage_nodes: Dict[str, StorageNode] = {}
        #: Per-node combine-work counter — the system's simulated QoS
        #: monitor feeding the Third-Site join placement policy.  Lives on
        #: the system (not the executor) so concurrent executors observe
        #: each other's load, and two interleaved execution contexts share
        #: nothing but this system object.
        self.load: Counter = Counter()
        #: Durability subsystem (opt-in): with *state_dir* set, every
        #: node's state (graphs, location tables) and the system's
        #: membership history are write-ahead logged under it, so crashed
        #: nodes — or the whole system — can be brought back from disk
        #: (see :mod:`repro.storage`).
        self.state_dir = pathlib.Path(state_dir) if state_dir is not None else None
        self.fsync = fsync
        self.snapshot_every = snapshot_every
        self.durability = DurabilityCounters()
        self._recovering = _recovering
        self.journal = None
        if self.state_dir is not None:
            from ..storage.journal import SystemJournal  # local import: layering

            self.state_dir.mkdir(parents=True, exist_ok=True)
            self.journal = SystemJournal(
                self.state_dir, fsync=fsync, counters=self.durability
            )
            if self.journal.is_fresh:
                self.journal.log_system(
                    self.space.bits, replication_factor, successor_list_size
                )
            elif not _recovering:
                raise ValueError(
                    f"state directory {self.state_dir} already holds a system "
                    "journal; use repro.storage.recover_system() to bring it "
                    "back (or point at a fresh directory)"
                )

    # ------------------------------------------------------------- plumbing

    @property
    def sim(self):
        return self.network.sim

    @property
    def stats(self):
        return self.network.stats

    # ------------------------------------------------------------ building

    def add_index_node(self, node_id: str, ident: Optional[int] = None) -> IndexNode:
        """Create an index node; its ring id defaults to Hash(node_id)."""
        if ident is None:
            ident = hash_string(node_id, self.space)
        node = IndexNode(
            node_id,
            ident,
            self.space,
            successor_list_size=self.successor_list_size,
            replication_factor=self.replication_factor,
            table=self.durable_table(node_id),
        )
        self.ring.add_node(node)
        self.index_nodes[node_id] = node
        if self.journal is not None and not self._recovering:
            self.journal.log_index_add(node_id, ident)
        return node

    # ---------------------------------------------------------- durability

    def node_state_dir(self, node_id: str):
        """This node's state directory (None without durability)."""
        if self.state_dir is None:
            return None
        from ..storage.journal import node_state_dir  # local import: layering

        return node_state_dir(self.state_dir, node_id)

    def durable_table(self, node_id: str):
        """A recovered-or-fresh durable location table for *node_id*
        (None without durability)."""
        if self.state_dir is None:
            return None
        from ..storage.durable import DurableLocationTable  # local import

        return DurableLocationTable(
            self.node_state_dir(node_id),
            fsync=self.fsync,
            snapshot_every=self.snapshot_every,
            counters=self.durability,
        )

    def durable_graph(self, node_id: str, triples=None):
        """A recovered-or-fresh durable graph for *node_id* (None without
        durability)."""
        if self.state_dir is None:
            return None
        from ..storage.durable import DurableGraph  # local import: layering

        return DurableGraph(
            self.node_state_dir(node_id),
            triples=triples,
            fsync=self.fsync,
            snapshot_every=self.snapshot_every,
            counters=self.durability,
        )

    def journal_event(self, kind: str, node_id: str) -> None:
        """Record a node lifecycle event (fail/depart/restart) in the
        membership journal; no-op without durability or during recovery."""
        if self.journal is not None and not self._recovering:
            self.journal.log_event(kind, node_id)

    def checkpoint(self) -> Dict[str, int]:
        """Snapshot every durable component and compact its log.

        Each snapshot is stamped with the current membership epoch, the
        baseline for stale-entry detection on a later restart. Returns
        node id → snapshot LSN.
        """
        if self.state_dir is None:
            raise RuntimeError("checkpoint requires a system with state_dir")
        epoch = self.network.membership_epoch
        done: Dict[str, int] = {}
        for node_id in sorted(self.index_nodes):
            table = self.index_nodes[node_id].table
            if hasattr(table, "checkpoint"):
                done[node_id] = table.checkpoint(epoch=epoch)
        for node_id in sorted(self.storage_nodes):
            graph = self.storage_nodes[node_id].graph
            if hasattr(graph, "checkpoint"):
                done[node_id] = graph.checkpoint(epoch=epoch)
        return done

    def build_ring(self) -> None:
        """Wire the (fully converged) ring; call once after adding index
        nodes, before attaching storage."""
        self.ring.build_static()

    def add_storage_node(
        self,
        node_id: str,
        triples: Iterable[Triple] = (),
        attach_to: Optional[str] = None,
        publish: bool = True,
        protocol: bool = False,
    ) -> StorageNode:
        """Create a storage node, attach it beneath an index node, and
        publish its triples into the distributed index."""
        if not self.index_nodes:
            raise RuntimeError("add index nodes and build the ring first")
        graph = self.durable_graph(node_id, triples=triples)
        if graph is not None:
            node = StorageNode(node_id, graph=graph)
        else:
            node = StorageNode(node_id, triples)
        self.network.register(node)
        self.storage_nodes[node_id] = node
        if attach_to is None:
            # Deterministic attachment: the index node owning Hash(node_id).
            attach_to = self.ring.owner_of(hash_string(node_id, self.space)).node_id
        index_node = self.index_nodes[attach_to]
        node.index_node_id = attach_to
        index_node.attached_storage.append(node_id)
        if self.journal is not None and not self._recovering:
            self.journal.log_storage_add(node_id, attach_to)
        if publish:
            if protocol:
                self.publish_protocol(node)
            else:
                self.publish_fast(node)
        return node

    # ----------------------------------------------------------- publication

    def publish_fast(self, storage: StorageNode) -> int:
        """Install the storage node's six-key index without messages."""
        return self._place(storage, storage.key_counts(self.space))

    def publish_protocol(self, storage: StorageNode) -> int:
        """Publish through real messages via the attached index node."""
        return self._announce(storage, storage.key_counts(self.space))

    def placements(self, counts):
        """Walk six-key *counts* in ascending ring-key order (kind name
        breaking ties), yielding ``(key, freq, owner, holders)``: the
        index node owning the key and the successors that hold its
        replica rows — the placement every publication path writes to."""
        for (kind, key), freq in _ordered(counts):
            owner = self.ring.owner_of(key)
            holders = [self.index_nodes[ref.node_id]
                       for ref in owner.successor_list[: self.replication_factor - 1]
                       if ref != owner.ref]
            yield key, freq, owner, holders

    def _place(self, storage: StorageNode, counts) -> int:
        """Install *counts* for *storage* directly, replicas included."""
        for key, freq, owner, holders in self.placements(counts):
            owner.table.add(key, storage.node_id, freq)
            self.network.data_epochs.advance(key)
            for holder in holders:
                holder.replicas.import_row(key, {storage.node_id: freq})
        return len(counts)

    def _announce(self, storage: StorageNode, counts) -> int:
        """Publish *counts* with real messages: one ``publish`` call to
        the storage node's index node, which places every entry at its
        owner arc by arc (``IndexNode.rpc_publish``)."""
        assert storage.index_node_id is not None
        entries = [(key, freq) for (kind, key), freq in _ordered(counts)]

        # Publication is a long-running batch: give it a generous deadline
        # that scales with the batch instead of the per-RPC default.
        deadline = max(60.0, 0.5 * len(entries))

        def proc():
            return (yield self.network.call(
                storage.node_id,
                storage.index_node_id,
                "publish",
                Publish(storage_id=storage.node_id, entries=entries),
                timeout=deadline,
            ))

        return self.sim.run_process(proc())

    # ------------------------------------------------------ incremental data

    def publish_delta(
        self, storage: StorageNode, triples, protocol: bool = False
    ) -> int:
        """Make newly added triples discoverable.

        *triples* must already be in the node's graph (``add_triples``).
        Fast mode places the entries directly; protocol mode announces
        them through the attached index node with real messages.
        """
        counts = storage.key_counts_for(triples, self.space)
        if not counts:
            return 0
        if protocol:
            return self._announce(storage, counts)
        return self._place(storage, counts)

    def unpublish_delta(self, storage: StorageNode, triples) -> int:
        """Withdraw index entries for triples the provider removed.

        Frequencies are decremented; a cell vanishes when it reaches zero,
        so the location tables stay exact. (Fast placement — the paper
        does not specify a wire protocol for unpublication.)
        """
        counts = storage.key_counts_for(triples, self.space)
        for key, freq, owner, holders in self.placements(counts):
            owner.table.remove(key, storage.node_id, freq)
            # A replica row may still sit at the owner itself after a
            # failover promotion; clear it before sweeping the holders.
            owner.replicas.remove(key, storage.node_id, freq)
            self.network.data_epochs.advance(key)
            for holder in holders:
                holder.replicas.remove(key, storage.node_id, freq)
        return len(counts)

    # -------------------------------------------------------------- queries

    def execute(self, query_text: str, initiator: Optional[str] = None,
                tracer=None, **options):
        """Parse and execute a SPARQL query distributedly.

        Convenience wrapper over
        :class:`repro.query.executor.DistributedExecutor`; see there for
        options (strategy, join-site policy, optimization switches).
        Pass a :class:`repro.trace.Tracer` as *tracer* to record the
        query's message flow and per-phase cost.
        """
        from ..query.executor import DistributedExecutor  # local import: layering

        executor = DistributedExecutor(self, tracer=tracer, **options)
        return executor.execute(query_text, initiator=initiator)

    # ------------------------------------------------------------- utilities

    def union_graph(self):
        """The union of all storage-node graphs — the paper's dataset
        semantics for queries without FROM clauses; used as the oracle."""
        from ..rdf.graph import Graph

        union = Graph()
        for node in self.storage_nodes.values():
            union.update(iter(node.graph))
        return union

    def total_triples(self) -> int:
        return sum(len(n.graph) for n in self.storage_nodes.values())

    def any_index_node(self) -> IndexNode:
        return self.index_nodes[min(self.index_nodes)]


# ---------------------------------------------------------------- Fig. 1


#: The identifiers of the paper's Fig. 1: a 9-node network in a 4-bit
#: identifier space.
FIG1_INDEX_IDS: Sequence[Tuple[str, int]] = (
    ("N1", 1), ("N4", 4), ("N7", 7), ("N12", 12), ("N15", 15),
)
FIG1_STORAGE_IDS: Sequence[str] = ("D1", "D2", "D3", "D4")


def fig1_network(
    triples_by_storage: Optional[Dict[str, Iterable[Triple]]] = None,
    replication_factor: int = 1,
) -> HybridSystem:
    """Build the paper's Fig. 1 topology.

    Index nodes N1, N4, N7, N12, N15 form the 4-bit ring; storage nodes
    D1..D4 attach beneath (D1, D3, D4 under N7 and D2 under N15, matching
    the pointers drawn in Fig. 1/2).
    """
    system = HybridSystem(space=IdentifierSpace(4), replication_factor=replication_factor)
    for node_id, ident in FIG1_INDEX_IDS:
        system.add_index_node(node_id, ident)
    system.build_ring()
    attachments = {"D1": "N7", "D2": "N15", "D3": "N7", "D4": "N7"}
    data = triples_by_storage or {}
    for storage_id in FIG1_STORAGE_IDS:
        system.add_storage_node(
            storage_id,
            data.get(storage_id, ()),
            attach_to=attachments[storage_id],
        )
    return system
