"""Membership changes: joins, departures, failures (Sect. III-C/D).

These functions drive the protocol-level membership operations of the
paper on a live :class:`~repro.overlay.system.HybridSystem`:

* **index node join** — ring join plus "the transfer of a portion of the
  location table to the new node from its predecessor node" (III-C; the
  transfer actually comes from the *successor*, which held the keys the
  new node now owns — the paper's wording describes the same range).
* **index node graceful departure** — "requires its immediate successor
  node to take over its location table" (III-D).
* **index node failure** — crash without handover; recovery relies on the
  successor list and the replication policy (III-D).
* **storage node departure/failure** — at most stale location-table
  entries remain, removed on query timeout (III-D) or eagerly on a
  graceful goodbye.
"""

from __future__ import annotations

from typing import Optional

from ..chord.hashing import hash_string
from ..net.protocol import RingKeys, StorageRef
from ..trace import NULL_TRACER
from .index_node import IndexNode
from .storage_node import StorageNode
from .system import HybridSystem

__all__ = [
    "join_index_node",
    "depart_index_node",
    "fail_index_node",
    "depart_storage_node",
    "fail_storage_node",
    "restart_index_node",
    "restart_storage_node",
]


def join_index_node(
    system: HybridSystem,
    node_id: str,
    ident: Optional[int] = None,
    stabilize_rounds: int = 2,
) -> IndexNode:
    """Join a new index node through the Chord protocol.

    The joining node locates its successor, imports the location-table
    rows for the key range it now owns, and the ring re-stabilizes.
    """
    if ident is None:
        ident = hash_string(node_id, system.space)
    node = IndexNode(
        node_id,
        ident,
        system.space,
        successor_list_size=system.successor_list_size,
        replication_factor=system.replication_factor,
    )
    system.ring.add_node(node)
    system.index_nodes[node_id] = node
    system.ring.join_via(node)
    system.ring.stabilize(stabilize_rounds)
    return node


def depart_index_node(system: HybridSystem, node_id: str, stabilize_rounds: int = 2) -> None:
    """Graceful departure: hand the location table to the successor, then
    leave the ring."""
    node = system.index_nodes[node_id]
    successor = node.successor
    if successor != node.ref:
        heir = system.index_nodes[successor.node_id]

        def handover():
            rows = {key: row for key, row in node.table.export_range()}
            count = yield node.call(successor.node_id, "import_keys", rows)
            if system.replication_factor > 1 and rows:
                # The rows just changed primary: the copies this node
                # replicated onto *its* successors are now stale (a later
                # takeover could promote outdated frequencies), and the
                # heir's own successors don't hold the moved rows yet.
                # Sweep the old replicas, then have the heir re-replicate.
                keys = sorted(rows)
                swept = [
                    ref.node_id
                    for ref in node.successor_list[: system.replication_factor - 1]
                    if ref != node.ref
                ]
                for third_party in swept:
                    yield node.call(third_party, "replica_drop", RingKeys(keys=keys))
                yield node.call(successor.node_id, "rereplicate", RingKeys(keys=keys))
            return count

        system.sim.run_process(handover())
        # Any storage nodes attached beneath the leaver re-attach to the heir.
        for storage_id in node.attached_storage:
            storage = system.storage_nodes.get(storage_id)
            if storage is not None:
                storage.index_node_id = heir.node_id
                heir.attached_storage.append(storage_id)
        node.attached_storage.clear()
    system.network.fail_node(node_id)  # stops answering
    system.network.deregister(node_id)
    del system.index_nodes[node_id]
    del system.ring.nodes[node_id]
    system.ring.stabilize(stabilize_rounds)
    system.journal_event("index-depart", node_id)


def fail_index_node(system: HybridSystem, node_id: str, stabilize_rounds: int = 3) -> None:
    """Crash an index node. Its primary rows are lost; queries recover via
    the successor list (routing) and the replicas (data), per III-D."""
    system.network.fail_node(node_id)
    system.ring.stabilize(stabilize_rounds)
    system.journal_event("index-fail", node_id)


def depart_storage_node(system: HybridSystem, node_id: str) -> None:
    """Graceful storage departure: eagerly unpublish from every index node
    (a courtesy the protocol allows; failure relies on timeouts instead)."""
    storage = system.storage_nodes[node_id]

    def goodbye():
        removed = 0
        for index_id in sorted(system.index_nodes):
            index_node = system.index_nodes[index_id]
            if not index_node.alive:
                continue
            removed += yield system.network.call(
                node_id, index_id, "index_remove_storage", StorageRef(storage_id=node_id)
            )
        return removed

    system.sim.run_process(goodbye())
    if storage.index_node_id is not None:
        parent = system.index_nodes.get(storage.index_node_id)
        if parent is not None and node_id in parent.attached_storage:
            parent.attached_storage.remove(node_id)
    system.network.fail_node(node_id)
    system.network.deregister(node_id)
    del system.storage_nodes[node_id]
    system.journal_event("storage-depart", node_id)


def fail_storage_node(system: HybridSystem, node_id: str) -> None:
    """Crash a storage node: location tables keep stale pointers that are
    cleaned lazily when queries time out against it (III-D)."""
    system.network.fail_node(node_id)
    system.journal_event("storage-fail", node_id)


# ------------------------------------------------------------- restarts


def restart_storage_node(
    system: HybridSystem,
    node_id: str,
    republish: bool = True,
    tracer=NULL_TRACER,
) -> StorageNode:
    """Bring a crashed storage node back from its on-disk state.

    The node's graph is recovered from its state directory (snapshot +
    WAL replay), the node re-registers on the network, re-attaches to its
    previous index node (or the hash-determined one if that parent is
    gone), and — with *republish* — re-announces its six-key index
    entries. Republication uses the idempotent max-merge row import, so
    entries that survived the crash in the live location tables are not
    double-counted.
    """
    if system.state_dir is None:
        raise RuntimeError("restart requires a system built with state_dir")
    old = system.storage_nodes.get(node_id)
    if old is not None and old.alive:
        raise ValueError(f"storage node {node_id!r} is still alive")
    span = tracer.span("recover", node=node_id) if tracer.enabled else None

    previous_parent = old.index_node_id if old is not None else None
    if node_id in system.network.nodes:
        system.network.deregister(node_id)

    graph = system.durable_graph(node_id)
    node = StorageNode(node_id, graph=graph)
    system.network.register(node)
    system.storage_nodes[node_id] = node

    parent_id = previous_parent
    if parent_id is None or parent_id not in system.index_nodes \
            or not system.index_nodes[parent_id].alive:
        parent_id = system.ring.owner_of(
            hash_string(node_id, system.space)
        ).node_id
    parent = system.index_nodes[parent_id]
    node.index_node_id = parent_id
    if node_id not in parent.attached_storage:
        parent.attached_storage.append(node_id)

    if republish:
        for key, freq, owner, holders in system.placements(
                node.key_counts(system.space)):
            owner.table.import_row(key, {node_id: freq})
            for holder in holders:
                holder.replicas.import_row(key, {node_id: freq})

    system.durability.recoveries += 1
    system.journal_event("storage-restart", node_id)
    if span is not None:
        span.close(
            triples=len(node.graph),
            records_replayed=graph.recovery_info["records_replayed"],
        )
    return node


def restart_index_node(
    system: HybridSystem,
    node_id: str,
    stabilize_rounds: int = 3,
    tracer=NULL_TRACER,
) -> IndexNode:
    """Bring a crashed index node back from its on-disk state.

    The node's location table is recovered (snapshot + WAL replay), the
    node re-joins the ring under its old identifier — pulling back the
    owned key range its successor took over — and the recovered table is
    reconciled against the live system:

    * rows replicated on ring successors are merged back (max-merge);
    * if the membership epoch moved past the recovered one, cells
      pointing at storage nodes that no longer exist are dropped
      (stale-entry detection, Sect. III-D).
    """
    if system.state_dir is None:
        raise RuntimeError("restart requires a system built with state_dir")
    old = system.index_nodes.get(node_id)
    if old is None:
        raise KeyError(f"unknown index node {node_id!r}")
    if old.alive:
        raise ValueError(f"index node {node_id!r} is still alive")
    span = tracer.span("recover", node=node_id) if tracer.enabled else None

    ident = old.ident
    previously_attached = list(old.attached_storage)
    # Remove the corpse: same id, fresh process.
    if node_id in system.network.nodes:
        system.network.deregister(node_id)
    del system.ring.nodes[node_id]
    del system.index_nodes[node_id]

    table = system.durable_table(node_id)
    node = IndexNode(
        node_id,
        ident,
        system.space,
        successor_list_size=system.successor_list_size,
        replication_factor=system.replication_factor,
        table=table,
    )
    system.ring.add_node(node)
    system.index_nodes[node_id] = node
    system.ring.join_via(node)
    system.ring.stabilize(stabilize_rounds)

    # Merge back rows that were replicated on live successors (they may
    # have moved past what the local log captured before the crash).
    merged = 0
    for other in system.index_nodes.values():
        if other is node or not other.alive:
            continue
        for key, row in list(other.replicas.export_range()):
            if node.owns(key):
                node.table.import_row(key, row)
                merged += 1
    system.durability.replica_rows_reconciled += merged

    # Epoch check: if membership moved while this node was down, its
    # recovered rows may point at storage nodes that no longer exist.
    if table.recovered_epoch != system.network.membership_epoch:
        dropped = 0
        for key in list(node.table.keys()):
            for storage_id in list(node.table.row_dict(key)):
                peer = system.storage_nodes.get(storage_id)
                if peer is None or not peer.alive:
                    node.table.remove(key, storage_id)
                    dropped += 1
        system.durability.stale_entries_dropped += dropped
    table.note_epoch(system.network.membership_epoch)

    # Re-adopt the storage nodes that were attached beneath this node.
    for storage_id in previously_attached:
        storage = system.storage_nodes.get(storage_id)
        if storage is not None and storage.index_node_id == node_id:
            if storage_id not in node.attached_storage:
                node.attached_storage.append(storage_id)

    system.durability.recoveries += 1
    system.journal_event("index-restart", node_id)
    if span is not None:
        span.close(
            keys=len(node.table),
            records_replayed=table.recovery_info["records_replayed"],
            replica_rows=merged,
        )
    return node
