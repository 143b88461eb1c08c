"""The hybrid two-level P2P overlay (S9): index + storage nodes, the
six-key distributed index, location tables, membership, replication."""

from .keys import KeyKind, SHAPE_TO_KEY, index_keys, key_for_pattern, ring_key
from .location_table import LocationEntry, LocationTable
from .peer import QueryPeer
from .storage_node import StorageNode
from .index_node import IndexNode, PRIMITIVE_STRATEGIES, PublicationFailed
from .system import FIG1_INDEX_IDS, FIG1_STORAGE_IDS, HybridSystem, fig1_network
from .membership import (
    depart_index_node,
    depart_storage_node,
    fail_index_node,
    fail_storage_node,
    join_index_node,
    restart_index_node,
    restart_storage_node,
)

__all__ = [
    "KeyKind",
    "SHAPE_TO_KEY",
    "index_keys",
    "key_for_pattern",
    "ring_key",
    "LocationEntry",
    "LocationTable",
    "QueryPeer",
    "StorageNode",
    "IndexNode",
    "PRIMITIVE_STRATEGIES",
    "PublicationFailed",
    "HybridSystem",
    "fig1_network",
    "FIG1_INDEX_IDS",
    "FIG1_STORAGE_IDS",
    "join_index_node",
    "depart_index_node",
    "fail_index_node",
    "fail_storage_node",
    "depart_storage_node",
    "restart_index_node",
    "restart_storage_node",
]
