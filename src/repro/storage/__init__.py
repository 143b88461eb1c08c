"""Durable state & recovery (S13): write-ahead logs, snapshots, restart.

The paper's churn story (Sect. III-C/D) assumes a departed or crashed
node can come back and the system converges — but convergence is only
possible if the node's state survives the crash. This package is that
durability layer: a CRC-checked line-record write-ahead log built on the
N-Triples codec, periodic snapshots with log compaction, durable
wrappers for the RDF graph and the location table that replay
snapshot+log on open, a system-level membership journal, and whole-system
recovery from a state directory.
"""

from .codec import (
    CorruptRecord,
    PayloadCursor,
    Record,
    decode_record,
    encode_record,
    encode_str,
)
from .wal import WriteAheadLog
from .snapshot import SnapshotStore
from .durable import DurableGraph, DurableLocationTable
from .journal import SystemJournal, node_state_dir
from .recovery import recover_system

__all__ = [
    "CorruptRecord",
    "PayloadCursor",
    "Record",
    "decode_record",
    "encode_record",
    "encode_str",
    "WriteAheadLog",
    "SnapshotStore",
    "DurableGraph",
    "DurableLocationTable",
    "SystemJournal",
    "node_state_dir",
    "recover_system",
]
