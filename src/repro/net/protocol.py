"""The wire protocol, stated once.

The paper's workflow is a fixed set of messages between initiators,
index nodes and storage nodes (Sect. III-IV, Fig. 3). :data:`PROTOCOL`
declares each once, as a :class:`Method`: its handler (``rpc_<name>``
on the class named ``served_by``), its request record (None where the
payload is not one: ``ping``, ``get_predecessor``, ``get_successor_list``
and ``get_attached`` send None, ``notify`` a ``NodeRef``, ``import_keys``
a map of ring key to location row), its workflow phase, whether its
callee keeps no per-query state (``stateless``), and its delivery
semantics: :data:`PURE` (a repeat is harmless: the handler reads, or
writes by set union), :data:`ONCE` (idempotent per ``corr``: a repeat
awaits the first execution's reply) or :data:`MEMO` (a repeat gets the
first reply from a per-``corr`` memo). Receivers apply their semantics
whether or not a fault plan is installed. The transport and the tracer
read this table; calling an undeclared method raises at the call site.

A record costs what the dict of its wire fields would
(:func:`~repro.net.sizes.record_rule`): a ``SENT`` field even when None,
an ``OPTIONAL`` one only when it is not None. ``flow``, the query the
message belongs to, is never charged: the transport stamps the flow a
call names onto its record, and a handler relaying the query's messages
copies it forward.
"""

from __future__ import annotations

from dataclasses import field, make_dataclass
from typing import Any, Dict, Optional

from ..trace.tracer import PHASE_FINALIZE as FINALIZE, PHASE_JOIN as JOIN
from ..trace.tracer import PHASE_LOOKUP as LOOKUP, PHASE_SHIP as SHIP
from .sizes import HEADER_BYTES, record_rule, size_of

__all__ = ["Method", "PROTOCOL", "PURE", "ONCE", "MEMO", "RECORDS", "record", "method"]

#: Delivery semantics (see above).
PURE, ONCE, MEMO = "pure", "once per corr", "reply memo"

#: Every request record type, by name.
RECORDS: Dict[str, type] = {}


def record(name: str, sent: str, optional: str = "") -> type:
    """A slotted, keyword-only request record with the wire fields
    *sent* and *optional* (space-separated names) plus ``flow``."""
    sent_fields, optional_fields = tuple(sent.split()), tuple(optional.split())
    cls = make_dataclass(
        name,
        [(f, Any) for f in sent_fields]
        + [(f, Any, field(default=None)) for f in optional_fields]
        + [("flow", Optional[str], field(default=None, compare=False))],
        slots=True, kw_only=True,
        namespace={"__module__": __name__, "SENT": sent_fields,
                   "OPTIONAL": optional_fields})
    cls.SIZE = staticmethod(record_rule(cls, sent_fields, optional_fields))
    cls.copy = _copier(cls, sent_fields + optional_fields + ("flow",))
    RECORDS[name] = cls
    return cls


def _copier(cls: type, names: tuple):
    """The ``copy(**changes)`` method of a record type: a new record with
    the same fields, *changes* applied. Generated per record, one
    attribute copy per field, so it costs a fraction of
    ``dataclasses.replace``, which re-validates every field through
    ``__init__``. A name that is no field raises AttributeError."""
    body = ["def copy(self, **changes):\n    new = new_record(cls)\n"]
    body += [f"    new.{name} = self.{name}\n" for name in names]
    body.append("    for name, value in changes.items():\n"
                "        setattr(new, name, value)\n"
                "    return new\n")
    namespace = {"new_record": object.__new__, "cls": cls}
    exec("".join(body), namespace)
    return namespace["copy"]


# Ring lookups and key transfer (Chord).
FindSuccessor = record("FindSuccessor", "key", "avoid")
KeyRange = record("KeyRange", "lo hi")
# The two-level index: publication, replicas and row reads.
Publish = record("Publish", "storage_id entries")
IndexEntries = record("IndexEntries", "entries")
StorageRef = record("StorageRef", "storage_id")
RingKeys = record("RingKeys", "keys")
IndexLookup = record("IndexLookup", "key", "routed")
# Sub-query shipping, mailboxes, the result cache and combining.
ExecutePrimitive = record(
    "ExecutePrimitive", "algebra key strategy corr",
    "project plain partial cache deposit final end_at notify digest "
    "storage_timeout time_weight deadline routed")
Evaluate = record("Evaluate", "algebra", "digest project plain")
ChainStep = record("ChainStep", "algebra acc route final corr notify",
                   "digest project plain")
Deliver = record("Deliver", "corr data", "notify")
Delivered = record("Delivered", "corr count")
Ship = record("Ship", "corr dst dst_corr notify",
              "project digest plain")
Digest = record("Digest", "corr vars exact_threshold bloom_bits")
CacheProbe = record("CacheProbe", "ckey corr")
CacheAdmit = record("CacheAdmit", "ckey corr vars stamps membership")
Combine = record("Combine", "op left right out condition")
FilterBox = record("FilterBox", "corr out condition")
Fetch = record("Fetch", "corr", "plain")
# Baselines. A flooded query's answer is landed by ``deliver`` as a
# Deliver whose ``notify`` is always sent.
Flood = record("Flood", "qid algebra ttl initiator")
FloodAnswer = record("FloodAnswer", "corr data notify")
StoreTriples = record("StoreTriples", "key triples")
MatchPattern = record("MatchPattern", "key pattern")
MatchWithCandidates = record("MatchWithCandidates", "key pattern candidates")
RangeScan = record("RangeScan", "predicate ranges")


class Method:
    """One declared RPC method (see the module docstring)."""

    __slots__ = ("name", "served_by", "request", "phase", "delivery",
                 "stateless", "attr", "reply", "error", "header_bytes", "size")

    def __init__(self, name: str, served_by: str = "",
                 request: Optional[type] = None, phase: str = SHIP,
                 delivery: str = PURE, stateless: bool = False) -> None:
        self.name, self.served_by, self.request = name, served_by, request
        self.phase, self.delivery, self.stateless = phase, delivery, stateless
        self.attr = "rpc_" + name
        self.reply = name + ".reply"
        self.error = name + ".error"
        self.header_bytes = HEADER_BYTES + size_of(name)
        self.size = request.SIZE if request is not None else size_of


_METHODS = (
    # Chord ring (chord/node.py): lookups, stabilization, key transfer.
    Method("find_successor", "ChordNode", FindSuccessor, LOOKUP, stateless=True),
    Method("ping", "ChordNode", None, LOOKUP),
    Method("get_predecessor", "ChordNode", None, LOOKUP),
    Method("get_successor_list", "ChordNode", None, LOOKUP),
    Method("notify", "ChordNode", None, LOOKUP),
    Method("export_keys", "ChordNode", KeyRange, LOOKUP),
    Method("import_keys", "ChordNode", None, LOOKUP),
    # Two-level index (overlay/index_node.py): publication, rows, replicas.
    Method("publish", "IndexNode", Publish, LOOKUP),
    Method("index_put", "IndexNode", IndexEntries, LOOKUP),
    Method("replica_put", "IndexNode", IndexEntries, LOOKUP),
    Method("index_remove_storage", "IndexNode", StorageRef, LOOKUP),
    Method("replica_drop", "IndexNode", RingKeys, LOOKUP),
    Method("rereplicate", "IndexNode", RingKeys, LOOKUP),
    Method("index_lookup", "IndexNode", IndexLookup, LOOKUP),
    Method("get_attached", "IndexNode", None, LOOKUP),
    # Sub-query shipping and site-to-site intermediate results.
    Method("execute_primitive", "IndexNode", ExecutePrimitive, SHIP, ONCE),
    Method("evaluate", "StorageNode", Evaluate, SHIP),
    Method("chain_step", "StorageNode", ChainStep, SHIP),
    Method("deliver", "QueryPeer", Deliver, SHIP),
    Method("delivered", "QueryPeer", Delivered, SHIP),
    Method("ship", "QueryPeer", Ship, SHIP),
    Method("digest", "QueryPeer", Digest, SHIP),
    # The result cache: a probe stands in for the shipping it saves.
    Method("cache_probe", "QueryPeer", CacheProbe, SHIP),
    Method("cache_admit", "QueryPeer", CacheAdmit, SHIP, MEMO),
    # Combining at the join site.
    Method("combine", "QueryPeer", Combine, JOIN),
    Method("filter_box", "QueryPeer", FilterBox, JOIN),
    # Post-processing: the final result transfer.
    Method("fetch", "QueryPeer", Fetch, FINALIZE),
    # Baselines (baselines/): their traffic counts as shipping.
    Method("flood", "FloodingNode", Flood, SHIP),
    Method("store_triples", "RDFPeersNode", StoreTriples, SHIP),
    Method("store_numeric", "RDFPeersNode", StoreTriples, SHIP),
    Method("match_pattern", "RDFPeersNode", MatchPattern, SHIP),
    Method("match_with_candidates", "RDFPeersNode", MatchWithCandidates, SHIP),
    Method("range_scan", "RDFPeersNode", RangeScan, SHIP),
)

#: Method name -> declaration: every message the system sends.
PROTOCOL: Dict[str, Method] = {m.name: m for m in _METHODS}


def method(name: str) -> Method:
    """The declaration of *name*; raises ValueError for an undeclared one."""
    try:
        return PROTOCOL[name]
    except KeyError:
        raise ValueError(f"undeclared RPC method {name!r}") from None
