"""Chord DHT substrate (S8): identifier space, hashing, nodes, ring, lookup."""

from .idspace import IdentifierSpace
from .hashing import hash_string, hash_term, hash_terms
from .node import ChordNode, LookupResult, NodeRef
from .ring import ChordRing
from .lookup import LookupSample, lookup, measure_lookups

__all__ = [
    "IdentifierSpace",
    "hash_string",
    "hash_term",
    "hash_terms",
    "ChordNode",
    "NodeRef",
    "LookupResult",
    "ChordRing",
    "lookup",
    "measure_lookups",
    "LookupSample",
]
