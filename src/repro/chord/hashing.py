"""Hashing of RDF attribute values onto the identifier space.

The two-level index applies "globally known hash functions" to the
subject ⟨s⟩, predicate ⟨p⟩, object ⟨o⟩ and to the pairs ⟨s,p⟩, ⟨p,o⟩,
⟨s,o⟩ of each shared triple (paper, Sect. III-B). We use SHA-1 (as Chord
does) truncated to the ring's m bits, over a canonical byte encoding of
the term(s); pairs are length-prefixed so that no two distinct attribute
combinations can collide structurally.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional, Union

from ..rdf.terms import RDFTerm
from .idspace import IdentifierSpace

__all__ = ["hash_term", "hash_terms", "hash_string", "hash_terms_seeded"]


def _canonical_bytes(term: Union[RDFTerm, str]) -> bytes:
    if isinstance(term, str):
        return term.encode("utf-8")
    # n3() is injective across term kinds (<...>, "..."@/^^, _:...).
    return term.n3().encode("utf-8")


def hash_string(value: str, space: IdentifierSpace) -> int:
    digest = hashlib.sha1(value.encode("utf-8")).digest()
    return int.from_bytes(digest, "big") % space.size


def hash_term(term: Union[RDFTerm, str], space: IdentifierSpace) -> int:
    """Hash a single attribute value to a ring identifier."""
    digest = hashlib.sha1(_canonical_bytes(term)).digest()
    return int.from_bytes(digest, "big") % space.size


def hash_terms(terms: Iterable[Union[RDFTerm, str]], space: IdentifierSpace) -> int:
    """Hash an attribute combination (e.g. ⟨s, p⟩) to a ring identifier.

    Each component is length-prefixed, making the encoding prefix-free:
    Hash(ab, c) can never equal Hash(a, bc) structurally.
    """
    hasher = hashlib.sha1()
    for term in terms:
        data = _canonical_bytes(term)
        hasher.update(len(data).to_bytes(4, "big"))
        hasher.update(data)
    return int.from_bytes(hasher.digest(), "big") % space.size


def hash_terms_seeded(
    terms: Iterable[Union[RDFTerm, str]], seed: int,
    modulus: Optional[int] = None,
) -> int:
    """Seeded variant of :func:`hash_terms` over an arbitrary modulus.

    The family of independent hash functions the Bloom-filter digests
    need (one per *seed*), built from the same canonical prefix-free
    term encoding as the index keys. Without *modulus*, the whole 160-bit
    value, which a caller may keep and reduce by any modulus later.
    """
    hasher = hashlib.sha1(seed.to_bytes(4, "big"))
    for term in terms:
        data = _canonical_bytes(term)
        hasher.update(len(data).to_bytes(4, "big"))
        hasher.update(data)
    value = int.from_bytes(hasher.digest(), "big")
    return value if modulus is None else value % modulus
