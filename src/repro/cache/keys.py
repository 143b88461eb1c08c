"""Canonical cache keys for triple patterns and BGP sub-results.

Two requests may reuse one cached result only if they are guaranteed to
produce the same rows. For a *primitive* pattern the cache key renames
variables to their first-occurrence index (``?x foaf:knows ?y`` and
``?a foaf:knows ?b`` both key as ``?0 <...knows> ?1``): key equality
then implies structural equivalence up to renaming, and the stored rows
are kept as *canonical term tuples* so a hit re-binds them to whatever
variable names the requesting pattern uses. A collision between
structurally different patterns is impossible by construction; an
unstable pattern ordering could at worst produce a benign miss.

For a *BGP* the cached value is a full solution set whose mappings bind
the query's actual variable names, so the key keeps those names verbatim
and canonicalizes only the pattern *order* (plus the projection
signature, which fixes the row schema under projection pushdown).
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from ..rdf.terms import Variable
from ..rdf.triple import TriplePattern
from ..sparql.solutions import compile_extractor, value_tuples

__all__ = ["pattern_cache_key", "bgp_cache_key", "rebind_rows", "canonical_rows"]


def _token(term, numbering: dict, ordered: list) -> str:
    if isinstance(term, Variable):
        index = numbering.get(term)
        if index is None:
            index = numbering[term] = len(ordered)
            ordered.append(term)
        return f"?{index}"
    return term.n3()


def pattern_cache_key(
    pattern: TriplePattern,
) -> Tuple[str, Tuple[Variable, ...]]:
    """Canonical key for one pattern, plus its variables in canonical
    (first-occurrence) order — the schema of the stored rows."""
    numbering: dict = {}
    ordered: list = []
    tokens = [
        _token(term, numbering, ordered)
        for term in (pattern.s, pattern.p, pattern.o)
    ]
    return " ".join(tokens), tuple(ordered)


def canonical_rows(solutions, variables: Tuple[Variable, ...]):
    """Solution mappings → tuple of canonical term tuples.

    *variables* is the canonical order from :func:`pattern_cache_key`;
    every stored row lists its terms in exactly that order, so the rows
    are variable-name-free and reusable across renamings. The rows come
    in arrival order, unsorted: nothing reads it, because
    :func:`rebind_rows` returns a set and the entry's byte count is a sum.
    """
    return tuple(value_tuples(solutions, variables))


def rebind_rows(rows, variables: Tuple[Variable, ...]):
    """Canonical term tuples → the frozen set of solution mappings over
    *variables* (the requesting pattern's own canonical variable order):
    one schema plan, then one pass over the rows. Frozen, so a hit ships
    the set itself."""
    return frozenset(compile_extractor(variables)(rows))


def bgp_cache_key(
    patterns: Iterable[TriplePattern],
    live: Optional[Iterable[Variable]],
) -> str:
    """Order-insensitive key for a BGP walk's combined sub-result.

    *live* is the projection the walk will apply (``None`` = every
    variable survives); it is part of the key because it fixes the
    schema of the rows that land at the combine site.
    """
    parts = sorted(
        " ".join(
            f"?{term.name}" if isinstance(term, Variable) else term.n3()
            for term in (p.s, p.p, p.o)
        )
        for p in patterns
    )
    if live is None:
        signature = "*"
    else:
        signature = ",".join(sorted(v.name for v in live))
    return " | ".join(parts) + " || " + signature
