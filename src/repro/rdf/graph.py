"""An indexed, in-memory RDF graph store.

Each storage node of the hybrid overlay "stores locally and manipulates
data items of its own" (paper, Sect. I); this class is that local
repository. It maintains three nested hash indexes (SPO, POS, OSP) so that
a triple pattern of *any* of the eight shapes of Sect. IV-C is answered by
direct index walks rather than a scan.

The index layout follows the classic scheme of Hexastore-style stores
reduced to three orderings, which suffice because each ordering serves the
lookups whose bound prefix matches it:

========  =======================
index     serves bound positions
========  =======================
SPO       s / s,p / s,p,o
POS       p / p,o
OSP       o / o,s
========  =======================
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Sequence, Set, Tuple

from .terms import RDFTerm, Term, Variable
from .triple import Triple, TriplePattern

__all__ = ["Graph"]

TermTuple = Tuple[RDFTerm, RDFTerm, RDFTerm]


class Graph:
    """A set of RDF triples with pattern-match access paths.

    The graph behaves as a set: duplicate adds are idempotent and size is
    the number of distinct triples. ``version`` counts the changes to that
    set: it moves on every effective add or discard and on nothing else,
    so an answer computed at one version holds while the version stands.
    """

    __slots__ = ("_spo", "_pos", "_osp", "_size", "version")

    def __init__(self, triples: Optional[Iterable[Triple]] = None) -> None:
        # Plain nested dicts, not defaultdicts: membership probes must
        # never materialize empty buckets (a missed defaultdict lookup
        # would insert one), and the insert path below is explicit.
        self._spo: Dict[RDFTerm, Dict[RDFTerm, Set[RDFTerm]]] = {}
        self._pos: Dict[RDFTerm, Dict[RDFTerm, Set[RDFTerm]]] = {}
        self._osp: Dict[RDFTerm, Dict[RDFTerm, Set[RDFTerm]]] = {}
        self._size = 0
        self.version = 0
        if triples is not None:
            for t in triples:
                self.add(t)

    # ------------------------------------------------------------------ set

    def add(self, triple: Triple) -> bool:
        """Insert *triple*; returns True if it was not already present."""
        if not isinstance(triple, Triple):
            raise TypeError(f"expected Triple, got {type(triple).__name__}")
        s, p, o = triple.s, triple.p, triple.o
        po = self._spo.get(s)
        if po is None:
            po = self._spo[s] = {}
            objects = po[p] = set()
        else:
            objects = po.get(p)
            if objects is None:
                objects = po[p] = set()
            elif o in objects:
                return False
        objects.add(o)
        self._insert(self._pos, p, o, s)
        self._insert(self._osp, o, s, p)
        self._size += 1
        self.version += 1
        return True

    @staticmethod
    def _insert(index, k1, k2, value) -> None:
        inner = index.get(k1)
        if inner is None:
            index[k1] = {k2: {value}}
            return
        values = inner.get(k2)
        if values is None:
            inner[k2] = {value}
        else:
            values.add(value)

    def discard(self, triple: Triple) -> bool:
        """Remove *triple* if present; returns True if it was removed."""
        s, p, o = triple.s, triple.p, triple.o
        po = self._spo.get(s)
        objects = po.get(p) if po is not None else None
        if not objects or o not in objects:
            return False
        objects.discard(o)
        # The index invariant guarantees the mirrored buckets exist, so
        # direct indexing here cannot materialize anything.
        self._pos[p][o].discard(s)
        self._osp[o][s].discard(p)
        self._prune(self._spo, s, p)
        self._prune(self._pos, p, o)
        self._prune(self._osp, o, s)
        self._size -= 1
        self.version += 1
        return True

    @staticmethod
    def _prune(index, k1, k2) -> None:
        inner = index.get(k1)
        if inner is not None and not inner.get(k2):
            inner.pop(k2, None)
            if not inner:
                index.pop(k1, None)

    def update(self, triples: Iterable[Triple]) -> int:
        """Add many triples; returns the number actually inserted.

        Validates the whole batch up front (like :meth:`add` does for one
        triple), so a non-Triple element raises TypeError *before* any
        mutation — never leaving the graph partially updated.
        """
        batch = list(triples)
        for t in batch:
            if not isinstance(t, Triple):
                raise TypeError(f"expected Triple, got {type(t).__name__}")
        return sum(1 for t in batch if self.add(t))

    def __contains__(self, triple: Triple) -> bool:
        return triple.o in self._spo.get(triple.s, {}).get(triple.p, ())

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Triple]:
        for s, po in self._spo.items():
            for p, objs in po.items():
                for o in objs:
                    yield Triple(s, p, o)

    def __bool__(self) -> bool:
        return self._size > 0

    # ------------------------------------------------------------ matching

    def triples(self, pattern: TriplePattern) -> Iterator[Triple]:
        """Yield every triple structurally matching *pattern*.

        Repeated variables in the pattern (e.g. ``?x <p> ?x``) are honoured:
        positions sharing a variable must hold equal terms.
        """
        for s, p, o in self.scan(pattern.s, pattern.p, pattern.o):
            yield Triple(s, p, o)

    def scan(self, s: Term, p: Term, o: Term) -> Sequence[TermTuple]:
        """Matches of the pattern ``(s, p, o)`` as plain term tuples.

        The row-producing access path behind :meth:`triples` and BGP
        evaluation: a variable is a wildcard, the same variable in two
        positions requires equal terms there. No :class:`Triple` is built
        (or re-validated) per match — whatever is in the index already
        passed :meth:`add`.
        """
        s_var = type(s) is Variable
        p_var = type(p) is Variable
        rows = self._walk(None if s_var else s, None if p_var else p,
                          None if type(o) is Variable else o)
        # Interned variables: a repeated one is the same object.
        if s_var and s is p:
            rows = [t for t in rows if t[0] == t[1]]
        if s_var and s is o:
            rows = [t for t in rows if t[0] == t[2]]
        if p_var and p is o:
            rows = [t for t in rows if t[1] == t[2]]
        return rows

    def _walk(self, s, p, o) -> Sequence[TermTuple]:
        """Direct index walk for the bound positions (None = unbound)."""
        if s is not None:
            po = self._spo.get(s)
            if po is None:
                return ()
            if p is not None:
                objs = po.get(p, ())
                if o is not None:
                    return ((s, p, o),) if o in objs else ()
                return [(s, p, obj) for obj in objs]
            if o is not None:
                return [(s, pred, o)
                        for pred in self._osp.get(o, {}).get(s, ())]
            return [(s, pred, obj) for pred, objs in po.items()
                    for obj in objs]
        if p is not None:
            os_ = self._pos.get(p)
            if os_ is None:
                return ()
            if o is not None:
                return [(subj, p, o) for subj in os_.get(o, ())]
            return [(subj, p, obj) for obj, subjects in os_.items()
                    for subj in subjects]
        if o is not None:
            return [(subj, pred, o)
                    for subj, preds in self._osp.get(o, {}).items()
                    for pred in preds]
        return [(subj, pred, obj) for subj, po in self._spo.items()
                for pred, objs in po.items() for obj in objs]

    def count(self, pattern: TriplePattern) -> int:
        """Number of triples matching *pattern*."""
        return len(self.scan(pattern.s, pattern.p, pattern.o))

    # --------------------------------------------------------------- views

    def subjects(self) -> Set[RDFTerm]:
        return set(self._spo.keys())

    def predicates(self) -> Set[RDFTerm]:
        return set(self._pos.keys())

    def objects(self) -> Set[RDFTerm]:
        return set(self._osp.keys())

    def copy(self) -> "Graph":
        return Graph(iter(self))

    def __or__(self, other: "Graph") -> "Graph":
        merged = self.copy()
        merged.update(iter(other))
        return merged

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._size == other._size and all(t in other for t in self)

    # Graphs are mutable containers with value-based equality; an identity
    # hash would silently break dict/set membership for equal graphs, so
    # graphs are explicitly unhashable (like list and dict).
    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(<{self._size} triples>)"
