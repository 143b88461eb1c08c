"""RDF triples and triple patterns.

A *triple* is a (subject, predicate, object) statement over concrete RDF
terms. A *triple pattern* "resembles an RDF triple except that its subject,
predicate and/or object may be a variable" (paper, footnote 4). The eight
possible binding shapes of a pattern (Sect. IV-C) are enumerated by
:class:`PatternShape`, which drives index-key selection in the distributed
planner.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Tuple

from .terms import IRI, Literal, RDFTerm, Term, Variable, is_concrete

__all__ = ["Triple", "TriplePattern", "PatternShape"]


class PatternShape(enum.Enum):
    """The eight triple-pattern shapes of Sect. IV-C.

    The three letters name subject/predicate/object; an upper-case letter
    means *bound* (a concrete term), a lower-case letter means a variable.
    ``SPo`` is thus (s_i, p_i, ?o).
    """

    spo = "(?s, ?p, ?o)"
    spO = "(?s, ?p, o)"
    sPo = "(?s, p, ?o)"
    sPO = "(?s, p, o)"
    Spo = "(s, ?p, ?o)"
    SpO = "(s, ?p, o)"
    SPo = "(s, p, ?o)"
    SPO = "(s, p, o)"

    @property
    def bound_positions(self) -> Tuple[str, ...]:
        """Which of 's', 'p', 'o' are bound in this shape."""
        return tuple(c.lower() for c in self.name if c.isupper())


@dataclass(frozen=True, slots=True)
class Triple:
    """A concrete RDF statement."""

    s: RDFTerm
    p: RDFTerm
    o: RDFTerm

    def __post_init__(self) -> None:
        for pos, term in (("subject", self.s), ("predicate", self.p), ("object", self.o)):
            if isinstance(term, Variable):
                raise TypeError(f"triple {pos} cannot be a variable")
        if isinstance(self.s, Literal):
            raise TypeError("triple subject cannot be a literal")
        if not isinstance(self.p, IRI):
            raise TypeError("triple predicate must be an IRI")

    def __iter__(self) -> Iterator[RDFTerm]:
        return iter((self.s, self.p, self.o))

    def n3(self) -> str:
        return f"{self.s.n3()} {self.p.n3()} {self.o.n3()} ."

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.n3()


@dataclass(frozen=True, slots=True)
class TriplePattern:
    """A triple pattern: any position may be a variable."""

    s: Term
    p: Term
    o: Term

    def __iter__(self) -> Iterator[Term]:
        return iter((self.s, self.p, self.o))

    @property
    def shape(self) -> PatternShape:
        name = (
            ("S" if is_concrete(self.s) else "s")
            + ("P" if is_concrete(self.p) else "p")
            + ("O" if is_concrete(self.o) else "o")
        )
        return PatternShape[name]

    def variables(self) -> frozenset[Variable]:
        """var(t): the set of variables occurring in this pattern."""
        return frozenset(t for t in self if isinstance(t, Variable))

    def is_concrete(self) -> bool:
        return not self.variables()

    def matches(self, triple: Triple) -> bool:
        """Structural match ignoring variables (no binding consistency).

        Binding-consistent matching (the same variable twice must take the
        same value) lives in :func:`repro.sparql.solutions.match_pattern`.
        """
        for pat, val in zip(self, triple):
            if is_concrete(pat) and pat != val:
                return False
        return True

    def substitute(self, bindings: "dict[Variable, RDFTerm]") -> "TriplePattern":
        """µ(t): replace variables according to a (partial) mapping."""

        def sub(term: Term) -> Term:
            if isinstance(term, Variable):
                return bindings.get(term, term)
            return term

        return TriplePattern(sub(self.s), sub(self.p), sub(self.o))

    def as_triple(self) -> Triple:
        """Convert to a concrete triple; raises if any variable remains."""
        if not self.is_concrete():
            raise ValueError(f"pattern still contains variables: {self}")
        return Triple(self.s, self.p, self.o)  # type: ignore[arg-type]

    def n3(self) -> str:
        return f"{self.s.n3()} {self.p.n3()} {self.o.n3()} ."

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.n3()
