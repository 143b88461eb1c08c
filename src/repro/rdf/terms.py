"""RDF term model.

The ad-hoc data sharing system of the paper manipulates RDF triples whose
components are *RDF terms*: IRIs, literals, and blank nodes (Sect. IV-A of
the paper, following the RDF abstract syntax [Klyne & Carroll 2004]).
SPARQL additionally introduces *variables*, which may occupy any position
of a triple pattern.

Terms are immutable, hashable value objects so they can be used freely as
dictionary keys in graph indexes, solution mappings, and the distributed
location tables.

**Identity contract.** Every term class is *interned*: constructing the
same term twice yields the same object, on every path — the constructor,
``copy``/``deepcopy`` and pickling (``__reduce__`` routes through the
constructor, so snapshot and WAL round-trips re-intern). Value-equal
therefore means identical, and the classes define no ``__eq__`` or
``__hash__``: the inherited identity versions are exact and run in C,
which matters because graph indexing, joins and wire sizing probe
dicts and sets with terms millions of times per run. The ``n3()`` text
and the wire size are cached on the instance.

The price is that a term's hash is its address, so iteration order over
a set or dict of terms is process history, not a function of the data.
No sort, tie-break or digest may depend on it; order by ``n3()``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

__all__ = [
    "Term",
    "IRI",
    "Literal",
    "BlankNode",
    "Variable",
    "RDFTerm",
    "XSD_INTEGER",
    "XSD_DECIMAL",
    "XSD_DOUBLE",
    "XSD_STRING",
    "XSD_BOOLEAN",
]

XSD = "http://www.w3.org/2001/XMLSchema#"
XSD_INTEGER = XSD + "integer"
XSD_DECIMAL = XSD + "decimal"
XSD_DOUBLE = XSD + "double"
XSD_STRING = XSD + "string"
XSD_BOOLEAN = XSD + "boolean"

_NUMERIC_DATATYPES = frozenset({XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE})

_IRI_FORBIDDEN = frozenset(' <>"{}|^`\\')

_set = object.__setattr__


class _Interned:
    """Shared immutability plumbing for the interned term classes."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.n3()  # type: ignore[attr-defined]


class IRI(_Interned):
    """An Internationalized Resource Identifier (RFC 3987 subset).

    The paper treats IRIs as opaque strings that are hashed to place index
    entries on the Chord ring; no resolution ever happens.
    """

    __slots__ = ("value", "_n3", "_size")

    _intern: Dict[str, "IRI"] = {}

    def __new__(cls, value: str) -> "IRI":
        self = cls._intern.get(value)
        if self is not None:
            return self
        if not value:
            raise ValueError("IRI value must be a non-empty string")
        if not _IRI_FORBIDDEN.isdisjoint(value):
            raise ValueError(f"IRI contains forbidden character: {value!r}")
        self = object.__new__(cls)
        _set(self, "value", value)
        _set(self, "_n3", None)
        _set(self, "_size", None)
        cls._intern[value] = self
        return self

    def __reduce__(self):
        return (IRI, (self.value,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IRI(value={self.value!r})"

    def n3(self) -> str:
        """Serialize in N-Triples / SPARQL surface syntax."""
        cached = self._n3
        if cached is None:
            cached = f"<{self.value}>"
            _set(self, "_n3", cached)
        return cached


class Literal(_Interned):
    """An RDF literal: lexical form plus optional language tag or datatype.

    A literal may carry *either* a language tag *or* a datatype IRI, never
    both (RDF 1.0 abstract syntax, which the paper builds on).
    """

    __slots__ = ("lexical", "language", "datatype", "_n3", "_size")

    _intern: Dict[Tuple[str, Optional[str], Optional[IRI]], "Literal"] = {}

    def __new__(
        cls,
        lexical: str,
        language: Optional[str] = None,
        datatype: Optional[IRI] = None,
    ) -> "Literal":
        key = (lexical, language, datatype)
        self = cls._intern.get(key)
        if self is not None:
            return self
        if language is not None and datatype is not None:
            raise ValueError("literal cannot have both language tag and datatype")
        if language is not None and not language:
            raise ValueError("language tag must be non-empty when present")
        self = object.__new__(cls)
        _set(self, "lexical", lexical)
        _set(self, "language", language)
        _set(self, "datatype", datatype)
        _set(self, "_n3", None)
        _set(self, "_size", None)
        cls._intern[key] = self
        return self

    def __reduce__(self):
        return (Literal, (self.lexical, self.language, self.datatype))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Literal(lexical={self.lexical!r}, "
                f"language={self.language!r}, datatype={self.datatype!r})")

    @property
    def is_numeric(self) -> bool:
        return self.datatype is not None and self.datatype.value in _NUMERIC_DATATYPES

    def to_python(self) -> Union[str, int, float, bool]:
        """Map to the closest Python value (used by FILTER evaluation)."""
        if self.datatype is None:
            return self.lexical
        dt = self.datatype.value
        if dt == XSD_INTEGER:
            return int(self.lexical)
        if dt in (XSD_DECIMAL, XSD_DOUBLE):
            return float(self.lexical)
        if dt == XSD_BOOLEAN:
            return self.lexical in ("true", "1")
        return self.lexical

    def n3(self) -> str:
        cached = self._n3
        if cached is not None:
            return cached
        escaped = (
            self.lexical.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\r", "\\r")
            .replace("\t", "\\t")
        )
        # Remaining C0/C1 controls (incl. form feed and line separators that
        # str.splitlines would break on) go out as \uXXXX escapes.
        if not escaped.isprintable():
            escaped = "".join(
                c if c.isprintable() or c == " "
                else (f"\\u{ord(c):04X}" if ord(c) <= 0xFFFF else f"\\U{ord(c):08X}")
                for c in escaped
            )
        if self.language:
            cached = f'"{escaped}"@{self.language}'
        elif self.datatype:
            cached = f'"{escaped}"^^{self.datatype.n3()}'
        else:
            cached = f'"{escaped}"'
        _set(self, "_n3", cached)
        return cached


class BlankNode(_Interned):
    """A blank node: a unique node with no IRI and an unbound value.

    Blank node labels are scoped to the document / storage node that minted
    them; the workload generators take care to mint distinct labels per
    provider so that the union dataset semantics of the paper stay sound.
    """

    __slots__ = ("label", "_n3", "_size")

    _intern: Dict[str, "BlankNode"] = {}

    def __new__(cls, label: str) -> "BlankNode":
        self = cls._intern.get(label)
        if self is not None:
            return self
        if not label:
            raise ValueError("blank node label must be non-empty")
        self = object.__new__(cls)
        _set(self, "label", label)
        _set(self, "_n3", None)
        _set(self, "_size", None)
        cls._intern[label] = self
        return self

    def __reduce__(self):
        return (BlankNode, (self.label,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlankNode(label={self.label!r})"

    def n3(self) -> str:
        cached = self._n3
        if cached is None:
            cached = f"_:{self.label}"
            _set(self, "_n3", cached)
        return cached


class Variable(_Interned):
    """A SPARQL query variable (``?name``).

    Variables are *not* RDF terms; they may appear in triple patterns but
    never in data triples. ``Graph.add`` enforces that.
    """

    __slots__ = ("name", "_n3", "_size")

    _intern: Dict[str, "Variable"] = {}

    def __new__(cls, name: str) -> "Variable":
        self = cls._intern.get(name)
        if self is not None:
            return self
        if not name:
            raise ValueError("variable name must be non-empty")
        if name.startswith(("?", "$")):
            raise ValueError("variable name must not include the ? / $ sigil")
        self = object.__new__(cls)
        _set(self, "name", name)
        _set(self, "_n3", None)
        _set(self, "_size", None)
        cls._intern[name] = self
        return self

    def __reduce__(self):
        return (Variable, (self.name,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Variable(name={self.name!r})"

    def n3(self) -> str:
        cached = self._n3
        if cached is None:
            cached = f"?{self.name}"
            _set(self, "_n3", cached)
        return cached


#: A concrete RDF term (anything that may appear in a data triple).
RDFTerm = Union[IRI, Literal, BlankNode]
#: Anything that may appear in a triple *pattern*.
Term = Union[IRI, Literal, BlankNode, Variable]


def is_concrete(term: Term) -> bool:
    """True when *term* may legally appear in a data triple."""
    return type(term) is not Variable
