"""Deterministic wire-size model for simulated messages.

"Minimizing the total amount of intersite data transmission" is the
paper's principal optimization criterion (Sect. IV-C); to compare
strategies we therefore need an exact, reproducible byte count for every
payload that crosses a link. This module assigns each payload a size equal
to what a compact N-Triples/JSON-ish encoding would occupy, so relative
comparisons between strategies are meaningful and stable across runs.

Sizing is a wall-clock hot spot: every simulated message charges
``size_of`` over its whole payload, and solution sets are re-sized each
time they ship. Dispatch is a ``type() -> handler`` table (a type's rule
is resolved once, on first sight, for subclasses and the open-ended
cases; containers use it without re-entering ``size_of``), and per-term,
per-mapping and per-BGP results are cached on the instances themselves —
sound because RDF terms are interned and mappings and algebra trees are
immutable. The sizes are byte-identical to the original structural
recursion (a Hypothesis test pins them against it).
"""

from __future__ import annotations

import dataclasses
import enum
from itertools import chain
from operator import attrgetter
from typing import Any

from ..rdf.terms import IRI, BlankNode, Literal, Variable
from ..rdf.triple import Triple, TriplePattern
from ..sparql.algebra import BGP
from ..sparql.solutions import SolutionMapping

__all__ = ["size_of", "HEADER_BYTES"]

#: Fixed per-message envelope (addresses, message type, request id).
HEADER_BYTES = 48

_CONTAINER_OVERHEAD = 8
_PER_ITEM_OVERHEAD = 2

_set = object.__setattr__
#: The types that cache their size in a ``_size`` slot (None until sized).
_SIZED = frozenset({IRI, Literal, BlankNode, Variable, SolutionMapping})
_cached_size = attrgetter("_size")
_ROWS = {tuple}
#: Sequences at least this long try the C sum (short control payloads
#: would pay more for the type checks than the sum saves).
_BULK = 8


def _size_iri(payload: IRI) -> int:
    n = payload._size
    if n is None:
        n = len(payload.value) + 2
        _set(payload, "_size", n)
    return n


def _size_literal(payload: Literal) -> int:
    n = payload._size
    if n is None:
        n = len(payload.lexical) + 2
        if payload.language:
            n += len(payload.language) + 1
        if payload.datatype:
            n += len(payload.datatype.value) + 4
        _set(payload, "_size", n)
    return n


def _size_blank(payload: BlankNode) -> int:
    n = payload._size
    if n is None:
        n = len(payload.label) + 2
        _set(payload, "_size", n)
    return n


def _size_variable(payload: Variable) -> int:
    n = payload._size
    if n is None:
        n = len(payload.name) + 1
        _set(payload, "_size", n)
    return n


def _size_triple(payload) -> int:
    return size_of(payload.s) + size_of(payload.p) + size_of(payload.o) + 3


def _size_bgp(payload: BGP) -> int:
    """The dataclass rule over ``patterns``, kept on the BGP."""
    n = getattr(payload, "_size", None)
    if n is None:
        n = _CONTAINER_OVERHEAD + _PER_ITEM_OVERHEAD + _size_sequence(payload.patterns)
        _set(payload, "_size", n)
    return n


def _size_mapping(payload: SolutionMapping) -> int:
    """Read each variable's and term's cached size; the type rule runs
    only on a term's first sight (a size is never 0)."""
    n = payload._size
    if n is None:
        values = payload._values
        n = _CONTAINER_OVERHEAD + _PER_ITEM_OVERHEAD * len(values)
        for v, t in zip(payload._schema.vars, values):
            n += (v._size or _size_variable(v)) + (t._size or size_of(t))
        payload._size = n
    return n


def _size_dict(payload: dict) -> int:
    n = _CONTAINER_OVERHEAD + _PER_ITEM_OVERHEAD * len(payload)
    for k, v in payload.items():
        n += (_DISPATCH.get(type(k)) or size_of)(k) + (_DISPATCH.get(type(v)) or size_of)(v)
    return n


def record_rule(cls: type, sent: tuple, optional: tuple):
    """Install and return the rule of a request record type
    (:mod:`repro.net.protocol`): what :func:`_size_dict` charges for the
    dict of its wire fields — every *sent* field, None included, and
    each *optional* one that is not None, field names included.

    The rule is generated per record, as dataclasses generate their
    ``__init__``: one attribute read per field, name costs folded into
    constants, and an unset optional field costs one ``is None`` test.
    Field names are identifiers (``make_dataclass`` checks them)."""
    fixed = _CONTAINER_OVERHEAD + sum(_PER_ITEM_OVERHEAD + len(n) for n in sent)
    # Most fields are ASCII strings (ids, names): their rule is inlined.
    value = ("(len(v) if type(v) is str and v.isascii() "
             "else (rule_of(type(v)) or size_of)(v))")
    body = [f"def size(record):\n    n = {fixed}\n"]
    for name in sent:
        body.append(f"    v = record.{name}\n"
                    f"    n += {value}\n")
    for name in optional:
        body.append(f"    v = record.{name}\n"
                    f"    if v is not None:\n"
                    f"        n += {_PER_ITEM_OVERHEAD + len(name)} + {value}\n")
    body.append("    return n\n")
    namespace = {"rule_of": _DISPATCH.get, "size_of": size_of}
    exec("".join(body), namespace)
    size = namespace["size"]
    size.__qualname__ = f"record_rule.<{cls.__name__}>"
    _DISPATCH[cls] = size
    return size


def _size_sequence(payload) -> int:
    """Container overhead plus every item. A bulk sequence whose items
    (or, for the result cache's term-tuple rows, whose rows' terms) all
    have their size cached in ``_size`` is summed in one C pass; an
    uncached size (``None``: TypeError) or an item without the slot
    (AttributeError) falls back to the exact per-item rule, as does
    every short sequence. Any iteration order gives the same sum."""
    count = len(payload)
    n = _CONTAINER_OVERHEAD + _PER_ITEM_OVERHEAD * count
    if count >= _BULK:
        first = next(iter(payload))
        try:
            if type(first) in _SIZED:
                return n + sum(map(_cached_size, payload))
            if (type(first) is tuple and first and type(first[0]) in _SIZED
                    and set(map(type, payload)) == _ROWS):
                return (n + _CONTAINER_OVERHEAD * count
                        + _PER_ITEM_OVERHEAD * sum(map(len, payload))
                        + sum(map(_cached_size, chain.from_iterable(payload))))
        except (AttributeError, TypeError):
            pass
    for item in payload:
        if type(item) is SolutionMapping:
            size = item._size
            n += size if size is not None else _size_mapping(item)
        else:
            n += (_DISPATCH.get(type(item)) or size_of)(item)
    return n


def _size_str(payload: str) -> int:
    return len(payload) if payload.isascii() else len(payload.encode("utf-8"))


_DISPATCH = {
    type(None): lambda payload: 1,
    bool: lambda payload: 1,
    int: lambda payload: 8,
    float: lambda payload: 8,
    str: _size_str,
    bytes: len,
    IRI: _size_iri,
    Literal: _size_literal,
    BlankNode: _size_blank,
    Variable: _size_variable,
    Triple: _size_triple,
    TriplePattern: _size_triple,
    BGP: _size_bgp,
    SolutionMapping: _size_mapping,
    dict: _size_dict,
    list: _size_sequence,
    tuple: _size_sequence,
    set: _size_sequence,
    frozenset: _size_sequence,
}

#: The rules above, in precedence order, for resolving subclasses.
_BASE_RULES = tuple(_DISPATCH.items())


def size_of(payload: Any) -> int:
    """Estimated serialized size of *payload* in bytes.

    Deterministic, structural, and additive over containers. Unknown
    objects may implement ``wire_size() -> int``.
    """
    handler = _DISPATCH.get(type(payload))
    if handler is None:
        handler = _DISPATCH[type(payload)] = _rule_for(type(payload))
    return handler(payload)


def _rule_for(cls: type):
    """Resolve the sizing rule for a type on first sight: subclasses
    inherit a table rule, then the open-ended cases (enums, ``wire_size``
    objects, dataclasses) in that order."""
    for kind, handler in _BASE_RULES:
        if issubclass(cls, kind):
            return handler
    if issubclass(cls, enum.Enum):
        return lambda payload: len(payload.name) + 1
    if callable(getattr(cls, "wire_size", None)):
        return lambda payload: int(payload.wire_size())
    if dataclasses.is_dataclass(cls):
        # Generic rule for structured payloads (algebra nodes, plan steps):
        # the sum of the fields plus container overhead.
        names = tuple(f.name for f in dataclasses.fields(cls))
        return lambda payload: _CONTAINER_OVERHEAD + sum(
            size_of(getattr(payload, name)) + _PER_ITEM_OVERHEAD
            for name in names
        )
    raise TypeError(f"no wire-size rule for {cls.__name__}")
