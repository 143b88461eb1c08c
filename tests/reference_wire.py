"""The table-building dictionary-delta encoder, kept as the test oracle.

This is ``repro.net.wire.SolutionBatch`` as it stood before the data
plane went size-only: it canonically sorts the rows, builds the variable
and term tables in first-appearance order and rewrites every row as
index pairs. Only its envelope has changed since: a plain-mode batch
carries the one-byte mode flag, a dictionary-mode batch the six-byte
header with the three table lengths. The engine no longer does any of that — it derives
the same ``wire_size()`` and ``mode`` arithmetically — so this copy is
what ``tests/test_net_wire.py`` holds the arithmetic to.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.net.sizes import size_of
from repro.net.wire import BATCH_HEADER_BYTES, PLAIN_HEADER_BYTES, mapping_sort_key
from repro.rdf.terms import RDFTerm, Variable
from repro.sparql.solutions import SolutionMapping, _Schema

__all__ = ["ReferenceBatch"]

_CONTAINER_OVERHEAD = 8
_PER_ITEM_OVERHEAD = 2


def _index_width(count: int) -> int:
    if count <= 0xFF:
        return 1
    if count <= 0xFFFF:
        return 2
    return 4


class ReferenceBatch:
    """A dictionary-delta encoded set of solution mappings.

    Variables and RDF terms appear once each in side tables; every row is
    a tuple of (variable index, term index) pairs. Construction is
    deterministic: rows are canonically ordered and the term table is
    filled in first-appearance order over that ordering, so encoding the
    same set twice (or from any iteration order) yields identical
    structure and identical ``wire_size()``.
    """

    __slots__ = ("variables", "terms", "rows", "mode", "_wire")

    def __init__(
        self,
        variables: Tuple[Variable, ...],
        terms: Tuple[RDFTerm, ...],
        rows: Tuple[Tuple[Tuple[int, int], ...], ...],
        mode: str,
        wire: int,
    ) -> None:
        self.variables = variables
        self.terms = terms
        self.rows = rows
        self.mode = mode
        self._wire = wire

    # ------------------------------------------------------------ encoding

    @classmethod
    def encode(cls, solutions: Iterable[SolutionMapping]) -> "ReferenceBatch":
        ordered = sorted(set(solutions), key=mapping_sort_key)
        var_index: Dict[Variable, int] = {}
        term_index: Dict[RDFTerm, int] = {}
        variables: List[Variable] = []
        terms: List[RDFTerm] = []
        rows: List[Tuple[Tuple[int, int], ...]] = []
        naive = _CONTAINER_OVERHEAD
        npairs = 0
        # Rows sharing a schema share variable indices; resolve the
        # variable table once per schema instead of once per row. The
        # tables still fill in first-appearance order over the canonical
        # row ordering, so the encoding is unchanged.
        schema_vis: Dict[object, Tuple[int, ...]] = {}
        for mu in ordered:
            naive += size_of(mu) + _PER_ITEM_OVERHEAD
            schema = mu._schema
            vis = schema_vis.get(schema)
            if vis is None:
                resolved: List[int] = []
                for var in schema.vars:
                    vi = var_index.get(var)
                    if vi is None:
                        vi = var_index[var] = len(variables)
                        variables.append(var)
                    resolved.append(vi)
                vis = schema_vis[schema] = tuple(resolved)
            row: List[Tuple[int, int]] = []
            for vi, term in zip(vis, mu._values):
                ti = term_index.get(term)
                if ti is None:
                    ti = term_index[term] = len(terms)
                    terms.append(term)
                row.append((vi, ti))
            npairs += len(row)
            rows.append(tuple(row))

        var_w = _index_width(len(variables))
        term_w = _index_width(len(terms))
        dict_size = (
            _CONTAINER_OVERHEAD
            + sum(size_of(v) + _PER_ITEM_OVERHEAD for v in variables)
            + _CONTAINER_OVERHEAD
            + sum(size_of(t) + _PER_ITEM_OVERHEAD for t in terms)
            + _CONTAINER_OVERHEAD
            + len(rows) * _PER_ITEM_OVERHEAD
            + npairs * (var_w + term_w)
        )
        # The dictionary carries its three table lengths; the plain list
        # only the mode flag.
        dict_wire = BATCH_HEADER_BYTES + dict_size
        plain_wire = PLAIN_HEADER_BYTES + naive
        mode = "dict" if dict_wire <= plain_wire else "plain"
        wire = min(dict_wire, plain_wire)
        return cls(tuple(variables), tuple(terms), tuple(rows), mode, wire)

    def decode(self) -> Set[SolutionMapping]:
        variables = self.variables
        terms = self.terms
        # Rows sharing a variable-index signature share a schema; the
        # (schema, permutation) plan is computed once per signature.
        plans: Dict[Tuple[int, ...], Tuple[_Schema, Tuple[int, ...]]] = {}
        out: Set[SolutionMapping] = set()
        add = out.add
        for row in self.rows:
            signature = tuple([vi for vi, _ in row])
            plan = plans.get(signature)
            if plan is None:
                row_vars = [variables[vi] for vi in signature]
                order = sorted(range(len(row_vars)),
                               key=lambda i: row_vars[i].name)
                schema = _Schema.of(tuple([row_vars[i] for i in order]))
                plan = plans[signature] = (schema, tuple(order))
            schema, order = plan
            row_terms = [terms[ti] for _, ti in row]
            add(SolutionMapping._make(
                schema, tuple([row_terms[i] for i in order])
            ))
        return out

    # ---------------------------------------------------------------- misc

    def wire_size(self) -> int:
        return self._wire

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ReferenceBatch {len(self.rows)} rows, {len(self.terms)} terms, "
            f"{self.mode}, {self._wire}B>"
        )
