"""Abstract syntax tree for SPARQL queries.

The Query Parser of the paper's workflow (Fig. 3) "translates [a query
string] into an abstract syntax tree composed of the query forms, graph
patterns, and solution sequence modifiers". These classes are exactly that
tree. Translation into SPARQL *algebra* expressions is a separate step
(:mod:`repro.sparql.algebra`), mirroring the paper's Query Transformation
stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from ..rdf.terms import IRI, Literal, Variable
from ..rdf.triple import TriplePattern

__all__ = [
    # expressions
    "Expression", "TermExpr", "OrExpr", "AndExpr", "NotExpr", "NegExpr",
    "CompareExpr", "ArithExpr", "FunctionCall",
    # graph patterns
    "GraphPattern", "TriplesBlock", "GroupPattern", "UnionPattern",
    "OptionalPattern", "FilterClause", "NamedGraphPattern",
    # query structure
    "Dataset", "OrderCondition", "SolutionModifiers",
    "Query", "SelectQuery", "AskQuery", "ConstructQuery", "DescribeQuery",
]


# --------------------------------------------------------------------------
# Expressions (FILTER / ORDER BY)
# --------------------------------------------------------------------------


class Expression:
    """Base class for FILTER / ORDER BY expressions."""

    __slots__ = ()

    def variables(self) -> frozenset[Variable]:
        """All variables mentioned anywhere in the expression."""
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class TermExpr(Expression):
    """A term used as an expression: variable, IRI, or literal."""

    term: Union[Variable, IRI, Literal]

    def variables(self) -> frozenset[Variable]:
        return frozenset({self.term}) if isinstance(self.term, Variable) else frozenset()


@dataclass(frozen=True, slots=True)
class OrExpr(Expression):
    left: Expression
    right: Expression

    def variables(self) -> frozenset[Variable]:
        return self.left.variables() | self.right.variables()


@dataclass(frozen=True, slots=True)
class AndExpr(Expression):
    left: Expression
    right: Expression

    def variables(self) -> frozenset[Variable]:
        return self.left.variables() | self.right.variables()


@dataclass(frozen=True, slots=True)
class NotExpr(Expression):
    operand: Expression

    def variables(self) -> frozenset[Variable]:
        return self.operand.variables()


@dataclass(frozen=True, slots=True)
class NegExpr(Expression):
    """Unary numeric negation."""

    operand: Expression

    def variables(self) -> frozenset[Variable]:
        return self.operand.variables()


@dataclass(frozen=True, slots=True)
class CompareExpr(Expression):
    """op in { '=', '!=', '<', '<=', '>', '>=' }."""

    op: str
    left: Expression
    right: Expression

    def variables(self) -> frozenset[Variable]:
        return self.left.variables() | self.right.variables()


@dataclass(frozen=True, slots=True)
class ArithExpr(Expression):
    """op in { '+', '-', '*', '/' }."""

    op: str
    left: Expression
    right: Expression

    def variables(self) -> frozenset[Variable]:
        return self.left.variables() | self.right.variables()


@dataclass(frozen=True, slots=True)
class FunctionCall(Expression):
    """A SPARQL built-in call: REGEX, BOUND, STR, LANG, DATATYPE, ...

    ``name`` is the upper-cased built-in name.
    """

    name: str
    args: Tuple[Expression, ...]

    def variables(self) -> frozenset[Variable]:
        out: frozenset[Variable] = frozenset()
        for arg in self.args:
            out |= arg.variables()
        return out


# --------------------------------------------------------------------------
# Graph patterns (surface form, pre-algebra)
# --------------------------------------------------------------------------


class GraphPattern:
    """Base class for surface-syntax graph patterns."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class TriplesBlock(GraphPattern):
    """A maximal run of triple patterns joined by '.' (conjunction)."""

    patterns: Tuple[TriplePattern, ...]

    def variables(self) -> frozenset[Variable]:
        out: set[Variable] = set()
        for p in self.patterns:
            out.update(p.variables())
        return frozenset(out)


@dataclass(frozen=True, slots=True)
class GroupPattern(GraphPattern):
    """A `{ ... }` group: a sequence of patterns and FILTER clauses.

    Filters are kept in source position but, per the SPARQL spec, they
    apply to the whole group — the algebra translation handles that.
    """

    elements: Tuple[GraphPattern, ...]
    filters: Tuple["FilterClause", ...] = ()


@dataclass(frozen=True, slots=True)
class UnionPattern(GraphPattern):
    left: GraphPattern
    right: GraphPattern


@dataclass(frozen=True, slots=True)
class OptionalPattern(GraphPattern):
    pattern: GraphPattern


@dataclass(frozen=True, slots=True)
class FilterClause(GraphPattern):
    expression: Expression


@dataclass(frozen=True, slots=True)
class NamedGraphPattern(GraphPattern):
    """GRAPH <iri-or-var> { ... } — accepted by the parser for coverage."""

    graph: Union[IRI, Variable]
    pattern: GraphPattern


# --------------------------------------------------------------------------
# Query structure
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Dataset:
    """FROM / FROM NAMED clauses.

    The paper notes (Sect. IV-A) that queries in the ad-hoc system usually
    carry *no* dataset clause, in which case the dataset is the union of
    all triples on all storage nodes — represented here by both tuples
    being empty.
    """

    default: Tuple[IRI, ...] = ()
    named: Tuple[IRI, ...] = ()

    @property
    def is_union_of_all(self) -> bool:
        return not self.default and not self.named


@dataclass(frozen=True, slots=True)
class OrderCondition:
    expression: Expression
    descending: bool = False


@dataclass(frozen=True, slots=True)
class SolutionModifiers:
    """Order / Projection / Distinct / Reduced / Offset / Limit (§IV-A)."""

    order: Tuple[OrderCondition, ...] = ()
    distinct: bool = False
    reduced: bool = False
    offset: int = 0
    limit: Optional[int] = None


@dataclass(frozen=True, slots=True)
class Query:
    """Common parts of the four query forms."""

    dataset: Dataset
    where: GraphPattern
    modifiers: SolutionModifiers
    prefixes: Tuple[Tuple[str, str], ...] = ()


@dataclass(frozen=True, slots=True)
class SelectQuery(Query):
    #: Projection variables; empty tuple means ``SELECT *``.
    projection: Tuple[Variable, ...] = ()

    @property
    def select_all(self) -> bool:
        return not self.projection


@dataclass(frozen=True, slots=True)
class AskQuery(Query):
    pass


@dataclass(frozen=True, slots=True)
class ConstructQuery(Query):
    template: Tuple[TriplePattern, ...] = ()


@dataclass(frozen=True, slots=True)
class DescribeQuery(Query):
    #: Terms to describe — variables or IRIs; empty means DESCRIBE *.
    subjects: Tuple[Union[Variable, IRI], ...] = ()
