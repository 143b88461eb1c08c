"""SPARQL algebra and the AST → algebra translation.

This is the Query Transformation stage of the paper's workflow (Fig. 3):
"different parts of the syntax tree [are] converted into SPARQL algebra
expressions". The operator mapping follows Sect. IV-B:

* ``.`` / AND  → Join (adjacent BGPs are merged, so the paper's
  ``BGP(P1. P2)`` form is produced verbatim),
* UNION        → Union,
* OPTIONAL     → LeftJoin(·, ·, condition) — a left outer join; an inner
  FILTER becomes the third argument, otherwise it is ``true`` (paper
  footnote 16),
* FILTER       → Filter (a selection).

Algebra trees are immutable; the optimizer rewrites them functionally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union as TUnion

from ..rdf.terms import IRI, Variable
from ..rdf.triple import TriplePattern
from . import ast
from .errors import SparqlError

__all__ = [
    "Algebra", "BGP", "Join", "LeftJoin", "Union", "Filter", "GraphNode",
    "translate_pattern", "format_algebra",
]


class Algebra:
    """Base class of algebra operators."""

    #: Wire size, cached by :mod:`repro.net.sizes` (trees are immutable).
    __slots__ = ("_size",)

    def in_scope_vars(self) -> frozenset[Variable]:
        """Variables that *may* be bound in a solution of this pattern."""
        raise NotImplementedError

    def certain_vars(self) -> frozenset[Variable]:
        """Variables bound in *every* solution of this pattern.

        Needed for safe filter pushing (Schmidt et al., rules over
        possible/certain variables).
        """
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class BGP(Algebra):
    """A basic graph pattern: a set of triple patterns (conjunction)."""

    patterns: Tuple[TriplePattern, ...]

    def in_scope_vars(self) -> frozenset[Variable]:
        out: set[Variable] = set()
        for p in self.patterns:
            out.update(p.variables())
        return frozenset(out)

    def certain_vars(self) -> frozenset[Variable]:
        return self.in_scope_vars()


@dataclass(frozen=True, slots=True)
class Join(Algebra):
    left: Algebra
    right: Algebra

    def in_scope_vars(self) -> frozenset[Variable]:
        return self.left.in_scope_vars() | self.right.in_scope_vars()

    def certain_vars(self) -> frozenset[Variable]:
        return self.left.certain_vars() | self.right.certain_vars()


@dataclass(frozen=True, slots=True)
class LeftJoin(Algebra):
    """Left outer join; *condition* None encodes the literal ``true``."""

    left: Algebra
    right: Algebra
    condition: Optional[ast.Expression] = None

    def in_scope_vars(self) -> frozenset[Variable]:
        return self.left.in_scope_vars() | self.right.in_scope_vars()

    def certain_vars(self) -> frozenset[Variable]:
        return self.left.certain_vars()


@dataclass(frozen=True, slots=True)
class Union(Algebra):
    left: Algebra
    right: Algebra

    def in_scope_vars(self) -> frozenset[Variable]:
        return self.left.in_scope_vars() | self.right.in_scope_vars()

    def certain_vars(self) -> frozenset[Variable]:
        return self.left.certain_vars() & self.right.certain_vars()


@dataclass(frozen=True, slots=True)
class Filter(Algebra):
    condition: ast.Expression
    pattern: Algebra

    def in_scope_vars(self) -> frozenset[Variable]:
        return self.pattern.in_scope_vars()

    def certain_vars(self) -> frozenset[Variable]:
        return self.pattern.certain_vars()


@dataclass(frozen=True, slots=True)
class GraphNode(Algebra):
    """GRAPH <g> { P } — evaluated against a named graph."""

    graph: TUnion[IRI, Variable]
    pattern: Algebra

    def in_scope_vars(self) -> frozenset[Variable]:
        extra = frozenset({self.graph}) if isinstance(self.graph, Variable) else frozenset()
        return self.pattern.in_scope_vars() | extra

    def certain_vars(self) -> frozenset[Variable]:
        extra = frozenset({self.graph}) if isinstance(self.graph, Variable) else frozenset()
        return self.pattern.certain_vars() | extra


_EMPTY_BGP = BGP(())


def translate_pattern(pattern: ast.GraphPattern) -> Algebra:
    """Translate a surface graph pattern into its algebra expression.

    Adjacent BGPs under a Join are merged so conjunctions come out as the
    paper writes them: ``BGP(P1. P2)`` rather than
    ``Join(BGP(P1), BGP(P2))``.
    """
    if isinstance(pattern, ast.TriplesBlock):
        return BGP(pattern.patterns)
    if isinstance(pattern, ast.UnionPattern):
        return Union(translate_pattern(pattern.left), translate_pattern(pattern.right))
    if isinstance(pattern, ast.OptionalPattern):
        # OPTIONAL outside a group is meaningless; translate as against the
        # empty BGP (the spec's Z = the empty pattern).
        inner, condition = _translate_optional_body(pattern)
        return LeftJoin(_EMPTY_BGP, inner, condition)
    if isinstance(pattern, ast.FilterClause):
        return Filter(pattern.expression, _EMPTY_BGP)
    if isinstance(pattern, ast.NamedGraphPattern):
        return GraphNode(pattern.graph, translate_pattern(pattern.pattern))
    if isinstance(pattern, ast.GroupPattern):
        return _translate_group(pattern)
    raise SparqlError(f"cannot translate pattern {type(pattern).__name__}")


def _translate_optional_body(
    pattern: ast.OptionalPattern,
) -> tuple[Algebra, Optional[ast.Expression]]:
    """Per the spec, a FILTER directly inside OPTIONAL's group becomes the
    LeftJoin condition (paper footnote 16: otherwise the third argument is
    ``true``)."""
    body = pattern.pattern
    if isinstance(body, ast.GroupPattern) and body.filters:
        stripped = ast.GroupPattern(elements=body.elements, filters=())
        condition = _conjoin([f.expression for f in body.filters])
        return _translate_group(stripped), condition
    return translate_pattern(body), None


def _translate_group(group: ast.GroupPattern) -> Algebra:
    current: Algebra = _EMPTY_BGP
    for element in group.elements:
        if isinstance(element, ast.OptionalPattern):
            inner, condition = _translate_optional_body(element)
            current = LeftJoin(current, inner, condition)
        else:
            current = _join(current, translate_pattern(element))
    for filter_clause in group.filters:
        current = Filter(filter_clause.expression, current)
    return current


def _join(left: Algebra, right: Algebra) -> Algebra:
    """Join with unit elimination and BGP merging."""
    if isinstance(left, BGP) and not left.patterns:
        return right
    if isinstance(right, BGP) and not right.patterns:
        return left
    if isinstance(left, BGP) and isinstance(right, BGP):
        return BGP(left.patterns + right.patterns)
    return Join(left, right)


def _conjoin(expressions: list[ast.Expression]) -> ast.Expression:
    expr = expressions[0]
    for nxt in expressions[1:]:
        expr = ast.AndExpr(expr, nxt)
    return expr


# ------------------------------------------------------------ presentation


def format_algebra(node: Algebra, pattern_names: Optional[dict] = None) -> str:
    """Render an algebra tree in the paper's notation.

    With *pattern_names* mapping :class:`TriplePattern` → label (e.g.
    ``P1``), the output matches the paper's expressions literally, e.g.
    ``Filter(C1, LeftJoin(BGP(P1. P2), BGP(P3), true))`` for Fig. 9.
    """
    names = pattern_names or {}

    def fmt(n: Algebra) -> str:
        if isinstance(n, BGP):
            inner = ". ".join(names.get(p, p.n3().rstrip(" .")) for p in n.patterns)
            return f"BGP({inner})"
        if isinstance(n, Join):
            return f"Join({fmt(n.left)}, {fmt(n.right)})"
        if isinstance(n, LeftJoin):
            cond = "true" if n.condition is None else _fmt_expr(n.condition, names)
            return f"LeftJoin({fmt(n.left)}, {fmt(n.right)}, {cond})"
        if isinstance(n, Union):
            return f"Union({fmt(n.left)}, {fmt(n.right)})"
        if isinstance(n, Filter):
            return f"Filter({_fmt_expr(n.condition, names)}, {fmt(n.pattern)})"
        if isinstance(n, GraphNode):
            return f"Graph({n.graph.n3()}, {fmt(n.pattern)})"
        return repr(n)

    return fmt(node)


def _fmt_expr(expr: ast.Expression, names: dict) -> str:
    if expr in names:
        return names[expr]
    if isinstance(expr, ast.TermExpr):
        return expr.term.n3()
    if isinstance(expr, ast.FunctionCall):
        return f"{expr.name.lower()}({', '.join(_fmt_expr(a, names) for a in expr.args)})"
    if isinstance(expr, ast.CompareExpr):
        return f"({_fmt_expr(expr.left, names)} {expr.op} {_fmt_expr(expr.right, names)})"
    if isinstance(expr, ast.ArithExpr):
        return f"({_fmt_expr(expr.left, names)} {expr.op} {_fmt_expr(expr.right, names)})"
    if isinstance(expr, ast.AndExpr):
        return f"({_fmt_expr(expr.left, names)} && {_fmt_expr(expr.right, names)})"
    if isinstance(expr, ast.OrExpr):
        return f"({_fmt_expr(expr.left, names)} || {_fmt_expr(expr.right, names)})"
    if isinstance(expr, ast.NotExpr):
        return f"!{_fmt_expr(expr.operand, names)}"
    if isinstance(expr, ast.NegExpr):
        return f"-{_fmt_expr(expr.operand, names)}"
    return repr(expr)
