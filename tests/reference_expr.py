"""The tree-walking FILTER interpreter, kept as the test oracle.

This is ``repro.sparql.expr`` as it stood before expressions were
compiled to closures: it dispatches on the AST with ``isinstance`` for
every row and looks every variable up in the mapping. The engine now
compiles an expression once per row schema; ``tests/test_expr_oracle.py``
holds the compiled form to this copy. It carries the one semantic fix
made at the same time: a value made by an operator (a Python ``int``,
``float``, ``bool`` or ``str``) is a literal to ``isLITERAL``,
``DATATYPE`` and ``LANG``, as the SPARQL value space says.

Evaluation may raise a *type error* (``SparqlEvalError``), in which case
the enclosing FILTER removes the solution; logical ``&&`` / ``||`` /
``!`` use three-valued logic over {true, false, error}.
"""

from __future__ import annotations

import math
import re
from typing import Optional, Union

from repro.rdf.terms import (
    IRI,
    BlankNode,
    Literal,
    RDFTerm,
    Variable,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
)
from repro.sparql import ast
from repro.sparql.errors import SparqlEvalError
from repro.sparql.solutions import SolutionMapping

__all__ = ["evaluate_expression", "effective_boolean_value", "filter_passes", "order_key"]

#: Values produced by expression evaluation: an RDF term, or a plain
#: Python bool/int/float produced by operators and built-ins.
Value = Union[RDFTerm, bool, int, float, str]

_TRUE = Literal("true", datatype=IRI(XSD_BOOLEAN))
_FALSE = Literal("false", datatype=IRI(XSD_BOOLEAN))


def evaluate_expression(expr: ast.Expression, mu: SolutionMapping) -> Value:
    """Evaluate *expr* under solution mapping *mu*.

    Raises :class:`SparqlEvalError` on unbound variables (outside BOUND)
    and on type errors, per the SPARQL semantics.
    """
    if isinstance(expr, ast.TermExpr):
        return _eval_term(expr.term, mu)
    if isinstance(expr, ast.OrExpr):
        return _eval_or(expr, mu)
    if isinstance(expr, ast.AndExpr):
        return _eval_and(expr, mu)
    if isinstance(expr, ast.NotExpr):
        return not effective_boolean_value(evaluate_expression(expr.operand, mu))
    if isinstance(expr, ast.NegExpr):
        return -_numeric(evaluate_expression(expr.operand, mu))
    if isinstance(expr, ast.CompareExpr):
        return _eval_compare(expr, mu)
    if isinstance(expr, ast.ArithExpr):
        return _eval_arith(expr, mu)
    if isinstance(expr, ast.FunctionCall):
        return _eval_call(expr, mu)
    raise SparqlEvalError(f"unknown expression node {type(expr).__name__}")


def filter_passes(expr: ast.Expression, mu: SolutionMapping) -> bool:
    """True when µ satisfies R; a type error counts as *not satisfied*."""
    try:
        return effective_boolean_value(evaluate_expression(expr, mu))
    except SparqlEvalError:
        return False


# --------------------------------------------------------------------- EBV


def effective_boolean_value(value: Value) -> bool:
    """SPARQL's Effective Boolean Value coercion."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0 and not (isinstance(value, float) and math.isnan(value))
    if isinstance(value, str):
        return len(value) > 0
    if isinstance(value, Literal):
        dt = value.datatype.value if value.datatype else None
        if dt == XSD_BOOLEAN:
            return value.lexical in ("true", "1")
        if dt in (XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE):
            try:
                return effective_boolean_value(value.to_python())
            except ValueError:
                return False  # invalid lexical form -> EBV false per spec
        if dt is None or dt == XSD_STRING:
            return len(value.lexical) > 0
    raise SparqlEvalError(f"no effective boolean value for {value!r}")


# ----------------------------------------------------------------- helpers


def _eval_term(term: Union[Variable, IRI, Literal], mu: SolutionMapping) -> Value:
    if isinstance(term, Variable):
        bound = mu.get(term)
        if bound is None:
            raise SparqlEvalError(f"unbound variable ?{term.name}")
        return bound
    return term


def _eval_or(expr: ast.OrExpr, mu: SolutionMapping) -> bool:
    """Three-valued OR: true if either side is true, even if the other errs."""
    left_err: Optional[SparqlEvalError] = None
    try:
        if effective_boolean_value(evaluate_expression(expr.left, mu)):
            return True
    except SparqlEvalError as exc:
        left_err = exc
    try:
        if effective_boolean_value(evaluate_expression(expr.right, mu)):
            return True
    except SparqlEvalError:
        raise
    if left_err is not None:
        raise left_err
    return False


def _eval_and(expr: ast.AndExpr, mu: SolutionMapping) -> bool:
    """Three-valued AND: false if either side is false, even if other errs."""
    left_err: Optional[SparqlEvalError] = None
    try:
        if not effective_boolean_value(evaluate_expression(expr.left, mu)):
            return False
    except SparqlEvalError as exc:
        left_err = exc
    try:
        if not effective_boolean_value(evaluate_expression(expr.right, mu)):
            return False
    except SparqlEvalError:
        raise
    if left_err is not None:
        raise left_err
    return True


def _numeric(value: Value) -> Union[int, float]:
    if isinstance(value, bool):
        raise SparqlEvalError("boolean is not numeric")
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, Literal) and value.is_numeric:
        try:
            return value.to_python()  # type: ignore[return-value]
        except ValueError as exc:
            raise SparqlEvalError(f"invalid numeric literal {value!r}") from exc
    raise SparqlEvalError(f"not a numeric value: {value!r}")


def _string(value: Value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, Literal):
        dt = value.datatype.value if value.datatype else None
        if dt is None or dt == XSD_STRING:
            return value.lexical
    raise SparqlEvalError(f"not a plain string value: {value!r}")


def _eval_compare(expr: ast.CompareExpr, mu: SolutionMapping) -> bool:
    left = evaluate_expression(expr.left, mu)
    right = evaluate_expression(expr.right, mu)
    op = expr.op

    # Try numeric comparison first.
    try:
        ln, rn = _numeric(left), _numeric(right)
    except SparqlEvalError:
        pass
    else:
        return _apply_order_op(op, ln, rn)

    # Boolean comparison.
    lb, rb = _as_bool(left), _as_bool(right)
    if lb is not None and rb is not None:
        return _apply_order_op(op, lb, rb)

    # String comparison (plain / xsd:string literals).
    try:
        ls, rs = _string(left), _string(right)
    except SparqlEvalError:
        pass
    else:
        return _apply_order_op(op, ls, rs)

    # Fall back to RDF term equality for = and !=.
    lt, rt = _as_term(left), _as_term(right)
    if op == "=":
        return lt == rt
    if op == "!=":
        return lt != rt
    raise SparqlEvalError(f"cannot order {left!r} and {right!r}")


def _as_bool(value: Value) -> Optional[bool]:
    if isinstance(value, bool):
        return value
    if isinstance(value, Literal) and value.datatype and value.datatype.value == XSD_BOOLEAN:
        return value.lexical in ("true", "1")
    return None


def _as_term(value: Value) -> RDFTerm:
    if isinstance(value, (IRI, Literal, BlankNode)):
        return value
    if isinstance(value, bool):
        return _TRUE if value else _FALSE
    if isinstance(value, int):
        try:
            lexical = str(value)
        except ValueError:  # more digits than Python will write out
            raise SparqlEvalError("integer too long for a lexical form") from None
        return Literal(lexical, datatype=IRI(XSD_INTEGER))
    if isinstance(value, float):
        return Literal(repr(value), datatype=IRI(XSD_DOUBLE))
    return Literal(str(value))


def _apply_order_op(op: str, left, right) -> bool:
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise SparqlEvalError(f"unknown comparison operator {op!r}")


def _eval_arith(expr: ast.ArithExpr, mu: SolutionMapping) -> Union[int, float]:
    left = _numeric(evaluate_expression(expr.left, mu))
    right = _numeric(evaluate_expression(expr.right, mu))
    try:
        return _apply_arith(expr.op, left, right)
    except OverflowError as exc:  # an integer beyond float range
        raise SparqlEvalError(f"numeric overflow: {exc}") from None


def _apply_arith(op: str, left, right) -> Union[int, float]:
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise SparqlEvalError("division by zero")
        # xsd:integer / xsd:integer is xsd:decimal in SPARQL.
        return left / right
    raise SparqlEvalError(f"unknown arithmetic operator {op!r}")


def _eval_call(expr: ast.FunctionCall, mu: SolutionMapping) -> Value:
    name = expr.name
    if name == "BOUND":
        arg = expr.args[0]
        if not (isinstance(arg, ast.TermExpr) and isinstance(arg.term, Variable)):
            raise SparqlEvalError("BOUND requires a variable argument")
        return arg.term in mu
    if name == "REGEX":
        text = _string(evaluate_expression(expr.args[0], mu))
        pattern = _string(evaluate_expression(expr.args[1], mu))
        flags = 0
        if len(expr.args) == 3:
            flag_str = _string(evaluate_expression(expr.args[2], mu))
            if "i" in flag_str:
                flags |= re.IGNORECASE
            if "s" in flag_str:
                flags |= re.DOTALL
            if "m" in flag_str:
                flags |= re.MULTILINE
            if "x" in flag_str:
                flags |= re.VERBOSE
        try:
            return re.search(pattern, text, flags) is not None
        except re.error as exc:
            raise SparqlEvalError(f"invalid regex {pattern!r}: {exc}") from exc

    value = evaluate_expression(expr.args[0], mu)
    if name in ("ISIRI", "ISURI"):
        return isinstance(_as_term(value), IRI)
    if name == "ISBLANK":
        return isinstance(_as_term(value), BlankNode)
    if name == "ISLITERAL":
        return isinstance(_as_term(value), Literal)
    if name == "STR":
        if isinstance(value, IRI):
            return value.value
        if isinstance(value, Literal):
            return value.lexical
        if isinstance(value, (bool, int, float, str)):
            return _as_term(value).lexical  # type: ignore[union-attr]
        raise SparqlEvalError(f"STR not defined for {value!r}")
    if name == "LANG":
        term = _as_term(value)
        if isinstance(term, Literal):
            return term.language or ""
        raise SparqlEvalError("LANG requires a literal")
    if name == "DATATYPE":
        term = _as_term(value)
        if isinstance(term, Literal):
            if term.language is not None:
                raise SparqlEvalError("DATATYPE of a language-tagged literal")
            return term.datatype or IRI(XSD_STRING)
        raise SparqlEvalError("DATATYPE requires a literal")
    if name == "LANGMATCHES":
        tag = _string(value) if not isinstance(value, str) else value
        rng = _string(evaluate_expression(expr.args[1], mu))
        if rng == "*":
            return bool(tag)
        return tag.lower() == rng.lower() or tag.lower().startswith(rng.lower() + "-")
    if name == "SAMETERM":
        other = evaluate_expression(expr.args[1], mu)
        return _as_term(value) == _as_term(other)
    raise SparqlEvalError(f"unknown built-in {name}")


# ------------------------------------------------------------ ORDER BY key


_TYPE_RANK = {BlankNode: 0, IRI: 1}


def order_key(expr: ast.Expression, mu: SolutionMapping):
    """A total-order sort key for ORDER BY.

    SPARQL orders: unbound < blank nodes < IRIs < literals; within
    literals, numerics by exact value (an integer beyond float range
    included) then others by lexical form. Type errors sort first (like
    unbound).
    """
    try:
        value = evaluate_expression(expr, mu)
    except SparqlEvalError:
        return (0, "")
    if isinstance(value, bool):
        value = _TRUE if value else _FALSE
    if isinstance(value, (int, float)):
        return (4, 0, value, "")
    if isinstance(value, str):
        return (4, 1, 0.0, value)
    if isinstance(value, BlankNode):
        return (1, value.label)
    if isinstance(value, IRI):
        return (2, value.value)
    if isinstance(value, Literal):
        if value.is_numeric:
            try:
                return (4, 0, value.to_python(), "")
            except (ValueError, TypeError):
                return (4, 1, 0.0, value.lexical)
        return (4, 1, 0.0, value.lexical)
    return (0, "")
