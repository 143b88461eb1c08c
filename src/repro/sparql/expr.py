"""Evaluation of FILTER / ORDER BY expressions.

Implements SPARQL's built-in conditions R (paper, Sect. IV-B) under the
standard semantics: evaluation may raise a *type error*
(:class:`~repro.sparql.errors.SparqlEvalError`), in which case the
enclosing FILTER removes the solution; logical ``&&`` / ``||`` / ``!`` use
three-valued logic over {true, false, error}.

An expression is compiled once per row schema into closures over the
value tuple (DESIGN.md, "FILTERs are compiled"), and every entry point
runs that one form: a verdict is a pure function of the bound values
and the schema.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Callable, Dict, Iterable, Optional, Tuple, Union

from ..rdf.terms import (
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
from . import ast
from .errors import SparqlEvalError
from .solutions import SolutionMapping, SolutionSet, _groups

__all__ = ["evaluate_expression", "effective_boolean_value", "filter_passes",
           "filter_rows", "row_predicate", "order_key"]

#: Values produced by expression evaluation: an RDF term, or a plain
#: Python bool/int/float produced by operators and built-ins.
Value = Union[RDFTerm, bool, int, float, str]

#: A compiled (sub-)expression: one row's value tuple → its value.
_Fn = Callable[[tuple], Value]

_TRUE = Literal("true", datatype=IRI(XSD_BOOLEAN))
_FALSE = Literal("false", datatype=IRI(XSD_BOOLEAN))


class _Compiled(dict):
    """One expression's compiled form: row schema → (value function,
    FILTER predicate), each over that schema's value tuples."""

    __slots__ = ("expr",)

    def __init__(self, expr: ast.Expression) -> None:
        super().__init__()
        self.expr = expr

    def __missing__(self, schema):
        fn, is_bool = _compile(self.expr, schema.index)
        plan = self[schema] = (fn, _predicate(_truth(fn, is_bool)))
        return plan


#: Value-equal expressions → their one compiled form; cleared when full
#: (recompiling is cheap, and distinct FILTERs are few).
_COMPILED: Dict[ast.Expression, _Compiled] = {}
_MAX_COMPILED = 4096


def _compiled(expr: ast.Expression) -> _Compiled:
    compiled = _COMPILED.get(expr)
    if compiled is None:
        if len(_COMPILED) >= _MAX_COMPILED:
            _COMPILED.clear()
        compiled = _COMPILED[expr] = _Compiled(expr)
    return compiled


def evaluate_expression(expr: ast.Expression, mu: SolutionMapping) -> Value:
    """Evaluate *expr* under solution mapping *mu*.

    Raises :class:`SparqlEvalError` on unbound variables (outside BOUND)
    and on type errors, per the SPARQL semantics.
    """
    return _compiled(expr)[mu._schema][0](mu._values)


def filter_passes(expr: ast.Expression, mu: SolutionMapping) -> bool:
    """True when µ satisfies R; a type error counts as *not satisfied*."""
    return row_predicate(expr)(mu)


def row_predicate(expr: ast.Expression) -> Callable[[SolutionMapping], bool]:
    """:func:`filter_passes` for *expr*, looked up once: for callers
    that test rows one at a time (the conditional left join)."""
    compiled = _compiled(expr)
    return lambda mu: compiled[mu._schema][1](mu._values)


def filter_rows(expr: ast.Expression, rows: Iterable[SolutionMapping]) -> SolutionSet:
    """{µ ∈ *rows* | µ satisfies *expr*}: per row schema, one pass of
    that schema's predicate over the value tuples."""
    compiled = _compiled(expr)
    out: SolutionSet = set()
    for schema, values in _groups(rows).items():
        out.update(map(schema.make, filter(compiled[schema][1], values)))
    return out


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


def _truth(fn: _Fn, is_bool: bool) -> Callable[[tuple], bool]:
    if is_bool:
        return fn  # type: ignore[return-value]
    return lambda values: effective_boolean_value(fn(values))


def _predicate(truth: Callable[[tuple], bool]) -> Callable[[tuple], bool]:
    def passes(values: tuple) -> bool:
        try:
            return truth(values)
        except SparqlEvalError:
            return False
    return passes


# ----------------------------------------------------------------- helpers


def _as_number(value: Value) -> Union[int, float, None]:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    if isinstance(value, Literal) and value.is_numeric:
        try:
            return value.to_python()  # type: ignore[return-value]
        except ValueError:
            pass
    return None


def _numeric(value: Value) -> Union[int, float]:
    number = _as_number(value)
    if number is None:
        raise SparqlEvalError(f"not a numeric value: {value!r}")
    return number


def _as_str(value: Value) -> Optional[str]:
    if isinstance(value, str):
        return value
    if isinstance(value, Literal) and (
            value.datatype is None or value.datatype.value == XSD_STRING):
        return value.lexical
    return None


def _string(value: Value) -> str:
    text = _as_str(value)
    if text is None:
        raise SparqlEvalError(f"not a plain string value: {value!r}")
    return text


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


def _compare(op: str, order, left: Value, right: Value) -> bool:
    """Numeric, then boolean, then plain-string order; else RDF term
    equality for = and !=."""
    ln, rn = _as_number(left), _as_number(right)
    if ln is not None and rn is not None:
        return order(ln, rn)
    lb, rb = _as_bool(left), _as_bool(right)
    if lb is not None and rb is not None:
        return order(lb, rb)
    ls, rs = _as_str(left), _as_str(right)
    if ls is not None and rs is not None:
        return order(ls, rs)
    if op == "=":
        return _as_term(left) == _as_term(right)
    if op == "!=":
        return _as_term(left) != _as_term(right)
    raise SparqlEvalError(f"cannot order {left!r} and {right!r}")


def _divide(left, right):
    if right == 0:
        raise SparqlEvalError("division by zero")
    # xsd:integer / xsd:integer is xsd:decimal in SPARQL.
    return left / right


def _unknown_operator(left, right):
    raise SparqlEvalError("unknown operator")


_ORDER_OPS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
              "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_ARITH_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide}
_REGEX_FLAGS = {"i": re.IGNORECASE, "s": re.DOTALL, "m": re.MULTILINE, "x": re.VERBOSE}


def _regex_compile(pattern: Value, flags: Value = ""):
    bits = 0
    for letter in _string(flags):
        bits |= _REGEX_FLAGS.get(letter, 0)
    pattern = _string(pattern)
    try:
        return re.compile(pattern, bits)
    except re.error as exc:
        raise SparqlEvalError(f"invalid regex {pattern!r}: {exc}") from exc


def _str(value: Value) -> str:
    if isinstance(value, IRI):
        return value.value
    if isinstance(value, Literal):
        return value.lexical
    if isinstance(value, (bool, int, float, str)):
        return _as_term(value).lexical  # type: ignore[union-attr]
    raise SparqlEvalError(f"STR not defined for {value!r}")


def _lang(value: Value) -> str:
    term = _as_term(value)
    if isinstance(term, Literal):
        return term.language or ""
    raise SparqlEvalError("LANG requires a literal")


def _datatype(value: Value) -> IRI:
    term = _as_term(value)
    if not isinstance(term, Literal):
        raise SparqlEvalError("DATATYPE requires a literal")
    if term.language is not None:
        raise SparqlEvalError("DATATYPE of a language-tagged literal")
    return term.datatype or IRI(XSD_STRING)


def _langmatches(tag: Value, rng: Value) -> bool:
    tag, rng = _string(tag).lower(), _string(rng).lower()
    if rng == "*":
        return bool(tag)
    return tag == rng or tag.startswith(rng + "-")


#: Built-ins over their evaluated arguments: name → (function, returns a
#: bool). A value made by an operator coerces through :func:`_as_term`,
#: so it is a literal (``isLiteral(?o + 1)`` holds).
_BUILTINS = {
    "ISIRI": (lambda value: isinstance(_as_term(value), IRI), True),
    "ISURI": (lambda value: isinstance(_as_term(value), IRI), True),
    "ISBLANK": (lambda value: isinstance(_as_term(value), BlankNode), True),
    "ISLITERAL": (lambda value: isinstance(_as_term(value), Literal), True),
    "STR": (_str, False),
    "LANG": (_lang, False),
    "DATATYPE": (_datatype, False),
    "LANGMATCHES": (_langmatches, True),
    "SAMETERM": (lambda left, right: _as_term(left) == _as_term(right), True),
    "REGEX": (lambda text, *rest: _regex_compile(*rest).search(_string(text)) is not None,
              True),
}


# ---------------------------------------------------------------- compiler


def _fail(message: str) -> _Fn:
    def fail(values: tuple) -> Value:
        raise SparqlEvalError(message)
    return fail


def _logical(left, right, decisive: bool) -> _Fn:
    """Three-valued OR (*decisive* True) or AND (False): *decisive* if
    either side is, even if the other errs; else the right side's error,
    then the left side's."""
    def logical(values: tuple) -> bool:
        try:
            if left(values) == decisive:
                return decisive
            err = None
        except SparqlEvalError as exc:
            err = exc
        if right(values) == decisive:
            return decisive
        if err is not None:
            raise err
        return not decisive
    return logical


def _compile(expr: ast.Expression, index) -> Tuple[_Fn, bool]:
    """*expr* over value tuples whose variable → slot map is *index*: the
    value function, and whether it always returns a bool."""
    if isinstance(expr, ast.TermExpr):
        term = expr.term
        if not isinstance(term, Variable):
            return (lambda values: term), False
        if term not in index:
            return _fail(f"unbound variable ?{term.name}"), False
        return operator.itemgetter(index[term]), False
    if isinstance(expr, (ast.OrExpr, ast.AndExpr)):
        return _logical(_truth(*_compile(expr.left, index)),
                        _truth(*_compile(expr.right, index)),
                        isinstance(expr, ast.OrExpr)), True
    if isinstance(expr, ast.NotExpr):
        operand = _truth(*_compile(expr.operand, index))
        return (lambda values: not operand(values)), True
    if isinstance(expr, ast.NegExpr):
        negated, _ = _compile(expr.operand, index)
        return (lambda values: -_numeric(negated(values))), False
    if isinstance(expr, ast.CompareExpr):
        op, order = expr.op, _ORDER_OPS.get(expr.op, _unknown_operator)
        left, right = _compile(expr.left, index)[0], _compile(expr.right, index)[0]
        return (lambda values: _compare(op, order, left(values), right(values))), True
    if isinstance(expr, ast.ArithExpr):
        apply = _ARITH_OPS.get(expr.op, _unknown_operator)
        left, right = _compile(expr.left, index)[0], _compile(expr.right, index)[0]

        def arith(values: tuple) -> Value:
            try:
                return apply(_numeric(left(values)), _numeric(right(values)))
            except OverflowError as exc:  # an integer beyond float range
                raise SparqlEvalError(f"numeric overflow: {exc}") from None
        return arith, False
    if isinstance(expr, ast.FunctionCall):
        return _compile_call(expr, index)
    return _fail(f"unknown expression node {type(expr).__name__}"), False


def _compile_call(expr: ast.FunctionCall, index) -> Tuple[_Fn, bool]:
    name, args = expr.name, expr.args
    if name == "BOUND":
        arg = args[0]
        if not (isinstance(arg, ast.TermExpr) and isinstance(arg.term, Variable)):
            return _fail("BOUND requires a variable argument"), True
        bound = arg.term in index
        return (lambda values: bound), True
    fns = [_compile(arg, index)[0] for arg in args]
    if name == "REGEX" and all(isinstance(arg, ast.TermExpr)
                               and not isinstance(arg.term, Variable) for arg in args[1:]):
        try:  # constant pattern and flags: compiled once
            search = _regex_compile(*[arg.term for arg in args[1:]]).search
        except SparqlEvalError as exc:
            return _fail(str(exc)), True
        text = fns[0]

        def regex(values: tuple) -> bool:
            value = text(values)
            if type(value) is Literal and value.datatype is None:  # plain: the usual case
                return search(value.lexical) is not None
            return search(_string(value)) is not None
        return regex, True
    function, is_bool = _BUILTINS.get(name, (None, False))
    if function is None:
        return _fail(f"unknown built-in {name}"), False
    if len(fns) == 1:
        (only,) = fns
        return (lambda values: function(only(values))), is_bool
    return (lambda values: function(*[fn(values) for fn in fns])), is_bool


# ------------------------------------------------------------ ORDER BY key


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
