"""The compiled FILTER evaluator against the tree-walking interpreter.

``repro.sparql.expr`` compiles an expression once and resolves each
variable to a slot per row schema; ``reference_expr`` is the interpreter
it replaced, which walks the AST and looks variables up per row. Over
generated expressions (every operator and built-in, REGEX with flags and
invalid patterns, ``||``/``&&`` over errors, BOUND) and batches of rows
with mixed schemas and unbound variables, every entry point must agree
with it: the batch filter, the per-row verdict, the value (or the type
error) and the ORDER BY key.
"""

import copy

from hypothesis import given, settings, strategies as st

from repro.rdf import (
    IRI, XSD_BOOLEAN, XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER, XSD_STRING,
    BlankNode, Literal, Variable,
)
from repro.sparql import SparqlEvalError, ast
from repro.sparql import expr as compiled
from repro.sparql.solutions import SolutionMapping

import reference_expr as reference

VARS = tuple(Variable(name) for name in ("a", "b", "c"))

TERMS = (
    IRI("http://x/a"), IRI("http://x/Smith"), BlankNode("b1"),
    Literal("Smith"), Literal(""), Literal("abc"), Literal("a.c"),
    Literal("smith", language="en"), Literal("x", language="en-GB"),
    Literal("s", datatype=IRI(XSD_STRING)),
    Literal("5", datatype=IRI(XSD_INTEGER)),
    Literal("0", datatype=IRI(XSD_INTEGER)),
    Literal("-2", datatype=IRI(XSD_INTEGER)),
    Literal("2.5", datatype=IRI(XSD_DECIMAL)),
    Literal("1e3", datatype=IRI(XSD_DOUBLE)),
    Literal("nan", datatype=IRI(XSD_DOUBLE)),
    Literal("abc", datatype=IRI(XSD_INTEGER)),  # invalid lexical form
    Literal("1" + "0" * 400, datatype=IRI(XSD_INTEGER)),  # beyond float range
    Literal("true", datatype=IRI(XSD_BOOLEAN)),
    Literal("false", datatype=IRI(XSD_BOOLEAN)),
    Literal("1", datatype=IRI(XSD_BOOLEAN)),
    # Also regex patterns, flags and language ranges when bound to a
    # variable that REGEX or LANGMATCHES reads.
    Literal("^S"), Literal("("), Literal("i"), Literal("ix"),
    Literal("en"), Literal("*"),
)

PATTERNS = tuple(Literal(p) for p in ("Smi", "^S", "a.c", "s$", "(", "[", "A B"))
FLAGS = tuple(Literal(f) for f in ("", "i", "s", "m", "x", "ix"))

_variables = st.sampled_from(VARS).map(ast.TermExpr)
_constants = st.sampled_from(TERMS).map(ast.TermExpr)
_leaves = st.one_of(
    _variables, _constants,
    _variables.map(lambda v: ast.FunctionCall("BOUND", (v,))),
    _constants.map(lambda c: ast.FunctionCall("BOUND", (c,))),  # a type error
)


def _extend(child):
    pattern = st.one_of(st.sampled_from(PATTERNS).map(ast.TermExpr), child)
    flags = st.one_of(st.sampled_from(FLAGS).map(ast.TermExpr), child)
    unary = ("ISIRI", "ISURI", "ISBLANK", "ISLITERAL", "STR", "LANG",
             "DATATYPE", "NOSUCH")
    return st.one_of(
        st.builds(ast.OrExpr, child, child),
        st.builds(ast.AndExpr, child, child),
        st.builds(ast.NotExpr, child),
        st.builds(ast.NegExpr, child),
        st.builds(ast.CompareExpr,
                  st.sampled_from(("=", "!=", "<", "<=", ">", ">=")), child, child),
        st.builds(ast.ArithExpr, st.sampled_from(("+", "-", "*", "/")), child, child),
        st.builds(lambda name, arg: ast.FunctionCall(name, (arg,)),
                  st.sampled_from(unary), child),
        st.builds(lambda name, x, y: ast.FunctionCall(name, (x, y)),
                  st.sampled_from(("LANGMATCHES", "SAMETERM")), child, child),
        st.builds(lambda text, p: ast.FunctionCall("REGEX", (text, p)), child, pattern),
        st.builds(lambda text, p, f: ast.FunctionCall("REGEX", (text, p, f)),
                  child, pattern, flags),
    )


_expressions = st.recursive(_leaves, _extend, max_leaves=8)

#: Rows bind any subset of the variables: mixed schemas, unbound variables.
_rows = st.lists(
    st.dictionaries(st.sampled_from(VARS), st.sampled_from(TERMS)).map(SolutionMapping),
    max_size=8,
)


def outcome(evaluate, expr, mu):
    """The value, told apart by type (``True`` is not ``1``), or the
    fact of a type error; NaN compares by its repr."""
    try:
        value = evaluate(expr, mu)
    except SparqlEvalError:
        return ("error",)
    return (type(value), repr(value) if isinstance(value, float) else value)


@settings(max_examples=500, deadline=None)
@given(_expressions, _rows)
def test_compiled_agrees_with_the_interpreter(expr, rows):
    expected = {mu for mu in rows if reference.filter_passes(expr, mu)}
    assert compiled.filter_rows(expr, rows) == expected
    passes = compiled.row_predicate(expr)
    for mu in rows:
        assert compiled.filter_passes(expr, mu) == (mu in expected)
        assert passes(mu) == (mu in expected)
        assert outcome(compiled.evaluate_expression, expr, mu) \
            == outcome(reference.evaluate_expression, expr, mu)
        assert repr(compiled.order_key(expr, mu)) == repr(reference.order_key(expr, mu))


def test_value_equal_expressions_share_one_compiled_form():
    expr = ast.OrExpr(
        ast.FunctionCall("REGEX", (ast.TermExpr(VARS[0]), ast.TermExpr(Literal("^S")))),
        ast.FunctionCall("BOUND", (ast.TermExpr(VARS[1]),)),
    )
    twin = copy.deepcopy(expr)
    assert twin is not expr
    assert compiled._compiled(twin) is compiled._compiled(expr)
