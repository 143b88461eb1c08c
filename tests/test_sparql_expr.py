"""FILTER expression evaluation tests (EBV, comparisons, built-ins,
three-valued logic)."""

import pytest

from repro.rdf import IRI, BlankNode, Literal, Variable, XSD_BOOLEAN, XSD_DOUBLE, XSD_INTEGER
from repro.sparql import SparqlEvalError, parse_query
from repro.sparql.expr import (
    effective_boolean_value,
    evaluate_expression,
    filter_passes,
    order_key,
)
from repro.sparql.solutions import SolutionMapping

X, N = Variable("x"), Variable("n")


def expr_of(filter_text):
    q = parse_query(f"SELECT * WHERE {{ ?x ?p ?n . FILTER {filter_text} }}")
    return q.where.filters[0].expression


def sm(**kwargs):
    return SolutionMapping({Variable(k): v for k, v in kwargs.items()})


INT = lambda n: Literal(str(n), datatype=IRI(XSD_INTEGER))


class TestEBV:
    def test_booleans(self):
        assert effective_boolean_value(True) is True
        assert effective_boolean_value(Literal("true", datatype=IRI(XSD_BOOLEAN)))
        assert not effective_boolean_value(Literal("false", datatype=IRI(XSD_BOOLEAN)))

    def test_numbers(self):
        assert effective_boolean_value(5)
        assert not effective_boolean_value(0)
        assert effective_boolean_value(INT(3))
        assert not effective_boolean_value(INT(0))

    def test_strings(self):
        assert effective_boolean_value("x")
        assert not effective_boolean_value("")
        assert effective_boolean_value(Literal("x"))
        assert not effective_boolean_value(Literal(""))

    def test_iri_has_no_ebv(self):
        with pytest.raises(SparqlEvalError):
            effective_boolean_value(IRI("http://x/a"))


class TestComparisonsAndArithmetic:
    def test_numeric_comparison(self):
        assert filter_passes(expr_of("(?n > 3)"), sm(n=INT(5)))
        assert not filter_passes(expr_of("(?n > 3)"), sm(n=INT(2)))

    def test_mixed_numeric_types(self):
        dec = Literal("2.5", datatype=IRI("http://www.w3.org/2001/XMLSchema#decimal"))
        assert filter_passes(expr_of("(?n < 3)"), sm(n=dec))

    def test_string_comparison(self):
        assert filter_passes(expr_of('(?n = "abc")'), sm(n=Literal("abc")))
        assert filter_passes(expr_of('(?n < "b")'), sm(n=Literal("a")))

    def test_iri_equality_only(self):
        assert filter_passes(expr_of("(?n = <http://x/a>)"), sm(n=IRI("http://x/a")))
        assert not filter_passes(expr_of("(?n != <http://x/a>)"), sm(n=IRI("http://x/a")))
        # ordering IRIs is a type error -> filter fails
        assert not filter_passes(expr_of("(?n < <http://x/a>)"), sm(n=IRI("http://x/a")))

    def test_arithmetic(self):
        assert evaluate_expression(expr_of("(?n + 2 * 3)"), sm(n=INT(1))) == 7
        assert evaluate_expression(expr_of("(?n - 1)"), sm(n=INT(1))) == 0
        assert evaluate_expression(expr_of("(6 / ?n)"), sm(n=INT(4))) == 1.5

    def test_division_by_zero_is_type_error(self):
        assert not filter_passes(expr_of("(1 / ?n > 0)"), sm(n=INT(0)))

    def test_unary_negation(self):
        assert evaluate_expression(expr_of("(-?n)"), sm(n=INT(3))) == -3


class TestThreeValuedLogic:
    def test_unbound_variable_is_error_not_crash(self):
        assert not filter_passes(expr_of("(?missing = 1)"), sm(n=INT(1)))

    def test_or_true_wins_over_error(self):
        # right operand errors (unbound), left true -> true
        assert filter_passes(expr_of("(?n = 1 || ?missing = 2)"), sm(n=INT(1)))
        assert filter_passes(expr_of("(?missing = 2 || ?n = 1)"), sm(n=INT(1)))

    def test_or_error_when_other_false(self):
        assert not filter_passes(expr_of("(?n = 2 || ?missing = 2)"), sm(n=INT(1)))

    def test_and_false_wins_over_error(self):
        assert not filter_passes(expr_of("(?n = 2 && ?missing = 2)"), sm(n=INT(1)))
        assert not filter_passes(expr_of("(?missing = 2 && ?n = 2)"), sm(n=INT(1)))

    def test_not(self):
        assert filter_passes(expr_of("(!(?n = 2))"), sm(n=INT(1)))


class TestBuiltins:
    def test_regex(self):
        assert filter_passes(expr_of('regex(?n, "Smi")'), sm(n=Literal("Smith")))
        assert not filter_passes(expr_of('regex(?n, "^mith")'), sm(n=Literal("Smith")))

    def test_regex_flags(self):
        assert filter_passes(expr_of('regex(?n, "smith", "i")'), sm(n=Literal("Smith")))

    def test_regex_invalid_pattern_is_type_error(self):
        assert not filter_passes(expr_of('regex(?n, "(")'), sm(n=Literal("x")))

    def test_regex_on_iri_is_type_error(self):
        assert not filter_passes(expr_of('regex(?n, "x")'), sm(n=IRI("http://x/a")))

    def test_bound(self):
        assert filter_passes(expr_of("BOUND(?n)"), sm(n=INT(1)))
        assert not filter_passes(expr_of("BOUND(?missing)"), sm(n=INT(1)))

    def test_type_predicates(self):
        assert filter_passes(expr_of("isIRI(?n)"), sm(n=IRI("http://x/a")))
        assert filter_passes(expr_of("isLITERAL(?n)"), sm(n=Literal("a")))
        assert filter_passes(expr_of("isBLANK(?n)"), sm(n=BlankNode("b")))
        assert not filter_passes(expr_of("isIRI(?n)"), sm(n=Literal("a")))

    def test_str_lang_datatype(self):
        assert evaluate_expression(expr_of("STR(?n)"), sm(n=IRI("http://x/a"))) == "http://x/a"
        assert evaluate_expression(expr_of("LANG(?n)"), sm(n=Literal("a", language="en"))) == "en"
        assert evaluate_expression(expr_of("LANG(?n)"), sm(n=Literal("a"))) == ""
        dt = evaluate_expression(expr_of("DATATYPE(?n)"), sm(n=INT(1)))
        assert dt == IRI(XSD_INTEGER)

    def test_langmatches(self):
        e = expr_of('LANGMATCHES(LANG(?n), "en")')
        assert filter_passes(e, sm(n=Literal("a", language="en")))
        assert filter_passes(e, sm(n=Literal("a", language="en-GB")))
        assert not filter_passes(e, sm(n=Literal("a", language="fr")))

    def test_langmatches_star(self):
        e = expr_of('LANGMATCHES(LANG(?n), "*")')
        assert filter_passes(e, sm(n=Literal("a", language="fr")))
        assert not filter_passes(e, sm(n=Literal("a")))

    def test_sameterm(self):
        assert filter_passes(expr_of("sameTerm(?n, ?n)"), sm(n=Literal("a")))
        assert not filter_passes(
            expr_of('sameTerm(?n, "b")'), sm(n=Literal("a"))
        )


class TestOrderKey:
    def test_total_order_groups(self):
        e = expr_of("?n") if False else None
        from repro.sparql import ast
        term_expr = ast.TermExpr(N)
        unbound = order_key(term_expr, sm(x=INT(1)))
        blank = order_key(term_expr, sm(n=BlankNode("b")))
        iri = order_key(term_expr, sm(n=IRI("http://x/a")))
        lit = order_key(term_expr, sm(n=Literal("a")))
        num = order_key(term_expr, sm(n=INT(2)))
        assert unbound < blank < iri < num
        assert unbound < blank < iri < lit

    def test_numeric_order_by_value(self):
        from repro.sparql import ast
        term_expr = ast.TermExpr(N)
        assert order_key(term_expr, sm(n=INT(2))) < order_key(term_expr, sm(n=INT(10)))


class TestOperatorValuesAreLiterals:
    """A value made by ``+``, ``>`` or ``STR()`` is a literal: each of
    these FILTERs keeps the one row of ``<a> <p> "5"^^xsd:integer``."""

    @pytest.mark.parametrize("condition", [
        "isLiteral(?o + 1)",
        "isLiteral(?o > 1)",
        "DATATYPE(?o + 1) = xsd:integer",
        'LANG(STR(?o)) = ""',
    ])
    def test_filter_keeps_the_row(self, condition):
        from repro.rdf import Graph, Triple
        from repro.sparql import evaluate_query

        graph = Graph([Triple(IRI("http://a"), IRI("http://p"), INT(5))])
        query = parse_query(
            "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#> "
            f"SELECT ?o WHERE {{ ?s ?p ?o . FILTER({condition}) }}")
        assert len(evaluate_query(query, graph).rows) == 1

    def test_operator_values_are_typed(self):
        assert evaluate_expression(expr_of("DATATYPE(?n + 1)"), sm(n=INT(5))) \
            == IRI(XSD_INTEGER)
        assert evaluate_expression(expr_of("DATATYPE(?n > 1)"), sm(n=INT(5))) \
            == IRI(XSD_BOOLEAN)
        assert not filter_passes(expr_of("isIRI(?n + 1)"), sm(n=INT(5)))
        assert not filter_passes(expr_of("isBlank(STR(?n))"), sm(n=INT(5)))


class TestIntegersBeyondFloatRange:
    """An ``xsd:integer`` too large for a float: arithmetic that would
    leave float range is a type error (the FILTER drops the row), and
    ORDER BY orders it by its exact value; neither aborts the query."""

    HUGE = INT(10 ** 400)
    #: Its square has more digits than Python writes out as a string.
    LONG = INT(int("7" * 2200))

    def run(self, where, extra=(), modifiers="", value=HUGE):
        from repro.rdf import Graph, Triple
        from repro.sparql import evaluate_query

        graph = Graph([Triple(IRI("http://a"), IRI("http://p"), value), *extra])
        query = parse_query(f"SELECT ?o WHERE {{ ?s ?p ?o . {where} }} {modifiers}")
        return evaluate_query(query, graph).rows

    @pytest.mark.parametrize("condition", ["?o / 3 > 1", "?o * 1.5 > 1"])
    def test_overflowing_filter_drops_the_row(self, condition):
        assert self.run(f"FILTER({condition})") == []

    @pytest.mark.parametrize("condition, kept", [
        ('STR(?o * ?o) != ""', False),
        ("isLiteral(?o * ?o)", False),
        ("?o * ?o > 1", True),
    ])
    def test_too_long_to_write_is_a_type_error(self, condition, kept):
        rows = self.run(f"FILTER({condition})", value=self.LONG)
        assert len(rows) == (1 if kept else 0)

    def test_overflow_is_a_type_error(self):
        with pytest.raises(SparqlEvalError):
            evaluate_expression(expr_of("(?n / 3)"), sm(n=self.HUGE))
        assert filter_passes(expr_of("(?n + 1 > ?n)"), sm(n=self.HUGE))

    def test_order_by_exact_value(self):
        from repro.rdf import Triple

        below = INT(10 ** 400 - 1)
        extra = [Triple(IRI("http://b"), IRI("http://p"), below),
                 Triple(IRI("http://c"), IRI("http://p"), Literal("1e300", datatype=IRI(XSD_DOUBLE)))]
        rows = self.run("", extra, "ORDER BY ?o")
        assert [mu[Variable("o")] for mu in rows] == [extra[1].o, below, self.HUGE]
