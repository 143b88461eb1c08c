"""Local evaluation tests: graph pattern semantics and query forms."""

import pytest

from repro.rdf import COMMON_PREFIXES, Graph, IRI, Variable
from repro.rdf.namespaces import FOAF, NS
from repro.sparql import evaluate_query, parse_query
from repro.workloads import paper_example_dataset


@pytest.fixture(scope="module")
def graph():
    return Graph(paper_example_dataset())


def run(graph, text):
    return evaluate_query(parse_query(text, COMMON_PREFIXES), graph)


def names(result, var="x"):
    return sorted(b[var].value.rsplit("/", 1)[-1] for b in result.bindings())


class TestSelect:
    def test_fig5_primitive(self, graph):
        result = run(graph, "SELECT ?x WHERE { ?x foaf:knows ns:me . }")
        assert names(result) == ["carl", "gina"]

    def test_fig6_conjunction(self, graph):
        result = run(
            graph,
            """SELECT ?x ?y ?z WHERE {
                 ?x foaf:knows ?z .
                 ?x ns:knowsNothingAbout ?y .
               }""",
        )
        rows = result.bindings()
        assert {r["x"].value.rsplit("/", 1)[-1] for r in rows} == {"anna", "dave", "gina"}

    def test_fig4_full_query(self, graph):
        result = run(
            graph,
            """SELECT ?x ?y ?z WHERE {
                 ?x foaf:name ?name .
                 ?x foaf:knows ?z .
                 ?x ns:knowsNothingAbout ?y .
                 ?y foaf:knows ?z .
                 FILTER regex(?name, "Smith")
                 }""",
        )
        [row] = result.bindings()
        assert row["x"].value.endswith("anna")
        assert row["y"].value.endswith("bella")
        assert row["z"].value.endswith("carl")

    def test_fig7_optional_keeps_unextended(self, graph):
        result = run(
            graph,
            """SELECT ?x ?y WHERE {
                 { ?x foaf:name "Smith" . ?x foaf:knows ?y . }
                 OPTIONAL { ?y foaf:nick "Shrek" . }
               }""",
        )
        ys = names(result, "y")
        assert ys == ["erik", "hugo"]  # hugo has no Shrek nick but survives

    def test_fig8_union(self, graph):
        result = run(
            graph,
            """SELECT ?x WHERE {
                 { ?x foaf:mbox <mailto:abc@example.org> . }
                 UNION
                 { ?x foaf:name "Smith" . }
               }""",
        )
        assert names(result) == ["fred", "smith"]

    def test_order_by_desc_limit_offset(self, graph):
        result = run(
            graph,
            "SELECT ?x WHERE { ?x foaf:knows ns:me . } ORDER BY DESC(?x) LIMIT 1",
        )
        assert names(result) == ["gina"]
        result = run(
            graph,
            "SELECT ?x WHERE { ?x foaf:knows ns:me . } ORDER BY ?x OFFSET 1",
        )
        assert names(result) == ["gina"]

    def test_distinct(self, graph):
        result = run(graph, "SELECT DISTINCT ?p WHERE { ?s ?p ?o . }")
        assert len(result.rows) == len(set(result.rows))
        predicates = {b["p"] for b in result.bindings()}
        assert FOAF.knows in predicates and NS.knowsNothingAbout in predicates

    def test_projection_drops_other_vars(self, graph):
        result = run(graph, "SELECT ?x WHERE { ?x foaf:name ?n . }")
        assert all(set(b) == {"x"} for b in result.bindings())

    def test_select_star_projects_all(self, graph):
        result = run(graph, "SELECT * WHERE { ?x foaf:nick ?n . }")
        assert result.variables == (Variable("n"), Variable("x"))

    def test_empty_result(self, graph):
        result = run(graph, "SELECT ?x WHERE { ?x foaf:knows <http://nobody/> . }")
        assert result.rows == []


class TestOtherForms:
    def test_ask_true_false(self, graph):
        assert run(graph, "ASK { ?x foaf:nick ?n . }").boolean is True
        assert run(graph, 'ASK { ?x foaf:nick "Nobody" . }').boolean is False

    def test_construct(self, graph):
        result = run(
            graph,
            "CONSTRUCT { ?x ns:knownBy ns:me . } WHERE { ?x foaf:knows ns:me . }",
        )
        assert len(result.graph) == 2
        assert all(t.p == NS.knownBy for t in result.graph)

    def test_describe_variable(self, graph):
        result = run(graph, "DESCRIBE ?x WHERE { ?x foaf:mbox <mailto:abc@example.org> . }")
        subjects = {t.s for t in result.graph}
        assert subjects == {IRI("http://example.org/people/fred")}
        assert len(result.graph) == 3  # name, mbox, knows

    def test_describe_iri(self, graph):
        result = run(graph, "DESCRIBE <http://example.org/people/erik>")
        assert {t.p for t in result.graph} == {FOAF.name, FOAF.nick}

    @pytest.mark.parametrize("scope", ["<http://g>", "?g"])
    def test_graph_matches_nothing(self, graph, scope):
        """The dataset is the union of all providers and has no named
        graphs: GRAPH scopes match nothing, even over matching data."""
        where = f"{{ GRAPH {scope} {{ ?x foaf:knows ?y . }} }}"
        assert run(graph, f"SELECT * WHERE {where}").rows == []
        assert run(graph, f"ASK {where}").boolean is False


class TestBgpSemantics:
    def test_shared_variable_across_patterns(self):
        g = Graph(paper_example_dataset())
        res = run(
            g,
            """SELECT ?a ?b WHERE {
                 ?a foaf:knows ?b .
                 ?b foaf:nick "Shrek" .
               }""",
        )
        pairs = {(r["a"].value.rsplit("/", 1)[-1], r["b"].value.rsplit("/", 1)[-1])
                 for r in res.bindings()}
        assert pairs == {("dave", "erik"), ("smith", "erik")}

    def test_empty_group_yields_single_empty_solution(self):
        g = Graph(paper_example_dataset())
        res = run(g, "ASK {}")
        assert res.boolean is True

    @pytest.mark.parametrize("where", [
        "?a foaf:knows ?b .",
        "?a ?p ?a .",
        "?a foaf:knows ?b . ?b foaf:nick ?n .",
        "?a foaf:knows ?b . ?b foaf:knows ?a .",
        "?a foaf:name \"nobody\" .",
    ])
    @pytest.mark.parametrize("keep", [["a"], ["b", "n"], [], ["a", "b", "n", "p"]])
    def test_pushed_down_projection_equals_projecting_afterwards(
            self, graph, where, keep):
        """``keep`` is fused into the row extractor for a single pattern
        and applied at the end otherwise; either way it is π(⟦BGP⟧)."""
        from repro.sparql import evaluate_bgp, translate_pattern

        bgp = translate_pattern(
            parse_query(f"SELECT * WHERE {{ {where} }}", COMMON_PREFIXES).where)
        keep = [Variable(name) for name in keep]
        full = evaluate_bgp(bgp, graph)
        assert evaluate_bgp(bgp, graph, keep) == {mu.project(keep) for mu in full}
