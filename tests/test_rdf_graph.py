"""Unit and property tests for the indexed graph store."""


import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import Graph, IRI, Literal, Triple, TriplePattern, Variable

S = [IRI(f"http://x/s{i}") for i in range(5)]
P = [IRI(f"http://x/p{i}") for i in range(3)]
O = [IRI(f"http://x/o{i}") for i in range(5)] + [Literal(f"v{i}") for i in range(3)]
X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def make_graph():
    g = Graph()
    g.add(Triple(S[0], P[0], O[0]))
    g.add(Triple(S[0], P[0], O[1]))
    g.add(Triple(S[0], P[1], O[0]))
    g.add(Triple(S[1], P[0], O[0]))
    g.add(Triple(S[1], P[2], Literal("v0")))
    return g


class TestSetSemantics:
    def test_add_is_idempotent(self):
        g = Graph()
        t = Triple(S[0], P[0], O[0])
        assert g.add(t) is True
        assert g.add(t) is False
        assert len(g) == 1

    def test_contains(self):
        g = make_graph()
        assert Triple(S[0], P[0], O[0]) in g
        assert Triple(S[2], P[0], O[0]) not in g

    def test_discard(self):
        g = make_graph()
        assert g.discard(Triple(S[0], P[0], O[0])) is True
        assert Triple(S[0], P[0], O[0]) not in g
        assert g.discard(Triple(S[0], P[0], O[0])) is False
        assert len(g) == 4

    def test_discard_prunes_empty_index_rows(self):
        g = Graph()
        t = Triple(S[0], P[0], O[0])
        g.add(t)
        g.discard(t)
        assert S[0] not in g.subjects()
        assert P[0] not in g.predicates()
        assert O[0] not in g.objects()

    def test_update_counts_new_only(self):
        g = make_graph()
        added = g.update([Triple(S[0], P[0], O[0]), Triple(S[3], P[0], O[0])])
        assert added == 1

    def test_update_validates_before_mutating(self):
        """A non-Triple anywhere in the batch raises before any insert —
        update is all-or-nothing, like add is for one triple."""
        g = Graph()
        bad = [Triple(S[0], P[0], O[0]), Triple(S[1], P[0], O[0]), "oops"]
        with pytest.raises(TypeError, match="str"):
            g.update(bad)
        assert len(g) == 0

        with pytest.raises(TypeError, match="tuple"):
            g.update([(S[0], P[0], O[0])])
        assert len(g) == 0

    def test_update_accepts_generators(self):
        g = Graph()
        added = g.update(Triple(S[i], P[0], O[0]) for i in range(3))
        assert added == 3 and len(g) == 3

    def test_iteration_yields_all(self):
        g = make_graph()
        assert len(list(g)) == len(g) == 5

    def test_union_operator(self):
        g1 = Graph([Triple(S[0], P[0], O[0])])
        g2 = Graph([Triple(S[1], P[0], O[0])])
        merged = g1 | g2
        assert len(merged) == 2
        assert len(g1) == 1  # unchanged

    def test_eq(self):
        assert make_graph() == make_graph()
        g = make_graph()
        g.discard(Triple(S[0], P[0], O[0]))
        assert g != make_graph()

    def test_rejects_non_triple(self):
        with pytest.raises(TypeError):
            Graph().add("not a triple")

    def test_unhashable(self):
        """Graphs compare by value but are mutable, so like list/dict they
        must not be hashable — equal graphs in a set would otherwise land
        in different buckets under the old identity hash."""
        g = make_graph()
        with pytest.raises(TypeError):
            hash(g)
        with pytest.raises(TypeError):
            {g}


class TestPatternAccess:
    @pytest.mark.parametrize(
        "pattern,count",
        [
            (TriplePattern(X, Y, Z), 5),
            (TriplePattern(S[0], Y, Z), 3),
            (TriplePattern(X, P[0], Z), 3),
            (TriplePattern(X, Y, O[0]), 3),
            (TriplePattern(S[0], P[0], Z), 2),
            (TriplePattern(X, P[0], O[0]), 2),
            (TriplePattern(S[0], Y, O[0]), 2),
            (TriplePattern(S[0], P[0], O[0]), 1),
            (TriplePattern(S[4], Y, Z), 0),
        ],
    )
    def test_all_shapes(self, pattern, count):
        g = make_graph()
        assert g.count(pattern) == count

    def test_repeated_variable_requires_equal_terms(self):
        shared = IRI("http://x/same")
        g = Graph([
            Triple(shared, P[0], shared),
            Triple(S[0], P[0], shared),
        ])
        matches = list(g.triples(TriplePattern(X, P[0], X)))
        assert matches == [Triple(shared, P[0], shared)]

    @pytest.mark.parametrize("pattern", [
        TriplePattern(X, Y, Z), TriplePattern(S[0], Y, Z),
        TriplePattern(X, P[0], Z), TriplePattern(X, Y, O[0]),
        TriplePattern(S[0], P[0], Z), TriplePattern(X, P[0], O[0]),
        TriplePattern(S[0], Y, O[0]), TriplePattern(S[0], P[0], O[0]),
        TriplePattern(S[4], Y, Z), TriplePattern(X, P[1], Literal("nope")),
        TriplePattern(X, Y, X), TriplePattern(X, P[0], X),
        TriplePattern(S[0], Y, Y), TriplePattern(X, X, Z),
        TriplePattern(X, X, X),
    ], ids=lambda p: p.n3())
    def test_scan_yields_the_term_tuples_of_the_matches(self, pattern):
        """The tuple scan behind ``triples`` and BGP evaluation, on all
        eight shapes, misses and repeated variables, against a linear
        scan with the binding-consistent matcher."""
        from repro.sparql.solutions import match_pattern

        g = make_graph()
        g.add(Triple(S[0], P[0], S[0]))
        g.add(Triple(P[1], P[1], O[1]))
        g.add(Triple(P[2], P[2], P[2]))
        rows = g.scan(pattern.s, pattern.p, pattern.o)
        expected = [t for t in g if match_pattern(pattern, t) is not None]
        assert len(rows) == len(expected) == g.count(pattern)
        assert all(type(row) is tuple for row in rows)
        assert set(rows) == {(t.s, t.p, t.o) for t in expected}
        assert set(g.triples(pattern)) == set(expected)

    def test_views(self):
        g = make_graph()
        assert S[0] in g.subjects()
        assert P[2] in g.predicates()
        assert Literal("v0") in g.objects()


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 3)),
        max_size=40,
    )
)
def test_property_graph_matches_naive_set(data):
    """The indexed store behaves exactly like a set of triples with a
    linear-scan matcher, for every pattern shape."""
    triples = [Triple(S[a], P[b], O[c]) for a, b, c in data]
    g = Graph(triples)
    reference = set(triples)
    assert len(g) == len(reference)

    patterns = [
        TriplePattern(X, Y, Z),
        TriplePattern(S[0], Y, Z),
        TriplePattern(X, P[1], Z),
        TriplePattern(X, Y, O[2]),
        TriplePattern(S[1], P[0], Z),
        TriplePattern(X, P[0], O[0]),
        TriplePattern(S[2], Y, O[1]),
        TriplePattern(S[0], P[0], O[0]),
    ]
    for pattern in patterns:
        expected = {t for t in reference if pattern.matches(t)}
        assert set(g.triples(pattern)) == expected
