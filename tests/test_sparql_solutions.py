"""Solution-mapping semantics: unit tests + hypothesis property tests of
the algebraic laws the paper's optimizations rely on (Sect. IV-B/IV-D)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import BlankNode, IRI, Literal, Triple, TriplePattern, Variable
from repro.sparql import (
    EMPTY_MAPPING,
    SolutionMapping,
    compatible,
    join,
    left_outer_join,
    match_pattern,
    merge,
    minus,
    union,
)
from repro.sparql.solutions import canonical_key

X, Y, Z, W = Variable("x"), Variable("y"), Variable("z"), Variable("w")
A, B, C = IRI("http://x/a"), IRI("http://x/b"), IRI("http://x/c")


def mu(**kwargs):
    return SolutionMapping({Variable(k): v for k, v in kwargs.items()})


class TestSolutionMapping:
    def test_domain(self):
        assert mu(x=A, y=B).domain() == frozenset({X, Y})
        assert EMPTY_MAPPING.domain() == frozenset()

    def test_access(self):
        m = mu(x=A)
        assert m[X] == A
        assert m.get(Y) is None
        with pytest.raises(KeyError):
            m[Y]
        assert X in m and Y not in m

    def test_equality_order_independent(self):
        assert SolutionMapping({X: A, Y: B}) == SolutionMapping({Y: B, X: A})
        assert hash(mu(x=A, y=B)) == hash(mu(y=B, x=A))

    def test_keys_must_be_variables(self):
        with pytest.raises(TypeError):
            SolutionMapping({"x": A})

    def test_project(self):
        assert mu(x=A, y=B).project([X]) == mu(x=A)
        assert mu(x=A).project([Y]) == EMPTY_MAPPING


class TestCompatibility:
    def test_disjoint_domains_always_compatible(self):
        assert compatible(mu(x=A), mu(y=B))

    def test_shared_equal_value_compatible(self):
        assert compatible(mu(x=A, y=B), mu(x=A, z=C))

    def test_shared_conflicting_value_incompatible(self):
        assert not compatible(mu(x=A), mu(x=B))

    def test_empty_compatible_with_everything(self):
        assert compatible(EMPTY_MAPPING, mu(x=A))

    def test_merge(self):
        assert merge(mu(x=A), mu(y=B)) == mu(x=A, y=B)


class TestOperations:
    def test_join_on_shared_variable(self):
        o1 = {mu(x=A, y=B), mu(x=B, y=B)}
        o2 = {mu(x=A, z=C)}
        assert join(o1, o2) == {mu(x=A, y=B, z=C)}

    def test_join_cross_product_when_disjoint(self):
        o1 = {mu(x=A), mu(x=B)}
        o2 = {mu(y=C)}
        assert join(o1, o2) == {mu(x=A, y=C), mu(x=B, y=C)}

    def test_join_with_partial_mappings(self):
        # µ1 unbound on the shared var is compatible with anything.
        o1 = {mu(y=B), mu(x=B, y=C)}
        o2 = {mu(x=A)}
        assert join(o1, o2) == {mu(x=A, y=B)}

    def test_join_empty(self):
        assert join(set(), {mu(x=A)}) == set()
        assert join({mu(x=A)}, set()) == set()

    def test_union(self):
        assert union({mu(x=A)}, {mu(x=B)}) == {mu(x=A), mu(x=B)}

    def test_minus_keeps_incompatible_only(self):
        o1 = {mu(x=A), mu(x=B)}
        o2 = {mu(x=A, z=C)}
        assert minus(o1, o2) == {mu(x=B)}

    def test_minus_empty_right_keeps_all(self):
        assert minus({mu(x=A)}, set()) == {mu(x=A)}

    def test_left_outer_join_definition(self):
        o1 = {mu(x=A), mu(x=B)}
        o2 = {mu(x=A, z=C)}
        assert left_outer_join(o1, o2) == {mu(x=A, z=C), mu(x=B)}


class TestMatchPattern:
    def test_binds_variables(self):
        m = match_pattern(TriplePattern(X, IRI("http://x/p"), Y),
                          Triple(A, IRI("http://x/p"), B))
        assert m == mu(x=A, y=B)

    def test_constant_mismatch(self):
        m = match_pattern(TriplePattern(A, IRI("http://x/p"), Y),
                          Triple(B, IRI("http://x/p"), C))
        assert m is None

    def test_repeated_variable_consistency(self):
        p = IRI("http://x/p")
        assert match_pattern(TriplePattern(X, p, X), Triple(A, p, A)) == mu(x=A)
        assert match_pattern(TriplePattern(X, p, X), Triple(A, p, B)) is None

    def test_fully_concrete_gives_empty_mapping(self):
        p = IRI("http://x/p")
        assert match_pattern(TriplePattern(A, p, B), Triple(A, p, B)) == EMPTY_MAPPING


# ---------------------------------------------------------------------------
# Property-based algebra laws (Pérez et al.; the paper leans on AND/UNION
# being associative and commutative for reordering, Sect. IV-D).
# ---------------------------------------------------------------------------

_terms = st.sampled_from([A, B, C, Literal("1"), Literal("2")])
_vars = st.sampled_from([X, Y, Z])


@st.composite
def mappings(draw):
    n = draw(st.integers(0, 3))
    chosen = draw(st.permutations([X, Y, Z]))[:n]
    return SolutionMapping({v: draw(_terms) for v in chosen})


omegas = st.frozensets(mappings(), max_size=6)
_settings = settings(max_examples=120, deadline=None)


@_settings
@given(omegas, omegas)
def test_join_commutative(o1, o2):
    assert join(o1, o2) == join(o2, o1)


@_settings
@given(omegas, omegas, omegas)
def test_join_associative(o1, o2, o3):
    assert join(join(o1, o2), o3) == join(o1, join(o2, o3))


@_settings
@given(omegas, omegas)
def test_union_commutative(o1, o2):
    assert union(o1, o2) == union(o2, o1)


@_settings
@given(omegas, omegas, omegas)
def test_union_associative(o1, o2, o3):
    assert union(union(o1, o2), o3) == union(o1, union(o2, o3))


@_settings
@given(omegas, omegas, omegas)
def test_join_distributes_over_union(o1, o2, o3):
    assert join(o1, union(o2, o3)) == union(join(o1, o2), join(o1, o3))


@_settings
@given(omegas, omegas)
def test_left_outer_join_is_join_union_minus(o1, o2):
    """Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪ (Ω1 − Ω2) — the identity of Sect. IV-E."""
    assert left_outer_join(o1, o2) == union(join(o1, o2), minus(o1, o2))


@_settings
@given(omegas)
def test_join_identity_is_empty_mapping(o1):
    assert join(o1, {EMPTY_MAPPING}) == set(o1)


@_settings
@given(omegas)
def test_minus_self_is_empty_unless_incompatible(o1):
    # Every µ is compatible with itself, so Ω − Ω = ∅.
    assert minus(o1, o1) == set()


@_settings
@given(omegas, omegas)
def test_join_reference_nested_loop(o1, o2):
    """The optimized hash join equals the naive definition."""
    reference = {
        merge(m1, m2) for m1 in o1 for m2 in o2 if compatible(m1, m2)
    }
    assert join(o1, o2) == reference


@settings(max_examples=200, deadline=None)
@given(omegas, omegas)
def test_minus_reference_nested_loop(o1, o2):
    """The per-schema-pair hashed difference equals the definition —
    `mappings()` draws partial domains, so rows sharing some, all or none
    of their variables (the always-compatible case) all occur."""
    reference = {
        m1 for m1 in o1 if not any(compatible(m1, m2) for m2 in o2)
    }
    assert minus(o1, o2) == reference


def test_minus_partial_domains():
    left = {mu(x=A, y=B), mu(x=B), mu(z=C), EMPTY_MAPPING}
    # x=A kills the first row only; a right row over an unshared variable
    # (or none at all) is compatible with, and so removes, everything.
    assert minus(left, {mu(x=A)}) == {mu(x=B)}
    assert minus(left, {mu(x=C, y=B)}) == {mu(x=A, y=B), mu(x=B)}
    assert minus(left, {mu(w=A)}) == set()
    assert minus(left, {EMPTY_MAPPING}) == set()


# ---------------------------------------------------------------------------
# The canonical sort key is one flat string; its order must be the order
# of the nested ``((name, n3), ...)`` tuple it replaced, for any content.
# IRIs, blank-node labels and variable names may all carry ``\x00``.
# ---------------------------------------------------------------------------

_nul_text = st.text(alphabet="a\x00\x01b", max_size=4)
_nul_terms = st.one_of(
    st.builds(lambda s: IRI(f"h{s}"), _nul_text),
    st.builds(lambda s: BlankNode(f"b{s}"), _nul_text),
    st.builds(Literal, _nul_text),
    st.builds(lambda s: Literal(s, language="en"), _nul_text),
    st.sampled_from([A, B, C]),
)
_nul_rows = st.lists(
    st.dictionaries(st.builds(lambda s: Variable(f"v{s}"), _nul_text),
                    _nul_terms, max_size=3).map(SolutionMapping),
    max_size=25)


def _tuple_key(m):
    return tuple((v.name, t.n3()) for v, t in m.items())


@settings(max_examples=300, deadline=None)
@given(_nul_rows)
def test_flat_sort_key_orders_like_the_tuple(rows):
    assert (sorted(rows, key=canonical_key)
            == sorted(rows, key=_tuple_key))
    for a in rows:
        for b in rows:
            assert ((canonical_key(a) < canonical_key(b))
                    == (_tuple_key(a) < _tuple_key(b)))
