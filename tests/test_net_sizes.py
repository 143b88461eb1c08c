"""Wire-size model tests: determinism and structural additivity."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import size_of
from repro.overlay import KeyKind, LocationEntry
from repro.rdf import (
    IRI, XSD_INTEGER, BlankNode, Literal, Triple, TriplePattern, Variable,
)
from repro.sparql import BGP, parse_query, translate_pattern
from repro.sparql.solutions import SolutionMapping


class TestScalars:
    def test_primitives(self):
        assert size_of(None) == 1
        assert size_of(True) == 1
        assert size_of(7) == 8
        assert size_of(2.5) == 8
        assert size_of("abc") == 3
        assert size_of("é") == 2  # UTF-8 bytes, not characters
        assert size_of(b"1234") == 4

    def test_terms(self):
        assert size_of(IRI("http://x/a")) == len("http://x/a") + 2
        assert size_of(Literal("hi")) == 4
        assert size_of(Literal("hi", language="en")) == 7
        assert size_of(BlankNode("b")) == 3
        assert size_of(Variable("x")) == 2

    def test_triple_additive(self):
        t = Triple(IRI("http://x/s"), IRI("http://x/p"), Literal("o"))
        assert size_of(t) == size_of(t.s) + size_of(t.p) + size_of(t.o) + 3


class TestContainers:
    def test_list_additive(self):
        assert size_of([1, 2]) == 8 + (8 + 2) * 2

    def test_dict(self):
        assert size_of({"a": 1}) == 8 + (1 + 8 + 2)

    def test_solution_mapping(self):
        mu = SolutionMapping({Variable("x"): IRI("http://x/a")})
        assert size_of(mu) == 8 + size_of(Variable("x")) + size_of(IRI("http://x/a")) + 2

    def test_bigger_payload_costs_more(self):
        small = [SolutionMapping({Variable("x"): IRI("http://x/a")})]
        big = small * 10
        assert size_of(big) > size_of(small)


class TestStructuredPayloads:
    def test_algebra_node_sized_via_dataclass_rule(self):
        alg = translate_pattern(
            parse_query("SELECT ?x WHERE { ?x <http://x/p> ?y . }").where
        )
        assert isinstance(alg, BGP)
        assert size_of(alg) > 0

    def test_filter_condition_sized(self):
        alg = translate_pattern(
            parse_query('SELECT * WHERE { ?x <http://x/p> ?n . FILTER regex(?n, "S") }').where
        )
        assert size_of(alg) > 0

    def test_enum_sized(self):
        assert size_of(KeyKind.SP) == 3

    def test_wire_size_protocol(self):
        assert size_of(LocationEntry("D1", 5)) == 6

    def test_unknown_type_rejected(self):
        class Mystery:
            pass

        with pytest.raises(TypeError):
            size_of(Mystery())

    def test_deterministic(self):
        mu = SolutionMapping({Variable("x"): Literal("val")})
        assert size_of([mu, mu]) == size_of([mu, mu])


def reference_size(payload) -> int:
    """The structural rule itself — no dispatch table, no caches: the
    oracle the optimized ``size_of`` must match byte for byte."""
    if payload is None or isinstance(payload, bool):
        return 1
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, bytes):
        return len(payload)
    if isinstance(payload, IRI):
        return len(payload.value) + 2
    if isinstance(payload, Literal):
        n = len(payload.lexical) + 2
        if payload.language:
            n += len(payload.language) + 1
        if payload.datatype:
            n += len(payload.datatype.value) + 4
        return n
    if isinstance(payload, BlankNode):
        return len(payload.label) + 2
    if isinstance(payload, Variable):
        return len(payload.name) + 1
    if isinstance(payload, (Triple, TriplePattern)):
        return sum(map(reference_size, (payload.s, payload.p, payload.o))) + 3
    if isinstance(payload, (dict, SolutionMapping)):
        return 8 + sum(reference_size(k) + reference_size(v) + 2
                       for k, v in payload.items())
    if isinstance(payload, (list, tuple, set, frozenset)):
        return 8 + sum(reference_size(item) + 2 for item in payload)
    assert dataclasses.is_dataclass(payload)
    return 8 + sum(reference_size(getattr(payload, f.name)) + 2
                   for f in dataclasses.fields(payload))


_names = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)
_text = st.text(max_size=12)  # non-ASCII included: sized as UTF-8 bytes
_terms = st.one_of(
    st.text(st.characters(whitelist_categories=("L", "N")), max_size=8)
    .map(lambda s: IRI("http://x/" + s)),
    st.builds(Literal, _text,
              language=st.sampled_from([None, "en", "fr-ca"])),
    _text.map(lambda s: Literal(s, datatype=IRI(XSD_INTEGER))),
    _names.map(BlankNode),
    _names.map(Variable),
)
_patterns = st.builds(TriplePattern, _terms, _terms, _terms)
_bgps = st.lists(_patterns, min_size=1, max_size=4).map(
    lambda ps: BGP(tuple(ps)))
_leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                    _text, st.binary(max_size=8), _terms, _patterns, _bgps)
_payloads = st.recursive(
    _leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_text, inner, max_size=4)),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(_payloads)
def test_size_matches_the_structural_rule(payload):
    expected = reference_size(payload)
    assert size_of(payload) == expected
    assert size_of(payload) == expected  # again, from the cached parts


# Sequences as they ship and as the result cache stores them: solution
# rows, term-tuple rows and loose items mixed, with each term's or
# row's cached size either present or reset, and lengths on both sides
# of the bulk threshold, so ``_size_sequence`` takes its C sum, its
# row-tuple sum and its per-item rule alike.
_row_terms = st.sampled_from((
    IRI("http://x/a"), IRI("http://x/bb"), Literal("v"),
    Literal("w", language="en"), Literal("7", datatype=IRI(XSD_INTEGER)),
    BlankNode("n1"),
))
_row_vars = st.sampled_from((Variable("x"), Variable("y"), Variable("z")))
_mappings = st.dictionaries(_row_vars, _row_terms, max_size=3).map(SolutionMapping)
_term_rows = st.lists(_row_terms, max_size=3).map(tuple)
_items = st.one_of(_mappings, _term_rows, _row_terms, st.integers(), _text, st.none())
_bulk = st.one_of(  # mostly one kind of item, as solution sets and cache rows are
    st.lists(st.tuples(_mappings, st.booleans()), max_size=24),
    st.lists(st.tuples(_term_rows, st.booleans()), max_size=24),
    st.lists(st.tuples(_items, st.booleans()), max_size=24),
)


def _uncache(item) -> None:
    """Forget the cached size of *item* (and of a term row's terms)."""
    for obj in item if type(item) is tuple else (item,):
        if hasattr(obj, "_size"):
            object.__setattr__(obj, "_size", None)


@settings(max_examples=300, deadline=None)
@given(_bulk, st.sampled_from((list, tuple, set, frozenset)))
def test_sequence_sum_matches_the_per_item_rule(drawn, container):
    items = [item for item, _ in drawn]
    for item in items:
        size_of(item)  # cache every size first ...
    for item, forget in drawn:
        if forget:
            _uncache(item)  # ... then drop some of them again
    payload = container(items)
    expected = reference_size(payload)
    assert size_of(payload) == expected
    assert size_of(payload) == expected  # again, every size cached now
