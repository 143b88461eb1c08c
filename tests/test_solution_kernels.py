"""The batch row kernels against nested loops written from the definitions.

:mod:`repro.sparql.solutions` runs join, difference, (conditional) left
join and projection as per-schema batch passes over value tuples, with
cached ``itemgetter`` plans. The oracle here knows nothing of schemas,
plans or interning: a mapping is a plain ``{name: N-Triples text}`` dict,
and each operation is the nested loop of Pérez, Arenas & Gutierrez
(Sect. IV-A of the paper):

* compatible: every shared variable has the same value;
* Ω1 ⋈ Ω2 = { µ1 ∪ µ2 | µ1 ∈ Ω1, µ2 ∈ Ω2, µ1 ~ µ2 };
* Ω1 − Ω2 = { µ ∈ Ω1 | no µ' ∈ Ω2 is compatible with µ };
* Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪ (Ω1 − Ω2), and its conditional form keeps a
  left row unextended only when none of its extensions passes.

Two row shapes are drawn. *Uniform* sides hold one schema each, sharing
0, 1 or 2 variables, with one-variable outputs among them (a single
index picks a bare item, not a tuple, so that case is easy to get
wrong) and duplicate rows (the non-unique build path of the hash join).
*Mixed* sides hold partial mappings over any subset of the variables,
as OPTIONAL and UNION produce.
"""

from hypothesis import given, settings, strategies as st

from repro.rdf import IRI, Literal, Variable
from repro.rdf.terms import BlankNode
from repro.sparql.solutions import (
    SolutionMapping,
    conditional_left_outer_join,
    join,
    left_outer_join,
    minus,
    project,
)

VARS = [Variable("x"), Variable("y"), Variable("z"), Variable("w")]
TERMS = [IRI("http://x/a"), IRI("http://x/b"), Literal("1"),
         Literal("1", language="en"), BlankNode("k")]

_terms = st.sampled_from(TERMS)


def _rows(domain):
    return st.tuples(*[_terms] * len(domain)).map(
        lambda values: SolutionMapping(dict(zip(domain, values))))


@st.composite
def uniform_sides(draw):
    """Two lists of rows, one schema per side, sharing exactly 0, 1 or 2
    variables; either side may also bind variables of its own."""
    shared_n = draw(st.sampled_from([0, 1, 2]))
    order = draw(st.permutations(VARS))
    shared, others = order[:shared_n], order[shared_n:]
    split = draw(st.integers(0, len(others)))
    right_n = draw(st.integers(0, len(others) - split))
    left_domain = shared + others[:split]
    right_domain = shared + others[split:split + right_n]
    left = draw(st.lists(_rows(left_domain), max_size=8))
    right = draw(st.lists(_rows(right_domain), max_size=8))
    return left, right


@st.composite
def partial_mapping(draw):
    domain = draw(st.permutations(VARS))[:draw(st.integers(0, len(VARS)))]
    return draw(_rows(domain))


mixed = st.lists(partial_mapping(), max_size=8)
sides = st.one_of(uniform_sides(), st.tuples(mixed, mixed))
_settings = settings(max_examples=300, deadline=None)


# --------------------------------------------------------------- the oracle


def _plain(mu):
    return {v.name: t.n3() for v, t in mu.items()}


def _key(d):
    return frozenset(d.items())


def _compatible(d1, d2):
    return all(d1[v] == d2[v] for v in d1.keys() & d2.keys())


def ref_join(o1, o2):
    return {_key({**_plain(m1), **_plain(m2)}) for m1 in o1 for m2 in o2
            if _compatible(_plain(m1), _plain(m2))}


def ref_minus(o1, o2):
    return {_key(_plain(m1)) for m1 in o1
            if not any(_compatible(_plain(m1), _plain(m2)) for m2 in o2)}


def ref_conditional_left_join(o1, o2, condition):
    out = set()
    for m1 in o1:
        passing = [merged for m2 in o2
                   if _compatible(_plain(m1), _plain(m2))
                   for merged in [{**_plain(m1), **_plain(m2)}]
                   if condition(merged)]
        out |= {_key(d) for d in passing} if passing else {_key(_plain(m1))}
    return out


def _got(omega):
    return {_key(_plain(mu)) for mu in omega}


def _condition(d):
    """A FILTER-like test that depends on a variable either side binds."""
    return d.get("z") != TERMS[0].n3() and d.get("w") != TERMS[2].n3()


# ---------------------------------------------------------------- the tests


@_settings
@given(sides)
def test_join_matches_nested_loop(pair):
    left, right = pair
    assert _got(join(left, right)) == ref_join(left, right)


@_settings
@given(sides)
def test_minus_matches_nested_loop(pair):
    left, right = pair
    assert _got(minus(left, right)) == ref_minus(left, right)


@_settings
@given(sides)
def test_left_outer_join_matches_definition(pair):
    left, right = pair
    assert _got(left_outer_join(left, right)) == (
        ref_join(left, right) | ref_minus(left, right))


@_settings
@given(sides)
def test_conditional_left_outer_join_matches_nested_loop(pair):
    left, right = pair
    got = conditional_left_outer_join(
        left, right, lambda mu: _condition(_plain(mu)))
    assert _got(got) == ref_conditional_left_join(left, right, _condition)


@_settings
@given(st.one_of(mixed, uniform_sides().map(lambda pair: pair[0])),
       st.lists(st.sampled_from(VARS), max_size=4))
def test_batch_projection_keeps_order_and_restricts(rows, variables):
    names = {v.name for v in variables}
    got = project(rows, variables)
    assert [_plain(mu) for mu in got] == [
        {k: t for k, t in _plain(mu).items() if k in names} for mu in rows]
    assert got == [mu.project(variables) for mu in rows]


def test_one_variable_outputs():
    """A pair whose output binds one variable builds 1-tuples, never a
    bare term (the single-index ``itemgetter`` case)."""
    x = VARS[0]
    a, b = TERMS[0], TERMS[1]
    left = [SolutionMapping({x: a}), SolutionMapping({x: b})]
    assert join(left, [SolutionMapping({x: a})]) == {SolutionMapping({x: a})}
    assert join(left, [SolutionMapping()]) == set(left)
    assert minus(left, [SolutionMapping({x: b})]) == {SolutionMapping({x: a})}
    assert project([SolutionMapping({x: a, VARS[1]: b})], [x]) == [
        SolutionMapping({x: a})]
    for mu in join(left, left):
        assert mu._values in ((a,), (b,))
