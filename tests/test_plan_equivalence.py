"""Property test: plan-rewrite passes preserve semantics.

Random small BGP + FILTER + OPTIONAL / UNION queries over random graphs:
the algebraic optimizer's rewrites (filter decomposition, filter pushing,
frequency reordering) must return exactly the solutions of evaluating the
unrewritten algebra.
This is the soundness contract every plan-level decision in
``repro.query.physical`` / ``repro.query.cost`` rests on: reorderings and
rewrites may change *where* and *in what order* work happens, never
*what* comes out.
"""

from __future__ import annotations

import zlib

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.rdf.graph import Graph
from repro.rdf.terms import IRI
from repro.rdf.triple import Triple
from repro.sparql import parse_query
from repro.sparql.algebra import translate_pattern
from repro.sparql.eval import evaluate_algebra
from repro.sparql.optimizer import optimize

SUBJECTS = [IRI(f"http://example.org/s{i}") for i in range(5)]
PREDICATES = [IRI(f"http://example.org/p{i}") for i in range(3)]
VARS = ["?a", "?b", "?c", "?d"]

triples_st = st.lists(
    st.tuples(
        st.sampled_from(SUBJECTS),
        st.sampled_from(PREDICATES),
        st.sampled_from(SUBJECTS),
    ),
    min_size=0,
    max_size=40,
)


@st.composite
def pattern_text(draw, bound_vars):
    """One triple pattern; positions are variables or concrete terms."""
    def position(pool):
        if draw(st.booleans()):
            var = draw(st.sampled_from(VARS))
            bound_vars.add(var)
            return var
        return f"<{draw(st.sampled_from(pool)).value}>"

    s = position(SUBJECTS)
    p = (draw(st.sampled_from(VARS))
         if draw(st.integers(0, 3)) == 0
         else f"<{draw(st.sampled_from(PREDICATES)).value}>")
    if p.startswith("?"):
        bound_vars.add(p)
    o = position(SUBJECTS)
    return f"{s} {p} {o} ."


@st.composite
def query_text(draw):
    bound: set = set()
    patterns = draw(st.lists(pattern_text(bound), min_size=1, max_size=3))
    body = " ".join(patterns)

    form = draw(st.sampled_from(["plain", "filter", "optional", "union"]))
    if form == "filter" and len(bound) >= 1:
        vs = sorted(bound)
        left = draw(st.sampled_from(vs))
        if len(vs) >= 2 and draw(st.booleans()):
            right = draw(st.sampled_from([v for v in vs if v != left]))
            body += f" FILTER ({left} != {right})"
        else:
            target = draw(st.sampled_from(SUBJECTS))
            body += f" FILTER ({left} = <{target.value}>)"
    elif form == "optional":
        extra = draw(pattern_text(bound))
        body += f" OPTIONAL {{ {extra} }}"
    elif form == "union":
        other = " ".join(draw(st.lists(pattern_text(set()),
                                       min_size=1, max_size=2)))
        body = f"{{ {body} }} UNION {{ {other} }}"
    return f"SELECT * WHERE {{ {body} }}"


def build_graph(raw):
    graph = Graph()
    for s, p, o in raw:
        graph.add(Triple(s, p, o))
    return graph


def _stable_estimate(pattern):
    """A deterministic pseudo-random cardinality estimate: exercises
    arbitrary reorderings without depending on hash randomization."""
    return (zlib.crc32(str(pattern).encode("utf-8")), str(pattern))


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(raw=triples_st, text=query_text(), reorder=st.booleans())
def test_rewritten_plans_return_the_unrewritten_solutions(raw, text, reorder):
    graph = build_graph(raw)
    algebra = translate_pattern(parse_query(text).where)
    reference = evaluate_algebra(algebra, graph)

    rewritten = optimize(
        algebra,
        estimate=_stable_estimate if reorder else None,
        reorder=reorder,
    )
    assert evaluate_algebra(rewritten, graph) == reference
