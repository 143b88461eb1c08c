"""The storage node's answer memo (DESIGN.md §6).

A provider's answer to a sub-query is a pure function of the sub-query
and its graph, so :meth:`StorageNode._answer` keeps it for as long as the
same graph object stands at the same ``Graph.version``. These tests pin
that contract: one evaluation per (sub-query, projection) and graph
state, invalidation by every effective mutation and by a swapped-in
graph, a digest that never enters the key, the memory bound, and — over
random interleavings of mutations and queries — answers equal to a fresh
evaluation over the graph as it is.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.protocol import Evaluate
from repro.net.wire import JoinDigest, shed
from repro.overlay import storage_node as storage_module
from repro.overlay.storage_node import StorageNode
from repro.rdf import IRI, Graph, Literal, Triple, TriplePattern, Variable
from repro.sparql import evaluate_algebra, evaluate_bgp, parse_query, translate_pattern
from repro.sparql.algebra import BGP

X, Y, Z = Variable("x"), Variable("y"), Variable("z")
KNOWS, NAME = IRI("http://p/knows"), IRI("http://p/name")
PEOPLE = tuple(IRI(f"http://people/{i}") for i in range(4))

#: Every triple the interleavings may add or remove.
UNIVERSE = tuple(
    [Triple(a, KNOWS, b) for a in PEOPLE for b in PEOPLE if a is not b]
    + [Triple(a, NAME, Literal(f"n{i % 2}")) for i, a in enumerate(PEOPLE)]
)

#: Four people know one another; three of them have a name.
BASE = UNIVERSE[:6] + UNIVERSE[12:15]

ONE_PATTERN = BGP((TriplePattern(X, KNOWS, Y),))
TWO_PATTERNS = BGP((TriplePattern(X, KNOWS, Y), TriplePattern(Y, NAME, Z)))
#: A non-BGP sub-query: it takes the ``local_eval`` path.
FILTERED = translate_pattern(parse_query(
    "SELECT * WHERE { ?x <http://p/knows> ?y . "
    "OPTIONAL { ?y <http://p/name> ?z } FILTER(?x != <http://people/0>) }").where)
SUB_QUERIES = (ONE_PATTERN, TWO_PATTERNS, FILTERED)


def fresh(algebra, graph, keep=None):
    """The answer computed from scratch, as the node computed it before
    the memo."""
    if type(algebra) is BGP:
        return evaluate_bgp(algebra, graph, keep)
    return shed(evaluate_algebra(algebra, graph), None, keep)[0]


def ask(node, algebra, keep=None, digest=None):
    return node._eval_shippable(
        Evaluate(algebra=algebra, project=keep, digest=digest))


@pytest.fixture
def node():
    return StorageNode("D1", BASE)


@pytest.fixture
def spy(monkeypatch):
    """Counts the evaluations behind the memo, on both paths."""
    calls = []
    bgp, local = storage_module.evaluate_bgp, StorageNode.local_eval

    def counted_bgp(*args):
        calls.append("bgp")
        return bgp(*args)

    def counted_local(self, algebra):
        calls.append("local")
        return local(self, algebra)

    monkeypatch.setattr(storage_module, "evaluate_bgp", counted_bgp)
    monkeypatch.setattr(StorageNode, "local_eval", counted_local)
    return calls


class TestGraphVersion:
    def test_only_effective_changes_bump(self):
        graph = Graph()
        triple = UNIVERSE[0]
        assert graph.version == 0
        graph.add(triple)
        assert graph.version == 1
        graph.add(triple)  # a duplicate add changes nothing
        graph.update([triple])
        assert graph.version == 1
        graph.discard(UNIVERSE[1])  # absent: nothing to remove
        assert graph.version == 1
        graph.discard(triple)
        assert graph.version == 2
        assert graph.update(UNIVERSE[:3]) == 3 and graph.version == 5


class TestMemo:
    @pytest.mark.parametrize("algebra", SUB_QUERIES, ids=["bgp", "bgp2", "local"])
    def test_repeat_is_one_evaluation(self, node, spy, algebra):
        first, pruned = ask(node, algebra)
        again, _ = ask(node, algebra)
        assert pruned is None
        assert isinstance(first, frozenset) and again is first
        assert first == fresh(algebra, node.graph) and first
        assert len(spy) == 1

    def test_value_equal_sub_query_hits(self, node, spy):
        twin = BGP((TriplePattern(X, KNOWS, Y),))
        assert twin is not ONE_PATTERN
        assert ask(node, twin)[0] is ask(node, ONE_PATTERN)[0]
        assert len(spy) == 1

    def test_add_and_remove_invalidate(self, node, spy):
        before = ask(node, ONE_PATTERN)[0]
        added = UNIVERSE[8]
        assert node.add_triples([added]) == 1
        grown = ask(node, ONE_PATTERN)[0]
        assert grown == fresh(ONE_PATTERN, node.graph) and grown != before
        assert node.remove_triples([added]) == 1
        assert ask(node, ONE_PATTERN)[0] == before
        assert len(spy) == 3

    def test_no_op_mutations_keep_the_entry(self, node, spy):
        first = ask(node, ONE_PATTERN)[0]
        node.add_triples(UNIVERSE[:2])  # already present
        node.remove_triples([UNIVERSE[-1]])  # never present
        assert ask(node, ONE_PATTERN)[0] is first
        assert len(spy) == 1

    def test_swapped_graph_at_equal_version_misses(self, node, spy):
        ask(node, ONE_PATTERN)
        other = Graph(UNIVERSE[7:16])
        assert other.version == node.graph.version
        node.graph = other
        assert ask(node, ONE_PATTERN)[0] == fresh(ONE_PATTERN, other)
        assert len(spy) == 2

    def test_keep_order_hits_and_keep_is_part_of_the_key(self, node, spy):
        projected = ask(node, TWO_PATTERNS, keep=[X, Z])[0]
        assert ask(node, TWO_PATTERNS, keep=(Z, X))[0] is projected
        assert len(spy) == 1
        whole = ask(node, TWO_PATTERNS)[0]
        assert whole == fresh(TWO_PATTERNS, node.graph)
        assert projected == fresh(TWO_PATTERNS, node.graph, [X, Z]) != whole
        empty = ask(node, TWO_PATTERNS, keep=[])[0]  # projects onto nothing
        assert empty == fresh(TWO_PATTERNS, node.graph, []) != whole
        assert len(spy) == 3

    @pytest.mark.parametrize("algebra", SUB_QUERIES, ids=["bgp", "bgp2", "local"])
    def test_digest_path_is_shed_over_a_fresh_answer(self, node, spy, algebra):
        resident = fresh(ONE_PATTERN, Graph(UNIVERSE[:3]), [X])
        digest = JoinDigest.build(resident, [X])
        assert digest.prunable
        expected = shed(fresh(algebra, node.graph), digest, [X, Y])
        assert ask(node, algebra, [X, Y], digest) == expected
        assert ask(node, algebra, None, digest) == shed(fresh(algebra, node.graph), digest, None)
        assert expected[1] > 0
        # The digest never enters the key: both asks used one evaluation,
        # which the plain ask shares.
        assert ask(node, algebra)[0] == fresh(algebra, node.graph)
        assert len(spy) == 1

    def test_memo_is_bounded(self, node, monkeypatch):
        monkeypatch.setattr(storage_module, "_MAX_ANSWERS", 3)
        subjects = [BGP((TriplePattern(person, KNOWS, Y),)) for person in PEOPLE]
        for algebra in subjects * 2:
            ask(node, algebra)
            assert len(node._answers) <= 3
        assert len(node._answers) < len(subjects)


_ops = st.lists(st.one_of(
    st.tuples(st.just("add"), st.sampled_from(UNIVERSE)),
    st.tuples(st.just("remove"), st.sampled_from(UNIVERSE)),
    st.tuples(st.just("query"), st.sampled_from(SUB_QUERIES),
              st.sampled_from((None, (X,), (Y, X), ())), st.booleans()),
), max_size=30)


@settings(max_examples=150, deadline=None)
@given(st.sets(st.sampled_from(UNIVERSE)), _ops)
def test_interleavings_answer_like_a_fresh_evaluation(initial, ops):
    node = StorageNode("D1", initial)
    digest = JoinDigest.build(fresh(ONE_PATTERN, Graph(UNIVERSE[:4]), [Y]), [Y])
    for op in ops:
        if op[0] == "add":
            node.add_triples([op[1]])
        elif op[0] == "remove":
            node.remove_triples([op[1]])
        else:
            _, algebra, keep, with_digest = op
            if with_digest:
                assert ask(node, algebra, keep, digest) == \
                    shed(fresh(algebra, node.graph), digest, keep)
            else:
                assert ask(node, algebra, keep) == (fresh(algebra, node.graph, keep), None)
