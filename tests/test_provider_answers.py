"""The storage node's answer memo (DESIGN.md §6).

A provider's answer to a sub-query is a pure function of the sub-query
and its graph, so :meth:`StorageNode._answer` keeps it for as long as the
same graph object stands at the same ``Graph.version``. These tests pin
that contract: one evaluation per (sub-query, projection) and graph
state, invalidation by every effective mutation and by a swapped-in
graph, the memory bound, and — over random interleavings of mutations
and queries — answers equal to a fresh evaluation over the graph as it
is. Digests are interned values (:meth:`JoinDigest.build`), so the memo
also keys a digest-carrying sub-query by the digest's identity: one
shed per (sub-query, projection, digest) and graph state, over the one
evaluation the plain sub-query shares.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import wire
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
        # Both digest asks shed one evaluation, which the plain ask shares.
        assert ask(node, algebra)[0] == fresh(algebra, node.graph)
        assert len(spy) == 1

    def test_memo_is_bounded(self, node, monkeypatch):
        monkeypatch.setattr(storage_module, "_MAX_ANSWERS", 3)
        subjects = [BGP((TriplePattern(person, KNOWS, Y),)) for person in PEOPLE]
        for algebra in subjects * 2:
            ask(node, algebra)
            assert len(node._answers) <= 3
        assert len(node._answers) < len(subjects)


class TestPricedAnswer:
    """``rpc_evaluate`` keeps the batch it priced beside the memoized
    answer, so a repeat is priced once whether or not ``wire._BATCHES``
    still keeps that batch (a few rows it never keeps)."""

    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []
        scan = wire._scan

        def counted(rows):
            calls.append(len(rows))
            return scan(rows)

        monkeypatch.setattr(wire, "_scan", counted)
        return calls

    def test_repeat_is_not_rescanned(self, node, scans):
        request = Evaluate(algebra=ONE_PATTERN)
        first = node.rpc_evaluate(request, "N0")
        wire._BATCHES.clear()
        again = node.rpc_evaluate(request, "N0")
        assert again is first and again.wire_size() == first.wire_size()
        assert scans == [len(first.rows)] and len(first.rows) > 1

    def test_a_mutation_reprices(self, node, scans):
        request = Evaluate(algebra=ONE_PATTERN)
        first = node.rpc_evaluate(request, "N0")
        node.add_triples([UNIVERSE[8]])
        grown = node.rpc_evaluate(request, "N0")
        assert grown.rows == fresh(ONE_PATTERN, node.graph) != first.rows
        wire._BATCHES.clear()
        assert grown.wire_size() == wire.SolutionBatch.encode(
            fresh(ONE_PATTERN, node.graph)).wire_size()
        assert len(scans) == 3

    def test_plain_reply_keeps_no_batch(self, node):
        reply = node.rpc_evaluate(Evaluate(algebra=ONE_PATTERN, plain=True), "N0")
        assert type(reply) is frozenset and reply
        assert node._batches == {}


def knows_digest(var=X):
    """A digest over *var* of who knows whom among the first people:
    built afresh from equal inputs, it is the one interned value."""
    return JoinDigest.build(fresh(ONE_PATTERN, Graph(UNIVERSE[:4]), [var]),
                            [var])


@pytest.fixture
def filters(monkeypatch):
    """Counts the digest filters behind the memo."""
    calls = []
    real = JoinDigest.filter

    def counted(self, rows):
        calls.append(self)
        return real(self, rows)

    monkeypatch.setattr(JoinDigest, "filter", counted)
    return calls


class TestDigestMemo:
    def test_equal_inputs_build_one_digest(self):
        rows = fresh(ONE_PATTERN, Graph(UNIVERSE[:4]), [Y])
        digest = JoinDigest.build(rows, [Y])
        assert JoinDigest.build(set(rows), (Y,)) is digest
        assert JoinDigest.build(list(rows), [Y, Y]) is digest
        assert knows_digest(Y) is digest
        assert knows_digest(X) is not digest  # other variables
        assert JoinDigest.build(rows, [Y], exact_threshold=0) is not digest
        assert JoinDigest.build(set(list(rows)[1:]), [Y]) is not digest

    @pytest.mark.parametrize("algebra", SUB_QUERIES, ids=["bgp", "bgp2", "local"])
    def test_repeat_with_the_same_digest_sheds_once(self, node, spy, filters,
                                                    algebra):
        first = ask(node, algebra, [X], knows_digest())
        assert ask(node, algebra, (X,), knows_digest()) is first
        assert filters == [knows_digest()]
        # Another digest, or none, is another entry over the same
        # evaluation.
        ask(node, algebra, [X], knows_digest(Y))
        ask(node, algebra)
        assert len(filters) == 2 and len(spy) == 1
        assert first == shed(fresh(algebra, node.graph), knows_digest(), [X])

    @pytest.mark.parametrize("mutate", ["add", "remove"])
    def test_mutations_invalidate_digest_entries(self, node, filters, mutate):
        digest = knows_digest(Y)
        before = ask(node, ONE_PATTERN, None, digest)
        assert ask(node, ONE_PATTERN, None, digest) is before
        triple = UNIVERSE[6] if mutate == "add" else BASE[0]
        if mutate == "add":
            assert node.add_triples([triple]) == 1
        else:
            assert node.remove_triples([triple]) == 1
        after = ask(node, ONE_PATTERN, None, digest)
        assert len(filters) == 2
        assert after == shed(fresh(ONE_PATTERN, node.graph), digest, None)
        assert after != before


_ops = st.lists(st.one_of(
    st.tuples(st.just("add"), st.sampled_from(UNIVERSE)),
    st.tuples(st.just("remove"), st.sampled_from(UNIVERSE)),
    st.tuples(st.just("query"), st.sampled_from(SUB_QUERIES),
              st.sampled_from((None, (X,), (Y, X), ())),
              st.sampled_from((None, X, Y))),
), max_size=30)


@settings(max_examples=150, deadline=None)
@given(st.sets(st.sampled_from(UNIVERSE)), _ops)
def test_interleavings_answer_like_a_fresh_evaluation(initial, ops):
    """Each digest query rebuilds its digest, so a repeat re-sends the
    interned one and may meet the memo's entry for it."""
    node = StorageNode("D1", initial)
    for op in ops:
        if op[0] == "add":
            node.add_triples([op[1]])
        elif op[0] == "remove":
            node.remove_triples([op[1]])
        else:
            _, algebra, keep, digest_var = op
            if digest_var is not None:
                digest = knows_digest(digest_var)
                assert ask(node, algebra, keep, digest) == \
                    shed(fresh(algebra, node.graph), digest, keep)
            else:
                assert ask(node, algebra, keep) == (fresh(algebra, node.graph, keep), None)
