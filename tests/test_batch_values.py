"""Shipped row sets are values.

``SolutionBatch.encode`` interns batches by their row set, and receivers
merge a shipped set by reference into a container of their own. Pinned
here:

* an interned batch is priced exactly like the table-building encoder
  (``tests/reference_wire.py``), on a miss and on a hit;
* equal row sets, however built, share one batch, and the table is
  bounded by the rows it holds;
* ``decode`` and ``as_solution_set`` still hand out fresh mutable sets;
* the chain step's one union equals the copy-then-update it replaced;
* under duplicated deliveries every mailbox is a set of its own.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import wire
from repro.net.faults import FaultPlan, FaultRule
from repro.net.protocol import ChainStep
from repro.net.wire import SolutionBatch, as_solution_set, shipped_rows
from repro.overlay.peer import QueryPeer
from repro.query import DistributedExecutor, ExecutionOptions, PrimitiveStrategy
from repro.rdf import FOAF, IRI, Literal, TriplePattern, Variable
from repro.sparql.algebra import BGP
from repro.sparql.solutions import SolutionMapping
from repro.workloads import PAPER_FIG_QUERIES

from helpers import build_system, oracle_rows
from reference_wire import ReferenceBatch

X, Y, Z = Variable("x"), Variable("y"), Variable("z")

_terms = st.one_of(
    st.sampled_from([IRI("http://e/shared-and-rather-long#term"),
                     IRI("http://e/1"), Literal("1"),
                     Literal("one", language="en")]),
    st.builds(lambda i: IRI(f"http://wide.example/{i}"), st.integers(0, 500)),
)
_row_lists = st.lists(
    st.dictionaries(st.sampled_from([X, Y, Z]), _terms, max_size=3).map(
        SolutionMapping),
    max_size=40)


@pytest.fixture(autouse=True)
def empty_table():
    wire._BATCHES.clear()
    yield
    wire._BATCHES.clear()


def rows_of(n, tag="r"):
    return {SolutionMapping({X: IRI(f"http://e/{tag}{i}"), Y: Literal(tag)})
            for i in range(n)}


class TestInterning:
    @settings(max_examples=150, deadline=None)
    @given(_row_lists)
    def test_miss_and_hit_price_like_the_reference(self, rows):
        reference = ReferenceBatch.encode(rows)
        for batch in (SolutionBatch.encode(rows), SolutionBatch.encode(rows)):
            assert batch.mode == reference.mode
            assert batch.wire_size() == reference.wire_size()
            assert batch.rows == frozenset(rows)

    def test_equal_sets_built_in_any_order_share_one_batch(self):
        rows = sorted(rows_of(30), key=lambda mu: mu[X].value)
        batch = SolutionBatch.encode(rows)
        assert SolutionBatch.encode(reversed(rows)) is batch
        assert SolutionBatch.encode(set(rows[::2]) | set(rows[1::2])) is batch
        assert SolutionBatch.encode(rows[1:]) is not batch

    def test_the_bound_is_on_rows_held(self):
        """The table holds at most ``_MAX_BATCH_ROWS`` rows between its
        batches, however few they are; the least recently used make
        room."""
        bound, n = wire._MAX_BATCH_ROWS, 16
        first = SolutionBatch.encode(rows_of(n, "t0-"))
        second = SolutionBatch.encode(rows_of(n, "t1-"))
        for i in range(2, bound // n):
            SolutionBatch.encode(rows_of(n, f"t{i}-"))
        assert wire._BATCHES.rows == bound == sum(map(len, wire._BATCHES.batches))
        # A hit makes the first batch the most recently used ...
        assert SolutionBatch.encode(rows_of(n, "t0-")) is first
        # ... so one more batch evicts the second, not the first.
        SolutionBatch.encode(rows_of(n - 1, "one-more"))
        assert wire._BATCHES.rows == bound - 1 == sum(map(len, wire._BATCHES.batches))
        assert SolutionBatch.encode(rows_of(n, "t0-")) is first
        again = SolutionBatch.encode(rows_of(n, "t1-"))
        assert again is not second
        assert (again.mode, again.wire_size()) == (second.mode, second.wire_size())
        # One batch of half the bound weighs what all those small ones did.
        SolutionBatch.encode(rows_of(bound // 2, "half-"))
        assert bound // 2 < wire._BATCHES.rows <= bound
        assert wire._BATCHES.rows == sum(map(len, wire._BATCHES.batches))
        assert SolutionBatch.encode(rows_of(n, "t1-")) is again
        # Clearing the table clears the count it is bounded by.
        wire._BATCHES.clear()
        assert not wire._BATCHES.batches and wire._BATCHES.rows == 0

    def test_a_batch_over_the_bound_is_priced_but_not_kept(self):
        SolutionBatch.encode(rows_of(12, "kept-"))
        rows = rows_of(wire._MAX_BATCH_ROWS + 1, "big-")
        batch = SolutionBatch.encode(rows)
        assert batch.wire_size() == ReferenceBatch.encode(rows).wire_size()
        assert list(wire._BATCHES.batches) == [frozenset(rows_of(12, "kept-"))]
        assert wire._BATCHES.rows == 12

    @pytest.mark.parametrize("n", [0, 1, wire._UNKEPT_ROWS])
    def test_a_few_rows_are_priced_but_not_kept(self, n):
        """A set of a few rows is priced afresh each time it ships, and
        so is its chain-step merge: one short pass costs less than a
        table entry holds."""
        batch = SolutionBatch.encode(rows_of(n, "few-"))
        assert batch.wire_size() == ReferenceBatch.encode(rows_of(n, "few-")).wire_size()
        again = SolutionBatch.encode(rows_of(n, "few-"))
        assert again.wire_size() == batch.wire_size()
        grown = SolutionBatch.encode(rows_of(1, "acc-")).extend(
            frozenset(rows_of(wire._UNKEPT_ROWS - 1, "few-")))
        assert len(grown) == wire._UNKEPT_ROWS
        assert not wire._BATCHES.batches and wire._BATCHES.rows == 0

class TestFreshSets:
    def test_decode_returns_an_independent_mutable_set(self):
        batch = SolutionBatch.encode(rows_of(12))
        first, second = batch.decode(), batch.decode()
        assert type(first) is set and first is not second
        first.clear()
        assert second == set(batch.rows) and len(batch) == 12
        assert SolutionBatch.encode(rows_of(12)) is batch

    @pytest.mark.parametrize("plain", [None, True], ids=["batch", "plain"])
    def test_as_solution_set_copies_shipped_rows(self, plain):
        data = wire.encode_solutions(rows_of(4), plain)
        rows = as_solution_set(data)
        assert type(rows) is set and rows is not shipped_rows(data)
        rows.add(SolutionMapping({Z: LONG_TERM}))
        assert len(shipped_rows(data)) == 4

    def test_shipped_rows_is_by_reference(self):
        batch = SolutionBatch.encode(rows_of(4))
        assert shipped_rows(batch) is batch.rows
        plain = frozenset(rows_of(4))
        assert shipped_rows(plain) is plain


LONG_TERM = IRI("http://e/added-by-a-receiver")
NICK = TriplePattern(X, FOAF.nick, Y)


class TestChainStepMerge:
    @pytest.mark.parametrize("plain", [None, True], ids=["batch", "plain"])
    def test_one_union_equals_copy_then_update(self, paper_system, plain):
        d2 = paper_system.storage_nodes["D2"]
        d4 = paper_system.storage_nodes["D4"]
        algebra = BGP((NICK,))
        acc = wire.encode_solutions(
            d4.local_eval(algebra) | rows_of(3, "acc"), plain)
        acc_rows = frozenset(shipped_rows(acc))
        d2.rpc_chain_step(ChainStep(algebra=algebra, acc=acc, route=[],
                                    final="D2", corr="merge", notify=None,
                                    plain=plain), "test")
        old = as_solution_set(acc)
        old.update(d2.local_eval(algebra))
        assert d2.mailbox["merge"] == old
        assert shipped_rows(acc) == acc_rows  # the accumulator is untouched


class TestMailboxesUnderDuplication:
    """A duplicated ``deliver`` carries the same shipped rows twice; each
    mailbox must stay its own mutable set."""

    @pytest.mark.parametrize("strategy", [PrimitiveStrategy.BASIC,
                                          PrimitiveStrategy.CHAINED],
                             ids=["basic", "chained"])
    def test_no_two_mailboxes_share_a_set(self, monkeypatch, strategy):
        system = build_system()
        shipped = []
        real = QueryPeer.rpc_deliver

        def checked(self, payload, src):
            real(self, payload, src)
            shipped.append(shipped_rows(payload.data))
            boxes = [box for node in system.network.nodes.values()
                     for box in node.__dict__.get("_qp_mailbox", {}).values()]
            assert all(type(box) is set for box in boxes)
            assert len({id(box) for box in boxes}) == len(boxes)
            assert not {id(box) for box in boxes} & {id(rows) for rows in shipped}

        monkeypatch.setattr(QueryPeer, "rpc_deliver", checked)
        system.network.install_faults(FaultPlan(
            rules=(FaultRule("duplicate", probability=1.0, delay=0.2,
                             jitter=0.5),), seed=3))
        executor = DistributedExecutor(system, ExecutionOptions(
            primitive_strategy=strategy))
        for name in ("fig4", "fig9"):
            query = PAPER_FIG_QUERIES[name]
            result, _ = executor.execute(query, initiator="D1")
            assert result.rows == oracle_rows(system, query)
        assert shipped
