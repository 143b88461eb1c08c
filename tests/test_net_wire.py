"""Wire formats for shipped solutions: SolutionBatch and JoinDigest.

Pins the PR's core size invariants:

* the plain encoding (``size_of`` over a list of mappings) charges a
  repeated term its full size on every row — the inefficiency the
  dictionary-delta batch exists to remove;
* a batch is deterministic, lossless, and **never** costs more than the
  plain encoding plus the one-byte ``PLAIN_HEADER_BYTES`` mode flag;
* a digest never produces a false negative, and refuses to prune at all
  when pruning would be unsound.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.epoch import Stamp
from repro.cache.keys import rebind_rows
from repro.cache.result_cache import CacheEntry
from repro.chord.hashing import hash_terms_seeded
from repro.net import wire
from repro.net.protocol import ChainStep, Evaluate, ExecutePrimitive, Fetch, Ship
from repro.net.sizes import size_of
from repro.net.wire import (
    DIGEST_HEADER_BYTES,
    PLAIN_HEADER_BYTES,
    JoinDigest,
    SolutionBatch,
    as_solution_set,
    encode_solutions,
    mapping_sort_key,
    merge_solutions,
    rebound_batch,
    shipped_rows,
)
from repro.rdf import IRI, Literal, Variable
from repro.sparql.solutions import SolutionMapping

from reference_wire import ReferenceBatch

X, Y, Z = Variable("x"), Variable("y"), Variable("z")

LONG = IRI("http://example.org/a/rather/long/shared/resource#anchor-term")


def repetitive(n=50):
    """n rows all sharing one long term — the dictionary's best case."""
    return {
        SolutionMapping({X: LONG, Y: IRI(f"http://example.org/i{i}")})
        for i in range(n)
    }


def unique_rows(n=5):
    """Rows with no term repetition — the dictionary's worst case."""
    return {
        SolutionMapping({X: IRI(f"http://a.example/{i}"),
                         Y: Literal(f"label {i}")})
        for i in range(n)
    }


def plain_size(solutions):
    """The original wire charge for a shipped solution set."""
    return size_of(sorted(set(solutions), key=mapping_sort_key))


class TestSolutionBatch:
    @pytest.mark.parametrize("solutions", [
        set(), {SolutionMapping({X: LONG})}, unique_rows(), repetitive(),
        {SolutionMapping()},  # the empty mapping is a valid row
    ], ids=["empty", "single", "unique", "repetitive", "empty-mapping"])
    def test_round_trip(self, solutions):
        batch = SolutionBatch.encode(solutions)
        assert batch.decode() == set(solutions)
        assert len(batch) == len(set(solutions))

    @pytest.mark.parametrize("solutions", [
        set(), unique_rows(), repetitive(),
    ], ids=["empty", "unique", "repetitive"])
    def test_never_larger_than_plain_plus_header(self, solutions):
        batch = SolutionBatch.encode(solutions)
        assert batch.wire_size() <= plain_size(solutions) + PLAIN_HEADER_BYTES

    def test_deterministic_across_input_orders(self):
        rows = sorted(repetitive(), key=mapping_sort_key)
        a = SolutionBatch.encode(rows)
        b = SolutionBatch.encode(list(reversed(rows)))
        assert a.rows == b.rows == frozenset(rows)
        assert a.mode == b.mode
        assert a.wire_size() == b.wire_size()
        assert a.wire_size() == ReferenceBatch.encode(rows).wire_size()

    def test_plain_encoding_charges_repeats_in_full(self):
        # The regression this PR fixes the cost of: 50 rows sharing LONG
        # pay size_of(LONG) 50 times on the plain wire...
        sols = repetitive(50)
        assert plain_size(sols) >= 50 * size_of(LONG)
        # ...while the dictionary batch tables the term once.
        batch = SolutionBatch.encode(sols)
        assert batch.mode == "dict"
        assert batch.wire_size() < 0.6 * plain_size(sols)

    def test_falls_back_to_plain_mode_when_dictionary_loses(self):
        rows = {SolutionMapping({X: IRI("http://e/1")})}
        batch = SolutionBatch.encode(rows)
        assert batch.mode == "plain"
        assert batch.decode() == rows
        # The plain fallback carries the mode flag alone, never the
        # dictionary's three table lengths.
        assert batch.wire_size() == plain_size(rows) + PLAIN_HEADER_BYTES

    def test_one_row_repeating_a_long_term_is_dictionary_encoded(self):
        rows = {SolutionMapping({X: LONG, Y: LONG, Z: LONG})}
        batch = SolutionBatch.encode(rows)
        assert batch.mode == "dict"
        assert batch.wire_size() == ReferenceBatch.encode(rows).wire_size()
        assert batch.wire_size() < plain_size(rows)

    def test_size_of_integration_is_exactly_additive(self):
        batch = SolutionBatch.encode(repetitive())
        assert size_of(batch) == batch.wire_size()
        # Embedded in a payload dict, the batch adds exactly its wire size
        # (plus the dict's own per-entry overhead) — nothing hidden.
        with_batch = size_of({"corr": "c", "data": batch})
        without = size_of({"corr": "c"})
        per_entry = (size_of({"corr": "c", "x": 0})
                     - without - size_of("x") - size_of(0))
        assert with_batch == (without + size_of("data")
                              + batch.wire_size() + per_entry)

    def test_plain_flag_is_the_original_wire_format(self):
        """Rows travel as batches by default; a request's ``plain`` flag
        (dictionary encoding off) gives the original list of mappings."""
        sols = unique_rows()
        plain = encode_solutions(sols, plain=True)
        assert set(plain) == sols and len(plain) == len(sols)
        assert size_of(plain) == plain_size(sols)
        assert as_solution_set(plain) == sols
        batch = encode_solutions(sols)
        assert type(batch) is SolutionBatch
        assert size_of(encode_solutions(sols, None)) == size_of(batch)
        assert as_solution_set(batch) == sols

    @pytest.mark.parametrize("record,fields", [
        (ExecutePrimitive, dict(algebra=None, key=1, strategy="freq", corr="q#1")),
        (Evaluate, dict(algebra=None)),
        (ChainStep, dict(algebra=None, acc=[], route=[], final="D1",
                         corr="q#1", notify=None)),
        (Ship, dict(corr="q#1", dst="D2", dst_corr="q#1", notify=None)),
        (Fetch, dict(corr="q#1")),
    ], ids=lambda v: getattr(v, "__name__", ""))
    def test_a_default_request_carries_no_format_bytes(self, record, fields):
        assert "encode" not in record.OPTIONAL
        default = record(**fields)
        asked = record(**fields, plain=True)
        assert size_of(asked) - size_of(default) == size_of("plain") + 2 + 1


# A small term pool forces repetition (the dictionary wins); the wide one
# makes rows mostly unique (plain mode wins). Mixed schemas, including the
# empty mapping, come from drawing 0-3 variables per row.
_narrow = st.sampled_from(
    [LONG, IRI("http://e/1"), Literal("1"), Literal("one", language="en")])
_wide = st.builds(lambda i: IRI(f"http://wide.example/{i}"),
                  st.integers(0, 2000))


@st.composite
def _rows(draw):
    pool = draw(st.sampled_from([_narrow, _wide, st.one_of(_narrow, _wide)]))
    row = st.dictionaries(st.sampled_from([X, Y, Z]), pool, max_size=3)
    return [SolutionMapping(b) for b in draw(st.lists(row, max_size=40))]


class TestSizeOnlyEncoding:
    """``encode`` prices the dictionary-delta format without building it;
    the table-building encoder it replaced is the oracle."""

    @settings(max_examples=200, deadline=None)
    @given(_rows())
    def test_size_and_mode_match_the_table_building_encoder(self, rows):
        batch, reference = SolutionBatch.encode(rows), ReferenceBatch.encode(rows)
        assert batch.wire_size() == reference.wire_size()
        assert batch.mode == reference.mode
        assert len(batch) == len(reference)
        assert batch.decode() == reference.decode() == set(rows)

    @pytest.mark.parametrize("distinct", [255, 256, 65_535, 65_536],
                             ids=lambda n: f"{n}-terms")
    def test_index_width_steps(self, distinct):
        # The term table crosses the 1 -> 2 -> 4 byte index widths
        # exactly at these counts. Wide rows overlapping by half put every
        # term in two rows, so the dictionary wins and the index widths
        # are what the size is made of.
        terms = [IRI(f"http://w.example/{i}") for i in range(distinct)]
        wide = [Variable(f"v{k:02}") for k in range(16)]
        rows = [SolutionMapping({v: terms[(i + k) % distinct]
                                 for k, v in enumerate(wide)})
                for i in range(0, distinct, 8)]
        batch, reference = SolutionBatch.encode(rows), ReferenceBatch.encode(rows)
        assert len(reference.terms) == distinct
        assert batch.wire_size() == reference.wire_size()
        assert batch.mode == reference.mode == "dict"

    def test_decode_hands_every_receiver_its_own_set(self):
        # A duplicated delivery decodes one payload twice; what the
        # first receiver does to its rows must not reach the second.
        rows = repetitive(5)
        batch = SolutionBatch.encode(rows)
        first = batch.decode()
        first.clear()
        first.add(SolutionMapping({Z: LONG}))
        assert batch.decode() == rows and len(batch) == 5
        assert batch.wire_size() == SolutionBatch.encode(rows).wire_size()

    def test_encoding_does_not_alias_the_senders_set(self):
        rows = repetitive(5)
        batch, plain = SolutionBatch.encode(rows), encode_solutions(rows, True)
        rows.clear()
        assert len(batch.decode()) == len(as_solution_set(plain)) == 5

    @pytest.mark.parametrize("solutions", [
        set(), unique_rows(), repetitive(), {SolutionMapping()},
    ], ids=["empty", "unique", "repetitive", "empty-mapping"])
    def test_row_sets_size_like_the_sorted_list(self, solutions):
        as_list = sorted(solutions, key=mapping_sort_key)
        assert (size_of(frozenset(solutions)) == size_of(set(solutions))
                == size_of(as_list) == size_of(tuple(reversed(as_list))))


@st.composite
def _one_row(draw):
    """A single row; over the narrow pool it often repeats a term."""
    pool = draw(st.sampled_from([_narrow, _wide]))
    return [SolutionMapping(draw(
        st.dictionaries(st.sampled_from([X, Y, Z]), pool, max_size=3)))]


_any_rows = st.one_of(_rows(), _one_row())


def _priced_from(batch):
    """Everything a batch is priced from, and its price."""
    return (batch.rows, batch.mode, batch.wire_size(), batch._naive,
            batch._pairs, batch._vars, batch._table)


class TestPricingPaths:
    """The single-row fast path, the chain step's :meth:`extend` and a
    cache hit's :func:`rebound_batch` are shortcuts; the scan of every
    row is their oracle, and the table-building encoder the oracle of
    the scan."""

    @settings(max_examples=200, deadline=None)
    @given(_any_rows)
    def test_wire_size_is_the_reference_and_at_most_plain_plus_one(self, rows):
        wire._BATCHES.clear()  # price every example, never a kept batch
        batch, reference = SolutionBatch.encode(rows), ReferenceBatch.encode(rows)
        assert (batch.mode, batch.wire_size()) == (reference.mode,
                                                   reference.wire_size())
        assert batch.wire_size() <= plain_size(rows) + PLAIN_HEADER_BYTES

    @settings(max_examples=200, deadline=None)
    @given(_any_rows)
    def test_fast_path_agrees_with_the_full_computation(self, rows):
        rows = frozenset(rows)
        assert (_priced_from(SolutionBatch._price(rows))
                == _priced_from(SolutionBatch._scanned(rows)))

    @settings(max_examples=200, deadline=None)
    @given(_any_rows, _any_rows, _any_rows)
    def test_extend_prices_like_the_union_from_scratch(self, acc, local, more):
        """Two chain steps: the first extends a batch without its term
        set, as one :data:`~repro.net.wire._BATCHES` keeps, the second
        the first's batch, which holds its term set unless kept."""
        batch = SolutionBatch._price(frozenset(acc))
        batch._terms = None
        union = batch.rows
        for rows in (frozenset(local), frozenset(more)):
            batch, union = batch.extend(rows), union | rows
            assert batch.rows == union
            assert (_priced_from(batch)
                    == _priced_from(SolutionBatch._scanned(union)))
            reference = ReferenceBatch.encode(union)
            assert ((batch.mode, batch.wire_size())
                    == (reference.mode, reference.wire_size()))
            if batch._terms is not None:
                assert batch._terms == {t for mu in union for t in mu._values}

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 3).flatmap(lambda k: st.sets(
        st.tuples(*[st.one_of(_narrow, _wide)] * k), max_size=40)))
    def test_a_cache_hit_prices_like_a_scan_of_its_rows(self, table):
        """A result-cache entry's term tuples, bound to a requester's
        variables, are priced from the entry without a scan; the second
        binding reads the entry's memoized term counts."""
        value = tuple(table)
        width = len(value[0]) if value else 1
        entry = CacheEntry(value, None, Stamp({}, 0), size_of(value), 0)
        for names in ("abc", ["long_name_%d" % i for i in range(3)]):
            variables = tuple(Variable(n) for n in names[:width])
            rows = rebind_rows(value, variables)
            assert (_priced_from(rebound_batch(rows, entry))
                    == _priced_from(SolutionBatch._scanned(frozenset(rows))))
            assert entry.terms is not None or not value

    @pytest.mark.parametrize("plain", [None, True], ids=["batch", "plain"])
    def test_merge_solutions_is_the_encoded_union(self, plain):
        acc = encode_solutions(unique_rows(3), plain)
        merged = merge_solutions(frozenset(repetitive(4)), acc, plain)
        assert type(merged) is type(acc)
        assert shipped_rows(merged) == unique_rows(3) | repetitive(4)
        assert size_of(merged) == size_of(encode_solutions(
            unique_rows(3) | repetitive(4), plain))
        # A chain step's first merge starts from the kickoff's empty list.
        first = merge_solutions(frozenset(repetitive(4)), [], plain)
        assert size_of(first) == size_of(encode_solutions(repetitive(4), plain))

    def test_extend_by_known_rows_is_the_same_batch(self):
        batch = SolutionBatch.encode(repetitive(6))
        assert batch.extend(frozenset(list(repetitive(6))[:3])) is batch
        assert batch.extend(frozenset()) is batch


def key_rows(n, var=X):
    return {SolutionMapping({var: IRI(f"http://k.example/{i}"), Y: LONG})
            for i in range(n)}


class TestJoinDigest:
    def test_exact_mode_filters_exactly(self):
        resident = key_rows(10)
        digest = JoinDigest.build(resident, [X], exact_threshold=64)
        assert digest.mode == "exact" and digest.prunable
        member = SolutionMapping({X: IRI("http://k.example/3"), Z: LONG})
        stranger = SolutionMapping({X: IRI("http://k.example/99")})
        assert digest.allows(member)
        assert not digest.allows(stranger)
        assert digest.filter({member, stranger}) == {member}

    def test_bloom_mode_has_no_false_negatives(self):
        resident = key_rows(200)
        digest = JoinDigest.build(resident, [X], exact_threshold=64,
                                  bloom_bits=10)
        assert digest.mode == "bloom" and digest.prunable
        for mu in resident:
            assert digest.allows(mu)

    def test_bloom_mode_prunes_most_strangers(self):
        digest = JoinDigest.build(key_rows(200), [X], exact_threshold=64,
                                  bloom_bits=10)
        strangers = [SolutionMapping({X: IRI(f"http://other.example/{i}")})
                     for i in range(100)]
        rejected = sum(1 for mu in strangers if not digest.allows(mu))
        assert rejected >= 80  # ~1% theoretical false-positive rate

    def test_bloom_is_smaller_than_exact_would_be(self):
        resident = key_rows(200)
        bloom = JoinDigest.build(resident, [X], exact_threshold=64)
        exact = JoinDigest.build(resident, [X], exact_threshold=10_000)
        assert bloom.mode == "bloom" and exact.mode == "exact"
        assert bloom.wire_size() < exact.wire_size()
        assert bloom.wire_size() == (
            DIGEST_HEADER_BYTES + size_of(X) + 2 + bloom.nbits // 8
        )

    @pytest.mark.parametrize("keys", [200, 100])
    def test_bloom_positions_are_fresh_hashes(self, keys):
        """Seeded hashes are memoized before the modulus, so digests of
        other sizes over the same keys still set and test exactly the
        bits a fresh :func:`hash_terms_seeded` gives."""
        JoinDigest.build(key_rows(300), [X], exact_threshold=64)  # warm
        digest = JoinDigest.build(key_rows(keys), [X], exact_threshold=64)
        assert digest.mode == "bloom"

        def positions(key):
            return [hash_terms_seeded(key, seed, digest.nbits)
                    for seed in range(digest.nhashes)]

        bits = 0
        for mu in key_rows(keys):
            for position in positions((mu[X],)):
                bits |= 1 << position
        assert digest.bits == bits
        candidates = key_rows(400) | {
            SolutionMapping({X: IRI(f"http://other.example/{i}")})
            for i in range(400)}
        admitted = {mu for mu in candidates
                    if all(bits >> p & 1 for p in positions((mu[X],)))}
        assert digest.filter(candidates) == admitted
        assert admitted > key_rows(keys)  # false positives, kept as before

    def test_unbound_resident_row_disables_pruning(self):
        resident = key_rows(5) | {SolutionMapping({Y: LONG})}  # no X binding
        digest = JoinDigest.build(resident, [X])
        assert not digest.prunable
        assert digest.allows(SolutionMapping({X: IRI("http://nowhere/")}))

    def test_empty_variable_list_disables_pruning(self):
        digest = JoinDigest.build(key_rows(5), [])
        assert not digest.prunable

    def test_candidate_missing_a_digest_var_is_admitted(self):
        digest = JoinDigest.build(key_rows(5), [X])
        assert digest.allows(SolutionMapping({Z: LONG}))

    def test_deterministic(self):
        rows = sorted(key_rows(200), key=mapping_sort_key)
        a = JoinDigest.build(rows, [X], exact_threshold=64)
        b = JoinDigest.build(list(reversed(rows)), [X], exact_threshold=64)
        assert (a.bits, a.nbits, a.nhashes, a.wire_size()) == \
               (b.bits, b.nbits, b.nhashes, b.wire_size())

    def test_size_of_integration(self):
        digest = JoinDigest.build(key_rows(5), [X])
        assert size_of(digest) == digest.wire_size()

    @pytest.mark.parametrize("keys,threshold", [
        ([X], 64), ([X], 8), ([X, Y], 64), ([X, Y], 8)])
    def test_filter_keeps_exactly_the_rows_allows_admits(self, keys,
                                                         threshold):
        """``filter`` finds the key slots once per schema; it must keep
        what the per-row :meth:`allows` keeps, in both modes and over
        rows of mixed schemas (some missing a key variable)."""
        resident = {SolutionMapping({X: IRI(f"http://k.example/{i}"),
                                     Y: Literal(str(i % 3))})
                    for i in range(20)}
        digest = JoinDigest.build(resident, keys, exact_threshold=threshold)
        candidates = {
            SolutionMapping({X: IRI(f"http://k.example/{i}"),
                             Y: Literal(str(i % 4)), Z: LONG})
            for i in range(40)
        } | {SolutionMapping({X: IRI(f"http://k.example/{i}")})
             for i in range(15, 30)} | {SolutionMapping({Z: LONG})}
        kept = digest.filter(candidates)
        assert kept == {mu for mu in candidates if digest.allows(mu)}
        assert 0 < len(kept) < len(candidates)

    @pytest.mark.parametrize("container", [set, frozenset, list, iter])
    @pytest.mark.parametrize("keys", [[X], [X, Y]])
    def test_filter_one_schema_in_any_container(self, container, keys):
        """Rows of one schema, in whatever container, keep exactly what
        :meth:`allows` admits, for a one-slot key and a two-slot key."""
        resident = key_rows(10)
        digest = JoinDigest.build(resident, keys)
        assert digest.mode == "exact" and digest.prunable
        candidates = key_rows(30)
        kept = digest.filter(container(candidates))
        assert kept == {mu for mu in candidates if digest.allows(mu)} == resident


class TestSeededHashing:
    def test_deterministic(self):
        terms = (IRI("http://a/"), Literal("x"))
        assert hash_terms_seeded(terms, 3, 1024) == \
               hash_terms_seeded(terms, 3, 1024)

    def test_seed_changes_position(self):
        terms = (IRI("http://a/"),)
        values = {hash_terms_seeded(terms, seed, 1 << 20) for seed in range(8)}
        assert len(values) > 1

    def test_range(self):
        for seed in range(4):
            assert 0 <= hash_terms_seeded((LONG,), seed, 97) < 97
