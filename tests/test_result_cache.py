"""Unit tests for the caching subsystem (PR 9 tentpole).

The ledger, the key canonicalization, and the byte-budgeted store are
all exercised in isolation here — against a stub network — so the
admission/eviction/invalidation contracts hold independently of the
overlay wiring (which tests/test_cache_coherence.py covers end to end).
"""

import random

from repro.cache import DataEpochLedger, ResultCache, Stamp
from repro.cache.keys import (
    bgp_cache_key,
    canonical_rows,
    pattern_cache_key,
    rebind_rows,
)
from repro.metrics import CacheCounters
from repro.net.sizes import size_of
from repro.rdf import FOAF, IRI, Literal, TriplePattern, Variable
from repro.sparql.solutions import SolutionMapping

X, Y, A, B = Variable("x"), Variable("y"), Variable("a"), Variable("b")
#: Ring keys, as the ledger sees them: bare hashed ints.
K1 = 101
K2 = 202


class StubNetwork:
    """The two attributes ResultCache reads off the real Network."""

    def __init__(self):
        self.cache = CacheCounters()
        self.data_epochs = DataEpochLedger()


def make_cache(byte_cap=4096, admit_threshold=2):
    network = StubNetwork()
    return ResultCache(network, byte_cap, admit_threshold), network


def person(i):
    return IRI(f"http://example.org/people/p{i}")


def n3_row(row):
    return tuple(term.n3() for term in row)


def sorted_rows(solutions, variables):
    """The rows in an order fixed by the data: every row's terms in
    canonical variable order, the rows sorted by N3."""
    return tuple(sorted((tuple(mu[v] for v in variables) for mu in solutions),
                        key=n3_row))


def rows(*indices):
    """A canonical-row tuple shaped like a cached primitive result."""
    return tuple((person(i), person(i + 1)) for i in indices)


class TestDataEpochLedger:
    def test_advance_and_stamp(self):
        ledger = DataEpochLedger()
        assert ledger.stamp([K1]) == Stamp({K1: 0}, 0)
        assert ledger.advance(K1) == 1
        assert ledger.advance(K1) == 2
        assert ledger.stamp([K1, K2]) == Stamp({K1: 2, K2: 0}, 0)

    def test_stamp_and_current(self):
        ledger = DataEpochLedger()
        ledger.advance(K1)
        stamp = ledger.stamp([K1, K2])
        assert stamp.epochs == {K1: 1, K2: 0}
        assert ledger.current(stamp)
        ledger.advance(K2)
        assert not ledger.current(stamp)

    def test_membership_change_outdates_every_stamp(self):
        ledger = DataEpochLedger()
        keyless, keyed = ledger.stamp(()), ledger.stamp([K1])
        ledger.membership += 1
        assert not ledger.current(keyless)
        assert not ledger.current(keyed)
        assert ledger.current(ledger.stamp([K1]))


class TestAdmissionGate:
    def test_below_threshold_defers(self):
        cache, network = make_cache(admit_threshold=2)
        entry, admit = cache.probe("k")
        assert entry is None and not admit
        assert network.cache.admission_deferred == 1
        entry, admit = cache.probe("k")
        assert entry is None and admit

    def test_threshold_one_admits_immediately(self):
        cache, _ = make_cache(admit_threshold=1)
        _, admit = cache.probe("k")
        assert admit

    def test_frequency_survives_eviction(self):
        cache, _ = make_cache(admit_threshold=2)
        cache.probe("k"), cache.probe("k")
        assert cache.admit("k", rows(0), (X, Y), {}, 0)
        # Force the entry out; the next probe is a miss but the key has
        # already cleared the gate, so a refill is allowed at once.
        cache._drop("k", cache.entries["k"])
        _, admit = cache.probe("k")
        assert admit

    def test_hit_path(self):
        cache, network = make_cache(admit_threshold=1)
        cache.probe("k")
        assert cache.admit("k", rows(0, 2), (X, Y), {K1: 0}, 0)
        entry, admit = cache.probe("k")
        assert entry is not None and not admit
        assert entry.value == rows(0, 2)
        assert network.cache.hits == 1
        assert network.cache.hit_ratio() == 0.5


class TestByteBudget:
    def test_oversized_value_rejected(self):
        cache, network = make_cache(byte_cap=16, admit_threshold=1)
        cache.probe("k")
        assert not cache.admit("k", rows(0, 2, 4, 6), (X, Y), {}, 0)
        assert network.cache.admissions == 0
        assert cache.bytes_used == 0

    def test_lfu_then_lru_eviction(self):
        value = rows(0)
        cache, network = make_cache(admit_threshold=1)
        nbytes = size_of(value)
        # Budget fits exactly two entries.
        cache.byte_cap = 2 * nbytes
        # "hot" gets two probes, "warm" and "cold" one each.
        cache.probe("hot"), cache.probe("hot")
        cache.probe("warm")
        cache.admit("hot", value, (X, Y), {}, 0)
        cache.admit("warm", value, (X, Y), {}, 0)
        cache.probe("cold")
        cache.admit("cold", value, (X, Y), {}, 0)
        # The least-frequent entry went, the hot one stayed.
        assert "hot" in cache.entries and "cold" in cache.entries
        assert "warm" not in cache.entries
        assert network.cache.evictions == 1
        assert cache.bytes_used == 2 * nbytes

    def test_lru_breaks_frequency_ties(self):
        value = rows(0)
        cache, _ = make_cache(admit_threshold=1)
        cache.byte_cap = 2 * size_of(value)
        cache.probe("first")
        cache.admit("first", value, (X, Y), {}, 0)
        cache.probe("second")
        cache.admit("second", value, (X, Y), {}, 0)
        # Equal frequencies; touch "first" so "second" is least recent.
        cache.probe("first")
        cache.frequencies["first"] = cache.frequencies["second"]
        cache.probe("third")
        cache.admit("third", value, (X, Y), {}, 0)
        assert "second" not in cache.entries
        assert "first" in cache.entries


class TestInvalidation:
    def test_stale_data_epoch_drops_entry(self):
        cache, network = make_cache(admit_threshold=1)
        cache.probe("k")
        stamp = network.data_epochs.stamp([K1])
        cache.admit("k", rows(0), (X, Y), stamp.epochs, stamp.membership)
        network.data_epochs.advance(K1)
        entry, admit = cache.probe("k")
        assert entry is None and admit
        assert network.cache.stale_drops == 1
        assert "k" not in cache.entries
        assert cache.bytes_used == 0

    def test_membership_epoch_invalidates(self):
        cache, network = make_cache(admit_threshold=1)
        cache.probe("k")
        stamp = network.data_epochs.stamp(())
        cache.admit("k", rows(0), (X, Y), stamp.epochs, stamp.membership)
        network.data_epochs.membership += 1
        entry, _ = cache.probe("k")
        assert entry is None
        assert network.cache.stale_drops == 1

    def test_racing_delta_makes_entry_dead_on_arrival(self):
        """Stamps captured *before* the computation: a delta that lands
        mid-computation must turn the admitted entry into a miss."""
        cache, network = make_cache(admit_threshold=1)
        cache.probe("k")
        stamp = network.data_epochs.stamp([K1])
        network.data_epochs.advance(K1)  # the race
        cache.admit("k", rows(0), (X, Y), stamp.epochs, stamp.membership)
        entry, _ = cache.probe("k")
        assert entry is None

    def test_unrelated_key_delta_leaves_entry_alone(self):
        cache, network = make_cache(admit_threshold=1)
        cache.probe("k")
        stamp = network.data_epochs.stamp([K1])
        cache.admit("k", rows(0), (X, Y), stamp.epochs, stamp.membership)
        network.data_epochs.advance(K2)
        entry, _ = cache.probe("k")
        assert entry is not None


class TestKeys:
    def test_pattern_key_is_rename_invariant(self):
        k1, vars1 = pattern_cache_key(TriplePattern(X, FOAF.knows, Y))
        k2, vars2 = pattern_cache_key(TriplePattern(A, FOAF.knows, B))
        assert k1 == k2
        assert vars1 == (X, Y) and vars2 == (A, B)

    def test_pattern_key_distinguishes_repeated_variables(self):
        reflexive, _ = pattern_cache_key(TriplePattern(X, FOAF.knows, X))
        plain, _ = pattern_cache_key(TriplePattern(X, FOAF.knows, Y))
        assert reflexive != plain

    def test_rebind_round_trip(self):
        solutions = {
            SolutionMapping({X: person(0), Y: person(1)}),
            SolutionMapping({X: person(2), Y: person(3)}),
        }
        stored = canonical_rows(solutions, (X, Y))
        assert rebind_rows(stored, (A, B)) == {
            SolutionMapping({A: person(0), B: person(1)}),
            SolutionMapping({A: person(2), B: person(3)}),
        }

    def test_rebind_round_trips_in_any_order(self):
        solutions = [SolutionMapping({X: person(i), Y: person(i + 1)})
                     for i in range(12)]
        expected = {SolutionMapping({A: person(i), B: person(i + 1)})
                    for i in range(12)}
        for seed in range(5):
            shuffled = list(solutions)
            random.Random(seed).shuffle(shuffled)
            stored = canonical_rows(shuffled, (X, Y))
            assert tuple(sorted(stored, key=n3_row)) == sorted_rows(solutions, (X, Y))
            assert rebind_rows(stored, (A, B)) == expected
            assert rebind_rows(random.Random(seed).sample(stored, len(stored)),
                               (A, B)) == expected

    def test_admitted_bytes_equal_the_sorted_form(self):
        """The stored rows come in arrival order; an entry charges the
        bytes of the same rows in sorted order."""
        solutions = {SolutionMapping({X: person(i), Y: Literal(f"n{i}", language="en")})
                     for i in range(20)}
        solutions.add(SolutionMapping({X: person(99), Y: person(98)}))
        cache, network = make_cache(byte_cap=1 << 20, admit_threshold=1)
        cache.probe("k")
        assert cache.admit("k", canonical_rows(solutions, (X, Y)), (X, Y), {}, 0)
        expected = size_of(sorted_rows(solutions, (X, Y)))
        assert cache.entries["k"].nbytes == expected
        assert cache.bytes_used == expected

    def test_bgp_key_order_insensitive(self):
        p1 = TriplePattern(X, FOAF.knows, Y)
        p2 = TriplePattern(Y, FOAF.name, A)
        assert bgp_cache_key([p1, p2], None) == bgp_cache_key([p2, p1], None)

    def test_bgp_key_projection_signature(self):
        p1 = TriplePattern(X, FOAF.knows, Y)
        assert bgp_cache_key([p1], None) != bgp_cache_key([p1], [X])
        assert bgp_cache_key([p1], [X, Y]) == bgp_cache_key([p1], [Y, X])


class TestCounters:
    def test_checkpoint_delta(self):
        cache, network = make_cache(admit_threshold=1)
        before = network.cache.checkpoint()
        cache.probe("k")
        cache.admit("k", rows(0), (X, Y), {}, 0)
        cache.probe("k")
        delta = network.cache.delta(before)
        assert delta["probes"] == 2
        assert delta["hits"] == 1
        assert delta["misses"] == 1
        assert delta["admissions"] == 1
