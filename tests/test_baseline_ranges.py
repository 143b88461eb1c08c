"""Range-query support (paper Sect. II): locality-preserving hashing,
range ordering, and the ring-walk resolution in the RDFPeers baseline."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import RDFPeersSystem
from repro.baselines.ranges import (
    LocalityHash,
    NumericRange,
    numeric_value,
    sort_ranges,
)
from repro.chord import IdentifierSpace
from repro.rdf import IRI, Literal, Triple, XSD_INTEGER
from repro.trace import Tracer

AGE = IRI("http://example.org/ns#age")
SPACE = IdentifierSpace(16)


def person(i):
    return IRI(f"http://example.org/people/p{i}")


def age_triples(ages):
    return [
        Triple(person(i), AGE, Literal(str(age), datatype=IRI(XSD_INTEGER)))
        for i, age in enumerate(ages)
    ]


class TestLocalityHash:
    def test_order_preserving(self):
        lh = LocalityHash(0, 100, SPACE)
        keys = [lh.key(v) for v in (0, 10, 50, 90, 100)]
        assert keys == sorted(keys)

    def test_bounds_map_to_ring_ends(self):
        lh = LocalityHash(0, 100, SPACE)
        assert lh.key(0) == 0
        assert lh.key(100) == SPACE.size - 1

    def test_out_of_domain_clamps(self):
        lh = LocalityHash(0, 100, SPACE)
        assert lh.key(-5) == lh.key(0)
        assert lh.key(500) == lh.key(100)

    def test_degenerate_domain_rejected(self):
        with pytest.raises(ValueError):
            LocalityHash(10, 10, SPACE)

    @settings(max_examples=100, deadline=None)
    @given(a=st.floats(0, 100), b=st.floats(0, 100))
    def test_property_monotone(self, a, b):
        lh = LocalityHash(0, 100, SPACE)
        if a <= b:
            assert lh.key(a) <= lh.key(b)


class TestRangeHelpers:
    def test_sort_ranges_ascending(self):
        rs = [NumericRange(50, 60), NumericRange(10, 20), NumericRange(30, 35)]
        assert [r.lo for r in sort_ranges(rs)] == [10, 30, 50]

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            NumericRange(5, 4)

    def test_numeric_value(self):
        assert numeric_value(Literal("42", datatype=IRI(XSD_INTEGER))) == 42.0
        assert numeric_value(Literal("plain")) is None
        assert numeric_value(IRI("http://x/a")) is None


def build_range_system(ages, num_nodes=10, seed=3):
    system = RDFPeersSystem(space=IdentifierSpace(16))
    rng = random.Random(seed)
    for i, ident in enumerate(rng.sample(range(SPACE.size), num_nodes)):
        system.add_node(f"P{i}", ident)
    system.build_ring()
    system.enable_numeric_index(0, 120)
    system.publish_numeric("P0", age_triples(ages))
    return system


class TestRangeQueries:
    AGES = [5, 17, 18, 25, 33, 40, 41, 59, 64, 80, 99, 112]

    def oracle(self, *ranges):
        return {
            t for t in age_triples(self.AGES)
            if any(r.contains(float(t.o.to_python())) for r in ranges)
        }

    def test_single_range(self):
        system = build_range_system(self.AGES)
        rng = NumericRange(18, 41)
        result = system.range_query("P1", AGE, [rng])
        assert set(result) == self.oracle(rng)

    def test_range_at_domain_edges(self):
        system = build_range_system(self.AGES)
        low = NumericRange(0, 5)
        high = NumericRange(99, 120)
        assert set(system.range_query("P1", AGE, [low])) == self.oracle(low)
        assert set(system.range_query("P1", AGE, [high])) == self.oracle(high)

    def test_disjunctive_ranges_one_traversal(self):
        system = build_range_system(self.AGES)
        ranges = [NumericRange(60, 70), NumericRange(10, 20), NumericRange(15, 30)]
        result = system.range_query("P1", AGE, ranges)
        assert set(result) == self.oracle(*ranges)

    def test_empty_result(self):
        system = build_range_system(self.AGES)
        assert system.range_query("P1", AGE, [NumericRange(110.5, 111.5)]) == []

    def test_walk_visits_only_arc_nodes(self):
        """A narrow range must touch far fewer nodes than the ring holds."""
        system = build_range_system(self.AGES, num_nodes=10)
        sim = system.network.sim
        sim.tracer = tracer = Tracer(sim)
        system.range_query("P1", AGE, [NumericRange(18, 19)])
        scanned = {
            e.dst for e in tracer.message_events() if e.name == "range_scan"
        }
        assert 1 <= len(scanned) <= 4  # not the whole 10-node ring

    def test_full_domain_range_finds_everything(self):
        system = build_range_system(self.AGES)
        rng = NumericRange(0, 120)
        assert set(system.range_query("P1", AGE, [rng])) == set(age_triples(self.AGES))


class TestHybridRangeViaFilter:
    def test_hybrid_answers_ranges_with_filter_pushing(self):
        """The hybrid system needs no special machinery: a numeric FILTER
        over the ⟨p⟩-indexed pattern, pushed to the providers."""
        from helpers import build_system

        ages = TestRangeQueries.AGES
        system = build_system(num_index=8, parts=[age_triples(ages)])
        result, report = system.execute(
            "SELECT ?x ?age WHERE { ?x <http://example.org/ns#age> ?age . "
            "FILTER (?age >= 18 && ?age <= 41) }",
            initiator="D0",
        )
        got = sorted(int(b["age"].lexical) for b in result.bindings())
        assert got == [18, 25, 33, 40, 41]
