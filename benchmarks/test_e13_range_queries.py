"""E13 — Range queries: locality-preserving hashing vs filter pushing
(paper Sect. II).

The paper notes that RDFPeers resolves numeric range queries with a
locality-preserving hash and a range-ordering algorithm; the hybrid
system instead answers them as a FILTER over the ⟨p⟩-indexed pattern,
pushed to the providers.

Expected shape: RDFPeers' walk visits only the ring arc covering the
range, so its cost *scales with the range width*; the hybrid system's
cost is flat in the width (the providers scan locally and ship only the
hits, so its bytes track the *result size* instead). Narrow ranges favor
the arc walk; the filter design needs no numeric domain configuration and
keeps the data at its providers.
"""

from __future__ import annotations

import random


from repro.baselines import NumericRange, RDFPeersSystem
from repro.chord import IdentifierSpace
from repro.metrics import render_table
from repro.rdf import IRI, Literal, Triple, XSD_INTEGER

from conftest import build_system, emit, run_once

AGE = IRI("http://example.org/ns#age")
NUM_PEOPLE = 200


def age_triples(seed=71):
    rng = random.Random(seed)
    return [
        Triple(
            IRI(f"http://example.org/people/p{i}"),
            AGE,
            Literal(str(rng.randrange(0, 100)), datatype=IRI(XSD_INTEGER)),
        )
        for i in range(NUM_PEOPLE)
    ]


def run_sweep():
    triples = age_triples()

    rdfpeers = RDFPeersSystem(space=IdentifierSpace(24))
    for i in range(16):
        rdfpeers.add_node(f"P{i}")
    rdfpeers.build_ring()
    rdfpeers.enable_numeric_index(0, 100)
    rdfpeers.publish_numeric("P0", triples)

    rows = []
    results = {}
    for lo, hi in ((40, 45), (30, 60), (0, 99)):
        expected = sum(1 for t in triples if lo <= int(t.o.lexical) <= hi)

        cp = rdfpeers.stats.checkpoint()
        found = rdfpeers.range_query("P1", AGE, [NumericRange(lo, hi)])
        delta = rdfpeers.stats.delta(cp)
        assert len(found) == expected
        results[("rdfpeers", (lo, hi))] = {"msgs": delta.messages, "bytes": delta.bytes}
        rows.append([f"[{lo},{hi}]", "rdfpeers arc walk", expected,
                     delta.messages, delta.bytes])

        query = (
            f"SELECT ?x ?age WHERE {{ ?x {AGE.n3()} ?age . "
            f"FILTER (?age >= {lo} && ?age <= {hi}) }}"
        )
        # A fresh system per width: D0 learns the owner arc of the ⟨p⟩
        # key on its first lookup, and a warm lookup skips the ring, so
        # reusing one system would compare a cold run with warm ones.
        hybrid = build_system(num_index=16,
                              parts=[triples[:100], triples[100:]])
        result, report = hybrid.execute(query, initiator="D0")
        assert len(result.rows) == expected
        results[("hybrid", (lo, hi))] = {"msgs": report.messages,
                                         "bytes": report.bytes_total}
        rows.append([f"[{lo},{hi}]", "hybrid filter push", expected,
                     report.messages, report.bytes_total])
    return results, rows


def test_e13_range_queries(benchmark):
    results, rows = run_once(benchmark, run_sweep)
    emit(render_table(
        ["range", "system", "hits", "messages", "bytes"],
        rows,
        title="E13: numeric range queries — arc walk vs pushed filter (Sect. II)",
    ))

    # RDFPeers' message count grows with the range width (more arc nodes).
    assert results[("rdfpeers", (0, 99))]["msgs"] > \
        results[("rdfpeers", (40, 45))]["msgs"]
    # The hybrid's message count is flat in the width (same providers).
    assert results[("hybrid", (0, 99))]["msgs"] == \
        results[("hybrid", (40, 45))]["msgs"]
    # Narrow range: the arc walk touches few nodes and undercuts the
    # hybrid's fixed two-level consultation on messages.
    assert results[("rdfpeers", (40, 45))]["msgs"] <= \
        results[("hybrid", (40, 45))]["msgs"] + 4
    # Both systems' bytes track the result size.
    assert results[("hybrid", (0, 99))]["bytes"] > \
        results[("hybrid", (40, 45))]["bytes"]
