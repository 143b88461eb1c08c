"""E12 — Two-level index vs unstructured flooding (paper Sect. I).

The paper motivates the hybrid design by the "unsatisfactory scalability
in unstructured P2P systems". E12 quantifies that motivation: the same
primitive query on the same data, resolved (a) through the two-level
distributed index and (b) by Gnutella-style flooding at several TTLs.

Expected shape: the indexed system touches O(log N) index nodes plus the
actual providers and achieves full recall; flooding's cost grows with the
edge count of the whole overlay, and capping TTL to control that cost
sacrifices recall.
"""

from __future__ import annotations


from repro.baselines import FloodingSystem
from repro.metrics import render_table
from repro.query import DistributedExecutor
from repro.rdf import FOAF, Graph, TriplePattern, Variable
from repro.sparql.algebra import BGP
from repro.sparql.solutions import match_pattern
from repro.workloads import FoafConfig, generate_foaf_triples, partition_triples

from conftest import build_system, emit, run_once

X, Y = Variable("x"), Variable("y")
PATTERN = TriplePattern(X, FOAF.knows, Y)
ALG = BGP((PATTERN,))
QUERY = "SELECT ?x ?y WHERE { ?x foaf:knows ?y . }"
NUM_NODES = 24


def make_data(seed=91):
    triples = generate_foaf_triples(FoafConfig(num_people=80, seed=seed))
    parts = partition_triples(triples, NUM_NODES, seed=seed + 1)
    return triples, parts


def run_comparison():
    from repro.query import ExecutionOptions

    triples, parts = make_data()
    rows = []
    results = {}

    # Two query profiles: a broad scan every provider can answer, and a
    # selective lookup (one subject) that only one or two providers hold.
    anchor = next(t for t in triples if t.p == FOAF.knows)
    selective_pattern = TriplePattern(anchor.s, FOAF.knows, Y)
    profiles = {
        "broad": (PATTERN, ALG, f"SELECT ?x ?y WHERE {{ ?x {FOAF.knows.n3()} ?y . }}"),
        "selective": (
            selective_pattern,
            BGP((selective_pattern,)),
            f"SELECT ?y WHERE {{ {anchor.s.n3()} {FOAF.knows.n3()} ?y . }}",
        ),
    }

    for profile, (pattern, algebra, query_text) in profiles.items():
        full = {match_pattern(pattern, t) for t in Graph(triples).triples(pattern)}

        # (a) the paper's system, with the Sect. V cost planner.
        hybrid = build_system(num_index=12, parts=parts)
        executor = DistributedExecutor(hybrid, ExecutionOptions(
            plan_mode="cost", time_weight=0.0,
        ))
        hybrid.stats.reset()
        result, report = executor.execute(query_text, initiator="D0")
        results[(profile, "hybrid")] = {
            "msgs": report.messages, "bytes": report.bytes_total,
            "recall": len(result.rows) / len(full),
        }
        rows.append([profile, "two-level index", "-", report.messages,
                     report.bytes_total, round(len(result.rows) / len(full), 2)])

        # (b) flooding at several TTLs.
        for ttl in (2, 12):
            flooding = FloodingSystem()
            for i, part in enumerate(parts):
                flooding.add_node(f"F{i}", part)
            flooding.wire_random(4, seed=95)
            flooding.stats.reset()
            answers = flooding.query("F0", algebra, ttl=ttl)
            recall = len(set(answers)) / len(full)
            results[(profile, f"flood-ttl{ttl}")] = {
                "msgs": flooding.stats.messages,
                "bytes": flooding.stats.bytes_total,
                "recall": recall,
            }
            rows.append([profile, "flooding (deg 4)", ttl,
                         flooding.stats.messages, flooding.stats.bytes_total,
                         round(recall, 2)])
    return results, rows


def test_e12_index_vs_flooding(benchmark):
    results, rows = run_once(benchmark, run_comparison)
    emit(render_table(
        ["query", "system", "ttl", "messages", "bytes", "recall"],
        rows,
        title="E12: two-level index vs unstructured flooding (Sect. I)",
    ))

    # The architectural argument: for a *selective* query the index routes
    # straight to the providers, while flooding must still traverse the
    # whole overlay (or give up recall).
    sel_hybrid = results[("selective", "hybrid")]
    sel_flood = results[("selective", "flood-ttl12")]
    assert sel_hybrid["recall"] == 1.0 and sel_flood["recall"] == 1.0
    assert sel_hybrid["msgs"] < sel_flood["msgs"] / 2
    assert sel_hybrid["bytes"] < sel_flood["bytes"]

    # Capped-TTL flooding is cheap but lossy on broad queries.
    cheap = results[("broad", "flood-ttl2")]
    full_flood = results[("broad", "flood-ttl12")]
    assert cheap["msgs"] < full_flood["msgs"]
    assert cheap["recall"] < 1.0
    assert full_flood["recall"] == 1.0

    # Honest caveat, recorded in EXPERIMENTS.md: on a broad query over
    # uniformly spread data, full flooding ships every match exactly once
    # (provider -> initiator) and can undercut the indexed system's bytes;
    # the index still achieves full recall with fewer messages.
    broad_hybrid = results[("broad", "hybrid")]
    assert broad_hybrid["recall"] == 1.0
    assert broad_hybrid["msgs"] < full_flood["msgs"]
