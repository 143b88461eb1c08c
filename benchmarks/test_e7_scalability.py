"""E7 — Two-level index scalability (paper Sect. III-B) and the
architectural contrast with RDFPeers.

Claims under test:

* Locating the index node for a key costs O(log N) ring hops: doubling
  the ring size adds ~1 hop, it does not double the cost.
* Publication in the hybrid design ships only (key, provider, frequency)
  entries; the data itself never leaves its provider. RDFPeers ships
  every triple to three ring nodes.
"""

from __future__ import annotations

import random


from repro.baselines import RDFPeersSystem
from repro.chord import ChordNode, ChordRing, IdentifierSpace, measure_lookups
from repro.metrics import render_table
from repro.net import Network
from repro.overlay import HybridSystem
from repro.workloads import FoafConfig, generate_foaf_triples

from conftest import emit, run_once


def ring_of(n, bits=20, seed=7):
    rng = random.Random(seed)
    space = IdentifierSpace(bits)
    ring = ChordRing(Network(), space)
    for i, ident in enumerate(rng.sample(range(space.size), n)):
        ring.add_node(ChordNode(f"N{i}", ident, space))
    ring.build_static()
    return ring


def run_hop_sweep():
    rows = []
    means = {}
    for n in (8, 16, 32, 64, 128, 256):
        ring = ring_of(n)
        sample = measure_lookups(ring, 200, random.Random(11))
        means[n] = sample.mean_hops
        rows.append([n, round(sample.mean_hops, 2), sample.max_hops,
                     round(sample.mean_latency * 1000, 1)])
    return means, rows


def test_e7_lookup_hops_logarithmic(benchmark):
    means, rows = run_once(benchmark, run_hop_sweep)
    emit(render_table(
        ["ring_size", "mean_hops", "max_hops", "mean_latency_ms"],
        rows,
        title="E7a: index-node lookup cost vs ring size (Chord O(log N))",
    ))
    # 32x more nodes must cost ~5 extra hops, not 32x.
    assert means[256] < means[8] + 6
    # Monotone-ish growth, clearly sublinear:
    assert means[256] < means[8] * 4
    assert means[256] <= 8  # ~ (log2 256)/2 + slack


def run_publication_contrast():
    triples = generate_foaf_triples(FoafConfig(num_people=60, seed=13))

    hybrid = HybridSystem()
    for i in range(16):
        hybrid.add_index_node(f"N{i}")
    hybrid.build_ring()
    hybrid.add_storage_node("D0", triples, publish=True, protocol=True)
    hybrid_data = hybrid.stats.bytes_for(
        "publish", "publish.reply", "index_put", "index_put.reply", "replica_put"
    )
    hybrid_total = hybrid.stats.bytes_total

    rdfpeers = RDFPeersSystem()
    for i in range(16):
        rdfpeers.add_node(f"P{i}")
    rdfpeers.build_ring()
    rdfpeers.publish("P0", triples)
    rdfpeers_data = rdfpeers.stats.bytes_for("store_triples", "store_triples.reply")
    rdfpeers_total = rdfpeers.stats.bytes_total

    return {
        "triples": len(set(triples)),
        "hybrid_data": hybrid_data,
        "hybrid_total": hybrid_total,
        "hybrid_local": len(hybrid.storage_nodes["D0"].graph),
        "rdfpeers_data": rdfpeers_data,
        "rdfpeers_total": rdfpeers_total,
        "rdfpeers_stored": rdfpeers.total_stored(),
    }


def test_e7_publication_contrast_with_rdfpeers(benchmark):
    m = run_once(benchmark, run_publication_contrast)
    emit(render_table(
        ["system", "data_plane_bytes", "total_bytes", "triples_migrated"],
        [
            ["hybrid (this paper)", m["hybrid_data"], m["hybrid_total"], 0],
            ["RDFPeers", m["rdfpeers_data"], m["rdfpeers_total"], m["rdfpeers_stored"]],
        ],
        title="E7b: publication cost — index entries vs data migration",
    ))
    # Data stays at the provider in the hybrid design...
    assert m["hybrid_local"] == m["triples"]
    # ... RDFPeers migrates ~3 copies of everything ...
    assert m["rdfpeers_stored"] >= 2 * m["triples"]
    # ... and the hybrid data plane is cheaper than shipping the triples;
    # with publication walking owner arcs instead of looking up every key,
    # so is its total traffic, Chord routing included.
    assert m["hybrid_data"] < m["rdfpeers_data"]
    assert m["hybrid_total"] < m["rdfpeers_total"]
