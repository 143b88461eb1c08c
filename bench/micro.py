"""One microbenchmark per layer, each called through the layer's public
entry point on fixed seeded inputs (independent of ``--seed``, so the
numbers compare across seeds as well as across commits).

Every rate loops its operation for at least *min_seconds* (0.5 s at
scale 1) and reports units of work per wall second.  ``storage`` appears
only here: no workload runs with a ``state_dir``.
"""

from __future__ import annotations

import pathlib
import random
import statistics
import tempfile
import time
from typing import Callable, Dict

from repro.cache import ResultCache
from repro.chord import ChordNode, ChordRing, IdentifierSpace, measure_lookups
from repro.net import Network, Node, Simulator, size_of
from repro.net.wire import SolutionBatch
from repro.overlay import HybridSystem
from repro.query import ExecutionOptions
from repro.query.physical import compile_query_plan
from repro.rdf import COMMON_PREFIXES, FOAF, Graph, TriplePattern, Variable
from repro.sparql import (
    evaluate_query, join, optimize, parse_query, translate_pattern,
)
from repro.storage import WriteAheadLog, recover_system
from repro.workloads import (
    FoafConfig, generate_foaf_triples, paper_query_mix,
)

from trace import SpanRecorder
from workloads import E2_QUERY

__all__ = ["run_all"]

MICRO_SEED = 7


def rate(spans: SpanRecorder, name: str, fn: Callable[[], object],
         units: int, min_seconds: float) -> float:
    """Units of work per wall second of looping *fn*."""
    with spans.span(name):
        calls = 0
        start = time.perf_counter()
        while True:
            fn()
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= min_seconds:
                return calls * units / elapsed


class _Echo(Node):
    def rpc_ping(self, payload, src):
        return payload


def _rows(graph: Graph, text: str):
    return evaluate_query(parse_query(text, COMMON_PREFIXES), graph).rows


def _close_durable(system: HybridSystem) -> None:
    system.journal.close()
    for node in system.index_nodes.values():
        node.table.close()
    for node in system.storage_nodes.values():
        node.graph.close()


def run_all(spans: SpanRecorder, min_seconds: float,
            scratch: pathlib.Path) -> Dict[str, float]:
    triples = generate_foaf_triples(FoafConfig(
        num_people=480, knows_per_person=3, nick_fraction=0.3,
        seed=MICRO_SEED))
    graph = Graph(triples)
    x, z, k = Variable("x"), Variable("z"), Variable("k")
    knows = _rows(graph, "SELECT ?x ?z WHERE { ?x foaf:knows ?z . }")
    nicks = _rows(graph, "SELECT ?x ?k WHERE { ?x foaf:nick ?k . }")
    joined = _rows(graph, E2_QUERY)
    batch = SolutionBatch.encode(joined)
    e2 = parse_query(E2_QUERY, COMMON_PREFIXES)
    fig_texts = [text for _label, text in paper_query_mix()]
    fig_queries = [parse_query(text, COMMON_PREFIXES) for text in fig_texts]
    options = ExecutionOptions()
    rng = random.Random(MICRO_SEED)
    sample = [rng.choice(triples) for _ in range(200)]
    patterns = (
        [TriplePattern(t.s, t.p, z) for t in sample[:100]]
        + [TriplePattern(x, t.p, t.o) for t in sample[100:]]
        + [TriplePattern(x, FOAF.nick, k)]
    )

    out: Dict[str, float] = {}

    def micro(metric: str, fn: Callable[[], object], units: int) -> None:
        out[f"micro.{metric}"] = rate(spans, f"micro.{metric}", fn, units,
                                      min_seconds)

    micro("net.wire.encode_rows_per_s",
          lambda: SolutionBatch.encode(joined), len(joined))
    micro("net.wire.decode_rows_per_s", batch.decode, len(joined))
    micro("net.sizes.size_of_per_s",
          lambda: [size_of(row) for row in joined], len(joined))
    micro("sparql.join_rows_per_s",
          lambda: join(knows, nicks), len(knows) + len(nicks))
    micro("sparql.bgp_triples_per_s",
          lambda: evaluate_query(e2, graph), len(graph))
    micro("sparql.parse_per_s",
          lambda: [parse_query(t, COMMON_PREFIXES) for t in fig_texts],
          len(fig_texts))
    micro("rdf.graph_add_per_s", lambda: Graph(triples), len(triples))
    micro("rdf.graph_match_per_s",
          lambda: [sum(1 for _ in graph.triples(p)) for p in patterns],
          len(patterns))

    def sim_events() -> None:
        sim = Simulator()

        def ticker():
            for _ in range(200):
                yield sim.timeout(0.001)

        for _ in range(50):
            sim.process(ticker())
        sim.run()

    micro("net.sim.events_per_s", sim_events, 50 * 200)

    def transport_calls() -> None:
        network = Network()
        network.register(_Echo("a"))
        network.register(_Echo("b"))

        def caller():
            for i in range(500):
                yield network.call("a", "b", "ping", {"n": i})

        network.sim.run_process(caller())

    micro("net.transport.calls_per_s", transport_calls, 500)

    space = IdentifierSpace(20)
    ring = ChordRing(Network(), space)
    for i, ident in enumerate(random.Random(MICRO_SEED).sample(
            range(space.size), 256)):
        ring.add_node(ChordNode(f"N{i}", ident, space))
    ring.build_static()
    lookup_rng = random.Random(MICRO_SEED)
    micro("chord.lookups_per_s",
          lambda: measure_lookups(ring, 100, lookup_rng), 100)

    def publish(state_dir=None) -> HybridSystem:
        system = HybridSystem(state_dir=state_dir)
        for i in range(16):
            system.add_index_node(f"N{i}")
        system.build_ring()
        system.add_storage_node("D0", triples)
        return system

    micro("overlay.publish_triples_per_s", publish, len(triples))

    def plan() -> None:
        for query in fig_queries:
            algebra = optimize(translate_pattern(query.where), reorder=False)
            compile_query_plan(query, algebra, options)

    micro("query.plan_per_s", plan, len(fig_queries))

    cache = ResultCache(Network(), admit_threshold=1)
    keys = [f"key{i}" for i in range(64)]
    for key in keys:
        cache.admit(key, joined[:8], None, {}, 0)
    micro("cache.probe_per_s",
          lambda: [cache.probe(key) for key in keys], len(keys))

    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        tmp_path = pathlib.Path(tmp)
        wal = WriteAheadLog(tmp_path / "micro.wal", fsync=False)
        payload = "x" * 64
        try:
            micro("storage.wal_appends_per_s",
                  lambda: [wal.append("put", payload) for _ in range(200)],
                  200)
        finally:
            wal.close()

        state_dir = tmp_path / "state"
        _close_durable(publish(state_dir))
        durations = []
        with spans.span("micro.storage.recover_s"):
            start = time.perf_counter()
            while time.perf_counter() - start < min_seconds:
                t0 = time.perf_counter()
                recovered, _report = recover_system(state_dir)
                durations.append(time.perf_counter() - t0)
                _close_durable(recovered)
        out["micro.storage.recover_s"] = statistics.median(durations)
    return out
