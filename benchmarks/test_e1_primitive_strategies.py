"""E1 — Primitive query strategies (paper Sect. IV-C).

Claims under test:

* BASIC exploits parallelism: lowest response time, but "high
  transmission overhead may be incurred" relative to the optimized
  chains *in the regime the paper describes* — few providers with
  overlapping (duplicated) data and skewed contribution sizes.
* The frequency-ordered chain achieves the minimum transmission: the
  largest contributor is last on the sequence and returns directly to
  the initiator, so its data crosses the network exactly once.
* The crossover: with many uniform providers, chains ship accumulated
  results over many hops and BASIC wins on bytes too — the conflict of
  optimization goals the paper concedes in Sect. V.
"""

from __future__ import annotations

import random


from repro.metrics import render_table
from repro.query import DistributedExecutor, ExecutionOptions, PrimitiveStrategy
from repro.rdf import FOAF
from repro.trace import Tracer
from repro.workloads import FoafConfig, generate_foaf_triples

from conftest import build_system, emit, run_once

QUERY = "SELECT ?s ?o WHERE { ?s foaf:knows ?o . }"


def skewed_parts(num_providers: int, duplication: float, seed: int = 1):
    """Provider datasets with skewed sizes and controlled duplication.

    Provider i receives a slice ∝ (i+1); with probability *duplication*
    a triple is also copied to one other provider.
    """
    triples = [t for t in generate_foaf_triples(
        FoafConfig(num_people=150, knows_per_person=4, seed=seed))
        if t.p == FOAF.knows]
    rng = random.Random(seed + 1)
    weights = [(i + 1) for i in range(num_providers)]
    total = sum(weights)
    parts = [[] for _ in range(num_providers)]
    for t in triples:
        r = rng.random() * total
        acc = 0
        home = 0
        for i, w in enumerate(weights):
            acc += w
            if r <= acc:
                home = i
                break
        parts[home].append(t)
        if num_providers > 1 and rng.random() < duplication:
            other = rng.randrange(num_providers - 1)
            if other >= home:
                other += 1
            parts[other].append(t)
    return parts


def measure(system, strategy):
    executor = DistributedExecutor(
        system, ExecutionOptions(primitive_strategy=strategy)
    )
    result, report = executor.execute(QUERY, initiator="D0")
    return {
        "rows": len(result.rows),
        "time_ms": report.response_time * 1000,
        "bytes": report.bytes_total,
        "msgs": report.messages,
    }


def run_sweep():
    rows = []
    results = {}
    for providers, duplication in [(3, 0.5), (3, 0.0), (8, 0.5), (8, 0.0), (16, 0.0)]:
        parts = skewed_parts(providers, duplication)
        for strategy in PrimitiveStrategy:
            system = build_system(num_index=10, parts=parts)
            m = measure(system, strategy)
            results[(providers, duplication, strategy)] = m
            rows.append([providers, duplication, strategy.name,
                         m["rows"], round(m["time_ms"], 1), m["bytes"], m["msgs"]])
    return results, rows


def test_e1_strategy_tradeoff(benchmark):
    results, rows = run_once(benchmark, run_sweep)
    emit(render_table(
        ["providers", "duplication", "strategy", "rows", "time_ms", "bytes", "msgs"],
        rows,
        title="E1: primitive-query strategies (Sect. IV-C)",
    ))

    for providers, duplication in [(3, 0.5), (8, 0.5), (8, 0.0), (16, 0.0)]:
        basic = results[(providers, duplication, PrimitiveStrategy.BASIC)]
        chained = results[(providers, duplication, PrimitiveStrategy.CHAINED)]
        freq = results[(providers, duplication, PrimitiveStrategy.FREQ)]
        # All strategies return identical answers.
        assert basic["rows"] == chained["rows"] == freq["rows"]
        # The frequency ordering never ships more than an arbitrary chain.
        assert freq["bytes"] <= chained["bytes"]
        # Chains use fewer messages (no per-provider round trips).
        assert freq["msgs"] <= basic["msgs"]

    # BASIC's parallel fan-out wins response time once providers are many
    # enough for parallelism to matter (>= 8 here). At 3 providers the
    # chain's direct-to-initiator final hop edges out BASIC's serial
    # storage->assembly->initiator path — a measured refinement of the
    # paper's qualitative claim, recorded in EXPERIMENTS.md.
    for providers, duplication in [(8, 0.5), (8, 0.0), (16, 0.0)]:
        basic = results[(providers, duplication, PrimitiveStrategy.BASIC)]
        chained = results[(providers, duplication, PrimitiveStrategy.CHAINED)]
        freq = results[(providers, duplication, PrimitiveStrategy.FREQ)]
        assert basic["time_ms"] < chained["time_ms"]
        assert basic["time_ms"] < freq["time_ms"]

    # The paper's regime — few providers, duplicated, skewed: the
    # frequency-ordered chain minimizes transmission; BASIC is costliest.
    basic3 = results[(3, 0.5, PrimitiveStrategy.BASIC)]
    chained3 = results[(3, 0.5, PrimitiveStrategy.CHAINED)]
    freq3 = results[(3, 0.5, PrimitiveStrategy.FREQ)]
    assert freq3["bytes"] < chained3["bytes"] < basic3["bytes"]

    # The crossover the paper leaves to future work: at 16 uniform-ish
    # providers the chain's multi-hop shipping exceeds BASIC's 2x cost.
    assert results[(16, 0.0, PrimitiveStrategy.CHAINED)]["bytes"] > \
        results[(16, 0.0, PrimitiveStrategy.BASIC)]["bytes"]


def test_e1_freq_orders_route_by_frequency(benchmark):
    """The freq chain visits providers smallest-first (paper's D3-last
    example), observable through the message log."""
    parts = skewed_parts(3, 0.3)
    system = build_system(num_index=8, parts=parts)

    def run():
        tracer = Tracer()
        executor = DistributedExecutor(
            system, ExecutionOptions(primitive_strategy=PrimitiveStrategy.FREQ),
            tracer=tracer,
        )
        executor.execute(QUERY, initiator="D0")
        return [
            (e.src, e.dst, e.bytes) for e in tracer.message_events()
            if e.name == "chain_step"
        ]

    chain_messages = run_once(benchmark, run)
    assert len(chain_messages) >= 2
    # Accumulated payloads grow along the chain: each hop ships at least
    # as many bytes as the previous one (monotone union).
    sizes = [b for _, _, b in chain_messages]
    assert sizes == sorted(sizes)
