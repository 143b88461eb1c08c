#!/usr/bin/env python3
"""The Sect. V planner: mixing the paper's two optimization objectives.

The paper closes with an open problem: basic processing "trades
transmission costs for a low response time" while the optimized chains do
the opposite — how should a system plan "in the face of a mixture of such
objectives"? This example runs our answer, the cost planner (`--plan
cost`), which pins the frequency-ordered chain or the parallel fan-out on
every leaf: the same broad query on networks of 2..16 providers, with the
objective knob swept from pure-bytes to pure-time. Watch the planner
switch between the two exactly where the measured frontier crosses. `time_weight` is the planner's only knob: its
cost model takes each pattern's union as the sum of the providers' local
result sizes, i.e. it assumes no cross-provider duplication.

Run:  python examples/adaptive_planner.py
"""

import random

from repro import DistributedExecutor, ExecutionOptions, HybridSystem
from repro.metrics import render_table
from repro.query.physical import chain_leaves
from repro.rdf import FOAF
from repro.workloads import FoafConfig, generate_foaf_triples

QUERY = "SELECT ?a ?b WHERE { ?a foaf:knows ?b . }"


def skewed_system(num_providers: int) -> HybridSystem:
    triples = [t for t in generate_foaf_triples(
        FoafConfig(num_people=120, knows_per_person=4, seed=5)) if t.p == FOAF.knows]
    rng = random.Random(6)
    weights = list(range(1, num_providers + 1))
    parts = [[] for _ in range(num_providers)]
    for t in triples:
        r = rng.random() * sum(weights)
        acc = 0
        for i, w in enumerate(weights):
            acc += w
            if r <= acc:
                parts[i].append(t)
                break
    system = HybridSystem()
    for i in range(10):
        system.add_index_node(f"N{i}")
    system.build_ring()
    for i, part in enumerate(parts):
        system.add_storage_node(f"D{i}", part)
    return system


def main() -> None:
    rows = []
    for providers in (2, 4, 8, 16):
        system = skewed_system(providers)
        for time_weight in (0.0, 0.5, 1.0):
            executor = DistributedExecutor(system, ExecutionOptions(
                plan_mode="cost", time_weight=time_weight,
            ))
            result, report = executor.execute(QUERY, initiator="D0")
            choice = chain_leaves(report.plan)[0].detail["strategy"]
            rows.append([providers, time_weight, choice, len(result.rows),
                         round(report.response_time * 1000, 1),
                         report.bytes_total])
    print(render_table(
        ["providers", "time_weight", "planner chose", "rows", "time_ms", "bytes"],
        rows,
        title="Adaptive strategy selection across regimes and objectives",
    ))
    print("\ntime_weight 0.0 minimizes transmission; 1.0 minimizes response "
          "time.\nThe chain wins bytes only while providers are few and "
          "skewed — the planner\nfollows the frontier instead of committing "
          "to either fixed strategy.")


if __name__ == "__main__":
    main()
