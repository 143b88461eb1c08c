"""E11 — The Sect. V planner: cost-based strategy selection.

The paper's conclusions pose the open problem of planning "in the face of
a mixture of such objectives" (transmission vs response time). E11
evaluates our implementation of that planner (``repro.query.cost``):
for each provider-count regime, the cost planner (``--plan cost``), which
pins BASIC or FREQ on each leaf, should track the better of the two under
its configured objective — turning E1's crossover from a trap into a
planning input.
"""

from __future__ import annotations


from repro.metrics import render_table
from repro.query import DistributedExecutor, ExecutionOptions, PrimitiveStrategy
from repro.query.physical import chain_leaves

from conftest import build_system, emit, run_once
from test_e1_primitive_strategies import QUERY, skewed_parts


def measure(parts, **options):
    system = build_system(num_index=10, parts=parts)
    executor = DistributedExecutor(system, ExecutionOptions(**options))
    result, report = executor.execute(QUERY, initiator="D0")
    leaf = chain_leaves(report.plan)[0]
    return {"rows": len(result.rows), "bytes": report.bytes_total,
            "time_ms": report.response_time * 1000,
            "choice": leaf.detail["strategy"]}


def run_sweep():
    results = {}
    rows = []
    for providers in (2, 3, 8, 16):
        parts = skewed_parts(providers, duplication=0.3)
        for label, options in (
            ("basic", dict(primitive_strategy=PrimitiveStrategy.BASIC)),
            ("freq", dict(primitive_strategy=PrimitiveStrategy.FREQ)),
            ("adaptive(bytes)", dict(plan_mode="cost", time_weight=0.0)),
            ("adaptive(time)", dict(plan_mode="cost", time_weight=1.0)),
        ):
            m = measure(parts, **options)
            results[(providers, label)] = m
            rows.append([providers, label, m["choice"], m["rows"],
                         round(m["time_ms"], 1), m["bytes"]])
    return results, rows


def test_e11_adaptive_tracks_the_frontier(benchmark):
    results, rows = run_once(benchmark, run_sweep)
    emit(render_table(
        ["providers", "executor", "chose", "rows", "time_ms", "bytes"],
        rows,
        title="E11: cost-based strategy selection (the Sect. V planner)",
    ))

    for providers in (2, 3, 8, 16):
        basic = results[(providers, "basic")]
        freq = results[(providers, "freq")]
        ad_bytes = results[(providers, "adaptive(bytes)")]
        ad_time = results[(providers, "adaptive(time)")]
        assert basic["rows"] == freq["rows"] == ad_bytes["rows"] == ad_time["rows"]

        # Under the bytes objective, adaptive is within 5% of the better
        # fixed strategy (the analytic model assumes no cross-provider
        # duplication, the data has some, so exact optimality is not
        # guaranteed).
        best_bytes = min(basic["bytes"], freq["bytes"])
        worst_bytes = max(basic["bytes"], freq["bytes"])
        assert ad_bytes["bytes"] <= best_bytes * 1.05 or \
            ad_bytes["bytes"] < worst_bytes
        # Under the time objective, same for response time.
        best_time = min(basic["time_ms"], freq["time_ms"])
        worst_time = max(basic["time_ms"], freq["time_ms"])
        assert ad_time["time_ms"] <= best_time * 1.10 or \
            ad_time["time_ms"] < worst_time

    # The planner actually changes its mind across regimes: chains for the
    # small skewed networks under the bytes objective, fan-out at 16.
    assert results[(2, "adaptive(bytes)")]["choice"] == "freq"
    assert results[(16, "adaptive(bytes)")]["choice"] == "basic"
