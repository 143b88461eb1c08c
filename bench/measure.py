"""Measurement passes of the benchmark: end to end, and layer by layer.

Two currencies, never combined (see bench/README.md):

* **simulated** — what the modelled P2P system would cost (bytes,
  messages, hops, response time).  A pure function of the seed; every
  repeat must reproduce it exactly, and the harness fails if not.
* **wall** — what the engine costs the host.  Noisy, so each wall
  metric is a median over repeated cycles, with quartiles beside it.

``end_to_end`` runs with profiling and tracing off.  ``per_layer`` is a
separate pass that profiles a quarter-size run (cProfile inflates wall
time several-fold, which is why the two never share a run) and replays
the job list serially under the engine's own ``Tracer``.
"""

from __future__ import annotations

import cProfile
import gc
import pstats
import resource
import statistics
from collections import Counter
from contextlib import nullcontext
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.metrics import summarize
from repro.query import DistributedExecutor, ExecutionOptions
from repro.rdf import COMMON_PREFIXES
from repro.sparql import evaluate_query, parse_query
from repro.trace import PHASES, Tracer
from repro.trace.export import iter_event_dicts
from repro.workloads import run_workload
from repro.workloads.load import build_jobs

from trace import SpanRecorder
from workloads import Inputs, Workload

__all__ = ["GateFailure", "end_to_end", "per_layer", "spread"]

#: Source file (relative to ``src/repro``) → layer of the self-time
#: table; the first matching prefix wins, anything else is ``other``.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("rdf/", "rdf"),
    ("sparql/", "sparql"),
    ("net/sim.py", "net.sim"),
    ("net/transport.py", "net.transport"),
    ("net/stats.py", "net.transport"),
    ("net/wire.py", "net.wire"),
    ("net/sizes.py", "net.sizes"),
    ("net/contention.py", "net.contention"),
    ("net/faults.py", "net.health"),
    ("net/health.py", "net.health"),
    ("chord/", "chord"),
    ("overlay/", "overlay"),
    ("query/", "query"),
    ("cache/", "cache"),
)
RUN_LAYERS = ("rdf", "sparql", "net.sim", "net.transport", "net.wire",
              "net.sizes", "net.contention", "net.health", "chord",
              "overlay", "query", "cache", "other")
SETUP_LAYERS = ("chord", "overlay", "rdf", "net.sim", "net.transport",
                "other")

#: Public entry points counted in the run-phase profile:
#: metric → (source file suffix, function name).
ENTRY_POINTS: Dict[str, Tuple[str, str]] = {
    "net.wire.encode_calls": ("repro/net/wire.py", "encode"),
    "net.wire.decode_calls": ("repro/net/wire.py", "decode"),
    "net.sizes.size_of_calls": ("repro/net/sizes.py", "size_of"),
    "sparql.join_calls": ("repro/sparql/solutions.py", "join"),
    "sparql.parse_calls": ("repro/sparql/parser.py", "parse_query"),
    "rdf.graph_triples_calls": ("repro/rdf/graph.py", "triples"),
    "query.plans_compiled": ("repro/query/physical.py", "compile_query_plan"),
    "overlay.locate_calls": ("repro/overlay/index_node.py", "locate"),
}


class GateFailure(Exception):
    """The correctness gate tripped; ``problems`` names each failure."""

    def __init__(self, problems: List[str]) -> None:
        super().__init__("; ".join(problems))
        self.problems = problems


def spread(values: List[float]) -> Dict[str, Any]:
    """Median with quartiles, min, max and n — what sits beside every
    wall metric so a reader can tell a difference from noise."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


# ------------------------------------------------------------ one cycle


def set_up(workload: Workload, inputs: Inputs, spans: SpanRecorder,
           profile: Optional[cProfile.Profile] = None):
    """Build a fresh system; returns (system, wall seconds)."""
    gc.collect()
    with profile or nullcontext(), spans.span("setup") as record:
        system, _ = spans.timed("setup.ring", workload.build_ring)
        spans.timed("setup.publish", workload.publish, system, inputs)
    return system, record["end"] - record["start"]


def execute(workload: Workload, system, inputs: Inputs, num_jobs: int,
            spans: SpanRecorder,
            options: Optional[ExecutionOptions] = None,
            profile: Optional[cProfile.Profile] = None):
    """One closed-loop run; returns (WorkloadReport, wall seconds)."""
    config = workload.load(system, inputs, num_jobs)
    gc.collect()
    with profile or nullcontext():
        return spans.timed("run.execute", run_workload, system, config,
                           options or workload.options)


def simulated(report) -> Dict[str, float]:
    """The simulated-currency metrics of one run.  Mutation jobs are
    schedule, not load: only query jobs count as attempted/completed."""
    queries = [j for j in report.jobs if j.kind == "query"]
    done = [j for j in queries if j.ok]
    completed = len(done)
    latency = summarize(j.latency for j in done)
    return {
        "attempted": len(queries),
        "completed": completed,
        "failed": len(queries) - completed,
        "sim_qps": completed / report.duration,
        "sim_p50_ms": latency.p50 * 1000.0,
        "sim_p95_ms": latency.p95 * 1000.0,
        "bytes_per_query": report.bytes_total / completed,
        "msgs_per_query": report.messages / completed,
        "lookup_hops_per_query":
            sum(j.report.lookup_hops for j in done) / completed,
    }


# ------------------------------------------------------ correctness gate


def rows_of(result) -> List[str]:
    return sorted(map(repr, result.rows))


def wrong_answers(workload: Workload, system, inputs: Inputs, report,
                  num_jobs: int, spans: SpanRecorder) -> int:
    """Completed query jobs whose rows differ from the reference, as
    multisets (SPARQL leaves the order of ORDER BY ties open, and the
    engine and the oracle break them differently).

    The reference is local evaluation over the union of the storage
    nodes' graphs, once per distinct query.  When data changes mid-run
    that oracle does not exist per job, so the reference is the same
    schedule replayed on a fresh system with the cache off (one client,
    so both runs see one interleaving).
    """
    with spans.span("verify.oracle"):
        done = [j for j in report.jobs if j.kind == "query" and j.ok]
        if workload.mutation_rate > 0:
            fresh, _ = set_up(workload, inputs, spans)
            reference, _ = execute(workload, fresh, inputs, num_jobs, spans,
                                   options=ExecutionOptions())
            expected = {j.job_id: rows_of(j.result) for j in reference.jobs
                        if j.kind == "query" and j.ok}
            return sum(rows_of(j.result) != expected.get(j.job_id)
                       for j in done)
        union = system.union_graph()
        texts = dict(inputs.queries)
        oracle = {
            label: rows_of(evaluate_query(
                parse_query(texts[label], COMMON_PREFIXES), union))
            for label in {j.label for j in done}
        }
        return sum(rows_of(j.result) != oracle[j.label] for j in done)


def off_means_absent(workload: Workload, report) -> List[str]:
    """Subsystems a workload does not switch on must do no work."""
    problems = []
    if not workload.options.result_cache and any(report.cache.values()):
        problems.append(f"cache counters non-zero with the cache off: "
                        f"{ {k: v for k, v in report.cache.items() if v} }")
    if not workload.crash_at and any(report.failover.values()):
        problems.append(f"failover counters non-zero without crashes: "
                        f"{ {k: v for k, v in report.failover.items() if v} }")
    return problems


# ------------------------------------------------------------ end to end


def end_to_end(workload: Workload, seed: int, seconds: float,
               spans: SpanRecorder) -> Dict[str, Any]:
    """Cycles of (fresh set-up, timed run) until *seconds* of run time
    are measured — at least two, so the repeat check has a pair."""
    inputs = workload.inputs(seed)
    num_jobs = workload.jobs

    # Untimed warm-up at a tenth of the job count fills the process-wide
    # term-interning tables; its set-up is the (cold) first sample.
    system, setup_s = set_up(workload, inputs, spans)
    setups = [setup_s]
    execute(workload, system, inputs, max(num_jobs // 10, 2), spans)

    runs: List[float] = []
    sims: List[Dict[str, float]] = []
    problems: List[str] = []
    measured = wall_s = 0.0
    # Stop at the run count whose total is nearest the budget.
    while len(runs) < 2 or measured + wall_s / 2 < seconds:
        del system
        system, setup_s = set_up(workload, inputs, spans)
        setups.append(setup_s)
        report, wall_s = execute(workload, system, inputs, num_jobs, spans)
        measured += wall_s
        sim = simulated(report)
        runs.append(sim["completed"] / wall_s)
        sims.append(sim)
        problems += off_means_absent(workload, report)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = sims[0]
    for i, other in enumerate(sims[1:], start=2):
        if other != first:
            problems.append(f"run {i} disagrees with run 1 on simulated "
                            f"metrics: {first} vs {other}")
    wrong = wrong_answers(workload, system, inputs, report, num_jobs, spans)
    if wrong:
        problems.append(f"wrong_answers = {wrong}")

    wall = {"setup_s": spread(setups), "wall_qps": spread(runs),
            "peak_rss_mb": spread([peak_rss_mb])}
    metrics = {name: stats["median"] for name, stats in wall.items()}
    metrics.update({k: v for k, v in first.items()
                    if k not in ("attempted", "completed", "failed")})
    return {
        "attempted": first["attempted"],
        "failed": first["failed"],
        "wrong_answers": wrong,
        "problems": problems,
        "metrics": metrics,
        "wall": wall,
        "latency_samples": first["completed"],
    }


# ------------------------------------------------------------- per layer


def layer_of(filename: str) -> str:
    marker = "/repro/"
    at = filename.rfind(marker)
    if at >= 0:
        relative = filename[at + len(marker):]
        for prefix, layer in LAYER_PREFIXES:
            if relative.startswith(prefix):
                return layer
    return "other"


def self_times(profile: cProfile.Profile, layers: Iterable[str]) -> Dict[str, float]:
    """``tottime`` grouped by source file into *layers*; a layer not
    listed (and the stdlib, and builtins) lands in ``other``."""
    table = dict.fromkeys(layers, 0.0)
    for (filename, _line, _name), row in pstats.Stats(profile).stats.items():
        layer = layer_of(filename)
        table[layer if layer in table else "other"] += row[2]
    return table


def call_counts(profile: cProfile.Profile) -> Dict[str, int]:
    counts = dict.fromkeys(ENTRY_POINTS, 0)
    for (filename, _line, name), row in pstats.Stats(profile).stats.items():
        for metric, (suffix, function) in ENTRY_POINTS.items():
            if name == function and filename.endswith(suffix):
                counts[metric] += row[1]
    return counts


def replay(workload: Workload, system, inputs: Inputs, num_jobs: int,
           spans: SpanRecorder):
    """The query jobs of the schedule, one at a time, under the engine's
    own Tracer: simulated cost by phase without concurrency, crashes or
    mutations in the way.  Returns (per-phase metrics, tracer)."""
    tracer = Tracer()
    executor = DistributedExecutor(system, workload.options, tracer=tracer)
    phase_bytes: Counter = Counter()
    phase_time: Counter = Counter()
    total_bytes = queries = 0
    with spans.span("replay"):
        for job in build_jobs(workload.load(system, inputs, num_jobs)):
            if job.kind != "query":
                continue
            query, _ = spans.timed("run.parse", parse_query, job.query_text,
                                   COMMON_PREFIXES)
            (_result, report), _ = spans.timed(
                "run.execute", executor.execute_parsed, query, job.initiator)
            queries += 1
            total_bytes += report.bytes_total
            for phase, stats in report.phases.items():
                phase_bytes[phase] += stats.bytes
                phase_time[phase] += stats.time
    if sum(phase_bytes.values()) != total_bytes:
        raise GateFailure([
            f"phase bytes {dict(phase_bytes)} do not sum to the replay's "
            f"{total_bytes} bytes"])
    metrics: Dict[str, float] = {}
    for phase in PHASES:
        metrics[f"phase.{phase}.sim_ms_per_query"] = (
            phase_time[phase] * 1000.0 / queries)
        metrics[f"phase.{phase}.bytes_per_query"] = phase_bytes[phase] / queries
    return metrics, tracer


def report_counters(report) -> Dict[str, float]:
    """Waiting, waste and retries, read off one WorkloadReport."""
    done = [j.report for j in report.jobs if j.kind == "query" and j.ok]
    completed = len(done)
    hits = sum(r.lookup_cache_hits for r in done)
    misses = sum(r.lookup_cache_misses for r in done)
    hops = sum(r.lookup_hops for r in done)
    cache, failover = report.cache, report.failover
    return {
        "net.transport.messages": report.messages,
        "chord.hops_per_lookup": hops / misses if misses else 0.0,
        "net.contention.total_wait_s": report.contention.get("total_wait", 0.0),
        "net.contention.max_queue_depth":
            report.contention.get("max_queue_depth", 0),
        "query.lookup_cache_hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "query.rows_pruned_per_query":
            sum(r.rows_pruned for r in done) / completed,
        "query.digest_bytes_per_query":
            sum(r.digest_bytes for r in done) / completed,
        "cache.hit_ratio":
            cache["hits"] / cache["probes"] if cache["probes"] else 0.0,
        "cache.stale_drops": cache["stale_drops"],
        "cache.admissions": cache["admissions"],
        "cache.evictions": cache["evictions"],
        "net.transport.retries": failover["retries"],
        "query.failovers": (failover["lookup_failovers"]
                            + failover["dispatch_failovers"]
                            + failover["entry_failovers"]),
        "net.health.breaker_trips": failover["breaker_trips"],
        "net.health.short_circuits": failover["breaker_short_circuits"],
    }


def per_layer(workload: Workload, seed: int,
              spans: SpanRecorder) -> Dict[str, Any]:
    """The traced pass: a quarter of the job count, profiled; the same
    run unprofiled (its ratio to the profiled one is the tracing
    overhead); a serial replay under the simulated-time Tracer."""
    inputs = workload.inputs(seed)
    num_jobs = max(workload.jobs // 4, 20)
    metrics: Dict[str, float] = {}

    setup_profile = cProfile.Profile()
    system, _ = set_up(workload, inputs, spans, profile=setup_profile)
    setup_table = self_times(setup_profile, SETUP_LAYERS)
    for layer, seconds in setup_table.items():
        metrics[f"setup.{layer}.self_s"] = seconds
    triples = system.total_triples()
    metrics["overlay.publish_msgs_per_triple"] = system.stats.messages / triples
    metrics["overlay.publish_bytes_per_triple"] = (
        system.stats.bytes_total / triples)

    run_profile = cProfile.Profile()
    traced, traced_wall = execute(workload, system, inputs, num_jobs, spans,
                                  profile=run_profile)
    table = self_times(run_profile, RUN_LAYERS)
    total = sum(table.values())
    for layer, seconds in table.items():
        metrics[f"{layer}.self_s"] = seconds
        metrics[f"{layer}.self_share"] = seconds / total
    metrics.update(call_counts(run_profile))

    del system
    system, _ = set_up(workload, inputs, spans)
    plain, plain_wall = execute(workload, system, inputs, num_jobs, spans)
    plain_sim, traced_sim = simulated(plain), simulated(traced)
    if plain_sim != traced_sim:
        raise GateFailure([f"profiling changed the simulation: "
                           f"{plain_sim} vs {traced_sim}"])
    problems = off_means_absent(workload, plain)
    wrong = wrong_answers(workload, system, inputs, plain, num_jobs, spans)
    if wrong:
        problems.append(f"wrong_answers = {wrong}")
    metrics.update(report_counters(plain))
    metrics["net.sim.wall_us_per_message"] = plain_wall * 1e6 / plain.messages
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall

    del system
    system, _ = set_up(workload, inputs, spans)
    phase_metrics, tracer = replay(workload, system, inputs, num_jobs, spans)
    metrics.update(phase_metrics)

    extra: List[Dict[str, Any]] = [
        {"type": "self_time", "phase": phase, "layer": layer, "self_s": seconds}
        for phase, rows in (("setup", setup_table), ("run", table))
        for layer, seconds in rows.items()
    ]
    extra.extend({"type": "sim_event", **event}
                 for event in iter_event_dicts(tracer))
    return {
        "attempted": plain_sim["attempted"],
        "failed": plain_sim["failed"],
        "wrong_answers": wrong,
        "problems": problems,
        "metrics": metrics,
        "trace_records": extra,
        "latency_samples": plain_sim["completed"],
    }
