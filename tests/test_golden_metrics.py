"""Golden simulated-metrics regression guard.

Wall-clock performance work (interned terms, tuple-row join kernels, the
simulator fast path) must never change a *simulated* result: answers,
inter-site bytes, simulated response times, and lookup hop counts are the
correctness oracle for engine-level acceleration. This test pins those
numbers for the paper's Fig. 4-9 queries (plus the DISTINCT/ASK forms)
across every (primitive strategy x conjunction mode x join-site policy)
combination, with the shipping optimizations both fully off and fully on,
against a checked-in golden file. Beyond the figure queries this also pins
pure OPTIONAL / UNION / FILTER forms (optcond / unionfilter / optchain),
so every algebra operator — not just conjunctions — is guarded through
the physical-plan layer. The cost planner (``plan_mode="cost"``) gets two
cells per query, shipping optimizations off and on, and ``repro
explain``'s plan table is pinned for every query in both plan modes
(``explain_fig4_9.json``).

The golden file was captured from the pre-optimization engine (commit
42c5621; the optcond/unionfilter/optchain rows from the pre-plan-layer
engine of PR 8); any drift — a single byte, a single hop, a float ULP of
simulated time — fails this test. To re-capture after an *intentional*
metrics change (never for a perf-only PR):

    GOLDEN_REGEN=1 PYTHONPATH=src:tests python -m pytest -s tests/test_golden_metrics.py

It prints every cell and field that moved against the checked-in copy.

The grid is fault-free, so it never reaches the transport's drop,
duplicate, delay-spike and brownout branches. One more cell pins those:
the Fig. 4-9 mix under a seeded chaos plan with the whole defense stack
on, down to a hash of every traced message (``chaos_fig4_9.json``). A
second chaos cell adds the contention model, every job started at once
(``chaos_contention_fig4_9.json``), pinning the brownout-scaled queue
service times and the reply path's compute admissions as well.

The paper example pins FREQ on every cost-planned leaf, so one more
cell runs the cost planner at ``fig_mix`` scale: Fig. 4-9 on
``foaf_ring(400)`` from D1, no contention (``cost_fig_mix_scale.json``).
There most leaves pin BASIC, and a change of placement, walk mode or
probe shows here, not only in the benchmark. The same run's Fig. 4 and
Fig. 9 plan tables, where probe-first combines push digests down, are
pinned beside the paper-example ones (``fig4|cost|fig_mix``,
``fig9|cost|fig_mix``).
"""

import functools
import hashlib
import itertools
import json
import os
from collections import Counter
from pathlib import Path
from unittest.mock import patch

import pytest

from repro.net.contention import ContentionModel
from repro.net.faults import chaos_plan
from repro.query import (
    ConjunctionMode,
    DistributedExecutor,
    ExecutionOptions,
    JoinSitePolicy,
    PrimitiveStrategy,
    join_site,
)
from repro.query.executor import QueryFailed
from repro.query.physical import format_plan
from repro.rdf.namespaces import COMMON_PREFIXES
from repro.sparql import parse_query
from repro.trace import Tracer
from repro.workloads import PAPER_FIG_QUERIES

from helpers import build_system, foaf_ring

GOLDEN_PATH = Path(__file__).parent / "golden" / "metrics_fig4_9.json"
CHAOS_GOLDEN_PATH = Path(__file__).parent / "golden" / "chaos_fig4_9.json"
CONTENTION_GOLDEN_PATH = (Path(__file__).parent / "golden"
                          / "chaos_contention_fig4_9.json")
EXPLAIN_GOLDEN_PATH = Path(__file__).parent / "golden" / "explain_fig4_9.json"
FIG_MIX_GOLDEN_PATH = (Path(__file__).parent / "golden"
                       / "cost_fig_mix_scale.json")

QUERIES = {
    "fig4": """SELECT ?x ?y ?z WHERE {
        ?x foaf:name ?name . ?x foaf:knows ?z .
        ?x ns:knowsNothingAbout ?y . ?y foaf:knows ?z .
        FILTER regex(?name, "Smith") } ORDER BY DESC(?x)""",
    "fig5": "SELECT ?x WHERE { ?x foaf:knows ns:me . }",
    "fig6": """SELECT ?x ?y ?z WHERE {
        ?x foaf:knows ?z . ?x ns:knowsNothingAbout ?y . }""",
    "fig7": """SELECT ?x ?y WHERE {
        { ?x foaf:name "Smith" . ?x foaf:knows ?y . }
        OPTIONAL { ?y foaf:nick "Shrek" . } }""",
    "fig8": """SELECT ?x ?y ?z WHERE {
        { ?x foaf:name "Smith" . ?x foaf:knows ?y . }
        UNION
        { ?x foaf:mbox <mailto:abc@example.org> . ?x foaf:knows ?z . } }""",
    "fig9": """SELECT ?x ?y ?z WHERE {
        ?x foaf:name ?name ; ns:knowsNothingAbout ?y .
        FILTER regex(?name, "Smith")
        OPTIONAL { ?y foaf:knows ?z . } }""",
    "distinct": """SELECT DISTINCT ?x WHERE {
        ?x foaf:knows ?y . ?y foaf:knows ?z . }""",
    "ask": "ASK { ?x foaf:name ?name . ?x foaf:knows ?y . }",
    # Non-conjunction forms pinned explicitly so the plan layer cannot
    # drift on OPTIONAL / UNION / FILTER shapes that the Fig. 4-9 set
    # only exercises in combination: a LeftJoin carrying an embedded
    # condition, a FILTER over a UNION, and a chain of OPTIONALs.
    "optcond": """SELECT ?x ?y WHERE {
        ?x foaf:knows ?y .
        OPTIONAL { ?y foaf:name ?n . FILTER regex(?n, "Smith") } }""",
    "unionfilter": """SELECT ?x ?n WHERE {
        { ?x foaf:name ?n . } UNION { ?x foaf:nick ?n . }
        FILTER regex(?n, "S") }""",
    "optchain": """SELECT ?x ?y ?z ?w WHERE {
        ?x ns:knowsNothingAbout ?y .
        OPTIONAL { ?y foaf:knows ?z . }
        OPTIONAL { ?x foaf:name ?w . } }""",
}

COMBOS = list(itertools.product(PrimitiveStrategy, ConjunctionMode,
                                JoinSitePolicy))

TECHNIQUES = [
    ("off", dict(semijoin=False, projection_pushdown=False,
                 dictionary_encoding=False)),
    ("all", dict(semijoin=True, projection_pushdown=True,
                 dictionary_encoding=True)),
]


def answer_fingerprint(result) -> str:
    """Exact digest of the answer — row order included (it is part of the
    simulated output for ordered queries and canonical otherwise)."""
    if result.boolean is not None:
        return f"ask:{result.boolean}"
    rows = [[(v.name, t.n3()) for v, t in mu.items()] for mu in result.rows]
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


@patch.object(join_site, "SEMIJOIN_MIN_ROWS", 1)
def capture():
    """Run every pinned configuration in a fixed order on a fresh system.

    A fresh system + fixed order makes the capture self-consistent: any
    state the engine carries across queries (e.g. lookup caches) evolves
    identically at regen time and at check time. The semijoin threshold
    is lowered to one row so the digest path engages even on this tiny
    data.
    """
    system = build_system()
    out = {}
    for name, text in QUERIES.items():
        for strategy, mode, policy in COMBOS:
            for tech_name, techniques in TECHNIQUES:
                options = ExecutionOptions(
                    primitive_strategy=strategy,
                    conjunction_mode=mode,
                    join_site_policy=policy,
                    **techniques,
                )
                executor = DistributedExecutor(system, options)
                key = "|".join((name, strategy.value, mode.value,
                                policy.value, tech_name))
                out[key] = _cell(executor.execute(text, initiator="D1"))
    out.update(capture_cost_cells())
    return out


@patch.object(join_site, "SEMIJOIN_MIN_ROWS", 1)
def capture_cost_cells():
    """The cost planner's cells. They run on a second fresh system, after
    the legacy grid, so adding them left every legacy cell as it was."""
    system = build_system()
    out = {}
    for name, text in QUERIES.items():
        for tech_name, techniques in TECHNIQUES:
            executor = DistributedExecutor(
                system, ExecutionOptions(plan_mode="cost", **techniques))
            out[f"{name}|cost|{tech_name}"] = _cell(
                executor.execute(text, initiator="D1"))
    return out


@functools.lru_cache(maxsize=None)
def fig_mix_scale_run():
    """The cost planner at ``fig_mix`` scale, one fresh system, the
    queries in figure order → ``{name: (cell, plan table lines)}``. Fig.
    4's ORDER BY ties many rows at this scale; tied rows come out in
    canonical term order."""
    executor = DistributedExecutor(foaf_ring(400),
                                   ExecutionOptions(plan_mode="cost"))
    out = {}
    for name, text in PAPER_FIG_QUERIES.items():
        outcome = executor.execute(text, initiator="D1")
        out[name] = (_cell(outcome),
                     tuple(format_plan(outcome[1].plan).splitlines()))
    return out


def capture_fig_mix_scale():
    return {name: cell for name, (cell, _plan) in fig_mix_scale_run().items()}


def _cell(outcome) -> dict:
    result, report = outcome
    return {
        "response_time": report.response_time,
        "bytes_total": report.bytes_total,
        "messages": report.messages,
        "lookup_hops": report.lookup_hops,
        "result_count": report.result_count,
        "answers": answer_fingerprint(result),
    }


CHAOS_OPTIONS = ExecutionOptions(retries=2, failover=True, breaker=True,
                                 partial_results=True, query_deadline=30.0)
#: Three rounds of the mix: the fewest at which every fault branch of
#: request, one-way, reply and error reply fires at least once.
CHAOS_JOBS = [(f"{name}.{round_}", query) for round_ in range(3)
              for name, query in PAPER_FIG_QUERIES.items()]


def _digest(blob) -> str:
    return hashlib.sha256(
        json.dumps(blob, separators=(",", ":")).encode()).hexdigest()


def run_chaos(options=CHAOS_OPTIONS, contention=False, seed=4):
    """The Fig. 4-9 mix on one fresh rf=2 system under a plan of loss,
    duplication, delay spikes and a brownout drawn from *seed* →
    ``(outcomes, system, tracer, model)``. Each job's outcome is the
    ``(result, report)`` pair, or ``{"outcome", "now"}`` for a typed
    failure.

    Without *contention* the jobs run one after another. With it a
    :class:`ContentionModel` is installed first (so its service times
    inherit the brownouts) and every job starts at once, so the flows
    queue behind each other."""
    system = build_system(replication_factor=2)
    model = ContentionModel() if contention else None
    system.network.contention = model
    system.network.install_faults(chaos_plan(
        sorted(system.network.nodes), seed=seed, loss=0.1, duplicate=0.15,
        delay=0.15, brownouts=2))
    tracer = Tracer()
    executor = DistributedExecutor(system, options, tracer=tracer)
    sim = system.sim
    outcomes = {}

    def job(key, query):
        try:
            outcomes[key] = yield from executor.execute_process(
                parse_query(query, COMMON_PREFIXES), tracer=tracer)
        except QueryFailed as exc:
            outcomes[key] = {"outcome": type(exc).__name__, "now": sim.now}

    if contention:
        tracer.attach(sim)
        sim.tracer = tracer
        for key, query in CHAOS_JOBS:
            sim.process(job(key, query))
        sim.run()
    else:
        for key, query in CHAOS_JOBS:
            try:
                outcomes[key] = executor.execute(query)
            except QueryFailed as exc:
                outcomes[key] = {"outcome": type(exc).__name__,
                                 "now": sim.now}
    return outcomes, system, tracer, model


def row_counts(result) -> Counter:
    """The answer's rows as a multiset of sorted (variable, term) pairs."""
    return Counter(tuple(sorted((v.name, t.n3()) for v, t in mu.items()))
                   for mu in result.rows)


def capture_chaos(options=CHAOS_OPTIONS, contention=False):
    """:func:`run_chaos` at seed 4, pinned: per query the outcome, a
    row-multiset digest and the simulated cost, then the fault tally and
    a hash of the traced message sequence; with *contention* the queue
    statistics too."""
    outcomes, system, tracer, model = run_chaos(options, contention)
    out = {}
    for key, _query in CHAOS_JOBS:
        if isinstance(outcomes[key], dict):
            out[key] = outcomes[key]
            continue
        result, report = outcomes[key]
        out[key] = {
            "outcome": "incomplete" if report.incomplete else "ok",
            "rows": _digest([result.boolean,
                             sorted(row_counts(result).items())]),
            "bytes_total": report.bytes_total,
            "messages": report.messages,
            "response_time": report.response_time,
        }
    out["faults_injected"] = dict(system.network.faults.injected)
    out["trace"] = _digest([
        [e.time, e.kind, e.src, e.dst, e.name, e.bytes]
        for e in tracer.message_events()])
    if model is not None:
        out["contention"] = model.snapshot()
        # Every flow-tagged value reply admits to its responder's compute
        # queue, even at zero compute delay: the admission counts pin that.
        out["admissions"] = {queue.name: queue.admissions
                             for queue in model._queues.values()}
    return out


def _golden_drift(old, new, prefix=""):
    """``(path, old value, new value)`` for every leaf that differs
    between two golden blobs, dicts compared key by key (a key on one
    side only reads None on the other)."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            yield from _golden_drift(old.get(key), new.get(key),
                                    f"{prefix}.{key}" if prefix else key)
    elif old != new:
        yield prefix, old, new


def _check_golden(path: Path, got: dict) -> dict:
    """Regenerate *path* under ``GOLDEN_REGEN``, printing each cell and
    field that moved against the checked-in copy (run pytest with ``-s``
    to see the list); else return its content."""
    if os.environ.get("GOLDEN_REGEN"):
        # JSON round trip: compare as the file will read (tuples as lists).
        new = json.loads(json.dumps(got))
        old = json.loads(path.read_text()) if path.exists() else {}
        print(f"\n{path.name}:")
        for field, before, after in _golden_drift(old, new):
            print(f"  {field}: {before!r} -> {after!r}")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"golden file regenerated at {path}")
    return json.loads(path.read_text())


def test_chaos_cell_matches_golden():
    got = capture_chaos()
    assert got == _check_golden(CHAOS_GOLDEN_PATH, got)


def test_contention_chaos_cell_matches_golden():
    got = capture_chaos(CHAOS_OPTIONS, contention=True)
    assert got == _check_golden(CONTENTION_GOLDEN_PATH, got)


def test_lost_deliveries_degrade_like_unreachable_peers():
    """At chaos seed 3 the contention cell loses deliveries: ``fig8.0``
    in a walk leg, ``fig7.2`` in the ship of its OPTIONAL combine.
    Under ``partial_results`` a delivery that never lands degrades like
    a peer that does not answer: both come back flagged instead of
    failing, and every answer is a sub-multiset of the fault-free one."""
    executor = DistributedExecutor(build_system(replication_factor=2))
    truth = {name: row_counts(executor.execute(query)[0])
             for name, query in PAPER_FIG_QUERIES.items()}
    outcomes, *_ = run_chaos(contention=True, seed=3)
    for key in ("fig8.0", "fig7.2"):
        assert not isinstance(outcomes[key], dict), outcomes[key]
        assert outcomes[key][1].incomplete, key
    for key, outcome in outcomes.items():
        if isinstance(outcome, dict):
            continue  # a typed failure is a permitted outcome
        result, report = outcome
        got = row_counts(result)
        assert report.incomplete or got == truth[key.split(".")[0]], key
        assert not got - truth[key.split(".")[0]], key


def test_simulated_metrics_match_golden():
    got = capture()
    golden = _check_golden(GOLDEN_PATH, got)
    assert set(got) == set(golden), "configuration grid changed"
    drifted = {
        key: {field: (golden[key][field], got[key][field])
              for field in golden[key] if golden[key][field] != got[key][field]}
        for key in golden
        if golden[key] != got[key]
    }
    assert not drifted, (
        f"{len(drifted)} configurations drifted from golden "
        f"(golden, got): {dict(itertools.islice(drifted.items(), 5))}"
    )


def test_fig_mix_scale_cost_cells_match_golden():
    got = capture_fig_mix_scale()
    assert got == _check_golden(FIG_MIX_GOLDEN_PATH, got)


def capture_explain():
    """``repro explain``'s plan table for every grid query in both plan
    modes at default options, one fresh system per mode, as lines; plus
    Fig. 4 and Fig. 9 under the cost planner at ``fig_mix`` scale."""
    out = {f"{name}|cost|fig_mix": list(fig_mix_scale_run()[name][1])
           for name in ("fig4", "fig9")}
    for plan_mode in ("legacy", "cost"):
        system = build_system()
        executor = DistributedExecutor(
            system, ExecutionOptions(plan_mode=plan_mode))
        for name, text in QUERIES.items():
            _result, report = executor.execute(text, initiator="D1")
            out[f"{name}|{plan_mode}"] = format_plan(report.plan).splitlines()
    return out


def test_explain_output_matches_golden():
    got = capture_explain()
    assert got == _check_golden(EXPLAIN_GOLDEN_PATH, got)


def test_cache_off_leaves_cache_layer_untouched():
    """PR 9 guard: with ``result_cache`` off (the default, and what every
    golden-grid configuration runs with) the caching subsystem must do
    exactly nothing — zero probes, zero admissions, zero bytes. This is
    the structural reason the grid above cannot drift when the cache
    ships: off means *absent*, not merely cold."""
    system = build_system()
    for text in QUERIES.values():
        DistributedExecutor(system).execute(text, initiator="D1")
    counters = system.network.cache.as_dict()
    assert all(value == 0 for value in counters.values()), counters
