"""Load-generation harness: many concurrent queries in one simulation.

The single-query experiments measure strategies in isolation; this module
measures the *system* under sustained multi-tenant load, the regime the
ROADMAP's "heavy traffic" north star cares about.  Two arrival processes
over a query mix (default: the paper's Fig. 4-9 examples):

* **closed-loop** — ``concurrency`` clients, each submitting its next
  query the moment the previous one finishes (fixed multiprogramming
  level; the classic throughput/latency operating point);
* **open-loop** — Poisson arrivals at ``arrival_rate`` queries/second,
  independent of completions (the honest tail-latency regime: queues
  build when service cannot keep up).

Each job runs as its own :meth:`DistributedExecutor.execute_process`
coroutine, so queries genuinely interleave inside one simulator and — if
``network.contention`` is set — queue against each other for node
bandwidth and compute.  Admission control bounds the damage of overload:
at most ``max_in_flight`` queries run at once, up to ``queue_limit``
deferred jobs wait in FIFO order, and anything beyond that is *shed* and
counted, never silently dropped.

Determinism: the whole schedule (query choice, initiator assignment,
arrival times) is drawn up front from one seeded RNG, so a given
``LoadConfig`` always produces the same simulation, event for event.
"""

from __future__ import annotations

import bisect
import random
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..metrics.counters import Summary, summarize
from ..net.faults import FaultPlan
from ..query.executor import DistributedExecutor, ExecutionReport, QueryFailed
from ..query.strategies import ExecutionOptions
from ..rdf.namespaces import COMMON_PREFIXES
from ..rdf.terms import IRI
from ..rdf.triple import Triple
from ..sparql.eval import QueryResult
from ..sparql.parser import parse_query
from .queries import paper_query_mix

__all__ = ["ChurnEvent", "LoadConfig", "QueryJob", "WorkloadReport",
           "churn_schedule", "default_mutation_batch", "run_workload"]


@dataclass(frozen=True)
class ChurnEvent:
    """One scheduled membership change during a workload.

    ``action`` is ``"crash"`` (``Network.fail_node``) or ``"recover"``
    (``Network.recover_node``); *at* is the simulated time the event
    fires, relative to the workload's start.
    """

    at: float
    action: str
    node_id: str


@dataclass(frozen=True)
class LoadConfig:
    """One workload run: arrival process, mix, and admission limits."""

    #: The query mix as ``(label, sparql_text)`` pairs; jobs draw from it
    #: uniformly (seeded).  Default: the paper's Fig. 4-9 queries.
    queries: Sequence[Tuple[str, str]] = field(default_factory=paper_query_mix)
    #: Initiating peers, assigned round-robin — per-client initiators in
    #: closed-loop mode.  Empty = the executor's default initiator.
    initiators: Sequence[str] = ()
    #: ``"closed"`` (fixed concurrency) or ``"open"`` (Poisson arrivals).
    mode: str = "closed"
    #: Closed-loop multiprogramming level (number of clients).
    concurrency: int = 4
    #: Open-loop offered load, queries per simulated second.
    arrival_rate: float = 50.0
    #: Total jobs submitted over the run.
    num_queries: int = 32
    seed: int = 0
    #: Admission control: max concurrently executing queries (None = off).
    max_in_flight: Optional[int] = None
    #: Bounded defer queue beyond ``max_in_flight``; jobs that find the
    #: queue full are shed.  None = unbounded queue, nothing ever shed.
    queue_limit: Optional[int] = None
    #: Membership changes applied mid-workload (crash/restart events at
    #: fixed simulated times).  Empty = the classic churn-free run, whose
    #: simulation is byte-identical to previous releases.
    churn: Sequence[ChurnEvent] = ()
    #: Query-popularity skew: 0.0 (default) draws uniformly from the mix
    #: exactly as before; s > 0 draws query i with weight 1/(i+1)^s (the
    #: classic Zipf shape over the mix order) — the regime where a
    #: result cache earns its keep.
    zipf_s: float = 0.0
    #: Fraction of jobs that are *data mutations* instead of queries:
    #: each mutation job publishes (or retracts) a deterministic delta
    #: batch through the fast-mode incremental API, advancing the
    #: data-epoch ledger mid-workload.  0.0 (default) = read-only, with
    #: an RNG schedule identical to previous releases.
    mutation_rate: float = 0.0
    #: Seeded message-level fault plan (loss, duplication, delay spikes,
    #: partitions, brownouts) installed on the network for the run — the
    #: chaos twin of :attr:`churn`.  None (default) = the fault-free
    #: simulation, byte-identical to previous releases.
    faults: Optional[FaultPlan] = None


@dataclass
class QueryJob:
    """One submitted query and everything that happened to it."""

    job_id: int
    label: str
    query_text: str
    initiator: Optional[str]
    #: ``"query"`` or ``"mutation"`` (a publish/unpublish delta job).
    kind: str = "query"
    #: Scheduled arrival time (open-loop; 0.0 in closed-loop mode).
    arrival: float = 0.0
    submitted: Optional[float] = None
    started: Optional[float] = None
    finished: Optional[float] = None
    result: Optional[QueryResult] = None
    report: Optional[ExecutionReport] = None
    error: Optional[str] = None
    shed: bool = False

    @property
    def latency(self) -> Optional[float]:
        """Submission-to-completion time (includes any admission wait)."""
        if self.submitted is None or self.finished is None or self.shed:
            return None
        return self.finished - self.submitted

    @property
    def ok(self) -> bool:
        return self.error is None and not self.shed


@dataclass
class WorkloadReport:
    """Aggregate outcome of one :func:`run_workload` run."""

    jobs: List[QueryJob]
    duration: float
    completed: int
    failed: int
    shed: int
    deferred: int
    throughput: float
    #: Latency percentiles over completed jobs (None when none completed).
    latency: Optional[Summary]
    messages: int
    bytes_total: int
    peak_in_flight: int
    max_admission_queue: int
    #: Network contention statistics, when the system ran with a
    #: :class:`~repro.net.contention.ContentionModel` attached.
    contention: Dict[str, Any] = field(default_factory=dict)
    #: Retry/failover work done during the run (delta of the network's
    #: :class:`~repro.metrics.counters.FailoverCounters`).
    failover: Dict[str, int] = field(default_factory=dict)
    #: Result-cache work done during the run (delta of the network's
    #: :class:`~repro.metrics.counters.CacheCounters`; all zeros with
    #: the cache off).
    cache: Dict[str, int] = field(default_factory=dict)
    #: Mutation jobs applied (publish/unpublish delta batches).
    mutations: int = 0
    #: Number of scheduled membership changes applied mid-run.
    churn_events: int = 0
    #: Completed jobs whose answers were flagged incomplete (a safe
    #: subset) by ``ExecutionOptions.partial_results``.
    incomplete: int = 0
    #: Faults the installed plan actually injected during the run, by
    #: kind (empty without a :attr:`LoadConfig.faults` plan).
    faults_injected: Dict[str, int] = field(default_factory=dict)
    #: Real (host) seconds the simulation took to execute.  Unlike every
    #: other field this is *not* deterministic — it measures the engine,
    #: not the simulated system — and exists for performance tracking.
    wall_clock_s: float = 0.0
    #: Completed queries per real second (``completed / wall_clock_s``).
    queries_per_wall_second: float = 0.0

    def per_label(self) -> Dict[str, int]:
        return dict(Counter(j.label for j in self.jobs))

    def as_dict(self, include_jobs: bool = False) -> Dict[str, Any]:
        """JSON-friendly summary (drops the per-job objects).

        With ``include_jobs`` the full per-job timeline is attached under
        ``"job_details"`` (``"jobs"`` stays the count, so existing
        consumers of the summary shape are unaffected).
        """
        latency = None
        if self.latency is not None:
            latency = {
                "mean": self.latency.mean,
                "p50": self.latency.p50,
                "p95": self.latency.p95,
                "p99": self.latency.p99,
                "max": self.latency.maximum,
            }
        payload: Dict[str, Any] = {
            "jobs": len(self.jobs),
            "duration": self.duration,
            "completed": self.completed,
            "failed": self.failed,
            "shed": self.shed,
            "deferred": self.deferred,
            "throughput": self.throughput,
            "latency": latency,
            "messages": self.messages,
            "bytes_total": self.bytes_total,
            "peak_in_flight": self.peak_in_flight,
            "max_admission_queue": self.max_admission_queue,
            "contention": self.contention,
            "failover": self.failover,
            "cache": self.cache,
            "mutations": self.mutations,
            "churn_events": self.churn_events,
            "incomplete": self.incomplete,
            "faults_injected": self.faults_injected,
            "wall_clock_s": self.wall_clock_s,
            "queries_per_wall_second": self.queries_per_wall_second,
        }
        if include_jobs:
            payload["job_details"] = [
                {
                    "job_id": j.job_id,
                    "label": j.label,
                    "initiator": j.initiator,
                    "arrival": j.arrival,
                    "submitted": j.submitted,
                    "started": j.started,
                    "finished": j.finished,
                    "latency": j.latency,
                    "ok": j.ok,
                    "shed": j.shed,
                    "error": j.error,
                    "results": (
                        j.report.result_count if j.report is not None else None
                    ),
                }
                for j in self.jobs
            ]
        return payload


def default_mutation_batch(seq: int) -> List[Triple]:
    """The deterministic delta batch mutation number *seq* publishes.

    The triples live in the FOAF ``knows`` key space the paper queries
    exercise, so every mutation genuinely invalidates cached results
    for those patterns (a cache that survived them would be wrong)."""
    knows = IRI("http://xmlns.com/foaf/0.1/knows")
    s = IRI(f"http://example.org/load/delta{seq}/a")
    o = IRI(f"http://example.org/load/delta{seq}/b")
    return [Triple(s, knows, o), Triple(o, knows, s)]


def build_jobs(config: LoadConfig) -> List[QueryJob]:
    """The deterministic schedule: every job's query, initiator, and
    (open-loop) arrival time, drawn before the simulation starts."""
    if not config.queries:
        raise ValueError("load config needs a non-empty query mix")
    if config.mode not in ("closed", "open"):
        raise ValueError(f"unknown workload mode {config.mode!r}")
    if config.zipf_s < 0:
        raise ValueError("zipf_s must be >= 0")
    if not 0.0 <= config.mutation_rate < 1.0:
        raise ValueError("mutation_rate must lie in [0, 1)")
    rng = random.Random(config.seed)
    initiators = list(config.initiators)
    # Extra RNG draws stay strictly gated behind non-default settings so
    # the default schedule consumes the stream exactly as before.
    cumulative: List[float] = []
    if config.zipf_s > 0:
        total = 0.0
        for i in range(len(config.queries)):
            total += 1.0 / (i + 1) ** config.zipf_s
            cumulative.append(total)
    jobs: List[QueryJob] = []
    t = 0.0
    for i in range(config.num_queries):
        if config.zipf_s > 0:
            r = rng.random() * cumulative[-1]
            index = bisect.bisect_left(cumulative, r)
            label, text = config.queries[min(index, len(config.queries) - 1)]
        else:
            label, text = config.queries[rng.randrange(len(config.queries))]
        kind = "query"
        if config.mutation_rate > 0 and rng.random() < config.mutation_rate:
            kind, label, text = "mutation", "mutation", ""
        if config.mode == "open":
            t += rng.expovariate(config.arrival_rate)
        jobs.append(QueryJob(
            job_id=i,
            label=label,
            query_text=text,
            initiator=initiators[i % len(initiators)] if initiators else None,
            kind=kind,
            arrival=t,
        ))
    return jobs


def churn_schedule(
    node_ids: Sequence[str],
    num_crashes: int,
    window: Tuple[float, float],
    seed: int = 0,
    recover_after: Optional[float] = None,
) -> Tuple[ChurnEvent, ...]:
    """A seeded, deterministic crash (and optional recovery) schedule.

    Victims are drawn from *node_ids* without replacement (the pool
    refills if *num_crashes* exceeds it); crash times are uniform over
    *window*.  With *recover_after*, each victim comes back that many
    seconds after its crash.  The same arguments always produce the same
    schedule, so churn runs are as reproducible as churn-free ones.
    """
    rng = random.Random(seed)
    pool: List[str] = []
    events: List[ChurnEvent] = []
    lo, hi = window
    for _ in range(num_crashes):
        if not pool:
            pool = list(node_ids)
        victim = pool.pop(rng.randrange(len(pool)))
        at = lo + (hi - lo) * rng.random()
        events.append(ChurnEvent(at, "crash", victim))
        if recover_after is not None:
            events.append(ChurnEvent(at + recover_after, "recover", victim))
    return tuple(sorted(events, key=lambda e: (e.at, e.node_id, e.action)))


def run_workload(
    system,
    config: LoadConfig,
    options: Optional[ExecutionOptions] = None,
) -> WorkloadReport:
    """Run *config* against *system* and aggregate the outcome.

    Every job executes as a concurrent ``execute_process`` coroutine.
    Failed queries (e.g. a site crashed mid-flight) count as ``failed``
    with the :class:`QueryFailed` message on the job; they never abort
    the rest of the workload.
    """
    sim = system.sim
    executor = DistributedExecutor(system, options)
    jobs = build_jobs(config)
    # Keyed by text: repeats share one frozen AST, and the executor keeps
    # no state keyed by the query object.
    texts = dict.fromkeys(job.query_text for job in jobs if job.kind == "query")
    parsed = {text: parse_query(text, COMMON_PREFIXES) for text in texts}
    done_events = {job.job_id: sim.event() for job in jobs}

    state = {"in_flight": 0, "peak": 0, "shed": 0, "deferred": 0,
             "max_queue": 0, "mutations": 0}
    waiting: deque = deque()
    storage_ids = sorted(system.storage_nodes)
    published: deque = deque()

    def apply_mutation(job: QueryJob) -> None:
        """Publish a fresh delta batch, or retract the oldest live one.

        Odd-numbered mutations retract (keeping the dataset bounded);
        the fast-mode incremental API advances the data-epoch ledger
        either way, so every mutation is a real invalidation event."""
        seq = state["mutations"]
        state["mutations"] += 1
        storage = system.storage_nodes[storage_ids[seq % len(storage_ids)]]
        if seq % 2 == 1 and published:
            victim_storage, batch = published.popleft()
            victim_storage.remove_triples(batch)
            system.unpublish_delta(victim_storage, batch)
        else:
            batch = default_mutation_batch(seq)
            storage.add_triples(batch)
            system.publish_delta(storage, batch)
            published.append((storage, batch))

    def runner(job: QueryJob):
        try:
            if job.kind == "mutation":
                yield sim.timeout(0.0)
                apply_mutation(job)
            else:
                result, report = yield from executor.execute_process(
                    parsed[job.query_text], job.initiator
                )
                job.result, job.report = result, report
        except QueryFailed as exc:
            job.error = str(exc)
        job.finished = sim.now
        state["in_flight"] -= 1
        if waiting:
            launch(waiting.popleft())
        done_events[job.job_id].succeed(None)

    def launch(job: QueryJob) -> None:
        state["in_flight"] += 1
        if state["in_flight"] > state["peak"]:
            state["peak"] = state["in_flight"]
        job.started = sim.now
        sim.process(runner(job))

    def submit(job: QueryJob) -> None:
        job.submitted = sim.now
        limit = config.max_in_flight
        if limit is None or state["in_flight"] < limit:
            launch(job)
        elif config.queue_limit is None or len(waiting) < config.queue_limit:
            state["deferred"] += 1
            waiting.append(job)
            if len(waiting) > state["max_queue"]:
                state["max_queue"] = len(waiting)
        else:
            state["shed"] += 1
            job.shed = True
            job.error = "shed"
            job.finished = sim.now
            done_events[job.job_id].succeed(None)

    def open_driver():
        for job in jobs:
            if job.arrival > sim.now:
                yield sim.timeout(job.arrival - sim.now)
            submit(job)

    pending = deque(jobs)

    def client():
        while pending:
            job = pending.popleft()
            submit(job)
            yield done_events[job.job_id]

    if config.faults is not None:
        system.network.install_faults(config.faults)
    checkpoint = system.stats.checkpoint()
    failover_before = system.network.failover.checkpoint()
    cache_before = system.network.cache.checkpoint()
    wall_start = time.perf_counter()
    t_start = sim.now
    for churn_event in config.churn:
        if churn_event.action not in ("crash", "recover"):
            raise ValueError(f"unknown churn action {churn_event.action!r}")

        def fire(_e, ev=churn_event) -> None:
            if ev.action == "crash":
                system.network.fail_node(ev.node_id)
            else:
                system.network.recover_node(ev.node_id)

        sim.timeout(max(churn_event.at, 0.0)).callbacks.append(fire)
    if config.mode == "open":
        sim.process(open_driver())
    else:
        for _ in range(max(1, config.concurrency)):
            sim.process(client())
    sim.run()
    wall_clock_s = time.perf_counter() - wall_start

    delta = system.stats.delta(checkpoint)
    finish_times = [j.finished for j in jobs if j.finished is not None]
    duration = (max(finish_times) - t_start) if finish_times else 0.0
    completed = sum(1 for j in jobs if j.ok)
    failed = sum(1 for j in jobs if j.error is not None and not j.shed)
    latencies = [j.latency for j in jobs if j.ok and j.latency is not None]
    contention: Dict[str, Any] = {}
    model = system.network.contention
    if model is not None:
        contention = {
            "max_queue_depth": model.max_queue_depth(),
            "total_wait": model.total_wait(),
            "queues": model.snapshot(),
        }
    return WorkloadReport(
        jobs=jobs,
        duration=duration,
        completed=completed,
        failed=failed,
        shed=state["shed"],
        deferred=state["deferred"],
        throughput=(completed / duration) if duration > 0 else float(completed),
        latency=summarize(latencies) if latencies else None,
        messages=delta.messages,
        bytes_total=delta.bytes,
        peak_in_flight=state["peak"],
        max_admission_queue=state["max_queue"],
        contention=contention,
        failover=system.network.failover.delta(failover_before),
        cache=system.network.cache.delta(cache_before),
        mutations=state["mutations"],
        churn_events=len(config.churn),
        incomplete=sum(
            1 for j in jobs
            if j.ok and j.report is not None and j.report.incomplete
        ),
        faults_injected=(
            dict(system.network.faults.injected)
            if system.network.faults is not None else {}
        ),
        wall_clock_s=wall_clock_s,
        queries_per_wall_second=(
            completed / wall_clock_s if wall_clock_s > 0 else 0.0
        ),
    )
