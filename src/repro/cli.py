"""Command-line interface: build a system from N-Triples files and query it.

Each ``--data`` file becomes one storage node (the provider keeps "its
own" triples, Sect. I); index nodes form the ring; the query runs through
the full distributed pipeline and the answer plus the cost report print
to stdout.

Examples::

    python -m repro --data alice.nt --data bob.nt \
        --query 'SELECT ?x ?y WHERE { ?x foaf:knows ?y . }'

    python -m repro --data ./shared/*.nt --query-file q.rq \
        --strategy freq --join-site move-small --report

    python -m repro trace 'SELECT ?x WHERE { ?x foaf:knows ?y . }' \
        --data alice.nt --data bob.nt --jsonl trace.jsonl

The ``trace`` subcommand executes the query with the tracer enabled and
prints the Fig. 3-style message sequence diagram, the per-phase cost
table, and (optionally) a JSONL event dump.

The ``explain`` subcommand executes the query and prints its annotated
physical operator plan — per-operator placement, estimated vs actual
rows, estimated vs actual bytes. With ``--plan cost`` the estimates come
from the frequency-driven planner's statistics prefetch::

    python -m repro explain 'SELECT ?x WHERE { ?x foaf:knows ?y . }' \
        --data alice.nt --data bob.nt --plan cost

The ``bench-load`` subcommand drives a multi-query workload (closed-loop
fixed concurrency or open-loop Poisson arrivals) through one simulation
and prints throughput, latency percentiles, and admission statistics::

    python -m repro bench-load --data ./shared/*.nt \
        --mode closed --concurrency 16 --num-queries 64 --contention

The ``chaos`` subcommand runs that workload under a seeded message-level
fault plan (loss, duplication, delay spikes, directional partitions,
node brownouts) with the gray-failure defenses switchable from the
command line, and prints completion, latency, fault, and breaker
counters — the same plans replay bit-identically for a fixed seed::

    python -m repro chaos --data ./shared/*.nt --chaos-seed 7 \
        --loss 0.05 --brownouts 1 --breaker --partial-results

The ``profile`` subcommand runs the same workload under :mod:`cProfile`
and prints the hottest functions by cumulative time — where the engine
spends *real* time, for performance work on the engine itself::

    python -m repro profile --data ./shared/*.nt \
        --concurrency 16 --num-queries 64 --top 25

With ``--state-dir`` every node write-ahead logs its state under the
given directory; the ``checkpoint`` subcommand snapshots and compacts
that state, and ``recover`` rebuilds the whole system from it::

    python -m repro --data alice.nt --query '...' --state-dir ./state
    python -m repro checkpoint --state-dir ./state
    python -m repro recover --state-dir ./state --query '...'
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Optional, Sequence

from .overlay.system import HybridSystem
from .query.executor import DistributedExecutor
from .query.strategies import (
    ConjunctionMode,
    ExecutionOptions,
    JoinSitePolicy,
    PrimitiveStrategy,
)
from .rdf.ntriples import parse_ntriples

__all__ = [
    "main",
    "build_parser",
    "build_trace_parser",
    "build_explain_parser",
    "build_bench_load_parser",
    "build_chaos_parser",
    "build_profile_parser",
    "build_checkpoint_parser",
    "build_recover_parser",
]


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by the default query mode and ``trace``; every
    executor default is read from :class:`ExecutionOptions`."""
    defaults = ExecutionOptions()
    parser.add_argument(
        "--data", action="append", default=[], metavar="FILE.nt",
        help="N-Triples file; each file becomes one storage node "
             "(repeatable)",
    )
    parser.add_argument(
        "--index-nodes", type=int, default=8,
        help="number of ring index nodes (default 8)",
    )
    parser.add_argument(
        "--strategy", choices=[s.value for s in PrimitiveStrategy],
        default=defaults.primitive_strategy.value,
        help="primitive-query strategy (Sect. IV-C; default "
             f"{defaults.primitive_strategy.value})",
    )
    parser.add_argument(
        "--conjunction", choices=[m.value for m in ConjunctionMode],
        default=defaults.conjunction_mode.value,
        help="conjunction processing mode (Sect. IV-D)",
    )
    parser.add_argument(
        "--join-site", choices=[p.value for p in JoinSitePolicy],
        default=defaults.join_site_policy.value,
        help="join-site selection policy (Sect. II)",
    )
    parser.add_argument(
        "--time-weight", type=float, default=defaults.time_weight,
        help="adaptive objective mixture: 0=min bytes, 1=min time",
    )
    parser.add_argument(
        "--plan", choices=["legacy", "cost"], default=defaults.plan_mode,
        help="physical-plan mode: legacy follows the per-step strategy "
             "flags exactly; cost lets the frequency-driven planner pin "
             "join order, walk mode, chain strategies, and combine sites "
             "at plan time",
    )
    parser.add_argument(
        "--initiator", default=None,
        help="node issuing the query (default: first storage node)",
    )
    parser.add_argument(
        "--no-optimize", action="store_true",
        help="disable algebraic optimization (filter pushing)",
    )
    parser.add_argument(
        "--semijoin", action="store_true",
        help="semijoin/Bloom pre-filtering: ship join-key digests so "
             "non-joining rows never travel",
    )
    parser.add_argument(
        "--projection-pushdown", action="store_true",
        help="prune dead variables from intermediate results before "
             "every ship (sound for DISTINCT/ASK/CONSTRUCT queries)",
    )
    parser.add_argument(
        "--dict-encoding", action="store_true",
        help="dictionary-delta wire encoding for shipped solution sets",
    )
    parser.add_argument(
        "--replicas", type=int, default=1, metavar="R",
        help="location-table replication factor (Sect. III-D; default 1; "
             "failover needs R >= 2)",
    )
    parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry budget per RPC: N extra attempts after a timeout "
             "(default 0 = fail fast)",
    )
    parser.add_argument(
        "--backoff", type=float, default=defaults.backoff, metavar="SECS",
        help="base exponential backoff between retry attempts, with "
             f"seeded jitter (default {defaults.backoff})",
    )
    parser.add_argument(
        "--failover", action="store_true",
        help="re-route timed-out lookups and primitive dispatches to "
             "replica holders via the successor list (needs --replicas>=2)",
    )
    parser.add_argument(
        "--hedge", type=float, default=None, metavar="SECS", nargs="?",
        const=0.0,
        help="hedged index reads: duplicate a slow lookup to a replica "
             "after SECS (bare --hedge = auto, the p95 of observed "
             "lookup RTTs)",
    )
    parser.add_argument(
        "--query-deadline", type=float, default=None, metavar="SECS",
        help="end-to-end deadline per query, propagated with every "
             "downstream call (default: none)",
    )
    parser.add_argument(
        "--breaker", action="store_true",
        help="per-peer health ledger + circuit breakers: open circuits "
             "fail calls instantly and failover routes around them "
             "before dialing (default off)",
    )
    parser.add_argument(
        "--breaker-latency", type=float, default=None, metavar="SECS",
        help="EWMA RTT above which a responding peer is treated as "
             "browned out and its breaker tripped (gray-failure "
             "detection; default: timeouts only)",
    )
    parser.add_argument(
        "--partial-results", action="store_true",
        help="degrade instead of fail: when every replica of a "
             "sub-pattern is unreachable, return a flagged subset of the "
             "answer rather than raising (default off)",
    )
    parser.add_argument(
        "--result-cache", action="store_true",
        help="cross-query per-site result cache: index nodes memoize "
             "primitive results and combine sites memoize BGP "
             "sub-results, invalidated delta-exactly by the data-epoch "
             "ledger (default off)",
    )
    parser.add_argument(
        "--cache-bytes", type=int, default=defaults.cache_bytes, metavar="N",
        help="per-node byte budget for cached solution data "
             f"(default {defaults.cache_bytes})",
    )
    parser.add_argument(
        "--state-dir", metavar="DIR", default=None,
        help="durable state directory: every node write-ahead logs its "
             "state under it (see 'repro checkpoint' / 'repro recover')",
    )
    parser.add_argument(
        "--fsync", action="store_true",
        help="fsync every WAL append and snapshot (durable against OS "
             "crashes, not just process crashes)",
    )
    parser.add_argument(
        "--snapshot-every", type=int, default=None, metavar="N",
        help="auto-checkpoint a node's state after N WAL records",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed SPARQL over an ad-hoc semantic web data "
                    "sharing system (IPPS 2013 reproduction).",
    )
    _add_common_options(parser)
    query_group = parser.add_mutually_exclusive_group(required=True)
    query_group.add_argument("--query", help="SPARQL query text")
    query_group.add_argument(
        "--query-file", metavar="FILE.rq", help="file containing the query"
    )
    parser.add_argument(
        "--report", action="store_true",
        help="print the transmission/time report after the results",
    )
    return parser


def build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Execute one query with tracing enabled and render "
                    "its message flow (Fig. 3) and per-phase costs.",
    )
    parser.add_argument(
        "query", nargs="?", default=None,
        help="SPARQL query text (or use --query-file)",
    )
    parser.add_argument(
        "--query-file", metavar="FILE.rq", help="file containing the query"
    )
    _add_common_options(parser)
    parser.add_argument(
        "--jsonl", metavar="FILE.jsonl", default=None,
        help="also write the structured event trace to this JSONL file",
    )
    parser.add_argument(
        "--max-events", type=int, default=None, metavar="N",
        help="cap the sequence diagram at the first N messages",
    )
    parser.add_argument(
        "--no-diagram", action="store_true",
        help="skip the sequence diagram (phase table and spans only)",
    )
    return parser


def build_explain_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro explain",
        description="Execute one query and print its annotated physical "
                    "operator plan: per-operator placement, estimated vs "
                    "actual rows, and estimated vs actual wire bytes.",
    )
    parser.add_argument(
        "query", nargs="?", default=None,
        help="SPARQL query text (or use --query-file)",
    )
    parser.add_argument(
        "--query-file", metavar="FILE.rq", help="file containing the query"
    )
    _add_common_options(parser)
    return parser


def _explain_main(argv: Sequence[str]) -> int:
    from .query.physical import format_plan

    args = build_explain_parser().parse_args(argv)
    if args.query is not None and args.query_file is not None:
        raise SystemExit("error: give either a positional query or "
                         "--query-file, not both")
    system = _load_system(args)
    executor = DistributedExecutor(system, _build_options(args))
    _, report = executor.execute(_query_text(args), initiator=args.initiator)
    print(format_plan(report.plan))
    print(
        f"# totals: {report.result_count} results, {report.messages} "
        f"messages, {report.bytes_total} bytes, "
        f"{report.response_time * 1000:.1f} ms simulated "
        f"(plan={args.plan})"
    )
    return 0


def _add_workload_options(parser: argparse.ArgumentParser) -> None:
    """Workload-shape options shared by ``bench-load`` and ``profile``."""
    parser.add_argument(
        "--mode", choices=["closed", "open"], default="closed",
        help="closed = fixed concurrency, open = Poisson arrivals "
             "(default closed)",
    )
    parser.add_argument(
        "--concurrency", type=int, default=4,
        help="closed-loop clients (default 4)",
    )
    parser.add_argument(
        "--rate", type=float, default=50.0,
        help="open-loop arrival rate, queries per simulated second "
             "(default 50)",
    )
    parser.add_argument(
        "--num-queries", type=int, default=32,
        help="total jobs to submit (default 32)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="workload schedule seed (default 0)",
    )
    parser.add_argument(
        "--max-in-flight", type=int, default=None, metavar="N",
        help="admission control: max concurrently executing queries",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=None, metavar="N",
        help="bounded admission queue beyond --max-in-flight; "
             "overflow is shed",
    )
    parser.add_argument(
        "--no-contention", action="store_true",
        help="disable the shared-resource contention model (bandwidth "
             "and compute queue freely)",
    )
    parser.add_argument(
        "--query", action="append", default=[], metavar="SPARQL",
        help="replace the default Fig. 4-9 mix with these queries "
             "(repeatable)",
    )


def build_bench_load_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench-load",
        description="Drive a multi-query workload through one simulation "
                    "and report throughput, tail latency, and admission "
                    "statistics.",
    )
    _add_common_options(parser)
    _add_workload_options(parser)
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the full workload report (summary plus per-job "
             "timeline) to this JSON file",
    )
    return parser


def build_chaos_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="Drive a bench-load workload under a seeded "
                    "message-level fault plan (loss, duplication, delay "
                    "spikes, partitions, node brownouts) and report "
                    "completion rate, tail latency, and the faults "
                    "actually injected.",
    )
    _add_common_options(parser)
    _add_workload_options(parser)
    parser.add_argument(
        "--chaos-seed", type=int, default=0,
        help="fault-plan seed (independent of the workload seed; "
             "default 0)",
    )
    parser.add_argument(
        "--loss", type=float, default=0.0, metavar="P",
        help="per-message drop probability on every link (default 0)",
    )
    parser.add_argument(
        "--duplicate", type=float, default=0.0, metavar="P",
        help="per-message duplication probability (default 0)",
    )
    parser.add_argument(
        "--delay", type=float, default=0.0, metavar="P",
        help="per-message delay-spike probability (default 0)",
    )
    parser.add_argument(
        "--delay-spike", type=float, default=0.05, metavar="SECS",
        help="delay-spike magnitude before jitter (default 0.05)",
    )
    parser.add_argument(
        "--partitions", type=int, default=0, metavar="N",
        help="asymmetric one-way link partitions between random node "
             "pairs (default 0)",
    )
    parser.add_argument(
        "--brownouts", type=int, default=0, metavar="N",
        help="random nodes browned out (compute and egress scaled) "
             "for the fault window (default 0)",
    )
    parser.add_argument(
        "--brownout-factor", type=float, default=8.0, metavar="X",
        help="service-time multiplier for browned-out nodes (default 8)",
    )
    parser.add_argument(
        "--fault-start", type=float, default=0.0, metavar="SECS",
        help="simulated time the fault window opens (default 0)",
    )
    parser.add_argument(
        "--fault-window", type=float, default=60.0, metavar="SECS",
        help="length of the fault window (default 60)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the full workload report to this JSON file",
    )
    return parser


def _chaos_main(argv: Sequence[str]) -> int:
    from dataclasses import replace

    from .net.faults import chaos_plan
    from .workloads.load import run_workload

    args = build_chaos_parser().parse_args(argv)
    system, config = _workload_setup(args)
    plan = chaos_plan(
        sorted(system.network.nodes),
        seed=args.chaos_seed,
        start=args.fault_start,
        window=args.fault_window,
        loss=args.loss,
        duplicate=args.duplicate,
        delay=args.delay,
        delay_spike=args.delay_spike,
        partitions=args.partitions,
        brownouts=args.brownouts,
        brownout_factor=args.brownout_factor,
    )
    config = replace(config, faults=plan)
    report = run_workload(system, config, _build_options(args))

    injected = ", ".join(
        f"{kind}={n}" for kind, n in sorted(report.faults_injected.items())
    ) or "none"
    print(
        f"# chaos seed={args.chaos_seed} rules={len(plan.rules)} "
        f"injected: {injected}"
    )
    print(
        f"# completed={report.completed} failed={report.failed} "
        f"incomplete={report.incomplete} shed={report.shed}"
    )
    if report.latency is not None:
        lat = report.latency
        print(
            f"# latency ms: p50={lat.p50 * 1000:.2f} "
            f"p95={lat.p95 * 1000:.2f} p99={lat.p99 * 1000:.2f}"
        )
    defense = {k: v for k, v in sorted(report.failover.items()) if v}
    if defense:
        print("# defense: " + ", ".join(f"{k}={v}" for k, v in defense.items()))
    failures = [j for j in report.jobs if j.error is not None and not j.shed]
    for job in failures[:5]:
        print(f"# failed job {job.job_id} ({job.label}): {job.error}")
    if args.json:
        import json

        path = pathlib.Path(args.json)
        payload = report.as_dict(include_jobs=True)
        payload["fault_plan"] = plan.as_dict()
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"# wrote workload report to {path}")
    return 0


def build_profile_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro profile",
        description="Run a bench-load workload under cProfile and print "
                    "the hottest functions — where the engine spends real "
                    "(wall-clock) time, as opposed to simulated time.",
    )
    _add_common_options(parser)
    _add_workload_options(parser)
    parser.add_argument(
        "--top", type=int, default=25, metavar="N",
        help="print the top N functions (default 25)",
    )
    parser.add_argument(
        "--sort", default="cumulative",
        choices=["cumulative", "tottime", "calls"],
        help="pstats sort order (default cumulative)",
    )
    parser.add_argument(
        "--stats-out", metavar="PATH", default=None,
        help="also dump the raw pstats data to this file (inspect later "
             "with pstats or snakeviz)",
    )
    return parser


def build_checkpoint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro checkpoint",
        description="Recover the system persisted under a state directory, "
                    "snapshot every node's state, and compact the logs.",
    )
    parser.add_argument(
        "--state-dir", metavar="DIR", required=True,
        help="the system's durable state directory",
    )
    return parser


def build_recover_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro recover",
        description="Rebuild the system persisted under a state directory "
                    "(snapshot + WAL replay per node) and report how each "
                    "node came back.",
    )
    parser.add_argument(
        "--state-dir", metavar="DIR", required=True,
        help="the system's durable state directory",
    )
    parser.add_argument(
        "--query", metavar="SPARQL", default=None,
        help="also run this query on the recovered system and print the "
             "result count (a liveness check)",
    )
    return parser


def _workload_setup(args: argparse.Namespace):
    """System + LoadConfig from parsed workload options (bench-load and
    profile share this)."""
    from .net.contention import ContentionModel
    from .workloads.load import LoadConfig

    system = _load_system(args)
    if not args.no_contention:
        system.network.contention = ContentionModel()

    kwargs = {}
    if args.query:
        kwargs["queries"] = [(f"q{i}", q) for i, q in enumerate(args.query)]
    if args.initiator:
        kwargs["initiators"] = [args.initiator]
    config = LoadConfig(
        mode=args.mode,
        concurrency=args.concurrency,
        arrival_rate=args.rate,
        num_queries=args.num_queries,
        seed=args.seed,
        max_in_flight=args.max_in_flight,
        queue_limit=args.queue_limit,
        **kwargs,
    )
    return system, config


def _bench_load_main(argv: Sequence[str]) -> int:
    from .workloads.load import run_workload

    args = build_bench_load_parser().parse_args(argv)
    system, config = _workload_setup(args)
    report = run_workload(system, config, _build_options(args))

    mix = ", ".join(f"{label}x{n}" for label, n in sorted(report.per_label().items()))
    print(f"# mode={config.mode} jobs={len(report.jobs)} mix: {mix}")
    print(
        f"# completed={report.completed} failed={report.failed} "
        f"shed={report.shed} deferred={report.deferred} "
        f"peak_in_flight={report.peak_in_flight} "
        f"max_queue={report.max_admission_queue}"
    )
    print(
        f"# duration={report.duration * 1000:.1f} ms simulated, "
        f"throughput={report.throughput:.1f} q/s, "
        f"{report.messages} messages, {report.bytes_total} bytes"
    )
    print(
        f"# wall clock: {report.wall_clock_s * 1000:.1f} ms real, "
        f"{report.queries_per_wall_second:.1f} q/s real"
    )
    if report.latency is not None:
        lat = report.latency
        print(
            f"# latency ms: mean={lat.mean * 1000:.2f} "
            f"p50={lat.p50 * 1000:.2f} p95={lat.p95 * 1000:.2f} "
            f"p99={lat.p99 * 1000:.2f} max={lat.maximum * 1000:.2f}"
        )
    if report.contention:
        print(
            f"# contention: max_queue_depth="
            f"{report.contention['max_queue_depth']} "
            f"total_wait={report.contention['total_wait'] * 1000:.2f} ms"
        )
        hot = sorted(
            report.contention["queues"].items(),
            key=lambda kv: kv[1]["total_wait"],
            reverse=True,
        )[:5]
        for name, stats in hot:
            print(
                f"#   {name}: depth<={stats['max_depth']} "
                f"waits={stats['waits']} "
                f"wait={stats['total_wait'] * 1000:.2f} ms"
            )
    failures = [j for j in report.jobs if j.error is not None and not j.shed]
    for job in failures[:5]:
        print(f"# failed job {job.job_id} ({job.label}): {job.error}")
    if args.json:
        import json

        path = pathlib.Path(args.json)
        path.write_text(
            json.dumps(report.as_dict(include_jobs=True), indent=2) + "\n",
            encoding="utf-8",
        )
        print(f"# wrote workload report to {path}")
    return 0


def _profile_main(argv: Sequence[str]) -> int:
    import cProfile
    import pstats

    from .workloads.load import run_workload

    args = build_profile_parser().parse_args(argv)
    system, config = _workload_setup(args)
    options = _build_options(args)

    profiler = cProfile.Profile()
    profiler.enable()
    report = run_workload(system, config, options)
    profiler.disable()

    print(
        f"# completed={report.completed} failed={report.failed} "
        f"shed={report.shed}"
    )
    print(
        f"# wall clock: {report.wall_clock_s * 1000:.1f} ms real, "
        f"{report.queries_per_wall_second:.1f} q/s real "
        f"({report.duration * 1000:.1f} ms simulated)"
    )
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.top)
    if args.stats_out:
        stats.dump_stats(args.stats_out)
        print(f"# wrote raw pstats data to {args.stats_out}")
    return 0


def _checkpoint_main(argv: Sequence[str]) -> int:
    from .storage import recover_system

    args = build_checkpoint_parser().parse_args(argv)
    system, report = recover_system(args.state_dir)
    done = system.checkpoint()
    print(
        f"# recovered {len(report['index'])} index nodes and "
        f"{len(report['storage'])} storage nodes from {args.state_dir}"
    )
    for node_id in sorted(done):
        print(f"# snapshot {node_id} @ lsn {done[node_id]}")
    return 0


def _recover_main(argv: Sequence[str]) -> int:
    from .storage import recover_system

    args = build_recover_parser().parse_args(argv)
    system, report = recover_system(args.state_dir)
    print(
        f"# recovered {len(report['index'])} index nodes and "
        f"{len(report['storage'])} storage nodes from {args.state_dir}"
    )
    print("# node | snapshot lsn | records replayed | torn truncated")
    for section in ("index", "storage"):
        for node_id in sorted(report[section]):
            info = report[section][node_id]
            print(
                f"# {node_id} | {info['snapshot_lsn']} | "
                f"{info['records_replayed']} | {info['torn_truncated']}"
            )
    if args.query is not None:
        result, exec_report = system.execute(args.query)
        print(
            f"# query ok: {exec_report.result_count} results, "
            f"{exec_report.messages} messages"
        )
    return 0


def _load_system(args: argparse.Namespace) -> HybridSystem:
    if not args.data:
        raise SystemExit("error: at least one --data file is required")
    system = HybridSystem(
        replication_factor=getattr(args, "replicas", 1),
        state_dir=getattr(args, "state_dir", None),
        fsync=getattr(args, "fsync", False),
        snapshot_every=getattr(args, "snapshot_every", None),
    )
    for i in range(args.index_nodes):
        system.add_index_node(f"N{i}")
    system.build_ring()
    for path_text in args.data:
        path = pathlib.Path(path_text)
        if not path.exists():
            raise SystemExit(f"error: no such data file: {path}")
        triples = list(parse_ntriples(path.read_text(encoding="utf-8")))
        system.add_storage_node(path.stem, triples)
    return system


def _query_text(args: argparse.Namespace) -> str:
    if args.query is not None:
        return args.query
    if args.query_file is None:
        raise SystemExit("error: a query (positional) or --query-file is required")
    path = pathlib.Path(args.query_file)
    if not path.exists():
        raise SystemExit(f"error: no such query file: {path}")
    return path.read_text(encoding="utf-8")


def _build_options(args: argparse.Namespace) -> ExecutionOptions:
    return ExecutionOptions(
        primitive_strategy=PrimitiveStrategy(args.strategy),
        conjunction_mode=ConjunctionMode(args.conjunction),
        join_site_policy=JoinSitePolicy(args.join_site),
        time_weight=args.time_weight,
        plan_mode=args.plan,
        optimize=not args.no_optimize,
        semijoin=args.semijoin,
        projection_pushdown=args.projection_pushdown,
        dictionary_encoding=args.dict_encoding,
        retries=args.retries,
        backoff=args.backoff,
        failover=args.failover,
        hedge_delay=args.hedge,
        query_deadline=args.query_deadline,
        breaker=args.breaker,
        breaker_latency=args.breaker_latency,
        partial_results=args.partial_results,
        result_cache=args.result_cache,
        cache_bytes=args.cache_bytes,
    )


def _trace_main(argv: Sequence[str]) -> int:
    from .trace import Tracer, render_phases, render_sequence, write_jsonl

    args = build_trace_parser().parse_args(argv)
    if args.query is not None and args.query_file is not None:
        raise SystemExit("error: give either a positional query or "
                         "--query-file, not both")
    system = _load_system(args)
    tracer = Tracer()
    executor = DistributedExecutor(system, _build_options(args), tracer=tracer)
    _, report = executor.execute(_query_text(args), initiator=args.initiator)

    if not args.no_diagram:
        sys.stdout.write(render_sequence(tracer, max_events=args.max_events))
        print()
    print(render_phases(report.phases))
    print(
        f"# {report.result_count} results, {report.messages} messages, "
        f"{report.bytes_total} bytes, "
        f"{report.response_time * 1000:.1f} ms simulated"
    )
    if args.jsonl:
        path = write_jsonl(tracer, args.jsonl)
        print(f"# wrote {len(tracer.events)} events to {path}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv and argv[0] == "trace":
        return _trace_main(argv[1:])
    if argv and argv[0] == "explain":
        return _explain_main(argv[1:])
    if argv and argv[0] == "bench-load":
        return _bench_load_main(argv[1:])
    if argv and argv[0] == "chaos":
        return _chaos_main(argv[1:])
    if argv and argv[0] == "profile":
        return _profile_main(argv[1:])
    if argv and argv[0] == "checkpoint":
        return _checkpoint_main(argv[1:])
    if argv and argv[0] == "recover":
        return _recover_main(argv[1:])
    args = build_parser().parse_args(argv)
    system = _load_system(args)
    executor = DistributedExecutor(system, _build_options(args))
    result, report = executor.execute(_query_text(args), initiator=args.initiator)

    if result.boolean is not None:
        print("yes" if result.boolean else "no")
    elif result.graph is not None:
        from .rdf.ntriples import serialize_ntriples

        sys.stdout.write(serialize_ntriples(sorted(result.graph, key=lambda t: t.n3())))
    else:
        header = "\t".join(f"?{v.name}" for v in result.variables)
        print(header)
        for mu in result.rows:
            print("\t".join(
                (mu.get(v).n3() if mu.get(v) is not None else "")
                for v in result.variables
            ))

    if args.report:
        print(
            f"# {report.result_count} results, {report.messages} messages, "
            f"{report.bytes_total} bytes, "
            f"{report.response_time * 1000:.1f} ms simulated",
            file=sys.stderr,
        )
        for note in report.notes:
            print(f"# note: {note}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
