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
        --mode closed --concurrency 16 --num-queries 64 --no-contention

Any fault rate or count (``--loss``, ``--duplicate``, ``--delay``,
``--partitions``, ``--brownouts``) runs that workload under a seeded
message-level fault plan, with the gray-failure defenses switchable from
the command line, and adds the faults injected and the defense counters
to the output — the same plan replays bit-identically for a fixed seed::

    python -m repro bench-load --data ./shared/*.nt --chaos-seed 7 \
        --loss 0.05 --brownouts 1 --breaker --partial-results

Where the engine spends *real* time is a question for :mod:`cProfile`::

    python -m cProfile -s cumulative -m repro bench-load \
        --data ./shared/*.nt --concurrency 16 --num-queries 64

With ``--state-dir`` every node write-ahead logs its state under the
given directory; the ``checkpoint`` subcommand snapshots and compacts
that state, and ``recover`` rebuilds the whole system from it::

    python -m repro --data alice.nt --query '...' --state-dir ./state
    python -m repro checkpoint --state-dir ./state
    python -m repro recover --state-dir ./state --query '...'
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import pathlib
import sys
import typing
from typing import Callable, Optional, Sequence, Tuple

from .overlay.system import HybridSystem
from .query.executor import DistributedExecutor, QueryFailed
from .query.strategies import ExecutionOptions
from .rdf.ntriples import parse_ntriples

__all__ = [
    "main",
    "parse_args",
    "build_parser",
    "build_trace_parser",
    "build_explain_parser",
    "build_bench_load_parser",
    "build_checkpoint_parser",
    "build_recover_parser",
]


def _add_execution_options(parser: argparse.ArgumentParser) -> None:
    """One flag per :class:`ExecutionOptions` field, spelled and explained
    by the field's metadata; the flag's dest is the field name."""
    group = parser.add_argument_group("execution options")
    hints = typing.get_type_hints(ExecutionOptions)
    for f in dataclasses.fields(ExecutionOptions):
        meta = dict(f.metadata)
        help_text = meta.pop("help")
        negated = "no-" if f.default is True else ""
        flag = meta.pop("flag", f"--{negated}{f.name.replace('_', '-')}")
        kind = hints[f.name]
        if kind is bool:
            group.add_argument(
                flag, dest=f.name, help=help_text,
                action="store_false" if f.default else "store_true",
            )
            continue
        kind = next(t for t in typing.get_args(kind) or (kind,) if t is not type(None))
        shown = f.default
        if issubclass(kind, enum.Enum):
            meta.update(choices=list(kind),
                        metavar="{" + ",".join(m.value for m in kind) + "}")
            shown = shown.value
        group.add_argument(
            flag, dest=f.name, type=kind, default=f.default,
            help=f"{help_text} (default: {shown})", **meta,
        )


def _options(args: argparse.Namespace) -> ExecutionOptions:
    return ExecutionOptions(
        **{f.name: getattr(args, f.name) for f in dataclasses.fields(ExecutionOptions)}
    )


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    """The system's shape plus every executor option; shared by every
    command that runs queries."""
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
        "--initiator", default=None,
        help="node issuing the query (default: first storage node)",
    )
    parser.add_argument(
        "--replicas", type=int, default=1, metavar="R",
        help="location-table replication factor (Sect. III-D; default 1; "
             "failover needs R >= 2)",
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
    _add_execution_options(parser)


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


def _one_query_parser(prog: str, description: str) -> argparse.ArgumentParser:
    """A parser for a command that runs one query given positionally or
    by ``--query-file``."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument(
        "query", nargs="?", default=None,
        help="SPARQL query text (or use --query-file)",
    )
    parser.add_argument(
        "--query-file", metavar="FILE.rq", help="file containing the query"
    )
    _add_common_options(parser)
    return parser


def build_trace_parser() -> argparse.ArgumentParser:
    parser = _one_query_parser(
        "repro trace",
        "Execute one query with tracing enabled and render its message "
        "flow (Fig. 3) and per-phase costs.",
    )
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
    return _one_query_parser(
        "repro explain",
        "Execute one query and print its annotated physical operator "
        "plan: per-operator placement, estimated vs actual rows, and "
        "estimated vs actual wire bytes.",
    )


#: The fault flags whose non-zero value installs a fault plan.
_FAULT_RATES = (
    ("--loss", float, "P", "per-message drop probability on every link"),
    ("--duplicate", float, "P", "per-message duplication probability"),
    ("--delay", float, "P", "per-message delay-spike probability"),
    ("--partitions", int, "N",
     "asymmetric one-way link partitions between random node pairs"),
    ("--brownouts", int, "N",
     "random nodes browned out (compute and egress scaled) for the fault "
     "window"),
)


def _add_workload_options(parser: argparse.ArgumentParser) -> None:
    """Workload shape and fault plan of ``bench-load``."""
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
    faults = parser.add_argument_group(
        "fault injection",
        "a seeded message-level fault plan is installed only when a fault "
        "rate or count is non-zero",
    )
    for flag, kind, metavar, help_text in _FAULT_RATES:
        faults.add_argument(flag, type=kind, default=kind(0), metavar=metavar,
                            help=f"{help_text} (default 0)")
    faults.add_argument(
        "--chaos-seed", type=int, default=0,
        help="fault-plan seed (independent of the workload seed; "
             "default 0)",
    )
    faults.add_argument(
        "--delay-spike", type=float, default=0.05, metavar="SECS",
        help="delay-spike magnitude before jitter (default 0.05)",
    )
    faults.add_argument(
        "--brownout-factor", type=float, default=8.0, metavar="X",
        help="service-time multiplier for browned-out nodes (default 8)",
    )
    faults.add_argument(
        "--fault-start", type=float, default=0.0, metavar="SECS",
        help="simulated time the fault window opens (default 0)",
    )
    faults.add_argument(
        "--fault-window", type=float, default=60.0, metavar="SECS",
        help="length of the fault window (default 60)",
    )


def build_bench_load_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench-load",
        description="Drive a multi-query workload through one simulation, "
                    "optionally under a seeded fault plan, and report "
                    "throughput, tail latency, admission statistics and "
                    "the faults actually injected.",
    )
    _add_common_options(parser)
    _add_workload_options(parser)
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the full workload report (summary plus per-job "
             "timeline) to this JSON file",
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


def _load_system(args: argparse.Namespace) -> HybridSystem:
    if not args.data:
        raise SystemExit("error: at least one --data file is required")
    index_ids = [f"N{i}" for i in range(args.index_nodes)]
    owners = dict.fromkeys(index_ids, "an index node")
    paths = [pathlib.Path(p) for p in args.data]
    for path in paths:
        if not path.exists():
            raise SystemExit(f"error: no such data file: {path}")
        if path.stem in owners:
            raise SystemExit(
                f"error: {owners[path.stem]} and {path} would both be "
                f"node {path.stem!r}; rename one of them"
            )
        owners[path.stem] = str(path)
    system = HybridSystem(
        replication_factor=args.replicas,
        state_dir=args.state_dir,
        fsync=args.fsync,
        snapshot_every=args.snapshot_every,
    )
    for node_id in index_ids:
        system.add_index_node(node_id)
    system.build_ring()
    for path in paths:
        triples = list(parse_ntriples(path.read_text(encoding="utf-8")))
        system.add_storage_node(path.stem, triples)
    return system


def _query_text(args: argparse.Namespace) -> str:
    if args.query is not None and args.query_file is not None:
        raise SystemExit("error: give either a positional query or "
                         "--query-file, not both")
    if args.query is not None:
        return args.query
    if args.query_file is None:
        raise SystemExit("error: a query (positional) or --query-file is required")
    path = pathlib.Path(args.query_file)
    if not path.exists():
        raise SystemExit(f"error: no such query file: {path}")
    return path.read_text(encoding="utf-8")


def _query_main(args: argparse.Namespace) -> int:
    system = _load_system(args)
    executor = DistributedExecutor(system, _options(args))
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


def _trace_main(args: argparse.Namespace) -> int:
    from .trace import Tracer, render_phases, render_sequence, write_jsonl

    system = _load_system(args)
    tracer = Tracer()
    executor = DistributedExecutor(system, _options(args), tracer=tracer)
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


def _explain_main(args: argparse.Namespace) -> int:
    from .query.physical import format_plan

    system = _load_system(args)
    executor = DistributedExecutor(system, _options(args))
    _, report = executor.execute(_query_text(args), initiator=args.initiator)
    print(format_plan(report.plan))
    print(
        f"# totals: {report.result_count} results, {report.messages} "
        f"messages, {report.bytes_total} bytes, "
        f"{report.response_time * 1000:.1f} ms simulated "
        f"(plan={args.plan_mode})"
    )
    return 0


def _workload_setup(args: argparse.Namespace):
    """System + LoadConfig from parsed workload options; the config
    carries a fault plan only when some fault rate or count is set."""
    from .net.contention import ContentionModel
    from .net.faults import chaos_plan
    from .workloads.load import LoadConfig

    system = _load_system(args)
    if not args.no_contention:
        system.network.contention = ContentionModel()

    kwargs = {}
    if args.query:
        kwargs["queries"] = [(f"q{i}", q) for i, q in enumerate(args.query)]
    if args.initiator:
        kwargs["initiators"] = [args.initiator]
    rates = {flag[2:]: getattr(args, flag[2:]) for flag, *_ in _FAULT_RATES}
    if any(rates.values()):
        kwargs["faults"] = chaos_plan(
            sorted(system.network.nodes),
            seed=args.chaos_seed,
            start=args.fault_start,
            window=args.fault_window,
            delay_spike=args.delay_spike,
            brownout_factor=args.brownout_factor,
            **rates,
        )
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


def _bench_load_main(args: argparse.Namespace) -> int:
    from .workloads.load import run_workload

    system, config = _workload_setup(args)
    report = run_workload(system, config, _options(args))

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
    if config.faults is not None:
        injected = ", ".join(
            f"{kind}={n}" for kind, n in sorted(report.faults_injected.items())
        ) or "none"
        print(
            f"# chaos seed={args.chaos_seed} rules={len(config.faults.rules)} "
            f"incomplete={report.incomplete} injected: {injected}"
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
        if config.faults is not None:
            payload["fault_plan"] = config.faults.as_dict()
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"# wrote workload report to {path}")
    return 0


def _checkpoint_main(args: argparse.Namespace) -> int:
    from .storage import recover_system

    system, report = recover_system(args.state_dir)
    done = system.checkpoint()
    print(
        f"# recovered {len(report['index'])} index nodes and "
        f"{len(report['storage'])} storage nodes from {args.state_dir}"
    )
    for node_id in sorted(done):
        print(f"# snapshot {node_id} @ lsn {done[node_id]}")
    return 0


def _recover_main(args: argparse.Namespace) -> int:
    from .storage import recover_system

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


#: Subcommand -> (parser, runner); without one, argv is a single query.
_COMMANDS = {
    "trace": (build_trace_parser, _trace_main),
    "explain": (build_explain_parser, _explain_main),
    "bench-load": (build_bench_load_parser, _bench_load_main),
    "checkpoint": (build_checkpoint_parser, _checkpoint_main),
    "recover": (build_recover_parser, _recover_main),
}


def parse_args(
    argv: Sequence[str],
) -> Tuple[Callable[[argparse.Namespace], int], argparse.Namespace]:
    """Parse *argv* with its subcommand's parser, without running it.

    Execution options that fail :class:`ExecutionOptions`' range checks
    are usage errors (exit 2), like any other bad argument."""
    argv = list(argv)
    build, run = build_parser, _query_main
    if argv and argv[0] in _COMMANDS:
        build, run = _COMMANDS[argv.pop(0)]
    parser = build()
    args = parser.parse_args(argv)
    if hasattr(args, "plan_mode"):
        try:
            _options(args)
        except ValueError as exc:
            parser.error(str(exc))
    return run, args


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command. A query the system refuses or cannot finish (a
    GRAPH pattern, a FROM dataset, unreachable sites) is a one-line
    ``error:`` with exit status 1."""
    run, args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return run(args)
    except QueryFailed as exc:
        raise SystemExit(f"error: {exc}") from None


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
