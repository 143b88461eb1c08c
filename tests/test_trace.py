"""Tracing subsystem tests: phase accounting, determinism, rendering,
JSONL export, zero-overhead-off, and the trace CLI subcommand."""

import json

import pytest

from repro.cli import main
from repro.net.protocol import PROTOCOL
from repro.query import ConjunctionMode, DistributedExecutor
from repro.query.physical import BGPWalk, walk_plan
from repro.rdf import serialize_ntriples
from repro.trace import (
    NULL_TRACER,
    PHASES,
    PHASE_FINALIZE,
    PHASE_JOIN,
    PHASE_LOOKUP,
    PHASE_SHIP,
    Tracer,
    render_phases,
    render_sequence,
    render_spans,
    to_jsonl,
)
from repro.workloads import paper_example_partition

from helpers import build_system

FIG6 = """SELECT ?x ?y ?z WHERE {
    ?x foaf:knows ?z . ?x ns:knowsNothingAbout ?y . }"""

FIG5 = "SELECT ?x WHERE { ?x foaf:knows ns:me . }"


def traced_run(query=FIG6, **options):
    system = build_system()
    tracer = Tracer()
    executor = DistributedExecutor(system, tracer=tracer, **options)
    result, report = executor.execute(query, initiator="D1")
    return system, tracer, result, report


class TestPhaseAccounting:
    def test_phase_bytes_partition_bytes_total(self):
        """Fig. 6 conjunctive query: per-phase byte totals sum exactly to
        the report's bytes_total (the ISSUE acceptance criterion)."""
        _, _, _, report = traced_run()
        assert report.bytes_total > 0
        assert sum(p.bytes for p in report.phases.values()) == report.bytes_total
        assert sum(p.messages for p in report.phases.values()) == report.messages

    def test_all_four_phases_present(self):
        _, _, _, report = traced_run()
        assert set(report.phases) == set(PHASES)
        # A conjunctive query exercises every stage of the workflow.
        assert report.phase_bytes(PHASE_LOOKUP) > 0
        assert report.phase_bytes(PHASE_SHIP) > 0
        assert report.phase_bytes(PHASE_JOIN) > 0
        assert report.phase_bytes(PHASE_FINALIZE) > 0

    def test_reused_tracer_windows_per_query(self):
        """Running two queries through one tracer: the second report's
        phases cover only the second query."""
        system = build_system()
        tracer = Tracer()
        executor = DistributedExecutor(system, tracer=tracer)
        _, first = executor.execute(FIG5, initiator="D1")
        _, second = executor.execute(FIG5, initiator="D1")
        assert sum(p.bytes for p in second.phases.values()) == second.bytes_total
        assert tracer.bytes_total == first.bytes_total + second.bytes_total

    def test_replies_charged_to_their_methods_phase(self):
        """A reply or error message counts toward its method's declared
        phase (the whole table is pinned in test_protocol.py)."""
        _, tracer, _, _ = traced_run()
        seen = set()
        for event in tracer.message_events():
            method = event.name.split(".", 1)[0]
            assert event.phase == PROTOCOL[method].phase, event
            seen.add(event.name)
        assert {"combine.reply", "fetch.reply", "execute_primitive.reply"} <= seen

    def test_site_bytes_sum_to_total(self):
        _, tracer, _, report = traced_run()
        assert sum(tracer.site_bytes.values()) == report.bytes_total


class TestDeterminism:
    def test_rendered_diagram_byte_identical(self):
        """Two fresh, identically-built systems produce byte-identical
        sequence diagrams and JSONL dumps."""
        _, t1, _, _ = traced_run()
        _, t2, _, _ = traced_run()
        assert render_sequence(t1) == render_sequence(t2)
        assert to_jsonl(t1) == to_jsonl(t2)

    def test_tracing_off_changes_nothing(self):
        """With tracing disabled the simulated time and transmission
        totals are identical to the traced run (zero observer effect)."""
        system_plain = build_system()
        _, plain = DistributedExecutor(system_plain).execute(FIG6, initiator="D1")
        _, _, _, traced = traced_run()
        assert plain.bytes_total == traced.bytes_total
        assert plain.messages == traced.messages
        assert plain.response_time == traced.response_time
        assert plain.phases == {}
        assert plain.trace is None

    def test_untraced_simulator_keeps_null_tracer(self):
        system = build_system()
        assert system.sim.tracer is NULL_TRACER
        DistributedExecutor(system).execute(FIG5, initiator="D1")
        assert system.sim.tracer is NULL_TRACER

    def test_tracer_detached_after_query(self):
        system, _, _, _ = traced_run()
        assert system.sim.tracer is NULL_TRACER


class TestSpans:
    def test_operator_spans_recorded_and_closed(self):
        _, tracer, _, _ = traced_run()
        names = {start.name for start, _ in tracer.spans()}
        assert {"query", "conjunction", "lookup",
                "combine", "finalize"} <= names
        for start, end in tracer.spans():
            assert end is not None, f"span {start.name} never closed"
            assert end.time >= start.time

    def test_primitive_span_on_single_pattern(self):
        _, tracer, _, _ = traced_run(query=FIG5)
        names = {start.name for start, _ in tracer.spans()}
        assert "primitive" in names

    def test_conjunction_span_reports_executed_mode(self):
        """Under the cost planner the span carries the walk's pinned mode,
        not the configured --conjunction flag."""
        _, tracer, _, report = traced_run(
            plan_mode="cost", conjunction_mode=ConjunctionMode.BASIC)
        walks = [op for op in walk_plan(report.plan) if isinstance(op, BGPWalk)]
        spans = [start for start, _ in tracer.spans()
                 if start.name == "conjunction"]
        assert [s.detail["mode"] for s in spans] == \
               [w.detail["mode"] for w in walks] == ["optimized"]

    def test_span_closed_on_failure(self):
        system = build_system()
        tracer = Tracer()
        executor = DistributedExecutor(system, tracer=tracer)
        with pytest.raises(Exception):
            executor.execute("SELECT ?x FROM <http://g> WHERE { ?x ?p ?o . }",
                             initiator="D1")
        for start, end in tracer.spans():
            assert end is not None

    def test_null_tracer_span_is_noop(self):
        span = NULL_TRACER.span("anything", phase="join")
        with span:
            pass
        span.close()  # idempotent, records nothing
        assert NULL_TRACER.phase_breakdown() == {}


class TestExportAndRender:
    def test_jsonl_lines_parse_and_are_sorted(self):
        _, tracer, _, _ = traced_run()
        lines = to_jsonl(tracer).splitlines()
        assert len(lines) == len(tracer.events)
        for line in lines:
            record = json.loads(line)
            assert list(record) == sorted(record)
            assert "seq" in record and "kind" in record

    def test_write_jsonl_creates_parents(self, tmp_path):
        from repro.trace import write_jsonl

        _, tracer, _, _ = traced_run()
        path = write_jsonl(tracer, tmp_path / "deep" / "trace.jsonl")
        assert path.exists()
        assert len(path.read_text().splitlines()) == len(tracer.events)

    def test_sequence_diagram_shows_participants_and_arrows(self):
        _, tracer, _, _ = traced_run()
        text = render_sequence(tracer)
        assert "D1" in text.splitlines()[0]
        assert "find_successor" in text
        # Phase tags appear on arrows wide enough to carry the label.
        assert "[ship]" in text and "[finalize]" in text

    def test_sequence_diagram_max_events(self):
        _, tracer, _, _ = traced_run()
        text = render_sequence(tracer, max_events=3)
        assert "more messages" in text

    def test_empty_trace_renders(self):
        assert render_sequence(Tracer()) == "(no messages traced)\n"

    def test_phase_table_has_total_row(self):
        _, _, _, report = traced_run()
        table = render_phases(report.phases)
        assert "total" in table
        for phase in PHASES:
            assert phase in table

    def test_render_spans_lists_query_span(self):
        _, tracer, _, _ = traced_run()
        assert "query" in render_spans(tracer)


class TestTraceCli:
    @pytest.fixture
    def data_files(self, tmp_path):
        paths = []
        for storage_id, triples in paper_example_partition().items():
            path = tmp_path / f"{storage_id}.nt"
            path.write_text(serialize_ntriples(triples), encoding="utf-8")
            paths.append(str(path))
        return paths

    def test_trace_subcommand(self, data_files, tmp_path, capsys):
        out_path = tmp_path / "trace.jsonl"
        code = main([
            "trace",
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
            "PREFIX ns: <http://example.org/ns#> " + FIG6,
            *[arg for f in data_files for arg in ("--data", f)],
            "--jsonl", str(out_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "per-phase cost" in out
        assert "time(ms)" in out
        assert out_path.exists()

    def test_trace_subcommand_deterministic(self, data_files, capsys):
        argv = ["trace", "PREFIX foaf: <http://xmlns.com/foaf/0.1/> " + FIG5,
                *[arg for f in data_files for arg in ("--data", f)]]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_trace_requires_query(self, data_files):
        with pytest.raises(SystemExit, match="query"):
            main(["trace", "--data", data_files[0]])

    def test_trace_rejects_double_query(self, data_files, tmp_path):
        qfile = tmp_path / "q.rq"
        qfile.write_text(FIG5)
        with pytest.raises(SystemExit, match="not both"):
            main(["trace", FIG5, "--query-file", str(qfile),
                  "--data", data_files[0]])
