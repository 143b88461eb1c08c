"""CLI tests: N-Triples-file providers, query forms, options, errors."""

import dataclasses
import enum
import json
import pathlib
import shlex

import pytest

from repro import cli
from repro.cli import main, parse_args
from repro.query import (
    ConjunctionMode,
    ExecutionOptions,
    JoinSitePolicy,
    PrimitiveStrategy,
)
from repro.rdf import serialize_ntriples
from repro.workloads import paper_example_partition


@pytest.fixture
def data_files(tmp_path):
    paths = []
    for storage_id, triples in paper_example_partition().items():
        path = tmp_path / f"{storage_id}.nt"
        path.write_text(serialize_ntriples(triples), encoding="utf-8")
        paths.append(str(path))
    return paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: Parser and minimal argv of every command that runs queries.
COMMANDS = {
    "query": (cli.build_parser, ["--query", "ASK {}"]),
    "trace": (cli.build_trace_parser, ["trace"]),
    "explain": (cli.build_explain_parser, ["explain"]),
    "bench-load": (cli.build_bench_load_parser, ["bench-load"]),
}


def _non_default(f, flag):
    """A value other than the field's default, and the words that set it."""
    if isinstance(f.default, bool):
        return not f.default, [flag]
    if isinstance(f.default, enum.Enum):
        value = next(m for m in type(f.default) if m != f.default)
        return value, [flag, value.value]
    if "choices" in f.metadata:
        value = next(c for c in f.metadata["choices"] if c != f.default)
        return value, [flag, value]
    if isinstance(f.default, int):
        value = f.default + 3
    else:
        # A float every range check accepts: half the default, or 0.5.
        value = (f.default or 1.0) / 2
    return value, [flag, str(value)]


#: Option values outside their ranges, and the error each must give.
OUT_OF_RANGE = [
    (["--time-weight", "1.5"], "time_weight must lie in [0, 1]"),
    (["--time-weight", "-0.1"], "time_weight must lie in [0, 1]"),
    (["--retries", "-1"], "retries must be >= 0"),
    (["--backoff", "-0.1"], "backoff must be >= 0"),
    (["--per-attempt-timeout", "-1"], "per_attempt_timeout must be > 0"),
    (["--per-attempt-timeout", "0"], "per_attempt_timeout must be > 0"),
    (["--query-deadline", "-5"], "query_deadline must be > 0"),
    (["--query-deadline", "0"], "query_deadline must be > 0"),
    (["--breaker-latency", "-1"], "breaker_latency must be > 0"),
    (["--breaker-latency", "0"], "breaker_latency must be > 0"),
]

PREFIXED = (
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
    "PREFIX ns: <http://example.org/ns#> "
)


class TestCli:
    def test_select_query(self, data_files, capsys):
        code, out, _ = run_cli(
            capsys,
            *[arg for f in data_files for arg in ("--data", f)],
            "--query", PREFIXED + "SELECT ?x WHERE { ?x foaf:knows ns:me . }",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "?x"
        assert len(lines) == 3  # header + carl + gina
        assert any("carl" in line for line in lines)

    def test_ask_query(self, data_files, capsys):
        code, out, _ = run_cli(
            capsys,
            "--data", data_files[0], "--data", data_files[1],
            "--query", PREFIXED + "ASK { ?x foaf:knows ?y . }",
        )
        assert code == 0 and out.strip() == "yes"

    def test_construct_query_prints_ntriples(self, data_files, capsys):
        code, out, _ = run_cli(
            capsys,
            *[arg for f in data_files for arg in ("--data", f)],
            "--query", PREFIXED +
            "CONSTRUCT { ?x ns:knownBy ns:me . } WHERE { ?x foaf:knows ns:me . }",
        )
        assert code == 0
        assert out.count("knownBy") == 2

    def test_report_flag(self, data_files, capsys):
        code, out, err = run_cli(
            capsys,
            *[arg for f in data_files for arg in ("--data", f)],
            "--query", PREFIXED + "SELECT ?x WHERE { ?x foaf:knows ns:me . }",
            "--report", "--plan", "cost",
        )
        assert code == 0
        assert "messages" in err and "bytes" in err

    def test_query_file(self, data_files, tmp_path, capsys):
        qfile = tmp_path / "q.rq"
        qfile.write_text(PREFIXED + "SELECT ?x WHERE { ?x foaf:nick ?n . }")
        code, out, _ = run_cli(
            capsys,
            *[arg for f in data_files for arg in ("--data", f)],
            "--query-file", str(qfile),
        )
        assert code == 0 and "erik" in out

    def test_missing_data_file_errors(self, capsys):
        with pytest.raises(SystemExit, match="no such data file"):
            main(["--data", "/nonexistent.nt", "--query", "ASK { ?s ?p ?o . }"])

    def test_no_data_errors(self):
        with pytest.raises(SystemExit, match="at least one"):
            main(["--query", "ASK { ?s ?p ?o . }"])

    def test_duplicate_data_stems_error(self, data_files, tmp_path):
        text = pathlib.Path(data_files[0]).read_text(encoding="utf-8")
        paths = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            paths.append(tmp_path / sub / "x.nt")
            paths[-1].write_text(text, encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["--data", str(paths[0]), "--data", str(paths[1]),
                  "--query", "ASK { ?s ?p ?o . }"])
        message = str(exc.value)
        assert message.startswith("error:")
        assert str(paths[0]) in message and str(paths[1]) in message

    @pytest.mark.parametrize("command", [["--query"], ["explain"]],
                             ids=["query", "explain"])
    @pytest.mark.parametrize("query, message", [
        ("SELECT ?x WHERE { GRAPH ?g { ?x foaf:knows ?y . } }",
         "GRAPH patterns address named graphs"),
        ("SELECT ?x FROM <http://example.org/g> WHERE { ?x foaf:knows ?y . }",
         "FROM / FROM NAMED datasets are not addressable"),
    ], ids=["graph", "from"])
    def test_refused_query_is_a_one_line_error(self, data_files, command,
                                               query, message):
        """A query the system refuses exits 1 with an ``error:`` line,
        like the other CLI errors, not a traceback."""
        with pytest.raises(SystemExit) as exc:
            main([*command, PREFIXED + query,
                  *[arg for f in data_files for arg in ("--data", f)]])
        text = str(exc.value)
        assert text.startswith("error: ") and message in text
        assert "\n" not in text

    def test_data_stem_naming_an_index_node_errors(self, data_files, tmp_path):
        path = tmp_path / "N0.nt"
        path.write_text(pathlib.Path(data_files[0]).read_text(encoding="utf-8"),
                        encoding="utf-8")
        with pytest.raises(SystemExit, match="error: an index node and .*N0.nt"):
            main(["--data", str(path), "--query", "ASK { ?s ?p ?o . }"])

    def test_bare_flags_build_default_options(self):
        """Every executor default the CLI shows is ExecutionOptions'."""
        for _, argv in COMMANDS.values():
            _, args = parse_args(argv)
            assert cli._options(args) == ExecutionOptions()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_each_option_has_exactly_one_flag(self, command):
        """A non-default value of every field, given by its one flag, parses
        to ExecutionOptions(field=value)."""
        build, argv = COMMANDS[command]
        parser = build()
        for f in dataclasses.fields(ExecutionOptions):
            actions = [a for a in parser._actions if a.dest == f.name]
            assert len(actions) == 1 and len(actions[0].option_strings) == 1, f.name
            flag = actions[0].option_strings[0]
            value, words = _non_default(f, flag)
            _, args = parse_args(argv + words)
            assert cli._options(args) == ExecutionOptions(**{f.name: value}), flag

    def test_kept_flag_spellings(self):
        _, args = parse_args([
            "--query", "ASK {}", "--strategy", "basic", "--conjunction",
            "basic", "--join-site", "third-site", "--plan", "cost",
            "--no-optimize", "--no-dict-encoding",
        ])
        assert cli._options(args) == ExecutionOptions(
            primitive_strategy=PrimitiveStrategy.BASIC,
            conjunction_mode=ConjunctionMode.BASIC,
            join_site_policy=JoinSitePolicy.THIRD_SITE,
            plan_mode="cost", optimize=False, dictionary_encoding=False,
        )

    @pytest.mark.parametrize("words", [
        ["--hedge"],
        ["--cache-bytes", "1"],
        ["--semijoin-min-rows", "1"],
        ["--dedup-prior", "0.9"],
        ["--delivery-timeout", "1"],
        ["--cache-admit-threshold", "1"],
    ])
    def test_removed_flags_are_usage_errors(self, words, capsys):
        """Hedged reads are gone and the cache budget, the semijoin
        threshold, the duplication prior, the delivery timeout and the
        cache admission gate are constants: their flags are unknown
        arguments, not silently ignored."""
        with pytest.raises(SystemExit) as exc:
            parse_args(["--query", "ASK {}", *words])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_adaptive_strategy_is_a_usage_error(self, capsys):
        """The Sect. V planner is ``--plan cost``; the run-time ADAPTIVE
        strategy is gone."""
        with pytest.raises(SystemExit) as exc:
            parse_args(["--query", "ASK {}", "--strategy", "adaptive"])
        assert exc.value.code == 2
        assert "invalid PrimitiveStrategy value" in capsys.readouterr().err

    @pytest.mark.parametrize("words,message", OUT_OF_RANGE,
                             ids=[" ".join(words) for words, _ in OUT_OF_RANGE])
    def test_out_of_range_options_are_usage_errors(self, words, message,
                                                   capsys):
        """A value outside an option's range fails while parsing, before
        any system is built, instead of mid-query with a traceback."""
        with pytest.raises(SystemExit) as exc:
            parse_args(["--query", "ASK {}", *words])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_strategy_choices_enforced(self, data_files):
        with pytest.raises(SystemExit):
            main(["--data", data_files[0], "--query", "ASK { ?s ?p ?o . }",
                  "--strategy", "bogus"])


class TestDurabilityCli:
    QUERY = PREFIXED + "SELECT ?x WHERE { ?x foaf:knows ns:me . }"

    def seed_state(self, capsys, data_files, tmp_path):
        state = tmp_path / "state"
        code, out, _ = run_cli(
            capsys,
            *[arg for f in data_files for arg in ("--data", f)],
            "--query", self.QUERY, "--state-dir", str(state),
        )
        assert code == 0
        return state, out

    def test_recover_answers_original_query(self, data_files, tmp_path, capsys):
        state, original = self.seed_state(capsys, data_files, tmp_path)
        code, out, _ = run_cli(
            capsys, "recover", "--state-dir", str(state),
            "--query", self.QUERY,
        )
        assert code == 0
        assert "# query ok: 2 results" in out
        assert "# node | snapshot lsn | records replayed | torn truncated" in out
        # One report row per persisted node (8 index + 4 storage).
        assert sum(1 for line in out.splitlines()
                   if line.startswith("# D") or line.startswith("# N")) == 12

    def test_checkpoint_compacts_then_recover_replays_nothing(
        self, data_files, tmp_path, capsys
    ):
        state, _ = self.seed_state(capsys, data_files, tmp_path)
        code, out, _ = run_cli(capsys, "checkpoint", "--state-dir", str(state))
        assert code == 0 and out.count("# snapshot") == 12

        code, out, _ = run_cli(capsys, "recover", "--state-dir", str(state))
        assert code == 0
        replayed = [
            int(line.split("|")[2]) for line in out.splitlines()
            if line.count("|") == 3 and not line.startswith("# node")
        ]
        assert replayed and all(n == 0 for n in replayed)

    def test_recover_missing_state_dir_fails(self, tmp_path, capsys):
        with pytest.raises(Exception):
            main(["recover", "--state-dir", str(tmp_path / "absent")])

    def test_bench_load_json_report(self, data_files, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "bench-load",
            *[arg for f in data_files for arg in ("--data", f)],
            "--num-queries", "6", "--concurrency", "2",
            "--json", str(out_path),
        )
        assert code == 0
        assert f"# wrote workload report to {out_path}" in out
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["jobs"] == 6
        assert len(payload["job_details"]) == 6
        job = payload["job_details"][0]
        assert {"job_id", "label", "latency", "ok", "results"} <= set(job)
        assert all(j["ok"] for j in payload["job_details"])

    def test_bench_load_reports_wall_clock(self, data_files, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "bench-load",
            *[arg for f in data_files for arg in ("--data", f)],
            "--num-queries", "4", "--concurrency", "2",
            "--json", str(out_path),
        )
        assert code == 0
        assert "# wall clock:" in out
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["wall_clock_s"] > 0.0
        assert payload["queries_per_wall_second"] > 0.0

    def test_bench_load_fault_flags_install_a_plan(self, data_files, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "bench-load",
            *[arg for f in data_files for arg in ("--data", f)],
            "--replicas", "2", "--num-queries", "12", "--concurrency", "4",
            "--loss", "0.05", "--retries", "2", "--failover",
            "--json", str(out_path),
        )
        assert code == 0
        chaos = next(line for line in out.splitlines()
                     if line.startswith("# chaos seed=0 rules=1"))
        assert "loss=" in chaos.split("injected:")[1]
        assert "# defense: " in out and "retries=" in out
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert [r["kind"] for r in payload["fault_plan"]["rules"]] == ["loss"]
        assert payload["faults_injected"]["loss"] > 0

    def test_bench_load_without_fault_flags_installs_nothing(self, data_files):
        from repro.workloads.load import run_workload

        _, args = parse_args([
            "bench-load", *[arg for f in data_files for arg in ("--data", f)],
            "--num-queries", "4",
        ])
        system, config = cli._workload_setup(args)
        assert config.faults is None
        report = run_workload(system, config, cli._options(args))
        assert system.network.faults is None
        assert report.faults_injected == {}


def _documented_invocations():
    """Every ``python ... -m repro ...`` command line in the CLI docstring
    and the README, continuation lines joined, as (source, argv) pairs."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    sources = {"cli": cli.__doc__, "README": readme.read_text(encoding="utf-8")}
    for source, text in sources.items():
        lines = iter(text.splitlines())
        for line in lines:
            command = line.strip().removeprefix("$ ")
            if not command.startswith("python") or "-m repro" not in command:
                continue
            while True:
                if command.endswith("\\"):
                    command = command[:-1] + next(lines)
                    continue
                try:
                    words = shlex.split(command, comments=True)
                except ValueError:  # a quoted argument continues
                    command += "\n" + next(lines)
                    continue
                break
            start = next(i for i in range(len(words) - 1)
                         if words[i:i + 2] == ["-m", "repro"])
            yield source, words[start + 2:]


DOCUMENTED = list(_documented_invocations())


def test_docs_show_every_command():
    shown = {argv[0] if argv[0] in cli._COMMANDS else "query"
             for _, argv in DOCUMENTED}
    assert shown == {"query", *cli._COMMANDS}


@pytest.mark.parametrize(
    "argv", [argv for _, argv in DOCUMENTED],
    ids=[f"{source}:{' '.join(argv)[:40]}" for source, argv in DOCUMENTED],
)
def test_documented_invocation_parses(argv):
    run, args = parse_args(argv)
    assert callable(run) and args is not None
