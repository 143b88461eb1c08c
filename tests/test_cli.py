"""CLI tests: N-Triples-file providers, query forms, options, errors."""

import json

import pytest

from repro.cli import _build_options, build_parser, build_trace_parser, main
from repro.query import ExecutionOptions
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
            "--report", "--strategy", "adaptive",
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

    def test_bare_flags_build_default_options(self):
        """Every executor default the CLI shows is ExecutionOptions'."""
        for args in (build_parser().parse_args(["--query", "ASK {}"]),
                     build_trace_parser().parse_args([])):
            assert _build_options(args) == ExecutionOptions()

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

    def test_profile_prints_hot_functions(self, data_files, tmp_path, capsys):
        stats_path = tmp_path / "profile.pstats"
        code, out, _ = run_cli(
            capsys, "profile",
            *[arg for f in data_files for arg in ("--data", f)],
            "--num-queries", "4", "--concurrency", "2",
            "--top", "5", "--stats-out", str(stats_path),
        )
        assert code == 0
        assert "# wall clock:" in out
        assert "cumulative" in out  # the pstats table header
        assert "ncalls" in out
        assert stats_path.exists() and stats_path.stat().st_size > 0
