"""The physical-operator plan layer (PR 8).

* compilation: algebra -> the distributed engine's operator tree;
* execution annotation: placements, actual rows, actual bytes land on
  the operators both in legacy and cost mode;
* the frequency-driven cost planner: answers match the legacy engine on
  every Fig. 4-9 query, join order avoids Cartesian products, and the
  combine-site choice is byte-weighted;
* the ``repro explain`` CLI renders the annotated tree with est-vs-actual
  columns.
"""

from __future__ import annotations

import types

import pytest

from repro.cli import main
from repro.query import (
    DistributedExecutor,
    ExecutionOptions,
    compile_query_plan,
    walk_plan,
)
from repro.query.cost import (
    choose_combine_site,
    est_row_bytes,
    estimate_join_rows,
    order_walk_leaves,
)
from repro.query.physical import (
    BGPWalk,
    ChainShip,
    HashJoin,
    IndexLookup,
    Project,
    Ship,
    count_ops,
    execution_root,
    pattern_leaf,
)
from repro.query.plan import ResultHandle
from repro.rdf import COMMON_PREFIXES, serialize_ntriples
from repro.rdf.terms import Variable
from repro.sparql import evaluate_query, parse_query
from repro.sparql.algebra import translate_pattern
from repro.workloads import PAPER_FIG_QUERIES, paper_example_partition

from helpers import build_system

PREFIXED = (
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
    "PREFIX ns: <http://example.org/ns#> "
)


# ----------------------------------------------------------- compilation


def algebra_of(text: str):
    return translate_pattern(parse_query(PREFIXED + text).where)


class TestCompile:
    def test_distributed_compile_produces_walks_and_leaves(self):
        query = parse_query(PREFIXED + "SELECT ?x ?z WHERE { "
                            "?x foaf:knows ?y . ?y foaf:knows ?z . }")
        plan = compile_query_plan(query, algebra_of(
            "SELECT ?x ?z WHERE { ?x foaf:knows ?y . ?y foaf:knows ?z . }"),
            ExecutionOptions())
        root = execution_root(plan)
        assert isinstance(root, BGPWalk)
        assert all(isinstance(leaf, ChainShip) for leaf in root.children)
        assert all(isinstance(leaf.lookup, IndexLookup)
                   for leaf in root.children)
        # Modifier wrappers sit above the execution root.
        assert isinstance(plan, Project)
        assert count_ops(plan) >= 5

    def test_operator_ids_are_unique_and_dense(self):
        query = parse_query(PREFIXED + "SELECT ?x WHERE { "
                            "?x foaf:knows ?y . OPTIONAL { ?y foaf:name ?n . } }")
        plan = compile_query_plan(
            query, algebra_of("SELECT ?x WHERE { ?x foaf:knows ?y . "
                              "OPTIONAL { ?y foaf:name ?n . } }"),
            ExecutionOptions())
        ids = [op.op_id for op in walk_plan(plan)]
        assert sorted(ids) == list(range(len(ids)))


# ----------------------------------------------- execution annotations


class TestExecutionAnnotations:
    def run(self, text, **options):
        system = build_system()
        executor = DistributedExecutor(system, ExecutionOptions(**options))
        result, report = executor.execute(text, initiator="D1")
        return system, result, report

    def test_legacy_plan_carries_actuals(self):
        _, result, report = self.run(
            PREFIXED + "SELECT ?x ?z WHERE { ?x foaf:knows ?y . "
            "?y foaf:knows ?z . }")
        root = execution_root(report.plan)
        assert root.actual_rows is not None
        assert root.actual_bytes is not None and root.actual_bytes > 0
        assert root.placement is not None
        assert report.plan.actual_rows == report.result_count

    def test_legacy_mode_has_no_estimates_on_roots(self):
        _, _, report = self.run(
            PREFIXED + "SELECT ?x WHERE { ?x foaf:knows ?y . }")
        assert execution_root(report.plan).est_rows is None

    def test_cost_mode_fills_estimates(self):
        _, result, report = self.run(
            PREFIXED + "SELECT ?x ?z WHERE { ?x foaf:knows ?y . "
            "?y foaf:knows ?z . }",
            plan_mode="cost")
        root = execution_root(report.plan)
        assert root.est_rows is not None and root.est_rows > 0
        assert root.est_bytes is not None
        for leaf in root.children:
            assert leaf.est_rows is not None
            assert leaf.plan_strategy is not None

    def test_join_edges_record_shipping(self):
        _, _, report = self.run(
            PREFIXED + "SELECT ?x WHERE { ?x foaf:name ?n . "
            "FILTER regex(?n, \"a\") ?x foaf:knows ?y . }")
        joins = [op for op in walk_plan(report.plan)
                 if isinstance(op, HashJoin)]
        assert joins, "optimizer should split the filtered BGP into a join"
        for edge in joins[0].children:
            assert isinstance(edge, Ship)
            assert edge.placement is not None
            assert ("resident" in edge.detail) or ("shipped_from" in edge.detail)


# ------------------------------------------------------ cost planner


def stub_leaf(text_pattern, frequency):
    bgp = algebra_of(f"SELECT * WHERE {{ {text_pattern} }}")
    leaf = pattern_leaf(bgp.patterns[0])
    leaf.lookup.info = types.SimpleNamespace(total_frequency=frequency)
    leaf.est_rows = frequency
    return leaf


class TestCostModel:
    def test_est_row_bytes_grows_with_schema(self):
        assert est_row_bytes(1) < est_row_bytes(2) < est_row_bytes(5)
        assert est_row_bytes(0) == est_row_bytes(1)

    def test_estimate_join_rows(self):
        assert estimate_join_rows(10, 3, shared_vars=True) == 3
        assert estimate_join_rows(10, 3, shared_vars=False) == 30

    def test_choose_combine_site_is_byte_weighted(self):
        heavy = ResultHandle("D1", "c1", 100, frozenset({Variable("x")}))
        light = ResultHandle("D2", "c2", 3, frozenset({Variable("x")}))
        # The heavier side stays resident, whichever operand it is.
        assert choose_combine_site(heavy, light) == "D1"
        assert choose_combine_site(light, heavy) == "D1"
        # Few wide rows can outweigh many narrow rows.
        wide = ResultHandle("D3", "c3", 60,
                            frozenset(Variable(n) for n in "abcdefgh"))
        assert choose_combine_site(heavy, wide) == "D3"

    def test_order_walk_leaves_avoids_cartesian_products(self):
        walk = BGPWalk(leaves=[
            stub_leaf("?x <http://example.org/p0> ?y .", 5),
            stub_leaf("?z <http://example.org/p1> ?w .", 1),
            stub_leaf("?y <http://example.org/p2> ?z .", 10),
        ])
        ordered = order_walk_leaves(walk)
        assert len(ordered) == 3
        bound = set(ordered[0].lookup.pattern.variables())
        for leaf in ordered[1:]:
            leaf_vars = set(leaf.lookup.pattern.variables())
            assert bound & leaf_vars, "consecutive patterns must connect"
            bound |= leaf_vars

    def test_plan_mode_is_validated(self):
        with pytest.raises(ValueError):
            ExecutionOptions(plan_mode="bogus")


class TestCostModeAnswers:
    @pytest.mark.parametrize("name", sorted(PAPER_FIG_QUERIES))
    def test_cost_mode_matches_oracle_on_fig_queries(self, name):
        query_text = PAPER_FIG_QUERIES[name]
        system = build_system()
        oracle = evaluate_query(
            parse_query(query_text, COMMON_PREFIXES), system.union_graph())
        for mode in ("legacy", "cost"):
            system = build_system()
            executor = DistributedExecutor(
                system, ExecutionOptions(plan_mode=mode))
            result, report = executor.execute(query_text, initiator="D1")
            assert result.rows == oracle.rows, (name, mode)
            assert report.plan is not None
            assert count_ops(report.plan) > 0


# ------------------------------------------------------------- explain CLI


@pytest.fixture
def data_files(tmp_path):
    paths = []
    for storage_id, triples in paper_example_partition().items():
        path = tmp_path / f"{storage_id}.nt"
        path.write_text(serialize_ntriples(triples), encoding="utf-8")
        paths.append(str(path))
    return paths


class TestExplainCli:
    QUERY = (PREFIXED + "SELECT ?x ?z WHERE { ?x foaf:knows ?y . "
             "?y foaf:knows ?z . }")

    def run(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    def test_explain_renders_annotated_tree(self, data_files, capsys):
        code, out = self.run(
            capsys, "explain", self.QUERY,
            *[arg for f in data_files for arg in ("--data", f)])
        assert code == 0
        assert "# physical plan:" in out
        for column in ("operator", "site", "est rows", "actual rows",
                       "est bytes", "actual bytes"):
            assert column in out
        assert "BGPWalk" in out and "IndexLookup" in out
        assert "# totals:" in out and "plan=legacy" in out

    def test_explain_cost_mode_shows_estimates(self, data_files, capsys):
        code, out = self.run(
            capsys, "explain", self.QUERY, "--plan", "cost",
            *[arg for f in data_files for arg in ("--data", f)])
        assert code == 0 and "plan=cost" in out
        walk_line = next(line for line in out.splitlines() if "BGPWalk" in line)
        # In cost mode the walk row carries a numeric estimate.
        assert any(tok.isdigit() for tok in walk_line.split())
