"""Distributed executor tests: correctness against the local oracle over
the union dataset, for every strategy combination and query family."""

import itertools

import pytest

from repro.query import (
    ConjunctionMode,
    DistributedExecutor,
    ExecutionOptions,
    JoinSitePolicy,
    PrimitiveStrategy,
    QueryFailed,
)
from repro.overlay import fail_storage_node
from repro.rdf import COMMON_PREFIXES, Graph, PatternShape
from repro.sparql import evaluate_query, parse_query
from repro.workloads import QueryWorkload

from helpers import build_system



def assert_matches_oracle(system, query_text, initiator="D1", **options):
    query = parse_query(query_text, COMMON_PREFIXES)
    oracle = evaluate_query(query, system.union_graph())
    executor = DistributedExecutor(system, **options)
    result, report = executor.execute(query_text, initiator=initiator)
    if oracle.boolean is not None:
        assert result.boolean == oracle.boolean
    elif oracle.graph is not None:
        assert result.graph == oracle.graph
    else:
        assert result.rows == oracle.rows
    return result, report


QUERIES = {
    "primitive_sPo": "SELECT ?x ?y WHERE { ?x foaf:knows ?y . }",
    "primitive_SPo": "SELECT ?y WHERE { <http://example.org/people/anna> foaf:knows ?y . }",
    "primitive_spO": "SELECT ?x ?p WHERE { ?x ?p <http://example.org/people/carl> . }",
    "conjunction": """SELECT ?x ?y ?z WHERE {
        ?x foaf:knows ?z . ?x ns:knowsNothingAbout ?y . }""",
    "three_pattern": """SELECT * WHERE {
        ?x foaf:name ?n . ?x foaf:knows ?y . ?y foaf:nick ?k . }""",
    "optional": """SELECT * WHERE {
        ?x foaf:name ?n . OPTIONAL { ?x foaf:nick ?k . } }""",
    "union": """SELECT ?x WHERE {
        { ?x foaf:mbox <mailto:abc@example.org> . } UNION { ?x foaf:name "Smith" . } }""",
    "filter": """SELECT * WHERE {
        ?x foaf:name ?n . FILTER regex(?n, "Smith") }""",
    "filter_conjunction": """SELECT * WHERE {
        ?x foaf:name ?n ; foaf:knows ?y . FILTER regex(?n, "Smith") }""",
    "fig9": """SELECT ?x ?y ?z WHERE {
        ?x foaf:name ?name ; ns:knowsNothingAbout ?y .
        FILTER regex(?name, "Smith")
        OPTIONAL { ?y foaf:knows ?z . } }""",
    "order_limit": "SELECT ?x WHERE { ?x foaf:knows ?y . } ORDER BY DESC(?x) LIMIT 3",
    "distinct": "SELECT DISTINCT ?x WHERE { ?x foaf:knows ?y . }",
}


class TestCorrectnessAgainstOracle:
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_default_options(self, paper_system, name):
        assert_matches_oracle(paper_system, QUERIES[name])

    @pytest.mark.parametrize("strategy", PrimitiveStrategy)
    def test_primitive_strategies(self, paper_system, strategy):
        assert_matches_oracle(
            paper_system, QUERIES["primitive_sPo"], primitive_strategy=strategy
        )

    def test_cost_planner_strategy(self, paper_system):
        assert_matches_oracle(
            paper_system, QUERIES["primitive_sPo"], plan_mode="cost"
        )

    @pytest.mark.parametrize("mode", ConjunctionMode)
    def test_conjunction_modes(self, paper_system, mode):
        assert_matches_oracle(
            paper_system, QUERIES["conjunction"], conjunction_mode=mode
        )

    @pytest.mark.parametrize("policy", JoinSitePolicy)
    def test_join_site_policies(self, paper_system, policy):
        assert_matches_oracle(
            paper_system, QUERIES["optional"], join_site_policy=policy
        )

    def test_unoptimized_matches_too(self, paper_system):
        assert_matches_oracle(paper_system, QUERIES["fig9"], optimize=False)

    def test_full_scan_broadcast(self, paper_system):
        result, report = assert_matches_oracle(
            paper_system, "SELECT * WHERE { ?s ?p ?o . }"
        )
        assert any("broadcast" in n for n in report.notes)

    def test_broadcast_with_a_crashed_node(self):
        """A storage node that does not answer the broadcast fails the
        query, or under partial results flags the rows the others sent."""
        system = build_system()
        fail_storage_node(system, "D2")
        scan = "SELECT * WHERE { ?s ?p ?o . }"
        with pytest.raises(QueryFailed):
            DistributedExecutor(system).execute(scan, initiator="D1")
        result, report = DistributedExecutor(
            system, ExecutionOptions(partial_results=True)).execute(
                scan, initiator="D1")
        live = Graph()
        for node in system.storage_nodes.values():
            if node.node_id != "D2":
                live.update(iter(node.graph))
        oracle = evaluate_query(parse_query(scan, COMMON_PREFIXES), live)
        assert report.incomplete
        assert sorted(map(repr, result.rows)) == sorted(map(repr, oracle.rows))

    def test_ask_and_construct(self, paper_system):
        assert_matches_oracle(paper_system, "ASK { ?x foaf:nick ?n . }")
        assert_matches_oracle(
            paper_system,
            "CONSTRUCT { ?x ns:knownBy ns:me . } WHERE { ?x foaf:knows ns:me . }",
        )

    def test_initiator_can_be_index_node(self, paper_system):
        assert_matches_oracle(paper_system, QUERIES["primitive_sPo"], initiator="N0")

    def test_every_storage_node_can_initiate(self, paper_system):
        for storage_id in paper_system.storage_nodes:
            assert_matches_oracle(
                paper_system, QUERIES["primitive_SPo"], initiator=storage_id
            )


class TestRandomizedWorkloads:
    def test_foaf_system_all_strategies(self, foaf_system):
        wl = QueryWorkload(list(foaf_system.union_graph()), seed=13)
        queries = [wl.primitive(shape) for shape in PatternShape]
        queries += [wl.conjunction(2), wl.optional(), wl.union(), wl.filtered()]
        combos = [
            dict(primitive_strategy=strategy, conjunction_mode=mode)
            for strategy, mode in itertools.product(PrimitiveStrategy,
                                                    ConjunctionMode)
        ]
        # The cost planner pins every leaf's strategy and every walk's
        # mode itself, so it runs once, not per fixed setting.
        combos.append(dict(plan_mode="cost"))
        for options in combos:
            for q in queries:
                assert_matches_oracle(foaf_system, q, initiator="D0",
                                      **options)


class TestReports:
    def test_report_counts_traffic(self, paper_system):
        _, report = assert_matches_oracle(paper_system, QUERIES["primitive_sPo"])
        assert report.messages > 0
        assert report.bytes_total > 0
        assert report.response_time > 0

    def test_reports_are_per_query(self, paper_system):
        executor = DistributedExecutor(paper_system)
        _, r1 = executor.execute(QUERIES["primitive_sPo"], initiator="D1")
        _, r2 = executor.execute(QUERIES["primitive_SPo"], initiator="D1")
        # the second, more selective query must not inherit the first's bytes
        assert r2.bytes_total < r1.bytes_total

    def test_result_count_set(self, paper_system):
        result, report = assert_matches_oracle(paper_system, QUERIES["distinct"])
        assert report.result_count == len(result.rows)

    def test_result_count_select_empty(self, paper_system):
        executor = DistributedExecutor(paper_system)
        result, report = executor.execute(
            "SELECT ?x WHERE { ?x foaf:knows <http://example.org/people/nobody> . }",
            initiator="D1")
        assert result.rows == []
        assert report.result_count == 0

    def test_result_count_ask(self, paper_system):
        executor = DistributedExecutor(paper_system)
        _, yes = executor.execute("ASK { ?x foaf:knows ?y . }", initiator="D1")
        assert yes.result_count == 1
        result, no = executor.execute(
            "ASK { ?x foaf:knows <http://example.org/people/nobody> . }",
            initiator="D1")
        assert result.boolean is False
        assert no.result_count == 0

    def test_result_count_construct(self, paper_system):
        executor = DistributedExecutor(paper_system)
        result, report = executor.execute(
            "CONSTRUCT { ?x ns:knownBy ns:me . } WHERE { ?x foaf:knows ns:me . }",
            initiator="D1")
        assert report.result_count == len(result.graph) == 2
        # Empty CONSTRUCT counts zero triples, not a phantom row.
        result, report = executor.execute(
            "CONSTRUCT { ?x ns:y ns:z . } WHERE "
            "{ ?x foaf:knows <http://example.org/people/nobody> . }",
            initiator="D1")
        assert report.result_count == len(result.graph) == 0

    def test_result_count_describe(self, paper_system):
        executor = DistributedExecutor(paper_system)
        result, report = executor.execute(
            "DESCRIBE <http://example.org/people/anna>", initiator="D1")
        assert result.graph is not None
        assert report.result_count == len(result.graph) > 0

    def test_mailboxes_drained_after_query(self, paper_system):
        executor = DistributedExecutor(paper_system)
        executor.execute(QUERIES["fig9"], initiator="D1")
        executor.execute(QUERIES["conjunction"], initiator="D1")
        for node in list(paper_system.storage_nodes.values()) + list(
            paper_system.index_nodes.values()
        ):
            assert node.mailbox == {}, f"{node.node_id} leaked {node.mailbox}"


class TestErrors:
    def test_unknown_initiator(self, paper_system):
        executor = DistributedExecutor(paper_system)
        with pytest.raises(Exception):
            executor.execute("SELECT ?x WHERE { ?x foaf:knows ?y . }", initiator="ghost")

    def test_options_and_overrides_exclusive(self, paper_system):
        with pytest.raises(ValueError):
            DistributedExecutor(
                paper_system, ExecutionOptions(), optimize=False
            )

    def test_from_clause_rejected_distributedly(self, paper_system):
        """Sect. IV-A: the ad-hoc dataset is always the union of all
        providers; FROM cannot be honored and must fail loudly."""
        executor = DistributedExecutor(paper_system)
        with pytest.raises(QueryFailed, match="union of all"):
            executor.execute(
                "SELECT ?x FROM <http://g/1> WHERE { ?x foaf:knows ?y . }",
                initiator="D1",
            )

    def test_graph_pattern_rejected_distributedly(self, paper_system):
        """The plan compiler refuses GRAPH (the dataset has no named
        graphs) before the query sends a message or takes a query slot,
        under either planner."""
        peer = paper_system.storage_nodes["D1"]
        for plan_mode, where in itertools.product(("legacy", "cost"), (
                "GRAPH <http://g> { ?x foaf:knows ?y . }",
                "GRAPH ?g { ?x foaf:knows ?y . }",
                "?x foaf:name ?n . GRAPH ?g { ?x foaf:knows ?y . }")):
            executor = DistributedExecutor(paper_system, plan_mode=plan_mode)
            messages = paper_system.stats.messages
            with pytest.raises(QueryFailed, match="named graphs"):
                executor.execute(f"SELECT ?x WHERE {{ {where} }}",
                                 initiator="D1")
            assert paper_system.stats.messages == messages, (plan_mode, where)
            slot = peer.acquire_query_slot()
            peer.release_query_slot(slot)
            assert slot == 0, (plan_mode, where)
