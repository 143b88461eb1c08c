"""System-level property tests.

* **Oracle equivalence** — for randomized datasets, partitions, queries,
  and strategy settings, distributed execution returns exactly the local
  evaluation over the union of all provider graphs (the paper's dataset
  semantics, Sect. IV-A).
* **Determinism** — identical seeds produce identical traffic traces and
  results, the property every number in EXPERIMENTS.md rests on.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.net import LinkModel
from repro.query import (
    ConjunctionMode,
    DistributedExecutor,
    ExecutionOptions,
    JoinSitePolicy,
    PrimitiveStrategy,
)
from repro.query.physical import chain_leaves
from repro.rdf import COMMON_PREFIXES, BlankNode, PatternShape
from repro.sparql import evaluate_query, parse_query
from repro.trace import Tracer
from repro.workloads import (
    FoafConfig,
    QueryWorkload,
    generate_foaf_triples,
    partition_triples,
)

from helpers import build_system


#: A link slow enough (10 kB/s) that transfer time dominates latency on
#: 30-person data, so the cost planner's probe-first rule fires.
SLOW_LINK = LinkModel(latency=0.010, bandwidth=10_000.0)


def make_system(data_seed, num_providers, overlap, num_index=8, link=None):
    triples = generate_foaf_triples(
        FoafConfig(num_people=30, seed=data_seed)
    )
    parts = partition_triples(triples, num_providers, overlap=overlap,
                              seed=data_seed + 1)
    system = build_system(num_index=num_index, parts=parts)
    if link is not None:
        system.network.link = link
    return system, triples


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    data_seed=st.integers(0, 10_000),
    num_providers=st.integers(1, 6),
    overlap=st.sampled_from([0.0, 0.3, 0.8]),
    shape=st.sampled_from(list(PatternShape)),
    planner=st.sampled_from(
        [dict(primitive_strategy=s) for s in PrimitiveStrategy]
        + [dict(plan_mode="cost"), dict(plan_mode="cost", link=SLOW_LINK)]
    ),
    query_seed=st.integers(0, 1_000),
)
def test_property_primitive_queries_match_oracle(
    data_seed, num_providers, overlap, shape, planner, query_seed
):
    planner = dict(planner)
    system, triples = make_system(data_seed, num_providers, overlap,
                                  link=planner.pop("link", None))
    text = QueryWorkload(triples, seed=query_seed).primitive(shape)
    query = parse_query(text, COMMON_PREFIXES)
    oracle = evaluate_query(query, system.union_graph())
    executor = DistributedExecutor(system, ExecutionOptions(**planner))
    result, report = executor.execute(text, initiator="D0")
    assert result.rows == oracle.rows
    assert report.retries == 0  # healthy system: no fallbacks


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    data_seed=st.integers(0, 10_000),
    mode=st.sampled_from(list(ConjunctionMode)),
    policy=st.sampled_from(list(JoinSitePolicy)),
    family=st.sampled_from(["conjunction", "optional", "union", "filtered"]),
    query_seed=st.integers(0, 1_000),
)
def test_property_compound_queries_match_oracle(
    data_seed, mode, policy, family, query_seed
):
    system, triples = make_system(data_seed, num_providers=4, overlap=0.3)
    workload = QueryWorkload(triples, seed=query_seed)
    text = {
        "conjunction": lambda: workload.conjunction(2),
        "optional": workload.optional,
        "union": workload.union,
        "filtered": workload.filtered,
    }[family]()
    query = parse_query(text, COMMON_PREFIXES)
    oracle = evaluate_query(query, system.union_graph())
    executor = DistributedExecutor(system, ExecutionOptions(
        conjunction_mode=mode, join_site_policy=policy,
    ))
    result, _ = executor.execute(text, initiator="D0")
    assert result.rows == oracle.rows


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    data_seed=st.integers(0, 10_000),
    anchor=st.integers(0, 10_000),
    third=st.booleans(),
    semijoin=st.booleans(),
)
def test_property_probe_first_walks_match_oracle(
    data_seed, anchor, third, semijoin
):
    """The cost planner under a slow link on walks led by a grounded,
    selective pattern: probe-first fires on this small data, and its
    digests never drop a joinable row."""
    system, triples = make_system(data_seed, num_providers=4, overlap=0.3,
                                  link=SLOW_LINK)
    grounded = [t for t in triples if not isinstance(t.o, BlankNode)]
    t = grounded[anchor % len(grounded)]
    text = (f"SELECT * WHERE {{ ?x {t.p.n3()} {t.o.n3()} . "
            "?x foaf:knows ?y . "
            + ("?y foaf:name ?n . " if third else "") + "}")
    oracle = evaluate_query(parse_query(text, COMMON_PREFIXES),
                            system.union_graph())
    executor = DistributedExecutor(system, ExecutionOptions(
        plan_mode="cost", semijoin=semijoin))
    result, _ = executor.execute(text, initiator="D0")
    assert result.rows == oracle.rows


class TestDeterminism:
    QUERY = """SELECT ?x ?y ?z WHERE {
        ?x foaf:name ?name ; ns:knowsNothingAbout ?y .
        FILTER regex(?name, "Smith")
        OPTIONAL { ?y foaf:knows ?z . } }"""

    def run_once(self):
        system, _ = make_system(7, num_providers=4, overlap=0.3)
        tracer = Tracer()
        executor = DistributedExecutor(system, tracer=tracer)
        result, report = executor.execute(self.QUERY, initiator="D0")
        trace = [(e.src, e.dst, e.name, e.bytes, e.time)
                 for e in tracer.message_events()]
        # Publication ran untraced; the ledger's per-link totals cover it.
        links = dict(system.stats.per_link_bytes)
        return result.rows, report.bytes_total, report.response_time, trace, links

    def test_identical_runs_produce_identical_traces(self):
        first = self.run_once()
        second = self.run_once()
        assert first[0] == second[0]          # rows
        assert first[1] == second[1]          # bytes
        assert first[2] == second[2]          # simulated time
        assert first[3]                       # the trace saw the query
        assert first[3] == second[3]          # full message trace
        assert first[4] == second[4]          # per-link bytes, set-up included

    def test_adaptive_runs_are_deterministic_too(self):
        """The cost planner's per-leaf strategy choice is deterministic."""
        def run():
            system, _ = make_system(9, num_providers=5, overlap=0.2)
            executor = DistributedExecutor(system, ExecutionOptions(
                plan_mode="cost", time_weight=0.4,
            ))
            _, report = executor.execute(
                "SELECT ?a ?b WHERE { ?a foaf:knows ?b . }", initiator="D0")
            return (report.bytes_total, tuple(report.notes),
                    tuple(leaf.detail["strategy"]
                          for leaf in chain_leaves(report.plan)))

        assert run() == run()
