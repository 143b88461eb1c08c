"""The query phase does not depend on the simulated clock's origin.

Set-up leaves the clock wherever publication happened to finish; the
timed run starts from there. Idling the system for any offset before
the run must leave messages, bytes and outcomes identical and shift no
job's latency, so a change to set-up's simulated duration can never move
a query-phase number.
"""

import pytest

from repro.chord import IdentifierSpace
from repro.net import ContentionModel
from repro.overlay import HybridSystem
from repro.query import ExecutionOptions
from repro.workloads import (
    ChurnEvent,
    FoafConfig,
    LoadConfig,
    generate_foaf_triples,
    paper_example_dataset,
    paper_query_mix,
    partition_triples,
    run_workload,
)

OFFSETS = (0.0, 2.637856, 1234.5678)

JOIN_QUERIES = (
    ("e2", "SELECT ?x ?z ?k WHERE { ?x foaf:knows ?z . ?x foaf:nick ?k . }"),
    ("foaf-path",
     "SELECT DISTINCT ?k WHERE { ?x foaf:knows ?y . ?y foaf:nick ?k . }"),
)

#: Small twins of the benchmark's workload shapes:
#: (options, load keywords, protocol publication, contention, rf, crash).
CONFIGS = {
    "fig_mix": (ExecutionOptions(plan_mode="cost"), {}, True, True, 1, False),
    "join_ship": (ExecutionOptions(semijoin=True, projection_pushdown=True,
                                   dictionary_encoding=True),
                  {"queries": JOIN_QUERIES, "concurrency": 8},
                  True, True, 1, False),
    "zipf_cache_mutate": (ExecutionOptions(result_cache=True),
                          {"zipf_s": 1.2, "mutation_rate": 0.1,
                           "concurrency": 1}, True, True, 1, False),
    "crash_failover": (ExecutionOptions(retries=2, backoff=0.05,
                                        failover=True, breaker=True),
                       {}, False, False, 2, True),
}


def run_after_idling(name, offset):
    options, load, protocol, contention, rf, crash = CONFIGS[name]
    triples = paper_example_dataset() + generate_foaf_triples(
        FoafConfig(num_people=24, knows_per_person=3, nick_fraction=0.3,
                   seed=1))
    system = HybridSystem(space=IdentifierSpace(32), replication_factor=rf)
    for i in range(8):
        system.add_index_node(f"N{i}")
    system.build_ring()
    for i, part in enumerate(partition_triples(triples, 4, overlap=0.2,
                                               seed=1)):
        system.add_storage_node(f"D{i}", part, protocol=protocol)
    if contention:
        system.network.contention = ContentionModel()
    start = system.sim.now
    assert system.sim.run(until=start + offset) == start + offset
    config = LoadConfig(
        queries=load.get("queries", tuple(paper_query_mix())),
        initiators=tuple(sorted(system.storage_nodes)),
        concurrency=load.get("concurrency", 4),
        num_queries=30,
        seed=7,
        zipf_s=load.get("zipf_s", 0.0),
        mutation_rate=load.get("mutation_rate", 0.0),
        churn=(ChurnEvent(0.3, "crash", "N2"),) if crash else (),
    )
    return run_workload(system, config, options)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_idle_offset_before_the_run_changes_nothing(name):
    reports = [run_after_idling(name, offset) for offset in OFFSETS]
    base = reports[0]
    assert base.completed > 0
    for report in reports[1:]:
        assert (report.messages, report.bytes_total, report.completed,
                report.failed, report.mutations) == (
            base.messages, base.bytes_total, base.completed, base.failed,
            base.mutations)
        assert report.failover == base.failover
        assert report.cache == base.cache
        for job, ref in zip(report.jobs, base.jobs):
            assert (job.label, job.ok, job.error) == (ref.label, ref.ok,
                                                      ref.error)
            if ref.ok:
                assert job.latency == pytest.approx(ref.latency, abs=1e-9)
                if ref.result is not None:
                    assert sorted(map(repr, job.result.rows)) == sorted(
                        map(repr, ref.result.rows))
