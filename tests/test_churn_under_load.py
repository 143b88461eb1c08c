"""Churn under concurrent load (PR 3 satellite).

An index node crashes while a multi-query workload is in flight.  The
required behavior: only the queries that actually needed the dead node
fail — each with a clean :class:`QueryFailed` — while unaffected jobs
complete normally, nothing hangs, and the simulation ends with every
peer's correlation state empty and the event heap drained (the
``test_lifecycle_leaks`` invariants).
"""

from repro.overlay import key_for_pattern
from repro.query import DistributedExecutor
from repro.rdf import FOAF, TriplePattern, Variable
from repro.workloads import LoadConfig, run_workload

from helpers import build_system
from test_lifecycle_leaks import CLEAN, live_heap, peer_state

X, Y = Variable("x"), Variable("y")
KNOWS_QUERY = "SELECT ?x ?y WHERE { ?x foaf:knows ?y . }"
#: Two leaves on the knows key: a walk, which reads the row
#: (``index_lookup``) to plan, once for both leaves; KNOWS_QUERY sends its
#: sub-query to the owner, which reads the row itself.
KNOWS_WALK = "SELECT ?x ?y ?z WHERE { ?x foaf:knows ?y . ?y foaf:knows ?z . }"
NAME_QUERY = 'SELECT ?x WHERE { ?x foaf:name "Smith" . }'


def knows_owner(system) -> str:
    """The index node that owns the ``foaf:knows`` predicate key."""
    _, key = key_for_pattern(TriplePattern(X, FOAF.knows, Y), system.space)
    return system.ring.owner_of(key).node_id


def fail_at(system, node_id: str, when: float) -> None:
    """Crash *node_id* at simulated time *when*, mid-run (no eager
    stabilization — recovery is the lazy, timeout-driven path)."""
    system.sim.timeout(when).callbacks.append(
        lambda _e: system.network.fail_node(node_id))


class TestIndexNodeChurn:
    def test_mid_workload_failure_is_contained(self):
        system = build_system()
        victim = knows_owner(system)
        # Initiate only from peers NOT attached to the victim, so the
        # only path through the dead node is the knows-key lookup itself
        # (queries from a peer whose attached index node dies fail
        # wholesale, which is correct but not what this test isolates).
        initiators = tuple(
            sid for sid, node in sorted(system.storage_nodes.items())
            if node.index_node_id != victim
        )
        config = LoadConfig(
            queries=[("knows", KNOWS_QUERY), ("name", NAME_QUERY)],
            initiators=initiators,
            mode="closed",
            concurrency=4,
            num_queries=16,
            seed=7,
        )
        fail_at(system, victim, 0.05)
        report = run_workload(system, config)

        # Nothing hangs: every job finished one way or the other.
        assert report.completed + report.failed == len(report.jobs)
        assert all(j.finished is not None for j in report.jobs)
        # The dead index node took out the knows-queries (it owns that
        # predicate key) — each as a clean QueryFailed...
        failed = [j for j in report.jobs if j.error is not None]
        assert failed, "the crashed owner should fail at least one query"
        for job in failed:
            assert job.label == "knows"
            assert "distributed execution failed" in job.error
        # ...and ONLY the knows-queries: every job that didn't need the
        # dead node completed normally.
        assert all(j.ok for j in report.jobs if j.label == "name")
        # Clean shutdown: no leaked mailboxes, expectations, or events.
        assert peer_state(system) == CLEAN
        assert live_heap(system.sim) == []

    def test_queries_before_failure_unaffected(self):
        """Jobs that complete before the crash match the healthy system's
        answers bit for bit."""
        healthy = build_system()
        baseline, _ = DistributedExecutor(healthy).execute(
            KNOWS_QUERY, initiator="D1")

        system = build_system()
        victim = knows_owner(system)
        fail_at(system, victim, 10.0)  # far after the workload drains
        config = LoadConfig(
            queries=[("knows", KNOWS_QUERY)],
            mode="closed", concurrency=2, num_queries=6, seed=1,
        )
        report = run_workload(system, config)
        assert report.failed == 0
        for job in report.jobs:
            assert job.result.rows == baseline.rows

    def test_system_stays_usable_after_churn(self):
        """After the dust settles the surviving ring still answers
        queries that avoid the lost rows."""
        system = build_system()
        victim = knows_owner(system)
        config = LoadConfig(
            queries=[("knows", KNOWS_QUERY)],
            mode="closed", concurrency=4, num_queries=8, seed=3,
        )
        fail_at(system, victim, 0.02)
        run_workload(system, config)
        system.ring.stabilize(3)
        result, _ = DistributedExecutor(system).execute(
            NAME_QUERY, initiator="D1")
        assert len(result.rows) >= 1
        assert peer_state(system) == CLEAN
        assert live_heap(system.sim) == []
