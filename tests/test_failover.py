"""Replica failover in the query path (PR 6 satellites 1–3).

Covers the three repair mechanisms around Sect. III-D's successor-list
replication:

* promotion re-replication — a replica row promoted on takeover is
  pushed to the new owner's *own* successors at once, so a second
  failure doesn't silently lose it;
* coalesced-lookup coherence — a waiter on another process's in-flight
  index consultation looks at the memo again on wake and re-resolves
  when the entry's stamp is no longer current (instead of consuming a
  stale owner), and a failed filler never strands its entry;
* graceful-departure sweep — handing a location table to the heir also
  drops the stale third-party replica copies and re-replicates from the
  heir, so no future takeover can promote outdated rows.
"""

from collections import Counter

import pytest

from repro.net import RpcError
from repro.overlay import depart_index_node, fail_index_node, key_for_pattern
from repro.query import DistributedExecutor, ExecutionOptions
from repro.query.executor import ExecutionContext, ExecutionReport, QueryFailed
from repro.rdf import FOAF, TriplePattern, Variable

from helpers import build_system, foaf_ring, oracle_rows
from test_churn_under_load import KNOWS_QUERY, KNOWS_WALK, fail_at, knows_owner
from test_lifecycle_leaks import CLEAN, live_heap, peer_state

X, Y = Variable("x"), Variable("y")
KNOWS_PATTERN = TriplePattern(X, FOAF.knows, Y)

FAILOVER = ExecutionOptions(failover=True, retries=1, backoff=0.02)


def baseline_rows(initiator="D1", query=KNOWS_QUERY):
    result, _ = DistributedExecutor(build_system()).execute(
        query, initiator=initiator)
    return result.rows


class TestPromotionReReplication:
    """Satellite 1: a promoted replica row regains its replica count."""

    def test_double_failure_still_answers(self):
        # The heir's row is read by an ``index_lookup`` here (a walk reads
        # its row to plan), and by the heir itself, which serves the
        # sub-query sent straight to it, below.
        self.check_double_failure(KNOWS_WALK)

    def test_double_failure_still_answers_when_the_owner_reads(self):
        self.check_double_failure(KNOWS_QUERY)

    def check_double_failure(self, query):
        expected = baseline_rows(query=query)
        system = build_system(replication_factor=2)
        victim = knows_owner(system)

        # First failure: the ring stabilizes, the heir serves the key from
        # its replica row — and promotion pushes fresh copies downstream.
        fail_index_node(system, victim)
        initiator = next(
            sid for sid, node in sorted(system.storage_nodes.items())
            if node.alive and system.index_nodes[node.index_node_id].alive
        )
        result, _ = DistributedExecutor(system).execute(
            query, initiator=initiator)
        assert result.rows == expected
        assert system.network.failover.promotions_rereplicated >= 1

        # Second failure: the promoted owner dies too.  Only the re-
        # replication above kept a copy alive — without it this query
        # would return an empty (wrong) answer.
        heir = knows_owner(system)
        assert heir != victim
        fail_index_node(system, heir)
        initiator = next(
            sid for sid, node in sorted(system.storage_nodes.items())
            if node.alive and system.index_nodes[node.index_node_id].alive
        )
        result, _ = DistributedExecutor(system).execute(
            query, initiator=initiator)
        assert result.rows == expected
        assert system.network.failover.promotions_rereplicated >= 2


class TestLookupFailover:
    """Tentpole: a timed-out row read re-routes to the replica holder."""

    def test_lookup_failover_mid_flight(self):
        expected = baseline_rows()
        system = build_system(replication_factor=2)
        victim = knows_owner(system)
        initiators = [
            sid for sid, node in sorted(system.storage_nodes.items())
            if node.index_node_id != victim
        ]
        # Crash WITHOUT stabilizing: fingers still route to the corpse, so
        # recovery must come from the avoid-hint re-resolution.
        fail_at(system, victim, 0.001)
        result, report = DistributedExecutor(system, FAILOVER).execute(
            KNOWS_QUERY, initiator=initiators[0])
        assert result.rows == expected
        counters = system.network.failover
        assert counters.lookup_failovers + counters.dispatch_failovers >= 1
        assert peer_state(system) == CLEAN
        assert live_heap(system.sim) == []


class TestNoReplicaHolder:
    """At ``replication_factor`` 1 a dead owner's ring successor holds no
    copy of its rows. Failing over there would read its empty row as the
    answer; the query must instead flag the leaf or fail."""

    @pytest.mark.parametrize("plan_mode", ["legacy", "cost"])
    @pytest.mark.parametrize("query", [KNOWS_QUERY, KNOWS_WALK],
                             ids=["dispatch", "walk"])
    def test_dead_owner_is_flagged_never_silently_empty(self, plan_mode,
                                                        query):
        system = foaf_ring(150)
        assert system.replication_factor == 1
        expected = oracle_rows(system, query)
        victim = knows_owner(system)
        initiator = next(sid for sid, node in sorted(system.storage_nodes.items())
                         if node.index_node_id != victim)
        system.network.fail_node(victim)
        options = ExecutionOptions(failover=True, partial_results=True,
                                   plan_mode=plan_mode)
        try:
            result, report = DistributedExecutor(system, options).execute(
                query, initiator=initiator)
        except QueryFailed:
            return
        assert expected and report.incomplete and report.dropped_patterns
        assert all(row in expected for row in result.rows)
        assert system.network.failover.dispatch_failovers == 0


class TestCoalescedLookups:
    """Satellite 2: waiters on an in-flight consultation stay coherent."""

    def _context(self, system, options=None, initiator="D1"):
        return ExecutionContext(
            system, initiator, options or ExecutionOptions(),
            ExecutionReport(), Counter())

    def test_waiters_coalesce_on_one_consultation(self):
        system = build_system(replication_factor=2)
        ctx = self._context(system)
        sim = system.sim
        p1 = sim.process(ctx.locate(KNOWS_PATTERN))
        p2 = sim.process(ctx.locate(KNOWS_PATTERN))
        sim.run()
        info1, info2 = p1.value, p2.value
        assert info1.owner == info2.owner == knows_owner(system)
        assert ctx.report.lookup_cache_misses == 1
        assert ctx.report.lookup_cache_hits == 1

    def _in_flight(self, ctx, system):
        """Plant the memo entry of a consultation in flight for the knows
        key, stamped now, and start a waiter that must block on it."""
        located = key_for_pattern(KNOWS_PATTERN, system.space)
        stamp = system.network.data_epochs.stamp((located[1],))
        done = system.sim.event()
        ctx._lookup_cache[located] = (stamp, done, None)
        waiter = system.sim.process(ctx.locate(KNOWS_PATTERN))
        return located, stamp, done, waiter

    def _fill_bogus(self, ctx, located, stamp, done, waiter):
        """What the filler does when its consultation returns: install
        its row — here a bogus owner — under its stamp, wake waiters."""
        assert not waiter.triggered, "the waiter must block on the entry"
        ctx._lookup_cache[located] = (stamp, done, ("N-bogus", ()))
        done.succeed()

    def test_waiter_revalidates_epoch_on_wake(self):
        """A waiter woken by a consultation that raced a membership
        change must re-resolve instead of consuming the stale owner."""
        system = build_system(replication_factor=2)
        ctx = self._context(system)
        located, stamp, done, waiter = self._in_flight(ctx, system)

        def churn_then_fill(_e):
            system.network.fail_node("D4")
            system.network.recover_node("D4")
            self._fill_bogus(ctx, located, stamp, done, waiter)

        system.sim.timeout(0.0).callbacks.append(churn_then_fill)
        system.sim.run()
        # The bogus row was rejected; the waiter resolved for itself
        # under the live view and its row replaced the stale entry.
        assert waiter.value.owner == knows_owner(system)
        assert ctx.report.lookup_cache_misses == 1
        assert ctx.report.lookup_cache_hits == 0
        assert ctx._lookup_cache[located][2][0] == knows_owner(system)

    def test_waiter_revalidates_data_epoch_on_wake(self):
        """PR 9 satellite: a delta published while a consultation was in
        flight must not let coalesced waiters consume the pre-delta row —
        the entry's stamp predates the delta, so a waiter re-resolves."""
        system = build_system(replication_factor=2)
        ctx = self._context(system)
        located, stamp, done, waiter = self._in_flight(ctx, system)

        def delta_then_fill(_e):
            system.network.data_epochs.advance(located[1])
            self._fill_bogus(ctx, located, stamp, done, waiter)

        system.sim.timeout(0.0).callbacks.append(delta_then_fill)
        system.sim.run()
        assert waiter.value.owner == knows_owner(system)
        assert ctx.report.lookup_cache_misses == 1
        assert ctx.report.lookup_cache_hits == 0

    def test_waiter_consumes_a_current_fill(self):
        """The control for the two races above: with no change between
        stamp and wake, the waiter takes the filler's row as a hit."""
        system = build_system(replication_factor=2)
        ctx = self._context(system)
        located, stamp, done, waiter = self._in_flight(ctx, system)
        system.sim.timeout(0.0).callbacks.append(
            lambda _e: self._fill_bogus(ctx, located, stamp, done, waiter))
        system.sim.run()
        assert waiter.value.owner == "N-bogus"
        assert ctx.report.lookup_cache_misses == 0
        assert ctx.report.lookup_cache_hits == 1

    def test_done_entry_dropped_after_delta(self):
        """A cached done consultation goes stale the moment the key's
        data epoch advances (a publish/unpublish touched the pattern):
        the next locate re-consults instead of reusing the row."""
        system = build_system()
        ctx = self._context(system)
        sim = system.sim
        p1 = sim.process(ctx.locate(KNOWS_PATTERN))
        sim.run()
        located = key_for_pattern(KNOWS_PATTERN, system.space)
        first_stamp = ctx._lookup_cache[located][0]
        system.network.data_epochs.advance(located[1])
        p2 = sim.process(ctx.locate(KNOWS_PATTERN))
        sim.run()
        assert p2.value.owner == p1.value.owner == knows_owner(system)
        assert ctx.report.lookup_cache_misses == 2
        assert ctx.report.lookup_cache_hits == 0
        # The stale entry was replaced by the re-consultation's, done and
        # stamped under the advanced epoch.
        stamp, done, row = ctx._lookup_cache[located]
        assert done.triggered and row[0] == knows_owner(system)
        assert stamp != first_stamp
        assert system.network.data_epochs.current(stamp)

    def test_row_consulted_across_a_crash_is_not_reused(self):
        """A consultation in flight when a node crashes is stamped with
        the old membership: a sibling locate that runs after the crash
        must not make its row current again, so the next locate of the
        key is a miss."""
        system = build_system(replication_factor=2)
        ctx = self._context(system)
        sim = system.sim
        name = TriplePattern(X, FOAF.name, Y)
        first = sim.process(ctx.locate(KNOWS_PATTERN))

        def crash_and_locate(_e):
            assert not first.triggered, "knows must still be in flight"
            system.network.fail_node("D4")
            sim.process(ctx.locate(name))

        sim.timeout(0.001).callbacks.append(crash_and_locate)
        sim.run()
        third = sim.process(ctx.locate(KNOWS_PATTERN))
        sim.run()
        assert third.value.owner == first.value.owner == knows_owner(system)
        assert ctx.report.lookup_cache_hits == 0
        assert ctx.report.lookup_cache_misses == 3

    def test_failed_filler_does_not_strand_waiters(self):
        """The filler's lookup dies; the waiter re-resolves on its own
        and the in-flight entry is evicted, not left to dangle."""
        system = build_system(replication_factor=1)
        victim = knows_owner(system)
        ctx = self._context(system)
        sim = system.sim
        sim.timeout(0.001).callbacks.append(
            lambda _e: system.network.fail_node(victim))
        p1 = sim.process(ctx.locate(KNOWS_PATTERN))
        p2 = sim.process(ctx.locate(KNOWS_PATTERN))
        ended = {}
        p1.callbacks.append(lambda _e: ended.setdefault("filler", sim.now))
        p2.callbacks.append(lambda _e: ended.setdefault("waiter", sim.now))
        sim.run()
        # rf=1, no failover: both consultations fail — but each fails on
        # its OWN attempt (the waiter retried rather than inheriting, so
        # it fails a whole consultation later).
        assert isinstance(p1.failure, RpcError)
        assert isinstance(p2.failure, RpcError)
        assert ended["waiter"] > ended["filler"]
        key = key_for_pattern(KNOWS_PATTERN, system.space)
        assert ctx._lookup_cache.get(key) is None


class TestDepartureSweep:
    """Satellite 3: graceful departure leaves no stale replica copies."""

    def test_depart_sweeps_and_rereplicates(self):
        system = build_system(replication_factor=2)
        victim_id = knows_owner(system)
        victim = system.index_nodes[victim_id]
        moved = sorted(key for key, _row in victim.table.export_range())
        assert moved, "the test needs a victim with a non-empty table"
        heir_id = victim.successor.node_id

        depart_index_node(system, victim_id)

        heir = system.index_nodes[heir_id]
        assert system.network.failover.replica_rows_swept >= 1
        # The heir's stale replica copies of the moved rows are gone …
        for key in moved:
            assert not heir.replicas.row_dict(key), (
                f"stale replica row for key {key} survived the sweep")
        # … and the rows are re-replicated from their new primary, so the
        # moved keys are exactly as crash-tolerant as they were before.
        replica_holder = system.index_nodes[heir.successor_list[0].node_id]
        for key in moved:
            if heir.owns(key):
                assert replica_holder.replicas.row_dict(key) or \
                    replica_holder.table.row_dict(key)

    def test_query_after_departure_and_crash(self):
        """End to end: depart the owner, then crash the heir — the swept
        + re-replicated rows still answer the query."""
        expected = baseline_rows()
        system = build_system(replication_factor=2)
        victim = knows_owner(system)
        depart_index_node(system, victim)
        heir = knows_owner(system)
        fail_index_node(system, heir)
        initiator = next(
            sid for sid, node in sorted(system.storage_nodes.items())
            if node.alive and system.index_nodes[node.index_node_id].alive
        )
        result, _ = DistributedExecutor(system).execute(
            KNOWS_QUERY, initiator=initiator)
        assert result.rows == expected
