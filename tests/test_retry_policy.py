"""Retry budgets, backoff, and deadline propagation (PR 6 tentpole).

The paper's failure detection is the RPC timeout itself (Sect. III-D);
``RetryPolicy`` turns that detection into recovery.  These tests pin the
properties everything else relies on: the backoff schedule is a pure
function of (seed, call key, attempt); only timeouts are retried; a
deadline bounds the whole call including retries; and — the big one —
enabling retries on a healthy system changes *nothing* on the wire.
"""

import pytest

from repro.net import Network, Node, RemoteError, RetryPolicy, RpcTimeout
from repro.query import (
    DistributedExecutor, ExecutionOptions, QueryDeadlineExceeded, QueryFailed,
)

from helpers import build_system, declare

KNOWS_QUERY = "SELECT ?x ?y WHERE { ?x foaf:knows ?y . }"


class TestBackoffSchedule:
    def test_first_attempt_is_free(self):
        policy = RetryPolicy()
        assert policy.backoff_before(1) == 0.0
        assert policy.backoff_before(0) == 0.0

    def test_pure_exponential_without_jitter(self):
        policy = RetryPolicy(base_backoff=0.1, multiplier=2.0,
                             max_backoff=0.5, jitter=0.0)
        assert policy.backoff_before(2) == pytest.approx(0.1)
        assert policy.backoff_before(3) == pytest.approx(0.2)
        assert policy.backoff_before(4) == pytest.approx(0.4)
        # Capped, not unbounded growth.
        assert policy.backoff_before(5) == pytest.approx(0.5)
        assert policy.backoff_before(9) == pytest.approx(0.5)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_backoff=0.1, multiplier=2.0, jitter=0.5,
                             seed=42)
        for attempt in (2, 3, 4):
            raw = 0.1 * 2.0 ** (attempt - 2)
            d1 = policy.backoff_before(attempt, key="a>b.ping")
            d2 = policy.backoff_before(attempt, key="a>b.ping")
            assert d1 == d2, "same (seed, key, attempt) must replay exactly"
            assert raw * 0.5 <= d1 <= raw * 1.5

    def test_jitter_varies_by_key_and_seed(self):
        policy = RetryPolicy(jitter=0.5, seed=0)
        assert (policy.backoff_before(2, key="a>b.ping")
                != policy.backoff_before(2, key="a>c.ping"))
        other_seed = RetryPolicy(jitter=0.5, seed=1)
        assert (policy.backoff_before(2, key="a>b.ping")
                != other_seed.backoff_before(2, key="a>b.ping"))


class _Echo(Node):
    def rpc_ping(self, payload, src):
        return payload["n"]

    def rpc_boom(self, payload, src):
        raise RuntimeError("handler exploded")


@pytest.fixture(autouse=True)
def boom_method(monkeypatch):
    declare(monkeypatch, "boom")


def _net():
    network = Network()
    network.register(_Echo("a"))
    network.register(_Echo("b"))
    return network


def _call(network, method, payload, timeout=None, policy=None):
    def proc():
        value = yield network.call("a", "b", method, payload, timeout,
                                   retry=policy)
        return value

    return network.sim.run_process(proc())


class TestNetworkRetry:
    def test_no_retry_by_default(self):
        network = _net()
        network.fail_node("b")
        with pytest.raises(RpcTimeout):
            _call(network, "ping", {"n": 1}, timeout=0.1)
        assert network.failover.retries == 0

    def test_retry_recovers_from_transient_failure(self):
        network = _net()
        network.fail_node("b")
        # Back up before the second attempt launches (timeout 0.1 +
        # backoff 0.05), so attempt 2 lands on a live node.
        network.sim.timeout(0.12).callbacks.append(
            lambda _e: network.recover_node("b"))
        policy = RetryPolicy(attempts=3, base_backoff=0.05, jitter=0.0,
                             per_attempt_timeout=0.1)
        value = _call(network, "ping", {"n": 7}, policy=policy)
        assert value == 7
        assert network.failover.retries == 1
        assert network.failover.retries_recovered == 1

    def test_budget_exhaustion_surfaces_the_timeout(self):
        network = _net()
        network.fail_node("b")
        policy = RetryPolicy(attempts=2, base_backoff=0.01, jitter=0.0,
                             per_attempt_timeout=0.05)
        with pytest.raises(RpcTimeout):
            _call(network, "ping", {"n": 1}, policy=policy)
        assert network.failover.retries == 1
        assert network.failover.retries_recovered == 0

    def test_remote_errors_are_never_retried(self):
        network = _net()
        policy = RetryPolicy(attempts=5, base_backoff=0.01)
        with pytest.raises(RemoteError):
            _call(network, "boom", {}, policy=policy)
        assert network.failover.retries == 0

    def test_deadline_bounds_the_whole_call(self):
        network = _net()
        network.fail_node("b")
        policy = RetryPolicy(attempts=50, base_backoff=0.05, jitter=0.0,
                             per_attempt_timeout=0.1)

        def proc():
            value = yield network.call(
                "a", "b", "ping", {"n": 1}, retry=policy,
                deadline=network.sim.now + 0.25)
            return value

        with pytest.raises(RpcTimeout):
            network.sim.run_process(proc())
        assert network.failover.deadline_exhausted >= 1
        # The 50-attempt budget never ran: the deadline cut it short.
        assert network.failover.retries < 5
        assert network.sim.now <= 0.3


class TestExecutorIntegration:
    def test_retries_enabled_is_byte_identical_when_healthy(self):
        """The acceptance bar: a no-fault run with retries on matches the
        classic run message for message, byte for byte."""
        plain_sys = build_system()
        plain, plain_report = DistributedExecutor(plain_sys).execute(
            KNOWS_QUERY, initiator="D1")

        retry_sys = build_system()
        options = ExecutionOptions(retries=2, backoff=0.05)
        wrapped, retry_report = DistributedExecutor(retry_sys, options).execute(
            KNOWS_QUERY, initiator="D1")

        assert wrapped.rows == plain.rows
        assert retry_report.messages == plain_report.messages
        assert retry_report.bytes_total == plain_report.bytes_total
        assert retry_report.response_time == plain_report.response_time
        assert retry_sys.network.failover.retries == 0

    def test_generous_deadline_does_not_change_answers(self):
        plain, _ = DistributedExecutor(build_system()).execute(
            KNOWS_QUERY, initiator="D1")
        system = build_system()
        result, _ = DistributedExecutor(
            system, ExecutionOptions(query_deadline=100.0)
        ).execute(KNOWS_QUERY, initiator="D1")
        assert result.rows == plain.rows
        assert system.network.failover.deadline_exhausted == 0

    def test_impossible_deadline_fails_cleanly(self):
        system = build_system()
        executor = DistributedExecutor(
            system, ExecutionOptions(query_deadline=0.001, retries=3))
        with pytest.raises(QueryFailed):
            executor.execute(KNOWS_QUERY, initiator="D1")
        assert system.network.failover.deadline_exhausted >= 1

    def test_deadline_mid_query_raises_the_typed_error(self):
        """A deadline that expires between steps surfaces as
        QueryDeadlineExceeded from the executor's own clamp."""
        system = build_system()
        # Long enough for the first lookup round-trips, far too short for
        # the full pipeline (the healthy run takes ~0.1+ s simulated).
        executor = DistributedExecutor(
            system, ExecutionOptions(query_deadline=0.045))
        with pytest.raises((QueryDeadlineExceeded, QueryFailed)) as excinfo:
            executor.execute(KNOWS_QUERY, initiator="D1")
        # The budget ran out either at the initiator (typed error, counted)
        # or inside a remote fan-out (the index node's clamp raises and the
        # error message names the deadline) — never as a silent partial
        # answer.
        assert (system.network.failover.deadline_exhausted >= 1
                or "deadline" in str(excinfo.value))
