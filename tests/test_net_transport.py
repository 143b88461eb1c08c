"""Transport tests: RPC, one-way sends, failures, traffic accounting."""

import pytest

from repro.net import (
    HEADER_BYTES,
    LinkModel,
    Network,
    Node,
    NodeUnknown,
    RemoteError,
    RetryPolicy,
    RpcTimeout,
    SimError,
    size_of,
)
from repro.trace import Tracer

from helpers import declare


@pytest.fixture(autouse=True)
def test_methods(monkeypatch):
    """The methods the test nodes below serve."""
    declare(monkeypatch, "echo", "boom", "relay", "note", "die", "slow")


class EchoNode(Node):
    def rpc_echo(self, payload, src):
        return payload

    def rpc_boom(self, payload, src):
        raise ValueError("remote failure")

    def rpc_relay(self, payload, src):
        result = yield self.call(payload["via"], "echo", payload["data"])
        return result + "!"

    def rpc_note(self, payload, src):
        self.last_note = (payload, src)


@pytest.fixture
def net():
    network = Network(default_timeout=2.0)
    for name in ("a", "b", "c"):
        network.register(EchoNode(name))
    return network


def run(net, gen):
    return net.sim.run_process(gen)


class TestRpc:
    def test_round_trip(self, net):
        def proc():
            return (yield net.call("client", "a", "echo", "hello"))

        assert run(net, proc()) == "hello"

    def test_generator_handler_chains(self, net):
        def proc():
            return (yield net.call("client", "a", "relay", {"via": "b", "data": "x"}))

        assert run(net, proc()) == "x!"

    def test_remote_exception_becomes_remote_error(self, net):
        def proc():
            with pytest.raises(RemoteError, match="remote failure"):
                yield net.call("client", "a", "boom")
            return True

        assert run(net, proc())

    def test_missing_handler_is_remote_error(self, net):
        def proc():
            # A declared method the destination does not serve.
            with pytest.raises(RemoteError, match="no handler rpc_ping"):
                yield net.call("client", "a", "ping")
            return True

        assert run(net, proc())

    def test_unknown_destination_fails_fast(self, net):
        def proc():
            with pytest.raises(NodeUnknown):
                yield net.call("client", "ghost", "echo", "x")
            return net.sim.now

        assert run(net, proc()) < 0.5  # immediate, not a timeout

    @pytest.mark.parametrize("retry", [None, RetryPolicy()],
                             ids=["single", "retrying"])
    def test_negative_timeout_rejected(self, net, retry):
        """A deadline in the past is a caller bug, not an instant timeout."""
        with pytest.raises(SimError, match="negative"):
            net.call("client", "a", "echo", "x", timeout=-1, retry=retry)
        assert net.stats.messages == 0

    def test_dead_node_times_out(self, net):
        net.fail_node("b")

        def proc():
            with pytest.raises(RpcTimeout):
                yield net.call("client", "b", "echo", "x")
            return net.sim.now

        assert run(net, proc()) == pytest.approx(2.0)

    def test_node_dying_mid_call_times_out(self, net):
        class Dier(Node):
            def rpc_die(self, payload, src):
                self.alive = False
                return "never delivered"

        net.register(Dier("d"))

        def proc():
            with pytest.raises(RpcTimeout):
                yield net.call("client", "d", "die")
            return True

        assert run(net, proc())

    def test_recover_node(self, net):
        net.fail_node("a")
        net.recover_node("a")

        def proc():
            return (yield net.call("client", "a", "echo", "back"))

        assert run(net, proc()) == "back"

    def test_generator_handler_node_dies_mid_chain(self, net):
        """A node that crashes while its generator handler is awaiting a
        nested call never replies (`_respond` alive check): the
        caller sees a timeout, not a ghost answer."""

        class Dier(Node):
            def rpc_slow(self, payload, src):
                result = yield self.call("a", "echo", payload)
                self.alive = False
                return result

        net.register(Dier("d"))

        def proc():
            with pytest.raises(RpcTimeout):
                yield net.call("client", "d", "slow", "x")
            return True

        assert run(net, proc())

    @pytest.mark.parametrize("retry", [None, RetryPolicy(attempts=2)],
                             ids=["no-retry", "retry"])
    def test_crashed_node_sends_no_error_reply(self, net, retry):
        """A node that crashes while its generator handler waits on a dead
        peer must not answer with the handler's failure: the caller times
        out at its own deadline, and a timeout (unlike a RemoteError) is
        retried."""
        net.fail_node("c")

        def crash_a():
            yield net.sim.timeout(0.5)
            net.fail_node("a")

        def proc():
            net.sim.process(crash_a())
            with pytest.raises(RpcTimeout):
                yield net.call("client", "a", "relay",
                               {"via": "c", "data": "x"}, timeout=3.0,
                               retry=retry)
            return net.sim.now

        failed_at = run(net, proc())
        if retry is None:
            assert failed_at == pytest.approx(3.0)
        assert net.failover.retries == (0 if retry is None else 1)

    def test_handler_error_after_node_death_not_delivered(self, net):
        net.fail_node("a")

        def proc():
            with pytest.raises(RpcTimeout):
                # The dead node drops the request entirely — not even a
                # RemoteError for the handler it doesn't have.
                yield net.call("client", "a", "ping")
            return True

        assert run(net, proc())


class TestOneWay:
    def test_send_dispatches_handler(self, net):
        net.send("client", "a", "note", {"k": 1})
        net.sim.run()
        assert net.nodes["a"].last_note == ({"k": 1}, "client")

    def test_send_to_dead_node_dropped(self, net):
        net.fail_node("a")
        net.send("client", "a", "note", "x")
        net.sim.run()
        assert not hasattr(net.nodes["a"], "last_note")

    def test_send_to_unknown_dropped_silently(self, net):
        net.send("client", "ghost", "note", "x")
        net.sim.run()  # no exception


@pytest.fixture
def messages(net):
    """The per-message log: a Tracer on the network's simulator."""
    tracer = Tracer(net.sim)
    net.sim.tracer = tracer
    return tracer.message_events


class TestAccounting:
    def test_bytes_and_messages_counted(self, net, messages):
        def proc():
            yield net.call("client", "a", "echo", "12345")

        run(net, proc())
        assert net.stats.messages == 2  # request + reply
        request = messages()[0]
        assert request.bytes == HEADER_BYTES + size_of("echo") + size_of("12345")

    def test_request_bytes_charged_exactly_once_per_message(self, net, messages):
        """Every message crossing a link appears exactly once in the
        stats ledger, even when handlers chain nested RPCs."""

        def proc():
            yield net.call("client", "a", "relay", {"via": "b", "data": "x"})

        run(net, proc())
        # client->a request, a->b nested request, b->a reply, a->client reply
        assert net.stats.messages == 4
        assert len(messages()) == 4
        labels = [(e.src, e.dst, e.name) for e in messages()]
        assert len(set(labels)) == 4  # no message double-charged
        assert net.stats.bytes_total == sum(e.bytes for e in messages())

    def test_error_reply_charged(self, net, messages):
        def proc():
            with pytest.raises(RemoteError):
                yield net.call("client", "a", "boom")

        run(net, proc())
        assert net.stats.messages == 2
        assert messages()[1].name == "boom.error"
        assert messages()[1].bytes > HEADER_BYTES

    def test_oneway_bytes_charged_once(self, net, messages):
        net.send("client", "a", "note", {"k": 1})
        net.sim.run()
        assert net.stats.messages == 1
        expected = HEADER_BYTES + size_of("note") + size_of({"k": 1})
        assert messages()[0].bytes == expected

    def test_latency_model(self):
        link = LinkModel(latency=0.5, bandwidth=100.0)
        net = Network(link=link, default_timeout=1e6)
        net.register(EchoNode("a"))

        def proc():
            yield net.call("client", "a", "echo", None)
            return net.sim.now

        elapsed = run(net, proc())
        req = HEADER_BYTES + size_of("echo") + size_of(None)
        rep = HEADER_BYTES + size_of(None)
        assert elapsed == pytest.approx(1.0 + (req + rep) / 100.0)

    def test_per_link_breakdown(self, net):
        def proc():
            yield net.call("client", "a", "echo", "x")

        run(net, proc())
        assert ("client", "a") in net.stats.per_link_bytes
        assert ("a", "client") in net.stats.per_link_bytes

    def test_checkpoint_delta(self, net):
        def proc():
            yield net.call("client", "a", "echo", "x")

        run(net, proc())
        cp = net.stats.checkpoint()
        run(net, proc())
        delta = net.stats.delta(cp)
        assert delta.messages == 2

    def test_duplicate_registration_rejected(self, net):
        with pytest.raises(ValueError):
            net.register(EchoNode("a"))

    def test_compute_delay_added(self):
        net = Network()
        node = EchoNode("slow")
        node.compute_delay = 1.0
        net.register(node)

        def proc():
            yield net.call("client", "slow", "echo", None)
            return net.sim.now

        assert run(net, proc()) > 1.0
