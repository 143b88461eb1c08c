"""DES kernel tests: events, processes, composition, determinism."""

import pytest

from repro.net import SimError, Simulator


class TestTimeouts:
    def test_time_advances_to_timeout(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.5)
            return sim.now

        assert sim.run_process(proc()) == 1.5

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimError):
            sim.timeout(-1)

    def test_timeout_value_passthrough(self):
        sim = Simulator()

        def proc():
            value = yield sim.timeout(1, value="done")
            return value

        assert sim.run_process(proc()) == "done"

    def test_ordering_is_fifo_for_equal_times(self):
        sim = Simulator()
        order = []

        def make(tag):
            def proc():
                yield sim.timeout(1.0)
                order.append(tag)
            return proc

        for tag in "abc":
            sim.process(make(tag)())
        sim.run()
        assert order == ["a", "b", "c"]

    def test_deferred_call_orders_like_a_timeout(self):
        """The two-sequence-number rule: a raw ``_schedule_after`` entry
        interleaves with timers and processes exactly as a Timeout plus
        its callback would — the transport relies on it for bit-identical
        simulations."""

        def scenario(raw):
            sim = Simulator()
            log = []

            def later(delay, tag):
                if raw:
                    sim._schedule_after(delay, log.append, (tag,))
                else:
                    sim.timeout(delay).callbacks.append(lambda _e: log.append(tag))

            def proc():
                yield sim.timeout(1.0)
                log.append("process")
                later(0.0, "from process")

            sim.timeout(1.0).callbacks.append(lambda _e: log.append("timer"))
            later(1.0, "deferred")
            sim.process(proc())
            later(0.0, "now")
            sim.run()
            return log

        assert scenario(raw=True) == scenario(raw=False)
        assert scenario(raw=True)[:3] == ["now", "timer", "deferred"]


class TestProcesses:
    def test_nested_process_wait(self):
        sim = Simulator()

        def child():
            yield sim.timeout(2)
            return 42

        def parent():
            value = yield sim.process(child())
            return value + 1

        assert sim.run_process(parent()) == 43

    def test_exception_propagates_to_waiter(self):
        sim = Simulator()

        def child():
            yield sim.timeout(1)
            raise ValueError("boom")

        def parent():
            try:
                yield sim.process(child())
            except ValueError as exc:
                return f"caught {exc}"

        assert sim.run_process(parent()) == "caught boom"

    def test_uncaught_exception_raised_by_run_process(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1)
            raise RuntimeError("unhandled")

        with pytest.raises(RuntimeError, match="unhandled"):
            sim.run_process(proc())

    def test_yielding_non_event_fails(self):
        sim = Simulator()

        def proc():
            yield 42

        with pytest.raises(SimError):
            sim.run_process(proc())

    def test_process_requires_generator(self):
        sim = Simulator()
        with pytest.raises(SimError):
            sim.process(lambda: None)


class TestComposites:
    def test_all_of_waits_for_slowest(self):
        sim = Simulator()

        def proc():
            values = yield sim.all_of([sim.timeout(1, "a"), sim.timeout(3, "b"),
                                       sim.timeout(2, "c")])
            return values, sim.now

        values, now = sim.run_process(proc())
        assert values == ["a", "b", "c"]
        assert now == 3

    def test_all_of_empty_completes_immediately(self):
        sim = Simulator()

        def proc():
            values = yield sim.all_of([])
            return values

        assert sim.run_process(proc()) == []

    def test_any_of_returns_first(self):
        sim = Simulator()

        def proc():
            index, value = yield sim.any_of([sim.timeout(5, "slow"), sim.timeout(1, "fast")])
            return index, value, sim.now

        assert sim.run_process(proc()) == (1, "fast", 1)

    def test_any_of_empty_rejected(self):
        sim = Simulator()
        with pytest.raises(SimError):
            sim.any_of([])

    def test_all_of_fails_fast(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1)
            raise ValueError("x")

        def proc():
            with pytest.raises(ValueError):
                yield sim.all_of([sim.process(bad()), sim.timeout(100)])
            return sim.now

        # fails at t=1, does not wait for the 100s timeout
        assert sim.run_process(proc()) == 1


class TestEvents:
    def test_double_trigger_rejected(self):
        sim = Simulator()
        event = sim.event()
        event.succeed(1)
        with pytest.raises(SimError):
            event.succeed(2)

    def test_value_before_trigger_rejected(self):
        sim = Simulator()
        with pytest.raises(SimError):
            sim.event().value

    def test_run_until_stops_clock(self):
        sim = Simulator()
        sim.timeout(10)
        assert sim.run(until=4) == 4

    def test_run_until_advances_an_idle_clock(self):
        sim = Simulator()
        assert sim.run(until=2.5) == 2.5 == sim.now
        sim.timeout(1)
        assert sim.run(until=7) == 7  # the heap drains at 3.5 first

    def test_run_until_skips_tombstones(self):
        sim = Simulator()
        entry = sim._schedule_after(1.0, print)
        entry[2] = None  # withdrawn: only a tombstone is left
        assert sim.run(until=4) == 4

    def test_run_until_never_rewinds(self):
        sim = Simulator()
        sim.run(until=5)
        sim.timeout(10)
        assert sim.run(until=3) == 5

    def test_deadlock_detection(self):
        sim = Simulator()

        def proc():
            yield sim.event()  # never triggered

        with pytest.raises(SimError, match="deadlock"):
            sim.run_process(proc())
