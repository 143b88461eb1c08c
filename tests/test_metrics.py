"""Metrics helpers: summaries, stats accounting, table rendering."""

import pytest

from repro.metrics import render_table, summarize
from repro.net import NetworkStats


class TestSummarize:
    def test_basic(self):
        s = summarize([1, 2, 3, 4, 5])
        assert s.count == 5
        assert s.mean == 3
        assert s.median == 3
        assert (s.minimum, s.maximum) == (1, 5)

    def test_p95(self):
        s = summarize(range(1, 101))
        assert s.p95 == 95

    def test_percentiles(self):
        s = summarize(range(1, 101))
        assert s.p50 == 50
        assert s.p99 == 99
        # Nearest-rank: with four samples p99 is the maximum.
        s4 = summarize([10, 20, 30, 40])
        assert s4.p50 == 20
        assert s4.p95 == s4.p99 == 40

    def test_percentiles_order_insensitive(self):
        assert summarize([5, 1, 3, 2, 4]) == summarize([1, 2, 3, 4, 5])

    def test_single_value(self):
        s = summarize([7.0])
        assert s.mean == s.median == s.minimum == s.maximum == s.p95 == 7.0
        assert s.p50 == s.p99 == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestNetworkStats:
    def test_record_and_reset(self):
        stats = NetworkStats()
        stats.record("a", "b", "echo", 100)
        stats.record("b", "a", "echo.reply", 50)
        assert stats.messages == 2
        assert stats.bytes_total == 150
        assert stats.per_kind_bytes["echo"] == 100
        assert stats.bytes_for("echo", "echo.reply") == 150
        stats.reset()
        assert stats.messages == 0

    def test_summary_text(self):
        stats = NetworkStats()
        stats.record("a", "b", "x", 10)
        assert "messages=1" in stats.summary()
        assert "x: 1 msgs, 10 bytes" in stats.summary()


class TestRenderTable:
    def test_alignment_and_formatting(self):
        text = render_table(
            ["name", "bytes", "ratio"],
            [["basic", 110578, 1.0], ["freq", 31660, 0.2863]],
            title="E1",
        )
        lines = text.splitlines()
        assert lines[0] == "E1"
        assert "name" in lines[1] and "bytes" in lines[1]
        assert "110,578" in text
        assert "0.2863" in text

    def test_empty_rows(self):
        text = render_table(["a"], [])
        assert "a" in text
