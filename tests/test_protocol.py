"""The wire protocol, stated once (``repro.net.protocol``): every method
is declared with its handler, request record, phase, statelessness and
delivery semantics; record sizes equal the dict sizes they replace; and
no receiver reads the fault plan."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.net import Network, Node, size_of
from repro.net.protocol import (
    MEMO, ONCE, PROTOCOL, PURE, RECORDS, Combine, Fetch,
)
from repro.trace import PHASE_FINALIZE, PHASE_JOIN, PHASE_LOOKUP, PHASE_SHIP

from test_net_sizes import _leaves, reference_size

SRC = Path(repro.__file__).parent


def _repro_classes():
    """Every class defined in a module of the ``repro`` package."""
    classes = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                classes[name] = cls
    return classes


class TestDeclarations:
    def test_phase_of_every_method(self):
        """Ring maintenance (``ping``, ``get_predecessor``, ``notify``)
        is lookup traffic; the baselines' methods count as shipping."""
        phases = {
            PHASE_LOOKUP: {
                "find_successor", "ping", "get_predecessor",
                "get_successor_list", "notify", "export_keys", "import_keys",
                "publish", "index_put", "replica_put", "index_remove_storage",
                "replica_drop", "rereplicate", "index_lookup", "get_attached",
            },
            PHASE_SHIP: {
                "execute_primitive", "evaluate", "chain_step", "deliver",
                "delivered", "ship", "digest", "cache_probe", "cache_admit",
                "flood", "store_triples", "store_numeric", "match_pattern",
                "match_with_candidates", "range_scan",
            },
            PHASE_JOIN: {"combine", "filter_box"},
            PHASE_FINALIZE: {"fetch"},
        }
        assert {name: m.phase for name, m in PROTOCOL.items()} == {
            name: phase for phase, names in phases.items() for name in names}

    def test_stateless_and_delivery_semantics(self):
        assert {n for n, m in PROTOCOL.items() if m.stateless} == {"find_successor"}
        semantics = {n: m.delivery for n, m in PROTOCOL.items()}
        assert {n for n, d in semantics.items() if d != PURE} == {
            "execute_primitive", "cache_admit"}
        assert semantics["execute_primitive"] == ONCE
        assert semantics["cache_admit"] == MEMO
        # Both keep their ledgers per correlation id.
        for name in ("execute_primitive", "cache_admit"):
            assert "corr" in PROTOCOL[name].request.SENT

    def test_every_handler_is_declared_and_every_declaration_served(self):
        classes = _repro_classes()
        handlers = {}
        for cls in classes.values():
            for attr in vars(cls):
                if attr.startswith("rpc_"):
                    handlers.setdefault(attr[4:], set()).add(cls.__name__)
        nodes = [cls for cls in classes.values() if issubclass(cls, Node)]
        served = {attr[4:] for cls in nodes for attr in dir(cls)
                  if attr.startswith("rpc_")}
        assert served == set(PROTOCOL)
        assert set(handlers) == set(PROTOCOL)
        for name, declared in PROTOCOL.items():
            assert handlers[name] == {declared.served_by}, name
            assert declared.attr == "rpc_" + name

    def test_records_are_slotted_and_keyword_only(self):
        for cls in RECORDS.values():
            assert set(cls.__slots__) == {*cls.SENT, *cls.OPTIONAL, "flow"}
            assert not hasattr(cls(**dict.fromkeys(cls.SENT)), "__dict__")
            with pytest.raises(TypeError):
                cls(*range(len(cls.SENT)))


class TestCallSite:
    @pytest.mark.parametrize("send", [False, True], ids=["call", "send"])
    def test_undeclared_method_raises_before_sending(self, send):
        network = Network()
        network.register(Node("a"))
        with pytest.raises(ValueError, match="undeclared RPC method 'mystery'"):
            if send:
                network.send("client", "a", "mystery", None)
            else:
                network.call("client", "a", "mystery", None)
        assert network.stats.messages == 0
        assert network.sim._heap == []


class TestRecordSizes:
    def test_sent_none_is_charged_and_absent_optional_is_not(self):
        combine = Combine(op="join", left="q#1", right="q#2", out="q#3",
                          condition=None)
        assert size_of(combine) == size_of({
            "op": "join", "left": "q#1", "right": "q#2", "out": "q#3",
            "condition": None})
        assert size_of(Fetch(corr="q#1")) == size_of({"corr": "q#1"})
        assert size_of(Fetch(corr="q#1", plain=True)) == \
            size_of({"corr": "q#1", "plain": True})
        # The flow is never charged.
        assert size_of(Fetch(corr="q#1", flow="q")) == size_of(Fetch(corr="q#1"))

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(sorted(RECORDS)), st.data())
    def test_record_size_is_the_size_of_its_dict(self, name, data):
        cls = RECORDS[name]
        fields = {field: data.draw(_leaves) for field in cls.SENT}
        for field in cls.OPTIONAL:
            if data.draw(st.booleans()):
                fields[field] = data.draw(_leaves.filter(lambda v: v is not None))
        record = cls(**fields, flow=data.draw(st.none() | st.text(max_size=4)))
        expected = reference_size(fields)
        assert size_of(record) == size_of(fields) == expected
        assert cls.SIZE(record) == expected


class TestRecordCopies:
    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(sorted(RECORDS)), st.data())
    def test_copy_is_dataclasses_replace(self, name, data):
        """``copy`` is the generated stand-in for ``dataclasses.replace``:
        the same fields, the flow included, with the changes applied."""
        cls = RECORDS[name]
        record = cls(**{field: data.draw(_leaves) for field in cls.SENT},
                     flow=data.draw(st.none() | st.text(max_size=4)))
        names = cls.SENT + cls.OPTIONAL
        changes = {field: data.draw(_leaves) for field in data.draw(
            st.lists(st.sampled_from(names), unique=True, max_size=3))}
        copied = record.copy(**changes)
        expected = dataclasses.replace(record, **changes)
        assert copied is not record and copied == expected
        assert [getattr(copied, f) for f in names] == \
            [getattr(expected, f) for f in names]
        assert copied.flow == record.flow

    def test_copy_rejects_an_unknown_field(self):
        with pytest.raises(AttributeError):
            Fetch(corr="q#1").copy(encode=True)


class TestFaultPlanReads:
    """Behaviour must not depend on whether a fault plan is installed.
    These are the sites that still read ``network.faults`` outside
    ``net/``; the list may only shrink. Each stays for a reason:
    ``release`` quarantines every corr under a plan, because a
    duplicated one-way may trail in under any of them and corr names
    recur when a query slot is reused (names that never recur would
    cost bytes on every run); ``_execute_basic`` sweeps a silent
    provider's rows only without a plan, because under one a single
    timeout is no proof the provider is gone and the sweep has no
    second witness yet; ``run_workload`` reports the plan's fault
    tally."""

    ALLOWED = {
        ("query/executor.py", "release"),
        ("overlay/index_node.py", "_execute_basic"),
        ("workloads/load.py", "run_workload"),
    }

    @staticmethod
    def _reads(path: Path):
        """(enclosing function, line) of every ``network.faults`` read."""
        found = []

        def visit(node, function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            if (isinstance(node, ast.Attribute) and node.attr == "faults"
                    and isinstance(node.ctx, ast.Load)
                    and (getattr(node.value, "id", None) == "network"
                         or getattr(node.value, "attr", None) == "network")):
                found.append((function, node.lineno))
            for child in ast.iter_child_nodes(node):
                visit(child, function)

        visit(ast.parse(path.read_text()), None)
        return found

    def test_only_allowlisted_sites_read_the_fault_plan(self):
        sites = set()
        for path in sorted(SRC.rglob("*.py")):
            relative = path.relative_to(SRC).as_posix()
            if relative.startswith("net/") or "faults" not in path.read_text():
                continue
            for function, line in self._reads(path):
                assert (relative, function) in self.ALLOWED, (relative, line)
                sites.add((relative, function))
        assert sites == self.ALLOWED  # a site that stopped reading leaves the list
