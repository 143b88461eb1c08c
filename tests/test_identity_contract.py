"""The identity contract of the data plane.

RDF terms and solution mappings are interned, and neither class defines
``__eq__`` or ``__hash__``: value-equal objects must therefore be the
*same* object on every construction path, or a set would keep two equal
rows and a dict probe would miss. These tests pin each path — the
constructor and the kernels' ``_make``, literals with a language tag or a
datatype, pickle, ``copy`` and ``deepcopy``, and the result cache's
``rebind_rows``.

Hashing by address makes iteration order over terms and rows a matter of
process history. The last test checks that no simulated number depends
on it: a fresh interpreter interns the golden dataset's terms in a
shuffled order, with filler allocations in between, then replays the
cost planner's golden cells and must reproduce them exactly. No answer
depends on it either: ORDER BY queries whose LIMIT or OFFSET cuts
through tied rows return the same sequence in that interpreter as here,
from the engine and from the oracle alike.
"""

import copy
import json
import os
import pathlib
import pickle
import re
import subprocess
import sys

import pytest

from repro.cache.keys import canonical_rows, rebind_rows
from repro.query import DistributedExecutor
from repro.rdf.namespaces import COMMON_PREFIXES
from repro.rdf.terms import (
    IRI, XSD_INTEGER, XSD_STRING, BlankNode, Literal, Variable,
)
from repro.sparql import evaluate_query, parse_query
from repro.sparql.solutions import EMPTY_MAPPING, SolutionMapping, join
from repro.workloads import paper_example_partition

from helpers import build_system
from test_golden_metrics import GOLDEN_PATH, QUERIES

TESTS = pathlib.Path(__file__).resolve().parent
X, Y = Variable("x"), Variable("y")


def _terms():
    return [IRI("http://example.org/a"), Literal("chat"),
            Literal("chat", language="en"),
            Literal("1", datatype=IRI(XSD_INTEGER)),
            Literal("1", datatype=IRI(XSD_STRING)), BlankNode("b0"),
            Variable("v")]


class TestConstruction:
    def test_identity_replaces_eq_and_hash(self):
        for cls in (IRI, Literal, BlankNode, Variable, SolutionMapping):
            assert cls.__eq__ is object.__eq__, cls
            assert cls.__hash__ is object.__hash__, cls

    def test_constructor_and_make_agree(self):
        """Over every kind of value, including a tagged and a typed
        literal: the constructor in either key order and ``_make`` on a
        rebuilt values tuple give one object."""
        a = IRI("http://example.org/a")
        for term in _terms()[:-1]:
            rebuilt = type(term)(*term.__reduce__()[1])
            mu = SolutionMapping({X: a, Y: term})
            assert SolutionMapping({Y: rebuilt, X: a}) is mu
            assert SolutionMapping._make(mu._schema, (a, rebuilt)) is mu
        assert SolutionMapping() is EMPTY_MAPPING
        assert SolutionMapping({}) is EMPTY_MAPPING

    def test_kernel_output_is_the_constructed_row(self):
        a, b = IRI("http://example.org/a"), Literal("b", language="de")
        (joined,) = join([SolutionMapping({X: a})], [SolutionMapping({X: a, Y: b})])
        assert joined is SolutionMapping({X: a, Y: b})
        assert joined.project([X]) is SolutionMapping({X: a})


class TestRoundTrips:
    def _mappings(self):
        terms = [t for t in _terms() if type(t) is not Variable]
        return [SolutionMapping({X: t, Y: u}) for t in terms for u in terms[:2]]

    @pytest.mark.parametrize("trip", [
        lambda obj: pickle.loads(pickle.dumps(obj)),
        copy.copy,
        copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_every_copy_is_the_original(self, trip):
        for obj in _terms() + self._mappings() + [EMPTY_MAPPING]:
            assert trip(obj) is obj
        rows = self._mappings()
        assert all(a is b for a, b in zip(trip(rows), rows))

    def test_rebind_rows_returns_the_constructed_rows(self):
        rows = self._mappings()
        stored = canonical_rows(rows, (X, Y))
        a, b = Variable("a"), Variable("b")
        rebound = rebind_rows(stored, (b, a))
        expected = {SolutionMapping({b: mu[X], a: mu[Y]}) for mu in rows}
        assert rebound == expected
        assert all(any(mu is e for e in expected) for mu in rebound)
        assert rebind_rows((), ()) == set()
        assert rebind_rows(((),), ()) == {EMPTY_MAPPING}


# ------------------------------------------- shuffled interning order

SHUFFLED_RUN = r"""
import json, random, sys
from repro.rdf.terms import IRI, BlankNode, Literal, Variable

spec = json.loads(sys.stdin.read())
rng = random.Random(spec["seed"])
descriptors = spec["terms"]
rng.shuffle(descriptors)
filler = []
for kind, *args in descriptors:
    # Objects of the terms' own size classes, so addresses really move.
    filler.append((rng.random(),) * rng.randrange(1, 9))
    filler.append("f" * rng.randrange(1, 80))
    if kind == "Literal":
        lexical, language, datatype = args
        Literal(lexical, language, IRI(datatype) if datatype else None)
    else:
        {"IRI": IRI, "BlankNode": BlankNode, "Variable": Variable}[kind](*args)

import test_golden_metrics
import test_identity_contract

print(json.dumps({"cells": test_golden_metrics.capture_cost_cells(),
                  "ordered": test_identity_contract.tied_order_answers()}))
"""

#: ORDER BY keys that tie in pairs on the paper example, cut inside a
#: tie by LIMIT or OFFSET: which tied rows survive the cut is fixed by
#: the query and the data alone.
TIED_ORDER_QUERIES = (
    "SELECT ?x ?y WHERE { ?x foaf:knows ?y . } ORDER BY ?y LIMIT 1",
    "SELECT ?x WHERE { ?x foaf:knows ?y . } ORDER BY DESC(?y) OFFSET 1 LIMIT 2",
    "SELECT ?n WHERE { ?x foaf:name ?n . ?x foaf:knows ?y . } "
    "ORDER BY ?y OFFSET 4 LIMIT 3",
)


def tied_order_answers():
    """Per tied-ORDER BY query, its row sequence from the engine and from
    the oracle, each row as ``[name, n3]`` pairs."""
    system = build_system()
    union = system.union_graph()

    def sequence(result):
        return [[[v.name, t.n3()] for v, t in mu.items()] for mu in result.rows]

    out = {}
    for text in TIED_ORDER_QUERIES:
        result, _ = DistributedExecutor(system).execute(text, initiator="D1")
        oracle = evaluate_query(parse_query(text, COMMON_PREFIXES), union)
        out[text] = [sequence(result), sequence(oracle)]
    return out


def _descriptor(term):
    if type(term) is Literal:
        datatype = term.datatype.value if term.datatype else None
        return ["Literal", term.lexical, term.language, datatype]
    if type(term) is BlankNode:
        return ["BlankNode", term.label]
    return ["IRI", term.value]


def _golden_terms():
    by_text = {}
    for triples in paper_example_partition().values():
        for triple in triples:
            for term in triple:
                by_text[term.n3()] = _descriptor(term)
    for text in QUERIES.values():
        for name in re.findall(r"\?(\w+)", text):
            by_text["?" + name] = ["Variable", name]
    return [by_text[key] for key in sorted(by_text)]


@pytest.mark.parametrize("seed", [1, 2])
def test_shuffled_interning_order_reproduces_golden(seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(TESTS.parent / "src"), str(TESTS)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", SHUFFLED_RUN],
        input=json.dumps({"seed": seed, "terms": _golden_terms()}),
        capture_output=True, text=True, env=env, timeout=300, check=True)
    out = json.loads(proc.stdout)
    got = out["cells"]
    golden = json.loads(GOLDEN_PATH.read_text())
    assert set(got) == {key for key in golden if "|cost|" in key}
    assert got == {key: golden[key] for key in got}
    here = tied_order_answers()
    assert all(engine == oracle for engine, oracle in here.values())
    assert out["ordered"] == here
