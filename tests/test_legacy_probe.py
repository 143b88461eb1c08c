"""Probe-first walks under the legacy planner (``--semijoin``).

One rule (:func:`repro.query.cost._probe_pays`) decides whether a
shared-site walk lands its first step alone and sends that step's
join-key digest with the other chains: the cost planner applies it at
plan time, and a legacy walk with ``semijoin`` on applies it at run time
to its located rows. The data here has the layout of the benchmark's
``join_ship`` cell (``knows`` over D0-D2, ``nick`` over D0/D3, the rest
on D5) at two thirds of its size, where the ``nick`` side needs a Bloom
digest. Every answer is checked against the local oracle.

Digests are interned by sets of address-hashed rows, so CI runs this
file under several hash seeds.
"""

import random

import pytest

from repro.overlay.peer import QueryPeer
from repro.query import (
    ConjunctionMode, DistributedExecutor, ExecutionOptions, PrimitiveStrategy,
)
from repro.query.physical import BGPWalk, PhysOp
from repro.rdf import FOAF
from repro.workloads import FoafConfig, generate_foaf_triples
from repro.workloads.queries import PAPER_FIG_QUERIES

from helpers import build_system, oracle_rows

#: Both join shapes of ``join_ship``: on the subject, and along a path.
QUERIES = {
    "e2": """SELECT ?x ?z ?k WHERE {
        ?x foaf:knows ?z . ?x foaf:nick ?k . }""",
    "path": """SELECT DISTINCT ?k WHERE {
        ?x foaf:knows ?y . ?y foaf:nick ?k . }""",
}

#: ``join_ship``'s shipping options.
SHIPPING = dict(projection_pushdown=True, dictionary_encoding=True)


def join_system(num_people: int = 320, seed: int = 1):
    """A ``join_ship``-shaped system of *num_people* FOAF people."""
    triples = generate_foaf_triples(FoafConfig(
        num_people=num_people, knows_per_person=3, nick_fraction=0.3,
        seed=seed))
    rng = random.Random(seed)
    parts = {f"D{i}": [] for i in range(6)}
    for t in triples:
        if t.p == FOAF.knows:
            parts[f"D{rng.randrange(3)}"].append(t)
        elif t.p == FOAF.nick:
            parts[("D0", "D3")[rng.randrange(2)]].append(t)
        else:
            parts["D5"].append(t)
    return build_system(num_index=16, parts=parts)


def walks(plan: PhysOp):
    if isinstance(plan, BGPWalk):
        yield plan
    for child in plan.children:
        yield from walks(child)


def run(system, query, **options):
    executor = DistributedExecutor(system, ExecutionOptions(**options))
    result, report = executor.execute(query, initiator="D1")
    return result, report, list(walks(report.plan))


@pytest.fixture
def digests(monkeypatch):
    """The mailboxes asked for a digest, at the initiator or by RPC."""
    asked = []
    real = QueryPeer.rpc_digest

    def spy(self, payload, src):
        asked.append((self.node_id, payload.corr))
        return real(self, payload, src)

    monkeypatch.setattr(QueryPeer, "rpc_digest", spy)
    return asked


@pytest.mark.parametrize("name", sorted(QUERIES))
class TestJoinShipShape:
    def test_semijoin_walk_probes_first_and_ships_less(self, name, digests):
        query = QUERIES[name]
        system = join_system()
        oracle = oracle_rows(system, query)
        probed, report, (walk,) = run(system, query, semijoin=True,
                                      **SHIPPING)
        assert walk.plan_mode is None  # a legacy plan
        assert "probe-first" in walk.describe()
        assert walk.detail["probe"].endswith("foaf/0.1/nick> ?k .")
        assert walk.detail["digest"] == "bloom"
        assert probed.rows == oracle and oracle
        assert len(digests) == 1
        assert report.digest_bytes > 0
        # The knows chain's providers shed rows in chain steps, which
        # send no reply; the report counts them all the same.
        assert report.rows_pruned > 0

        plain, plain_report, (walk,) = run(system, query, semijoin=False,
                                           **SHIPPING)
        assert not walk.plan_probe and "probe-first" not in walk.describe()
        assert plain.rows == oracle
        assert plain_report.rows_pruned == plain_report.digest_bytes == 0
        assert report.bytes_total < plain_report.bytes_total

    def test_without_semijoin_no_digest_is_asked(self, name, digests):
        system = join_system()
        run(system, QUERIES[name], semijoin=False, **SHIPPING)
        assert digests == []


def test_no_legacy_walk_probes_on_the_paper_example():
    """The paper's data is too small for a digest to pay: no walk of the
    Fig. 4-9 queries probes, under any strategy, so these cells move
    exactly the bytes they moved before the rule reached legacy plans."""
    system = build_system()
    probed = 0
    for strategy in PrimitiveStrategy:
        for query in PAPER_FIG_QUERIES.values():
            result, _report, found = run(
                system, query, semijoin=True, primitive_strategy=strategy,
                conjunction_mode=ConjunctionMode.OPTIMIZED, **SHIPPING)
            assert result.rows == oracle_rows(system, query)
            probed += sum(walk.plan_probe for walk in found)
            assert all("probe" not in walk.detail for walk in found)
    assert probed == 0
