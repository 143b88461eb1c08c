"""Property test (PR 9 satellite 3): the result cache is invisible.

Random interleavings of ``publish_delta`` / ``unpublish_delta`` / query
execution must return exactly the same answers with the cache on as with
it off — and both must match the local oracle over the union of all
provider graphs. The deltas deliberately add and remove ``foaf:knows``
triples, the predicate every generated query touches, so cached entries
actually go stale mid-script; an invalidation bug (a missed epoch
advance, a stamp captured after instead of before the fill, an epoch
advanced before the row it versions is written) shows up as a divergent
answer here. A publish may go through the message-level protocol with a
query in flight, so the cache fills while the install is on the wire.
"""

from __future__ import annotations

from unittest.mock import patch

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cache import result_cache
from repro.query import DistributedExecutor, ExecutionOptions
from repro.rdf import COMMON_PREFIXES, FOAF, IRI, Literal, Triple
from repro.sparql import evaluate_query, parse_query
from repro.workloads import FoafConfig, generate_foaf_triples, partition_triples

from helpers import build_system

QUERIES = [
    "SELECT ?x ?y WHERE { ?x foaf:knows ?y . }",
    "SELECT ?x ?z WHERE { ?x foaf:knows ?y . ?y foaf:knows ?z . }",
    "SELECT ?y WHERE { <http://example.org/people/person0> foaf:knows ?y . }",
]

CACHED = ExecutionOptions(result_cache=True)
#: Admit on the first miss, so the short scripts below actually serve
#: cached answers.
admit_on_first_miss = patch.object(result_cache, "DEFAULT_ADMIT_THRESHOLD", 1)
PLAIN = ExecutionOptions()

#: An op is ``(kind, parameter, protocol)``: 0 = query (parameter picks
#: the text), 1 = publish a fresh delta batch (through messages, with
#: queries in flight, if *protocol*), 2 = unpublish the oldest live batch.
ops_st = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 999), st.booleans()),
    min_size=2,
    max_size=14,
)


PERSON0 = IRI("http://example.org/people/person0")


def delta_batch(seq: int):
    """Unique, never-colliding knows-triples for delta *seq*; the last
    one gives person0 (the third query's subject) a new friend, so its
    index row may gain a provider."""
    a = IRI(f"http://example.org/coherence/delta{seq}a")
    b = IRI(f"http://example.org/coherence/delta{seq}b")
    return [Triple(a, FOAF.knows, b), Triple(b, FOAF.knows, a),
            Triple(PERSON0, FOAF.knows, a)]


def launch(system, executor, query, count, gap=0.005):
    """Start *count* runs of *query* from D1, *gap* simulated seconds
    apart, without running the simulation."""
    sim = system.sim

    def launcher():
        for _ in range(count):
            sim.process(executor.execute_process(query, initiator="D1"))
            yield sim.timeout(gap)

    sim.process(launcher())


def fresh_system(data_seed):
    triples = generate_foaf_triples(FoafConfig(num_people=12, seed=data_seed))
    parts = partition_triples(triples, 3, overlap=0.2, seed=data_seed + 1)
    # person0's knows row exists before any delta, so a delta elsewhere
    # adds a provider to a row queries already read.
    parts[0].append(Triple(PERSON0, FOAF.knows,
                           IRI("http://example.org/people/person1")))
    return build_system(parts=parts)


@admit_on_first_miss
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data_seed=st.integers(0, 500), ops=ops_st)
def test_property_cache_is_answer_invisible(data_seed, ops):
    cached_system = fresh_system(data_seed)
    plain_system = fresh_system(data_seed)
    cached_exec = DistributedExecutor(cached_system, CACHED)
    plain_exec = DistributedExecutor(plain_system, PLAIN)

    def check(text):
        with_cache, _ = cached_exec.execute(text, initiator="D1")
        without, _ = plain_exec.execute(text, initiator="D1")
        assert with_cache.rows == without.rows
        oracle = evaluate_query(
            parse_query(text, COMMON_PREFIXES),
            cached_system.union_graph(),
        )
        assert with_cache.rows == oracle.rows

    storage_ids = sorted(cached_system.storage_nodes)
    published = []  # (storage_id, batch) still live
    seq = 0
    for kind, param, protocol in ops:
        if kind == 1:
            batch = delta_batch(seq)
            sid = storage_ids[param % len(storage_ids)]
            text = QUERIES[param // 7 % len(QUERIES)]
            for system, executor in ((cached_system, cached_exec),
                                     (plain_system, plain_exec)):
                storage = system.storage_nodes[sid]
                storage.add_triples(batch)
                if protocol:
                    launch(system, executor,
                           parse_query(text, COMMON_PREFIXES), count=8)
                system.publish_delta(storage, batch, protocol=protocol)
                system.sim.run()
            published.append((sid, batch))
            seq += 1
            if protocol:
                check(text)
        elif kind == 2 and published:
            sid, batch = published.pop(param % len(published))
            for system in (cached_system, plain_system):
                storage = system.storage_nodes[sid]
                storage.remove_triples(batch)
                system.unpublish_delta(storage, batch)
        else:
            check(QUERIES[param % len(QUERIES)])


SMITH_NAME = ("SELECT ?n WHERE { <http://example.org/people/smith> "
              "foaf:name ?n }")


@admit_on_first_miss
def test_protocol_delta_does_not_leave_a_stale_cached_answer():
    """A result cached while a protocol-mode delta is on the wire is
    stamped before the install advances the key's epoch, so it is stale
    once the row is written: the next query sees the new triple."""
    system = build_system()
    executor = DistributedExecutor(system, CACHED)
    query = parse_query(SMITH_NAME, COMMON_PREFIXES)
    storage = system.storage_nodes["D2"]
    new = [Triple(IRI("http://example.org/people/smith"), FOAF.name,
                  Literal("Smythe"))]
    storage.add_triples(new)
    launch(system, executor, query, count=40)
    system.publish_delta(storage, new, protocol=True)
    system.sim.run()
    result, _ = executor.execute(SMITH_NAME, initiator="D1")
    oracle = evaluate_query(query, system.union_graph())
    assert result.rows == oracle.rows
    assert len(oracle.rows) == 2
