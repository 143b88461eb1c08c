"""The iterative Chord lookup (:func:`repro.chord.node.walk`).

The originator probes one node at a time; each probe is a single step at
the probed node, which names the key's owner or the next hop and calls
no one. A probe that times out is not evidence against anyone's routing
tables: the walk avoids that node and asks its last responder again, and
no finger table or successor list changes. The property below checks
the walk against the ring's ground truth and against a model of the
recursive walk it replaced, over rings of 1-64 nodes, random known
starts and random crashed nodes.
"""

from __future__ import annotations

import inspect
import random
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chord import ChordNode, ChordRing, IdentifierSpace, lookup
from repro.chord.node import LookupStep, walk
from repro.net import Network
from repro.net.protocol import FindSuccessor
from repro.net.transport import RpcTimeout
from repro.overlay.peer import RouteTable

BITS = 16


def build_ring(idents, successor_list_size=3):
    space = IdentifierSpace(BITS)
    ring = ChordRing(Network(), space)
    for i, ident in enumerate(idents):
        ring.add_node(ChordNode(f"N{i}", ident, space,
                                successor_list_size=successor_list_size))
    ring.build_static()
    return ring


def tables(ring):
    return {node_id: (list(node.fingers), list(node.successor_list))
            for node_id, node in ring.nodes.items()}


def run_walk(ring, start, key, avoid=(), known=None):
    """Run one walk from a client; → (result or the exception, probes),
    *probes* being ``(node_id, avoid, outcome)`` in order."""
    network = ring.network
    probes = []

    def call(dst, method, payload):
        event = network.call("client", dst, method, payload)
        record = [dst, payload.avoid, None]
        probes.append(record)
        event.callbacks.append(lambda e: record.__setitem__(
            2, "ok" if e.failure is None else type(e.failure).__name__))
        return event

    def proc():
        try:
            return (yield from walk(call, start, key, avoid, known))
        except RpcTimeout as exc:
            return exc

    return network.sim.run_process(proc()), [tuple(p) for p in probes]


def recursive_hops(ring, dead, node_id, key):
    """Hops of the recursive walk this lookup replaced, started at
    *node_id*, or None where it answered no one: each hop forwarded to its
    closest preceding hop under the same timeout as its own caller's, so
    a crashed forward target expired the originator's call first, and the
    successor-list backups the hop then tried answered too late."""
    space = ring.space
    node, hops = ring.nodes[node_id], 0
    while not space.between_right_closed(key, node.ident, node.successor.ident):
        nxt = node.closest_preceding(key)
        if nxt == node.ref:
            break
        if nxt.node_id in dead:
            return None
        node, hops = ring.nodes[nxt.node_id], hops + 1
    return hops


def first_clockwise(refs, key, skip):
    """The first of *refs* (ring order) at or after *key*, not in *skip*."""
    ordered = sorted(refs, key=lambda r: r.ident)
    at = next((i for i, r in enumerate(ordered) if r.ident >= key), 0)
    for k in range(len(ordered)):
        ref = ordered[(at + k) % len(ordered)]
        if ref.node_id not in skip:
            return ref
    return None


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 64))
    idents = draw(st.lists(st.integers(0, (1 << BITS) - 1), min_size=n,
                           max_size=n, unique=True))
    ordered = sorted(range(n), key=lambda i: idents[i])
    # Crash-stop nodes, but never a run as long as a successor list: the
    # assumption under which Chord's successor lists keep the ring whole.
    window = min(3, n - 1)
    dead = set()
    for pos in draw(st.lists(st.integers(0, n - 1), max_size=n // 2)):
        trial = dead | {ordered[pos]}
        run = longest = 0
        for k in range(2 * n):
            run = run + 1 if ordered[k % n] in trial else 0
            longest = max(longest, run)
        if longest < window:
            dead = trial
    live = [i for i in range(n) if i not in dead]
    entry = draw(st.sampled_from(live))
    known = draw(st.lists(st.integers(0, n - 1), max_size=8))
    avoid = draw(st.sets(st.sampled_from(sorted(dead)), max_size=2)) if dead else set()
    key = draw(st.integers(0, (1 << BITS) - 1))
    return idents, dead, entry, known, avoid, key


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_property_walk_finds_the_owner(scenario):
    """From a known start (the entry when none precedes the key), with
    some nodes crashed and some of them named in ``avoid``:

    * the walk returns the key's successor, or with ``avoid`` the first
      node after it that is not avoided (the backup the replica holder
      is), and names the exact arc only when its final responder's own
      successor is that node;
    * it probes no node twice, except its last responder asked again
      right after a probe timed out, and never a node that timed out;
    * it takes no more hops than the recursive walk from the same start,
      wherever that walk answered at all;
    * the nodes it noted are starts, never owners: ``get`` stays empty;
    * no routing table of any node changes.
    """
    idents, dead, entry, known, avoid, key = scenario
    ring = build_ring(idents)
    names = {f"N{i}" for i in dead}
    avoid = {f"N{i}" for i in avoid}
    for node_id in sorted(names):
        ring.network.fail_node(node_id)
    before = tables(ring)
    table = RouteTable(ring.space)
    for i in known:
        table.note(ring.nodes[f"N{i}"].ref)
    start = table.preceding(key) or ring.nodes[f"N{entry}"].ref

    result, probes = run_walk(ring, start, key, avoid, table)

    assert tables(ring) == before
    assert all(table.get(k) is None
               for k in [key] + [ring.nodes[dst].ident for dst, _a, _o in probes])
    if start.node_id in names:
        assert isinstance(result, RpcTimeout)
        assert probes == [(start.node_id, sorted(avoid) or None, "RpcTimeout")]
        assert table.preceding(start.ident + 1) != start
        return
    refs = [node.ref for node in ring.nodes.values()]
    assert result.ref == first_clockwise(refs, key, avoid)
    # Probes: a node is asked again only as the last responder, right
    # after a timeout; a node that timed out is never asked again.
    timed_out = set()
    for i, (dst, _avoid, outcome) in enumerate(probes):
        assert dst not in timed_out
        if any(p[0] == dst for p in probes[:i]):
            assert probes[i - 1][2] == "RpcTimeout"
            assert (dst, "ok") in [(p[0], p[2]) for p in probes[:i]]
        if outcome == "RpcTimeout":
            timed_out.add(dst)
            assert table.get(ring.nodes[dst].ident) is None
            assert table.preceding(ring.nodes[dst].ident + 1) != ring.nodes[dst].ref
    assert timed_out <= names
    if result.via is not None:
        assert ring.nodes[result.via.node_id].successor == result.ref
        assert result.ref.node_id not in avoid
    else:
        assert avoid or timed_out
    # At most one repeated probe per timeout, so fewer than twice the ring.
    assert len(probes) - len({dst for dst, _a, _o in probes}) <= len(timed_out)
    assert result.hops == len({dst for dst, _a, o in probes if o == "ok"}) - 1
    reference = recursive_hops(ring, names, start.node_id, key)
    if reference is not None:
        assert result.hops <= reference
        if not names:
            assert result.hops == reference and len(probes) == reference + 1


def test_probe_reply_is_one_step_and_no_larger_than_the_old_reply():
    """The handler never calls on (a handler that does is a generator):
    its reply names the owner or the next hop, and costs a NodeRef plus
    the 4 bytes the hop count took."""
    assert not inspect.isgeneratorfunction(ChordNode.rpc_find_successor)
    ring = build_ring([1000 * (i + 1) for i in range(16)])
    node = ring.nodes["N0"]
    near = node.rpc_find_successor(FindSuccessor(key=1500), "client")
    far = node.rpc_find_successor(FindSuccessor(key=15500), "client")
    assert near == LookupStep(node.successor, LookupStep.OWNER)
    assert far.flag == LookupStep.NEXT and far.ref == node.closest_preceding(15500)
    assert near.wire_size() == near.ref.wire_size() + 4


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(2, 32), st.randoms(use_true_random=False),
       st.integers(0, (1 << BITS) - 1))
def test_property_avoided_live_nodes_never_name_a_wrong_owner(n, rng, key):
    """Under a fault plan ``avoid`` holds live nodes too: a lost probe or
    an open circuit avoids a node that is up. However many are avoided,
    the walk names the first node at or after *key* that is not avoided,
    the avoided owner itself when its responder knows no backup, or
    raises :class:`RpcTimeout`: a responder that knows no hop past the
    avoided ones answers ``DEAD_END`` and is never named the owner."""
    ring = build_ring(rng.sample(range(1 << BITS), n))
    refs = ring.sorted_refs()
    avoid = {ref.node_id for ref in refs if rng.random() < 0.6}
    start = rng.choice(refs)
    owner = ring.owner_of(key).ref
    result, probes = run_walk(ring, start, key, avoid)
    if isinstance(result, RpcTimeout):
        assert all(outcome == "ok" for _dst, _a, outcome in probes)
        return
    assert result.ref in (first_clockwise(refs, key, avoid), owner)
    if result.ref.node_id in avoid:
        assert result.ref == owner and result.via is None


def test_a_blinded_responder_answers_dead_end_and_the_walk_steps_back():
    """Every hop N0 knows toward 15500 is avoided: N0 is not the owner,
    so it says so instead of naming itself, and with no responder left
    the walk raises rather than name a node that holds no row."""
    ring = build_ring([1000 * (i + 1) for i in range(16)])
    node = ring.nodes["N0"]
    avoid = [f"N{i}" for i in range(1, 15)]
    step = node.rpc_find_successor(FindSuccessor(key=15500, avoid=avoid),
                                   "client")
    assert step == LookupStep(node.ref, LookupStep.DEAD_END)
    result, probes = run_walk(ring, node.ref, 15500, avoid)
    assert isinstance(result, RpcTimeout)
    assert probes == [("N0", sorted(avoid), "ok")]
    # N0 -> N5 -> N8, blinded past N9-N14: each blinded responder is
    # stepped back from and avoided, never named the owner.
    result, probes = run_walk(ring, node.ref, 15500,
                              [f"N{i}" for i in range(9, 15)])
    assert isinstance(result, RpcTimeout)
    probed = [dst for dst, _a, _o in probes]
    assert probed[:5] == ["N0", "N5", "N8", "N5", "N7"]
    assert all(probed.count(f"N{i}") == 1 for i in (6, 7, 8))
    assert len(probes) <= 2 * len(ring.nodes)


class TestTransitCrash:
    """A crashed pure transit hop of a walk (neither its start, its final
    responder, nor the owner) costs one timeout: the walk names the true
    owner, and no live node leaves any finger table or successor list.
    The recursive walk nested equal timeouts, so each upstream hop timed
    out just before its callee and evicted a live node."""

    def scenario(self):
        rng = random.Random(7)
        ring = build_ring(rng.sample(range(1 << BITS), 64))
        entry = ring.sorted_refs()[0]
        for key in rng.sample(range(1 << BITS), 200):
            hops, node = [], ring.nodes[entry.node_id]
            while not ring.space.between_right_closed(key, node.ident,
                                                      node.successor.ident):
                node = ring.nodes[node.closest_preceding(key).node_id]
                hops.append(node.node_id)
            if len(hops) >= 3:  # entry, then hops[0], then the crashed one
                return ring, entry, key, hops[1]
        raise AssertionError("no walk of three hops on this ring")

    def test_transit_crash_names_the_owner_and_evicts_no_live_node(self):
        ring, entry, key, transit = self.scenario()
        owner = ring.owner_of(key).node_id
        assert transit not in (entry.node_id, owner)
        ring.network.fail_node(transit)
        before = tables(ring)
        try:
            named = lookup(ring.network, entry, key).ref.node_id
        except RpcTimeout:
            named = None
        assert named == owner == ring.owner_of(key).node_id
        for node_id, (fingers, successors) in tables(ring).items():
            old_fingers, old_successors = before[node_id]
            assert [f for f in old_fingers if f is not None
                    and ring.nodes[f.node_id].alive] == \
                [f for f in fingers if f is not None
                 and ring.nodes[f.node_id].alive], node_id
            assert [s for s in old_successors if ring.nodes[s.node_id].alive] == \
                [s for s in successors if ring.nodes[s.node_id].alive], node_id

    def test_walk_avoids_the_crashed_hop_once(self):
        ring, entry, key, transit = self.scenario()
        ring.network.fail_node(transit)
        result, probes = run_walk(ring, entry, key)
        assert [dst for dst, _a, _o in probes].count(transit) == 1
        assert (transit, None, "RpcTimeout") in probes
        assert result.ref == ring.owner_of(key).ref


@pytest.mark.parametrize("n", [1, 2, 5])
def test_tiny_rings_resolve_every_key(n):
    ring = build_ring([7919 * (i + 1) for i in range(n)])
    call = partial(ring.network.call, "client")
    for key in range(0, 1 << BITS, 4099):
        for ref in ring.sorted_refs():
            result = ring.network.sim.run_process(walk(call, ref, key))
            assert result.ref == ring.owner_of(key).ref


class TestChaosWalkBudget:
    """E21's harsh breakers-off cell (``benchmarks/test_e21_chaos.py``)
    at chaos seeds 14 and 18. The recursive walk evicted nothing under a
    fault plan and retried every successor-list backup at every level,
    so one lookup could fan out geometrically: these two cells sent
    hundreds of thousands of ``find_successor`` messages and kept
    allocating until ``MemoryError``. The iterative walk is bounded by
    the ring: the cell must finish under a message budget, and no walk
    may probe more nodes than the ring has."""

    MIX = [
        ("knows", "SELECT ?x ?y WHERE { ?x foaf:knows ?y . }"),
        ("name", 'SELECT ?x WHERE { ?x foaf:name "Smith" . }'),
        ("conj", "SELECT ?x ?n WHERE { ?x foaf:knows ?y . ?y foaf:name ?n . }"),
    ]
    HARSH = dict(loss=0.10, delay=0.15, partitions=1, brownouts=2)
    DEFENSE = dict(retries=2, backoff=0.05, failover=True,
                   partial_results=True, query_deadline=30.0)
    #: Messages the whole cell may send: about ten times what it sends.
    BUDGET = 5_000

    @pytest.mark.parametrize("seed", [14, 18])
    def test_harsh_breakers_off_cell_finishes(self, seed, monkeypatch):
        from repro.net.faults import chaos_plan
        from repro.query import ExecutionOptions
        from repro.query import executor
        from repro.workloads import LoadConfig, run_workload

        from helpers import build_system

        system = build_system(replication_factor=2)
        network = system.network
        transmit = network._transmit

        def budgeted(*args, **kwargs):
            if network.stats.messages >= self.BUDGET:
                raise AssertionError(f"message budget {self.BUDGET} spent")
            return transmit(*args, **kwargs)

        network._transmit = budgeted
        walks = []

        def counted(call, start, key, avoid=(), known=None):
            probed = []

            def probe(dst, method, payload):
                probed.append(dst)
                return call(dst, method, payload)

            walks.append(probed)
            return (yield from walk(probe, start, key, avoid, known))

        monkeypatch.setattr(executor, "walk", counted)
        config = LoadConfig(
            queries=self.MIX, initiators=tuple(sorted(system.storage_nodes)),
            mode="closed", concurrency=8, num_queries=48, seed=seed,
            faults=chaos_plan(sorted(network.nodes), seed=seed, window=600.0,
                              **self.HARSH))
        report = run_workload(system, config, ExecutionOptions(**self.DEFENSE))
        assert len(report.jobs) == 48
        assert report.completed + report.failed == 48
        assert network.stats.messages < self.BUDGET
        ring = len(system.index_nodes)
        assert walks and all(len(set(probed)) <= ring for probed in walks)
        assert max(len(probed) for probed in walks) <= 2 * ring
