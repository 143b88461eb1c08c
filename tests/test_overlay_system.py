"""HybridSystem assembly tests: construction, publication modes, Fig. 1."""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chord import IdentifierSpace, NodeRef
from repro.net import RpcError
from repro.net.protocol import IndexEntries, Publish
from repro.overlay import (
    FIG1_INDEX_IDS,
    HybridSystem,
    PublicationFailed,
    fig1_network,
    index_keys,
    key_for_pattern,
)
from repro.rdf import FOAF, TriplePattern, Variable
from repro.workloads import (
    FoafConfig,
    generate_foaf_triples,
    paper_example_partition,
    partition_triples,
)

from helpers import build_system

X, Y = Variable("x"), Variable("y")

#: An 8-bit ring: small enough that node idents collide with published
#: keys and every arc holds several of them.
SMALL_SPACE = IdentifierSpace(8)
SMALL_TRIPLES = generate_foaf_triples(FoafConfig(num_people=12, seed=3))


def small_ring(idents, replication_factor=1):
    """A converged ring on the 8-bit space; node ``N<ident>`` per ident."""
    system = HybridSystem(space=SMALL_SPACE,
                          replication_factor=replication_factor)
    for ident in idents:
        system.add_index_node(f"N{ident}", ident)
    system.build_ring()
    return system


def publish_batch(system, publisher, storage_id, entries):
    """Run one ``publish`` RPC from a fresh storage node to *publisher*;
    returns the installed count."""
    system.add_storage_node(storage_id, attach_to=publisher, publish=False)

    def proc():
        return (yield system.network.call(
            storage_id, publisher, "publish",
            Publish(storage_id=storage_id, entries=entries), timeout=60.0))

    return system.sim.run_process(proc())


def rows_by_node(system):
    return {node_id: dict(node.table.export_range())
            for node_id, node in system.index_nodes.items() if len(node.table)}


class TestConstruction:
    def test_storage_requires_ring(self):
        system = HybridSystem()
        with pytest.raises(RuntimeError):
            system.add_storage_node("D1")

    def test_default_attachment_is_deterministic(self):
        s1 = build_system()
        s2 = build_system()
        assert {k: v.index_node_id for k, v in s1.storage_nodes.items()} == \
               {k: v.index_node_id for k, v in s2.storage_nodes.items()}

    def test_attachment_registered_at_index_node(self, paper_system):
        for storage_id, node in paper_system.storage_nodes.items():
            parent = paper_system.index_nodes[node.index_node_id]
            assert storage_id in parent.attached_storage

    def test_union_graph_is_dataset_union(self, paper_system):
        union = paper_system.union_graph()
        # every local triple appears; duplicates collapse
        total_with_dupes = paper_system.total_triples()
        assert len(union) <= total_with_dupes
        for node in paper_system.storage_nodes.values():
            for t in node.graph:
                assert t in union


class TestPublication:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_fast_and_protocol_publication_agree(self, data):
        """Direct placement is the oracle for message-level publication:
        both build the same primary rows, replica rows and data epochs,
        at attach time and for a later delta — on rings of 1-48 nodes
        with random idents, one of them equal to a published key, and an
        arc wrapping through zero that holds keys on both sides of it."""
        keys = sorted({key for triple in SMALL_TRIPLES
                       for _, key in index_keys(triple, SMALL_SPACE)})
        # Idents strictly inside (min key, max key): the lowest node's arc
        # wraps through zero and holds keys[0] and keys[-1].
        idents = data.draw(st.sets(st.integers(keys[0] + 1, keys[-1] - 1),
                                   max_size=47))
        idents.add(data.draw(st.sampled_from(keys[1:-1])))
        replication_factor = data.draw(st.integers(1, 3))
        providers = data.draw(st.integers(1, 4))
        parts = partition_triples(SMALL_TRIPLES, providers,
                                  overlap=data.draw(st.sampled_from([0.0, 0.3])),
                                  seed=data.draw(st.integers(0, 2**16)))
        delta = parts[0][-8:]

        def build(protocol):
            system = small_ring(sorted(idents), replication_factor)
            for i, part in enumerate(parts):
                initial = part[:-8] if i == 0 else part
                system.add_storage_node(f"D{i}", initial, publish=True,
                                        protocol=protocol)
            storage = system.storage_nodes["D0"]
            storage.add_triples(delta)
            assert system.publish_delta(storage, delta, protocol=protocol) > 0
            system.sim.run()  # land the one-way replica copies
            return system

        def index(system):
            primary = {node_id: dict(node.table.export_range())
                       for node_id, node in system.index_nodes.items()}
            replicas = {node_id: dict(node.replicas.export_range())
                        for node_id, node in system.index_nodes.items()}
            keys = {key for rows in primary.values() for key in rows}
            return primary, replicas, system.network.data_epochs.stamp(keys).epochs

        fast = index(build(protocol=False))
        assert fast == index(build(protocol=True))
        replicas = fast[1]
        assert any(replicas.values()) == (replication_factor > 1
                                          and len(idents) > 1)

    def test_protocol_publication_costs_messages(self):
        triples = generate_foaf_triples(FoafConfig(num_people=10, seed=3))
        system = HybridSystem()
        for i in range(4):
            system.add_index_node(f"N{i}")
        system.build_ring()
        before = system.stats.messages
        system.add_storage_node("D0", triples, publish=True, protocol=True)
        assert system.stats.messages > before

    def test_fast_publication_is_free(self):
        triples = generate_foaf_triples(FoafConfig(num_people=10, seed=3))
        system = HybridSystem()
        for i in range(4):
            system.add_index_node(f"N{i}")
        system.build_ring()
        before = system.stats.messages
        system.add_storage_node("D0", triples, publish=True)
        assert system.stats.messages == before

    def test_replication_places_rows_at_successors(self):
        system = build_system(replication_factor=2)
        pattern = TriplePattern(X, FOAF.knows, Y)
        kind, key = key_for_pattern(pattern, system.space)
        owner = system.ring.owner_of(key)
        successor = system.index_nodes[owner.successor.node_id]
        assert successor.replicas.row_dict(key) != {}


class TestArcWalk:
    def test_index_put_installs_owned_keys_and_bounces_the_rest(self):
        system = small_ring([10, 60, 130, 200], replication_factor=2)
        node = system.index_nodes["N60"]  # owns (10, 60]
        entries = [(5, "D0", 1), (11, "D0", 2), (60, "D0", 3), (61, "D0", 1)]
        reply = node.rpc_index_put(IndexEntries(entries=entries), "N10")
        system.sim.run()
        assert reply.bounced == [(5, "D0", 1), (61, "D0", 1)]
        assert reply.successor == system.index_nodes["N130"].ref
        assert rows_by_node(system) == {"N60": {11: {"D0": 2}, 60: {"D0": 3}}}
        # Only the installed entries are replicated.
        assert dict(system.index_nodes["N130"].replicas.export_range()) == {
            11: {"D0": 2}, 60: {"D0": 3}}

    def test_a_key_that_keeps_bouncing_fails_the_publication(self):
        system = small_ring([10, 60, 130, 200])
        # N200 believes its predecessor is at 190: every lookup of a key in
        # (130, 190] names it, and it refuses every such key.
        system.index_nodes["N200"].predecessor = NodeRef(190, "N190")
        with pytest.raises(PublicationFailed, match="bounce at N200 after 3"):
            system.sim.run_process(system.index_nodes["N10"].rpc_publish(
                Publish(storage_id="D0", entries=[(150, 1), (195, 1)]), "D0"))
        with pytest.raises(RpcError, match="bounce"):
            publish_batch(system, "N10", "D0", [(150, 1)])

    def test_join_between_lookup_and_put(self):
        """A node joins inside the looked-up owner's arc before the put
        lands: the owner bounces the keys it lost and the walk places them
        at the newcomer."""
        system = small_ring([10, 60, 130, 200])
        publish_batch(system, "N10", "D0", [(140, 4), (170, 2), (190, 1)])
        publisher = system.index_nodes["N10"]
        joiner = system.add_index_node("N160", 160)
        network_call = publisher.call
        walk = []

        def join_then_call(dst, method, payload=None, **kwargs):
            # The walk's own steps: lookups it starts and puts it sends.
            if (method, dst) == ("find_successor", "N10") or method == "index_put":
                walk.append((method, dst))
            if walk != [("find_successor", "N10"), ("index_put", "N200")]:
                return network_call(dst, method, payload, **kwargs)
            walk.append(("join", "N160"))

            def join_first():
                yield from joiner.join(publisher.ref)
                for node_id in sorted(system.index_nodes):
                    yield from system.index_nodes[node_id].stabilize()
                return (yield network_call(dst, method, payload, **kwargs))

            return system.sim.process(join_first())

        publisher.call = join_then_call
        # The batch sits in N200's arc only, so the walk has to look it up.
        installed = publish_batch(system, "N10", "D1",
                                  [(140, 1), (150, 2), (160, 1), (195, 3)])
        assert installed == 4
        assert walk == [("find_successor", "N10"), ("index_put", "N200"),
                        ("join", "N160"),
                        ("find_successor", "N10"), ("index_put", "N160")]
        for node_id, rows in rows_by_node(system).items():
            for key in rows:
                assert system.ring.owner_of(key).node_id == node_id
        assert rows_by_node(system) == {
            "N160": {140: {"D0": 4, "D1": 1}, 150: {"D1": 2}, 160: {"D1": 1}},
            "N200": {170: {"D0": 2}, 190: {"D0": 1}, 195: {"D1": 3}},
        }

    def test_publication_costs_at_most_two_messages_per_triple(self):
        """On a 16-node ring the walk sends at most one put per owner and
        looks a key up only where no reply already names its owner."""
        triples = generate_foaf_triples(FoafConfig(num_people=40, seed=5))
        system = HybridSystem(space=IdentifierSpace(32))
        for i in range(16):
            system.add_index_node(f"N{i}")
        system.build_ring()
        lookups = Counter()
        for node in system.index_nodes.values():
            def counting(dst, method, payload=None, _call=node.call,
                         _id=node.node_id, **kwargs):
                if (method, dst) == ("find_successor", _id):  # not a hop
                    lookups[_id] += 1
                return _call(dst, method, payload, **kwargs)
            node.call = counting

        batches = partition_triples(triples, 4, seed=6) + [triples[:1]]
        for i, part in enumerate(batches):
            lookups.clear()
            storage = system.add_storage_node(f"D{i}", part, protocol=True)
            owners = {system.ring.owner_of(key).node_id
                      for _, key in storage.key_counts(system.space)}
            assert sum(lookups.values()) <= len(owners)
        assert system.stats.messages / system.total_triples() <= 2


class TestFig1:
    def test_topology(self):
        system = fig1_network()
        refs = system.ring.sorted_refs()
        assert [(r.node_id, r.ident) for r in refs] == list(FIG1_INDEX_IDS)
        assert system.ring.is_consistent()

    def test_attachments_match_figure(self):
        system = fig1_network()
        n7 = system.index_nodes["N7"]
        assert n7.attached_storage == ["D1", "D3", "D4"]
        assert system.index_nodes["N15"].attached_storage == ["D2"]

    def test_four_bit_space(self):
        system = fig1_network()
        assert system.space.bits == 4

    def test_with_data_queries_work(self):
        system = fig1_network(paper_example_partition())
        result, report = system.execute(
            "SELECT ?x WHERE { ?x foaf:knows ns:me . }", initiator="D1"
        )
        assert len(result.rows) == 2
