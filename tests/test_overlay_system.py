"""HybridSystem assembly tests: construction, publication modes, Fig. 1."""

import pytest

from repro.chord import IdentifierSpace
from repro.overlay import (
    FIG1_INDEX_IDS,
    HybridSystem,
    fig1_network,
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
    def test_fast_and_protocol_publication_agree(self):
        """Direct placement is the oracle for message-level publication:
        both build the same primary rows, replica rows and data epochs,
        at attach time and for a later delta."""
        triples = generate_foaf_triples(FoafConfig(num_people=25, seed=3))
        parts = partition_triples(triples, 3, seed=4)
        delta = parts[0][-8:]

        def build(replication_factor, protocol):
            system = HybridSystem(space=IdentifierSpace(32),
                                  replication_factor=replication_factor)
            for i in range(5):
                system.add_index_node(f"N{i}")
            system.build_ring()
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
            epochs = system.network.data_epochs
            return primary, replicas, epochs.snapshot(keys), epochs.global_epoch

        for replication_factor in (1, 2):
            fast = index(build(replication_factor, protocol=False))
            protocol = index(build(replication_factor, protocol=True))
            assert fast == protocol
            replicas = fast[1]
            assert any(replicas.values()) == (replication_factor > 1)

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
