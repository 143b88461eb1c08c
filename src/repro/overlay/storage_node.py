"""Storage nodes: the data providers of the ad-hoc system.

A storage node "stores locally and manipulates data items of its own"
(Sect. I) and attaches to one index node on the ring (Sect. III-A). It
answers sub-queries over its local graph, participates in the chained
in-network aggregation of Sect. IV-C, and can host join/union operations
through the :class:`~repro.overlay.peer.QueryPeer` mailbox — the paper's
join-site flexibility.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from ..chord.idspace import IdentifierSpace
from ..net.protocol import ChainStep, Evaluate
from ..net.transport import Node
from ..net.wire import FilteredResult, encode_solutions, merge_solutions, shed
from ..rdf.graph import Graph
from ..rdf.triple import Triple
from ..sparql.algebra import BGP, Algebra
from ..sparql.eval import evaluate_algebra, evaluate_bgp
from .keys import KeyKind, index_keys
from .peer import QueryPeer

__all__ = ["StorageNode"]

#: Memoized sub-query answers one node keeps; the memo is cleared when
#: full. A memory bound, not a tuning knob (DESIGN.md §6).
_MAX_ANSWERS = 256


class StorageNode(QueryPeer, Node):
    """A data provider holding its own RDF graph."""

    def __init__(
        self,
        node_id: str,
        triples: Optional[Iterable[Triple]] = None,
        graph: Optional[Graph] = None,
    ) -> None:
        Node.__init__(self, node_id)
        if graph is not None:
            # An externally built repository — e.g. a
            # :class:`~repro.storage.durable.DurableGraph` recovered from
            # disk; *triples* (if any) are merged on top.
            self.graph = graph
            if triples is not None:
                self.graph.update(triples)
        else:
            self.graph = Graph(triples)
        #: The ring node this storage node is attached to (Sect. III-A:
        #: "attach to one of the nodes on the ring").
        self.index_node_id: Optional[str] = None
        #: (algebra, keep, digest) → (frozen answer, rows the digest
        #: shed), valid while the graph object and its version are the
        #: ones in ``_answers_at``.
        self._answers: Dict[tuple, Tuple[FrozenSet, Optional[int]]] = {}
        self._answers_at: Tuple[Optional[Graph], int] = (None, -1)

    # ------------------------------------------------------------- data mgmt

    def add_triples(self, triples: Iterable[Triple]) -> int:
        """Insert triples into the local graph only.

        The distributed index is *not* touched; callers that want the new
        triples discoverable must publish the delta (see
        :meth:`HybridSystem.publish_delta <repro.overlay.system.HybridSystem.publish_delta>`),
        mirroring how a provider first stores data and then announces it.
        """
        return self.graph.update(triples)

    def remove_triples(self, triples: Iterable[Triple]) -> int:
        """Remove triples from the local graph only (see add_triples)."""
        return sum(1 for t in triples if self.graph.discard(t))

    def key_counts_for(self, triples, space: IdentifierSpace) -> Dict[Tuple[KeyKind, int], int]:
        """Aggregate the six index keys over *triples*.

        Returns (kind, ring key) → triple count; the counts become the
        frequency numbers in the location tables (Table I).
        """
        counts: Counter = Counter()
        for triple in triples:
            for kind, key in index_keys(triple, space):
                counts[(kind, key)] += 1
        return dict(counts)

    def key_counts(self, space: IdentifierSpace) -> Dict[Tuple[KeyKind, int], int]:
        """The six-key counts over the whole local graph."""
        return self.key_counts_for(self.graph, space)

    # ------------------------------------------------------------ local eval

    def local_eval(self, algebra: Algebra):
        """⟦P⟧ over the local repository only."""
        return evaluate_algebra(algebra, self.graph)

    # ---------------------------------------------------------- RPC handlers

    def rpc_evaluate(self, payload: Evaluate, src: str):
        """Evaluate a sub-query and reply with the local solutions
        (the BASIC strategy's storage-node step). A ``digest`` drops rows
        that cannot join before they leave this node (the reply then
        reports the dropped count), ``project`` prunes dead variables and
        ``plain`` asks for the plain row list instead of a batch.
        """
        solutions, pruned = self._eval_shippable(payload)
        encoded = encode_solutions(solutions, payload.plain)
        if pruned is not None:
            return FilteredResult(encoded, pruned)
        return encoded

    def _eval_shippable(self, payload):
        """Local evaluation of an ``evaluate`` or ``chain_step`` request
        with the pre-ship reductions applied.

        Returns (solutions, pruned) — *pruned* is None when no digest was
        supplied, else the number of rows it dropped.
        """
        return self._answer(payload.algebra, payload.project, payload.digest)

    def _answer(self, algebra: Algebra, keep,
                digest=None) -> Tuple[FrozenSet, Optional[int]]:
        """⟦algebra⟧ over the local graph, shed by *digest* and projected
        onto *keep* (:func:`~repro.net.wire.shed`; None: no such step) →
        (frozen rows, rows the digest dropped or None).

        The answer is a pure function of the sub-query, the digest and
        the graph, so it is memoized for as long as the graph object and
        its version stand; callers share the frozen result. Digests are
        interned values, so the key holds one by identity, and a
        sub-query repeated with the same digest is shed once.
        """
        graph = self.graph
        answers = self._answers
        at_graph, at_version = self._answers_at
        if at_graph is not graph or at_version != graph.version:
            answers.clear()
            self._answers_at = (graph, graph.version)
        key = (algebra, None if keep is None else frozenset(keep), digest)
        answer = answers.get(key)
        if answer is None:
            if digest is not None:
                rows, pruned = shed(self._answer(algebra, None)[0], digest, keep)
            elif type(algebra) is BGP:
                # The plain sub-query: scan straight to (projected) rows.
                rows, pruned = evaluate_bgp(algebra, graph, keep), None
            else:
                rows, pruned = shed(self.local_eval(algebra), None, keep)
            if len(answers) >= _MAX_ANSWERS:
                answers.clear()
            answer = answers[key] = (frozenset(rows), pruned)
        return answer

    def rpc_chain_step(self, payload: ChainStep, src: str) -> None:
        """One step of in-network aggregation (Sect. IV-C optimization).

        Evaluate the sub-query locally, merge with the accumulated
        solutions from the predecessor node, then either forward the
        (query, merged solutions) to the next node on the sequence list or
        deliver the final result.

        One-way semantics: invoked via ``Network.send``; intermediate
        results never back-track, which is the whole point of the chain.
        """
        assert self.network is not None
        local, pruned = self._eval_shippable(payload)
        if pruned:
            # A chain step sends no reply to carry a pruned counter: the
            # rows shed here are credited to the query's report by flow.
            report = self.network.flow_reports.get(payload.flow)
            if report is not None:
                report.credit_chain_step(payload.corr, pruned)
        data = merge_solutions(local, payload.acc, payload.plain)
        route = payload.route
        if route:
            self.network.send(self.node_id, route[0], "chain_step",
                              self._chain_step_msg(payload, data, route[1:]))
            return
        delivery = self._deliver_msg(payload, payload.corr, data)
        if payload.final == self.node_id:
            # This node *is* the destination site (the shared node the
            # chain was routed to end at): deposit locally, no message.
            self.rpc_deliver(delivery, self.node_id)
        else:
            self.network.send(self.node_id, payload.final, "deliver", delivery)
