"""RDFPeers baseline (Cai & Frank, WWW 2004) — the comparator system.

RDFPeers is the flat-DHT design the paper differentiates itself from:
each triple is *stored at* (not merely indexed by) the ring nodes owning
the hashes of its subject, predicate, and object — three copies migrate
away from the data provider. The paper's architecture instead keeps
triples at their providers and distributes only location-table entries.

This implementation provides what the comparison experiments need:

* triple publication with real data migration (charged traffic),
* single-pattern query resolution at the responsible node,
* RDFPeers' subject-anchored conjunctive resolution: candidate subjects
  flow from one predicate's node to the next and are intersected along
  the way (the "recursive algorithm that seeks the candidate subjects for
  each predicate recursively" of Sect. II).

Experiment E7 contrasts publication traffic and data placement; the
query-side numbers show both systems enjoy O(log N) routing.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..chord.hashing import hash_term
from ..chord.idspace import IdentifierSpace
from ..chord.node import ChordNode, walk
from ..chord.ring import ChordRing
from ..net.protocol import MatchPattern, MatchWithCandidates, RangeScan, StoreTriples
from ..net.transport import Network
from ..overlay.peer import QueryPeer
from ..rdf.graph import Graph
from ..rdf.terms import IRI, RDFTerm, is_concrete
from ..rdf.triple import Triple, TriplePattern
from ..sparql.solutions import (
    SolutionMapping, canonical_key, join as omega_join, match_pattern,
)
from .ranges import LocalityHash, NumericRange, numeric_value, sort_ranges

__all__ = ["RDFPeersNode", "RDFPeersSystem"]

_ATTR_TAGS = ("s:", "p:", "o:")


def _attr_key(tag: str, term: RDFTerm, space: IdentifierSpace) -> int:
    return hash_term(tag + term.n3(), space)


class RDFPeersNode(QueryPeer, ChordNode):
    """A ring node that stores triples for the key ranges it owns."""

    def __init__(self, node_id: str, ident: int, space: IdentifierSpace,
                 successor_list_size: int = 3) -> None:
        ChordNode.__init__(self, node_id, ident, space, successor_list_size)
        #: Triples stored here, bucketed by the ring key that put them here.
        self.store: Dict[int, Graph] = {}

    # ---------------------------------------------------------- store side

    def rpc_store_triples(self, payload: StoreTriples, src: str) -> int:
        bucket = self.store.setdefault(payload.key, Graph())
        return bucket.update(payload.triples)

    def rpc_match_pattern(self, payload: MatchPattern, src: str) -> List[SolutionMapping]:
        """Match a pattern against the bucket of one key."""
        pattern: TriplePattern = payload.pattern
        bucket = self.store.get(payload.key)
        if bucket is None:
            return []
        out: Set[SolutionMapping] = set()
        for triple in bucket.triples(pattern):
            mu = match_pattern(pattern, triple)
            if mu is not None:
                out.add(mu)
        return sorted(out, key=canonical_key)

    def rpc_match_with_candidates(self, payload: MatchWithCandidates,
                                  src: str) -> List[SolutionMapping]:
        """One step of the conjunctive algorithm: join incoming candidate
        mappings with this node's matches for the pattern."""
        joined = omega_join(payload.candidates, self.rpc_match_pattern(payload, src))
        return sorted(joined, key=canonical_key)

    def triples_stored(self) -> int:
        return sum(len(g) for g in self.store.values())

    # -------------------------------------------------- numeric range index

    @property
    def numeric_store(self) -> Dict[int, List[Triple]]:
        box = self.__dict__.setdefault("_numeric_store", {})
        return box

    def rpc_store_numeric(self, payload: StoreTriples, src: str) -> int:
        """Store triples under the locality-preserving key of their
        numeric object (Sect. II: range support)."""
        bucket = self.numeric_store.setdefault(payload.key, [])
        added = 0
        for triple in payload.triples:
            if triple not in bucket:
                bucket.append(triple)
                added += 1
        return added

    def rpc_range_scan(self, payload: RangeScan, src: str) -> List[Triple]:
        """Local matches for predicate + ranges among the numeric buckets
        this node stores."""
        predicate: IRI = payload.predicate
        ranges: List[NumericRange] = payload.ranges
        out: List[Triple] = []
        for bucket in self.numeric_store.values():
            for triple in bucket:
                if triple.p != predicate:
                    continue
                value = numeric_value(triple.o)
                if value is None:
                    continue
                if any(r.contains(value) for r in ranges):
                    out.append(triple)
        return sorted(out, key=lambda t: t.n3())


class RDFPeersSystem:
    """A flat multi-attribute addressable network of RDFPeers nodes."""

    def __init__(self, space: Optional[IdentifierSpace] = None,
                 network: Optional[Network] = None) -> None:
        self.space = space or IdentifierSpace(32)
        self.network = network or Network()
        self.ring = ChordRing(self.network, self.space)
        self.nodes: Dict[str, RDFPeersNode] = {}

    @property
    def sim(self):
        return self.network.sim

    @property
    def stats(self):
        return self.network.stats

    def add_node(self, node_id: str, ident: Optional[int] = None) -> RDFPeersNode:
        if ident is None:
            ident = hash_term(node_id, self.space)
        node = RDFPeersNode(node_id, ident, self.space)
        self.ring.add_node(node)
        self.nodes[node_id] = node
        return node

    def build_ring(self) -> None:
        self.ring.build_static()

    # ------------------------------------------------------------ publishing

    def publish(self, provider_id: str, triples: Iterable[Triple]) -> int:
        """Store each triple at the successors of Hash(s), Hash(p), Hash(o).

        The provider routes through the ring (real lookups) and ships the
        triples themselves — the data-migration cost the paper's design
        avoids.
        """
        triples = list(triples)
        entry = self.nodes[provider_id]

        def proc():
            stored = 0
            by_key: Dict[int, List[Triple]] = {}
            for triple in triples:
                for tag, term in zip(_ATTR_TAGS, triple):
                    key = _attr_key(tag, term, self.space)
                    by_key.setdefault(key, []).append(triple)
            for key in sorted(by_key):
                result = yield from walk(entry.call, entry.ref, key)
                stored += yield entry.call(
                    result.ref.node_id,
                    "store_triples",
                    StoreTriples(key=key, triples=by_key[key]),
                    timeout=60.0,
                )
            return stored

        return self.sim.run_process(proc())

    # -------------------------------------------------------------- querying

    @staticmethod
    def _route_attr(pattern: TriplePattern) -> Tuple[str, RDFTerm]:
        """The attribute RDFPeers routes on: the least-frequent bound one;
        we use subject > object > predicate preference (predicates are the
        most skewed, as the RDFPeers paper itself notes)."""
        if is_concrete(pattern.s):
            return "s:", pattern.s  # type: ignore[return-value]
        if is_concrete(pattern.o):
            return "o:", pattern.o  # type: ignore[return-value]
        if is_concrete(pattern.p):
            return "p:", pattern.p  # type: ignore[return-value]
        raise ValueError("RDFPeers cannot route a fully unbound pattern")

    def query_pattern(self, initiator_id: str, pattern: TriplePattern) -> List[SolutionMapping]:
        """Resolve one triple pattern at the responsible node."""
        entry = self.nodes[initiator_id]
        tag, term = self._route_attr(pattern)
        key = _attr_key(tag, term, self.space)

        def proc():
            result = yield from walk(entry.call, entry.ref, key)
            matches = yield entry.call(
                result.ref.node_id, "match_pattern",
                MatchPattern(key=key, pattern=pattern))
            return matches

        return self.sim.run_process(proc())

    def query_conjunction(
        self, initiator_id: str, patterns: Sequence[TriplePattern]
    ) -> List[SolutionMapping]:
        """Subject-anchored conjunctive resolution: candidates travel from
        node to node and are intersected (joined) at each step."""
        entry = self.nodes[initiator_id]

        def proc():
            candidates: Optional[List[SolutionMapping]] = None
            for pattern in patterns:
                tag, term = self._route_attr(pattern)
                key = _attr_key(tag, term, self.space)
                result = yield from walk(entry.call, entry.ref, key)
                owner = result.ref.node_id
                if candidates is None:
                    candidates = yield entry.call(
                        owner, "match_pattern", MatchPattern(key=key, pattern=pattern))
                else:
                    candidates = yield entry.call(
                        owner, "match_with_candidates",
                        MatchWithCandidates(key=key, pattern=pattern,
                                            candidates=candidates))
                if not candidates:
                    return []
            return candidates or []

        return self.sim.run_process(proc())

    # ------------------------------------------------- numeric range queries

    def enable_numeric_index(self, domain_lo: float, domain_hi: float) -> None:
        """Configure the globally-known numeric attribute domain for the
        locality-preserving hash (RDFPeers assumes one)."""
        self.locality = LocalityHash(domain_lo, domain_hi, self.space)

    def publish_numeric(self, provider_id: str, triples: Iterable[Triple]) -> int:
        """Additionally store numeric-object triples under their locality
        keys (real lookups + data shipping, as in :meth:`publish`)."""
        if not hasattr(self, "locality"):
            raise RuntimeError("call enable_numeric_index first")
        entry = self.nodes[provider_id]
        by_key: Dict[int, List[Triple]] = {}
        for triple in triples:
            value = numeric_value(triple.o)
            if value is None:
                continue
            by_key.setdefault(self.locality.key(value), []).append(triple)

        def proc():
            stored = 0
            for key in sorted(by_key):
                result = yield from walk(entry.call, entry.ref, key)
                stored += yield entry.call(
                    result.ref.node_id,
                    "store_numeric",
                    StoreTriples(key=key, triples=by_key[key]),
                    timeout=60.0,
                )
            return stored

        return self.sim.run_process(proc())

    def range_query(
        self,
        initiator_id: str,
        predicate: IRI,
        ranges: Sequence[NumericRange],
    ) -> List[Triple]:
        """Resolve (possibly disjunctive) numeric range queries.

        Ranges are sorted ascending and coalesced (the paper's "range
        ordering algorithm"), then each arc of the ring is walked from the
        successor of Hash(lo) to the successor of Hash(hi): only nodes
        whose segments intersect the query are visited.
        """
        if not hasattr(self, "locality"):
            raise RuntimeError("call enable_numeric_index first")
        ordered = _coalesce(sort_ranges(ranges))
        entry = self.nodes[initiator_id]

        def proc():
            matches: List[Triple] = []
            visited: Set[str] = set()

            def visit(ref):
                if ref.node_id in visited:
                    return
                visited.add(ref.node_id)
                found = yield entry.call(
                    ref.node_id,
                    "range_scan",
                    RangeScan(predicate=predicate, ranges=list(ordered)),
                )
                matches.extend(found)

            for rng in ordered:
                # Locality keys never wrap (the domain maps monotonically
                # onto [0, 2^m)), so the arc is the plain interval
                # [start_key, end_key]; the successor chain may still wrap
                # past 2^m - 1, in which case the wrapping node owns the
                # remainder of the arc.
                start_key, end_key = self.locality.arc(rng)
                result = yield from walk(entry.call, entry.ref, start_key)
                current = result.ref
                while True:
                    yield from visit(current)
                    # Done when the arc end is covered: either this node's
                    # id passed end_key, or we are on a wrapped node (id
                    # below start_key), which owns the ring's tail arc.
                    if current.ident >= end_key or current.ident < start_key:
                        break
                    succ_list = yield entry.call(current.node_id, "get_successor_list")
                    if not succ_list or succ_list[0] == current:
                        break
                    nxt = succ_list[0]
                    if nxt.ident <= current.ident:  # wrapped around the top
                        yield from visit(nxt)
                        break
                    current = nxt
            return sorted(set(matches), key=lambda t: t.n3())

        return self.sim.run_process(proc())

    # ------------------------------------------------------------- metrics

    def total_stored(self) -> int:
        return sum(node.triples_stored() for node in self.nodes.values())


def _coalesce(ordered: List[NumericRange]) -> List[NumericRange]:
    """Merge overlapping/adjacent sorted ranges into maximal arcs."""
    if not ordered:
        return []
    merged = [ordered[0]]
    for rng in ordered[1:]:
        last = merged[-1]
        if rng.lo <= last.hi:
            merged[-1] = NumericRange(last.lo, max(last.hi, rng.hi))
        else:
            merged.append(rng)
    return merged
