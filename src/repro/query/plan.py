"""Planning data structures and the index-consultation step.

``PatternInfo`` captures what the planner learns about one triple pattern
from the two-level index: which key serves it, which index node owns that
key, and the location-table row (storage nodes + frequencies). Frequency
totals order chains, drive move-small, and feed join reordering — the
three uses the paper assigns to the frequency numbers of Table I.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence, Set, Tuple

from ..overlay.keys import KeyKind, key_for_pattern
from ..overlay.location_table import LocationEntry
from ..rdf.terms import Variable
from ..rdf.triple import TriplePattern
from ..sparql import ast
from ..sparql.algebra import Algebra, BGP, Filter, GraphNode, Join, LeftJoin, Union

__all__ = [
    "PatternInfo",
    "ResultHandle",
    "subquery_algebra",
    "unread_info",
    "choose_shared_site",
    "combine_vars",
    "compute_live_vars",
]


@dataclass(frozen=True, slots=True)
class PatternInfo:
    """Everything the planner knows about one triple pattern."""

    pattern: TriplePattern
    #: The index key serving the pattern; None for (?s, ?p, ?o).
    key_kind: Optional[KeyKind]
    key: Optional[int]
    #: Index node owning the key (None for the broadcast case, and while
    #: an unread pattern's owner is not yet resolved).
    owner: Optional[str]
    #: The location-table row; None when it was not read, because the
    #: owner reads it itself when the sub-query reaches it.
    entries: Optional[Tuple[LocationEntry, ...]]
    #: DHT hops spent locating the owner.
    lookup_hops: int = 0
    #: FILTER condition pushed into this pattern's sub-query, if any.
    condition: Optional[ast.Expression] = None

    @property
    def storage_ids(self) -> Set[str]:
        return {e.storage_id for e in self.entries}

    @property
    def total_frequency(self) -> int:
        """Upper bound on matching triples across all providers — the
        planner's cardinality estimate for this pattern."""
        return sum(e.frequency for e in self.entries)

    def frequency_of(self, storage_id: str) -> int:
        for entry in self.entries:
            if entry.storage_id == storage_id:
                return entry.frequency
        return 0

    def heaviest_provider(self) -> Optional[str]:
        """The provider holding the most matching triples (ties toward the
        larger node id), or None when the row lists no provider."""
        if not self.entries:
            return None
        return max(self.entries, key=lambda e: (e.frequency, e.storage_id)).storage_id


@dataclass(frozen=True, slots=True)
class ResultHandle:
    """A materialized intermediate result: *count* solutions sitting in
    the mailbox of node *site* under correlation id *corr*.

    ``vars``, when known, is the set of variables *certainly* bound in
    every solution of the box (the planner's static knowledge) — what the
    shipping layer uses to size semijoin digests and projection lists.
    ``None`` means unknown; the shipping optimizations then stay off for
    this handle rather than guess.
    """

    site: str
    corr: str
    count: int
    vars: Optional[FrozenSet[Variable]] = None


def combine_vars(
    op: str,
    left: Optional[FrozenSet[Variable]],
    right: Optional[FrozenSet[Variable]],
) -> Optional[FrozenSet[Variable]]:
    """Certain variables of a combined result (None = unknown).

    join: both sides' certain variables survive in every merged row;
    union: only variables certain on *both* branches stay certain;
    leftjoin/minus: the left side's certain variables (OPTIONAL bindings
    are exactly the uncertain ones).
    """
    if op == "join":
        if left is None or right is None:
            return None
        return left | right
    if op == "union":
        if left is None or right is None:
            return None
        return left & right
    if op in ("leftjoin", "minus"):
        return left
    return None


def unread_info(pattern: TriplePattern, condition: Optional[ast.Expression],
                space) -> PatternInfo:
    """*pattern*'s ring key with its row not read (``entries`` None), or
    the broadcast info of (?s, ?p, ?o), which has no key and no row."""
    located = key_for_pattern(pattern, space)
    if located is None:
        return PatternInfo(pattern, None, None, None, (), 0, condition)
    return PatternInfo(pattern, located[0], located[1], None, None, 0, condition)


def subquery_algebra(info: PatternInfo) -> Algebra:
    """The sub-query shipped to storage nodes for this pattern: its BGP,
    wrapped in the pushed-down filter when one travelled with it."""
    bgp = BGP((info.pattern,))
    if info.condition is not None:
        return Filter(info.condition, bgp)
    return bgp


def choose_shared_site(infos: Sequence[PatternInfo]) -> Optional[str]:
    """The overlap heuristic of Sect. IV-D.

    Prefer the storage node present in the most patterns' provider sets
    (so the most chains can end there without extra shipping); break ties
    toward the node holding the most matching triples (its own data never
    crosses the network), then by node id for determinism. Returns None
    when no node serves at least two patterns — no useful overlap.
    """
    if not infos:
        return None
    presence: Dict[str, int] = {}
    weight: Dict[str, int] = {}
    for info in infos:
        for entry in info.entries:
            presence[entry.storage_id] = presence.get(entry.storage_id, 0) + 1
            weight[entry.storage_id] = weight.get(entry.storage_id, 0) + entry.frequency
    if not presence:
        return None
    best = max(
        presence,
        key=lambda node: (presence[node], weight[node], node),
    )
    if len(infos) > 1 and presence[best] < 2:
        return None
    return best


# ----------------------------------------------------- projection pushdown


def _walk_algebra(node: Algebra):
    yield node
    if isinstance(node, BGP):
        return
    if isinstance(node, (Join, LeftJoin, Union)):
        yield from _walk_algebra(node.left)
        yield from _walk_algebra(node.right)
    elif isinstance(node, (Filter, GraphNode)):
        yield from _walk_algebra(node.pattern)


def _condition_vars(algebra: Algebra) -> Set[Variable]:
    """Variables referenced by any FILTER / OPTIONAL condition anywhere in
    the tree — these must survive every ship, wherever the condition ends
    up running (pushed to providers, at a join site, or post-hoc)."""
    out: Set[Variable] = set()
    for node in _walk_algebra(algebra):
        if isinstance(node, Filter):
            out |= node.condition.variables()
        elif isinstance(node, LeftJoin) and node.condition is not None:
            out |= node.condition.variables()
    return out


def _join_vars(algebra: Algebra) -> Set[Variable]:
    """Variables occurring in ≥ 2 triple-pattern leaves: potential join
    keys between some pair of operands, so never prunable mid-plan."""
    counts: Counter = Counter()
    for node in _walk_algebra(algebra):
        if isinstance(node, BGP):
            for pattern in node.patterns:
                counts.update(pattern.variables())
    return {v for v, n in counts.items() if n >= 2}


def _output_vars(query: ast.Query, algebra: Algebra) -> Optional[Set[Variable]]:
    """Variables the post-processing stage needs, or None when pruning is
    unsound for this query form.

    Plain (non-DISTINCT) SELECT returns None: the final row sequence
    keeps duplicate projected rows that stem from distinct pre-projection
    mappings, so dropping columns early would collapse multiplicities.
    """
    if isinstance(query, ast.AskQuery):
        return set()
    if isinstance(query, ast.SelectQuery):
        if not (query.modifiers.distinct or query.modifiers.reduced):
            return None
        projection = set(query.projection)
        if not projection:  # SELECT *
            projection = set(algebra.in_scope_vars())
        return projection
    if isinstance(query, ast.ConstructQuery):
        out: Set[Variable] = set()
        for template in query.template:
            out |= template.variables()
        return out
    if isinstance(query, ast.DescribeQuery):
        return {v for v in query.subjects if isinstance(v, Variable)}
    return None


def compute_live_vars(
    query: ast.Query, algebra: Algebra
) -> Optional[FrozenSet[Variable]]:
    """The global keep-set K for projection pushdown, or None (no pruning).

    A variable may be dropped from a shipped solution set iff it is not
    in K. K = output vars ∪ all condition vars ∪ ORDER BY vars ∪ every
    variable shared between two triple-pattern leaves. Because any
    dropped variable occurs in exactly one leaf, it is never a shared
    variable of any downstream join/minus compatibility check, so
    dropping it commutes with every algebra operation under set
    semantics; K's output component keeps the final answer intact.
    """
    output = _output_vars(query, algebra)
    if output is None:
        return None
    live: Set[Variable] = set(output)
    for cond in query.modifiers.order:
        live |= cond.expression.variables()
    live |= _condition_vars(algebra)
    live |= _join_vars(algebra)
    return frozenset(live)
