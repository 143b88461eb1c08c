"""Local (single-node) evaluation of SPARQL algebra over a graph.

Implements the evaluation function ⟦P⟧_D of Sect. IV-B over an in-memory
:class:`~repro.rdf.graph.Graph`. Each storage node runs exactly this code
in the Local Query Execution stage of the paper's workflow (Fig. 3); the
distributed engine composes these local evaluations across nodes. The same
code doubles as the oracle in tests: distributed answers must equal the
local answer over the union graph.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..rdf.graph import Graph
from ..rdf.terms import IRI, RDFTerm, Variable
from ..rdf.triple import TriplePattern
from . import ast
from .algebra import (
    BGP, Algebra, Filter, GraphNode, Join, LeftJoin, Union, translate_pattern,
)
from .errors import SparqlError
from .expr import filter_rows, order_key, row_predicate
from .solutions import (
    EMPTY_MAPPING,
    SolutionMapping,
    SolutionSet,
    canonical_key,
    compile_extractor,
    conditional_left_outer_join,
    join,
    left_outer_join,
    project,
    union,
)

__all__ = [
    "evaluate_bgp",
    "evaluate_algebra",
    "apply_modifiers",
    "evaluate_query",
    "QueryResult",
]


def evaluate_bgp(
    bgp: BGP, graph: Graph, keep: Optional[Iterable[Variable]] = None
) -> SolutionSet:
    """⟦BGP⟧_D with index-backed candidate generation.

    Patterns are evaluated left to right; each accumulated mapping µ is
    pushed into the next pattern (µ(t)) so the graph indexes prune the
    search — the standard index nested-loop join. Rows are built straight
    from the index's term tuples. *keep* projects the answer onto those
    variables; for a single pattern (every storage-node sub-query) the
    projection is fused into the row extractor.
    """
    scan = graph.scan
    if keep is not None:
        keep = frozenset(keep)
    fused = keep if len(bgp.patterns) == 1 else None
    solutions: List[SolutionMapping] = [EMPTY_MAPPING]
    for pattern in bgp.patterns:
        terms = (pattern.s, pattern.p, pattern.o)
        ps, pp, po = terms
        next_solutions: List[SolutionMapping] = []
        # µ(t) leaves exactly the variables outside dom(µ) unbound, so
        # which positions µ binds, and the extractor for the rest, depend
        # only on µ's schema.
        plans: Dict[object, tuple] = {}
        for mu in solutions:
            schema = mu._schema
            plan = plans.get(schema)
            if plan is None:
                slots = [schema.index.get(term, -1) for term in terms]
                # graph.scan already enforces concrete positions and
                # repeated-variable equality; extraction is all that remains.
                extract = compile_extractor(
                    [term if i < 0 else None for term, i in zip(terms, slots)],
                    fused, schema)
                plan = plans[schema] = (*slots, extract)
            si, pi, oi, extract = plan
            values = mu._values
            next_solutions.extend(extract(
                scan(ps if si < 0 else values[si],
                     pp if pi < 0 else values[pi],
                     po if oi < 0 else values[oi]),
                values))
        if not next_solutions:
            return set()
        solutions = next_solutions
    if keep is not None and fused is None:
        return set(project(solutions, keep))
    return set(solutions)


def evaluate_algebra(node: Algebra, graph: Graph) -> SolutionSet:
    """⟦P⟧_D for a full algebra tree (Sect. IV-B semantics).

    The one local evaluator: what every storage node runs on an arriving
    sub-query and what the test oracle runs on the union graph. Operands
    are evaluated left before right. ``GRAPH`` matches nothing: the
    dataset is the union of all providers and has no named graphs.
    """
    if isinstance(node, BGP):
        return evaluate_bgp(node, graph)
    if isinstance(node, Join):
        return join(evaluate_algebra(node.left, graph),
                    evaluate_algebra(node.right, graph))
    if isinstance(node, Union):
        return union(evaluate_algebra(node.left, graph),
                     evaluate_algebra(node.right, graph))
    if isinstance(node, LeftJoin):
        left = evaluate_algebra(node.left, graph)
        right = evaluate_algebra(node.right, graph)
        if node.condition is None:
            return left_outer_join(left, right)
        return conditional_left_outer_join(left, right,
                                           row_predicate(node.condition))
    if isinstance(node, Filter):
        return filter_rows(node.condition, evaluate_algebra(node.pattern, graph))
    if isinstance(node, GraphNode):
        return set()
    raise SparqlError(f"cannot evaluate algebra node {type(node).__name__}")


# ----------------------------------------------------------- query results


class QueryResult:
    """Result of a full query evaluation.

    ``rows`` is the ordered solution sequence (after modifiers) for SELECT
    and DESCRIBE-by-variable; ``boolean`` is set for ASK; ``graph`` is set
    for CONSTRUCT / DESCRIBE.
    """

    __slots__ = ("rows", "variables", "boolean", "graph")

    def __init__(
        self,
        rows: Optional[List[SolutionMapping]] = None,
        variables: Sequence[Variable] = (),
        boolean: Optional[bool] = None,
        graph: Optional[Graph] = None,
    ) -> None:
        self.rows = rows if rows is not None else []
        self.variables = tuple(variables)
        self.boolean = boolean
        self.graph = graph

    def __len__(self) -> int:
        return len(self.rows)

    def bindings(self) -> List[Dict[str, RDFTerm]]:
        """Rows as plain dicts keyed by variable name (for examples/tests)."""
        return [
            {var.name: term for var, term in mu.items()} for mu in self.rows
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.boolean is not None:
            return f"QueryResult(ASK={self.boolean})"
        if self.graph is not None:
            return f"QueryResult(graph with {len(self.graph)} triples)"
        return f"QueryResult({len(self.rows)} rows)"


def apply_modifiers(
    solutions: Iterable[SolutionMapping],
    modifiers: ast.SolutionModifiers,
    projection: Sequence[Variable] = (),
) -> List[SolutionMapping]:
    """The paper's Post-Processing stage: Order, Projection, Distinct /
    Reduced, Offset, Limit — applied in the spec's order at the query
    initiator."""
    # Canonical term order first, so that the stable ORDER BY sorts leave
    # tied rows in it: set iteration order follows object addresses, and
    # an answer cut by LIMIT/OFFSET must not depend on process history.
    rows = sorted(solutions, key=canonical_key)
    for condition in reversed(modifiers.order):
        rows.sort(
            key=lambda mu: order_key(condition.expression, mu),
            reverse=condition.descending,
        )

    if projection:
        rows = project(rows, projection)

    if modifiers.distinct or modifiers.reduced:
        # Mappings are interned: an order-keeping dedupe by identity.
        rows = list(dict.fromkeys(rows))

    if modifiers.offset:
        rows = rows[modifiers.offset:]
    if modifiers.limit is not None:
        rows = rows[: modifiers.limit]
    return rows


def evaluate_query(query: ast.Query, graph: Graph) -> QueryResult:
    """Evaluate a parsed query completely against a single graph.

    This is the reference ("oracle") evaluation path; the distributed
    executor must agree with it on the union of all storage-node graphs.
    """
    algebra = translate_pattern(query.where)
    solutions = evaluate_algebra(algebra, graph)

    if isinstance(query, ast.AskQuery):
        return QueryResult(boolean=bool(solutions))

    if isinstance(query, ast.SelectQuery):
        projection = list(query.projection)
        if not projection:
            projection = sorted(algebra.in_scope_vars(), key=lambda v: v.name)
        rows = apply_modifiers(solutions, query.modifiers, projection)
        return QueryResult(rows=rows, variables=projection)

    if isinstance(query, ast.ConstructQuery):
        out = Graph()
        for mu in solutions:
            for template in query.template:
                bound = template.substitute(mu.as_dict())
                if bound.is_concrete():
                    try:
                        out.add(bound.as_triple())
                    except TypeError:
                        continue  # e.g. literal subject after substitution
        return QueryResult(graph=out)

    if isinstance(query, ast.DescribeQuery):
        out = Graph()
        targets: Set[RDFTerm] = set()
        for subject in query.subjects:
            if isinstance(subject, IRI):
                targets.add(subject)
            else:
                for mu in solutions:
                    term = mu.get(subject)
                    if term is not None:
                        targets.add(term)
        for target in targets:
            for triple in graph.triples(TriplePattern(target, Variable("p"), Variable("o"))):
                out.add(triple)
        return QueryResult(graph=out)

    raise SparqlError(f"unknown query form {type(query).__name__}")
