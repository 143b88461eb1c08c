"""The physical-operator plan: one explainable tree for the distributed
engine.

The paper's workflow (Fig. 3) compiles a query into SPARQL algebra and
then *executes the algebra directly* — locally at storage nodes, and
distributedly at the initiator. Local evaluation stays a plain algebra
walk (:func:`repro.sparql.eval.evaluate_algebra`). For the distributed
half this module inserts the layer every database engine has: an
explicit tree of **physical operators**, each carrying its placement and
its estimated and actual cardinality/wire cost.

:func:`compile_distributed` builds the plan the executor's ``exec_plan``
walks: :class:`IndexLookup` leaves under :class:`ChainShip` primitives,
multi-pattern :class:`BGPWalk` composites, and :class:`HashJoin` /
:class:`LeftJoinOp` / :class:`UnionOp` combines whose operands hang off
explicit :class:`Ship` / :class:`SemijoinShip` edges.

Compilation is **pure** — no messages, no correlation ids — so the
legacy strategy flags stay bit-identical: the compiled tree is a 1:1
structural image of the old per-operator dispatch, and the runtime
modules execute the same calls in the same order. The ``cost`` plan
mode (:mod:`repro.query.cost`) then *annotates* this tree — join order,
walk mode, chain strategy, combine sites — before execution instead of
re-deciding per step.

``repro explain`` renders the tree via :func:`format_plan` with the
estimate-vs-actual columns filled in after execution.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from ..rdf.triple import TriplePattern
from ..sparql import ast
from ..sparql.algebra import (
    Algebra, BGP, Filter, GraphNode, Join, LeftJoin, Union,
)
from ..sparql.errors import SparqlError

__all__ = [
    "PhysOp",
    "IndexLookup", "ChainShip", "BGPWalk", "EmptyScan",
    "CachedScan", "CacheProbe",
    "Ship", "SemijoinShip",
    "HashJoin", "UnionOp", "LeftJoinOp", "FilterOp",
    "OrderBy", "Project", "Distinct", "Slice", "FormOp",
    "compile_distributed", "compile_query_plan",
    "pattern_leaf", "note_lookup", "note_owner", "note_result", "may_prune",
    "certain_vars", "operand_digests", "pick_digest",
    "walk_plan", "chain_leaves", "count_ops", "format_plan",
]


# ------------------------------------------------------------- node classes


class PhysOp:
    """Base physical operator.

    Mutable on purpose: the planner writes estimates (``est_rows`` /
    ``est_bytes``) before execution and the runtime writes observations
    (``placement``, ``actual_rows``, ``actual_bytes``, ``detail``)
    during it — one compiled tree is executed exactly once per query.
    ``actual_bytes`` is the network-stats delta observed across the
    operator's execution window; sibling operators run as parallel
    simulation processes, so overlapping windows may attribute the same
    message to more than one operator (per-operator attribution, not a
    partition of the query total).
    """

    __slots__ = ("op_id", "children", "placement", "est_rows", "est_bytes",
                 "actual_rows", "actual_bytes", "detail")

    kind = "Op"

    def __init__(self, children: Sequence["PhysOp"] = ()) -> None:
        self.op_id = -1
        self.children: List[PhysOp] = list(children)
        self.placement: Optional[str] = None
        self.est_rows: Optional[float] = None
        self.est_bytes: Optional[float] = None
        self.actual_rows: Optional[int] = None
        self.actual_bytes: Optional[int] = None
        self.detail: Dict[str, object] = {}

    def describe(self) -> str:
        """Operator-specific annotation appended to the kind in renders."""
        return ""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = self.describe()
        return f"<{self.kind}#{self.op_id}{' ' + extra if extra else ''}>"


def _pattern_text(pattern: TriplePattern) -> str:
    return pattern.n3().rstrip(" .")


def _probe_text(side: str, detail: Dict[str, object]) -> str:
    """``probe-first``, the side that probed (a combine's operand) and,
    once it ran, the mode and wire size of the digests it sent."""
    text = f"probe-first {side}".rstrip()
    if detail.get("digest"):
        text += f" {detail['digest']} {detail['digest_bytes']}B"
    return text


class IndexLookup(PhysOp):
    """Consult the two-level index for one triple pattern (Fig. 2).

    ``info`` is filled by the cost planner's once-per-query prefetch
    (:func:`repro.query.cost.annotate_plan`); when present, execution
    reuses it instead of re-consulting the index. In legacy mode it
    stays None and the runtime locates exactly as before.
    """

    __slots__ = ("pattern", "condition", "info")
    kind = "IndexLookup"

    def __init__(self, pattern: TriplePattern,
                 condition: Optional[ast.Expression] = None) -> None:
        super().__init__()
        self.pattern = pattern
        self.condition = condition
        self.info = None

    def describe(self) -> str:
        text = _pattern_text(self.pattern)
        if self.condition is not None:
            text += " +filter"
        return text


class ChainShip(PhysOp):
    """Resolve one primitive pattern and ship its solutions to a site.

    The operator behind Sect. IV-C's basic / chained / freq schemes: the
    owner index node either fans out (basic) or threads the sub-query
    along the provider chain, and the union lands where the plan needs
    it. ``plan_strategy`` is written by the cost planner
    (:func:`repro.query.cost.annotate_plan`) and pins the scheme per
    leaf; ``detail["strategy"]`` records the scheme the leaf ran.
    """

    __slots__ = ("lookup", "plan_strategy")
    kind = "ChainShip"

    def __init__(self, lookup: IndexLookup) -> None:
        super().__init__((lookup,))
        self.lookup = lookup
        self.plan_strategy = None

    def describe(self) -> str:
        strategy = self.detail.get("strategy")
        if strategy is None and self.plan_strategy is not None:
            strategy = self.plan_strategy.value
        text = f"[{strategy}]" if strategy else ""
        pruned = self.detail.get("pruned")
        if pruned is not None:
            text = (text + f" pruned={pruned}").strip()
        return text


class BGPWalk(PhysOp):
    """A multi-pattern conjunction walk (Sect. IV-D).

    Children are the per-pattern :class:`ChainShip` leaves. The walk is
    a composite operator: the BASIC mode ships accumulated solutions
    index-node to index-node; the OPTIMIZED mode routes every pattern's
    chain to one shared site. The ``plan_*`` fields pin decisions
    before the walk runs (None = decide at runtime from the live
    options, the legacy behaviour): the cost planner
    (:func:`repro.query.cost.annotate_plan`) writes ``plan_mode``,
    ``plan_order`` and ``plan_probe`` (land the first leaf alone, then
    send its join-key digest with every other chain), and ``plan_site``
    when the walk should combine at the initiator; the result-cache
    probe
    (:func:`repro.cache.runtime.exec_cache_probe`) writes ``plan_site``,
    so a fill lands where the next probe looks.
    """

    __slots__ = ("post_filter", "plan_mode", "plan_site", "plan_order",
                 "plan_probe")
    kind = "BGPWalk"

    def __init__(self, leaves: Sequence[ChainShip],
                 post_filter: Optional[ast.Expression] = None) -> None:
        super().__init__(leaves)
        self.post_filter = post_filter
        self.plan_mode: Optional[str] = None
        self.plan_site: Optional[str] = None
        self.plan_order: Optional[List[ChainShip]] = None
        self.plan_probe = False

    def describe(self) -> str:
        mode = self.detail.get("mode") or self.plan_mode
        text = f"[{mode}]" if mode else ""
        if self.plan_probe:
            text += " " + _probe_text("", self.detail)
        if self.post_filter is not None:
            text += " +filter"
        return text


class CachedScan(ChainShip):
    """A primitive leaf served through the per-site result cache (PR 9).

    Runtime-compatible with :class:`ChainShip` — the owner index node
    intercepts the primitive when the payload carries the cache flag, so
    the initiator-side execution path is untouched. The distinct kind
    makes explain renders show where the cache may engage, and lets the
    cost planner price the expected hit discount.
    """

    __slots__ = ()
    kind = "CachedScan"


class EmptyScan(PhysOp):
    """The unit solution set {µ∅} (an empty BGP)."""

    kind = "EmptyScan"


class CacheProbe(BGPWalk):
    """A BGP walk fronted by a combine-site sub-result cache (PR 9).

    Before running the walk, the runtime probes the planned combine
    site's cache for the whole BGP's solution set; a hit skips every
    chain and join. Structurally a :class:`BGPWalk`, so planner
    annotation (join order, site, modes) applies unchanged on a miss.
    """

    __slots__ = ()
    kind = "CacheProbe"


class Ship(PhysOp):
    """Edge operator: move one combine operand to the join site.

    A no-op at runtime when the operand is already resident; otherwise
    the one-way data shipping of Fig. 3. The combine layer records what
    actually moved (or that the operand stayed put) on this node.
    """

    __slots__ = ()
    kind = "Ship"

    def __init__(self, child: PhysOp) -> None:
        super().__init__((child,))

    @property
    def operand(self) -> PhysOp:
        return self.children[0]

    def describe(self) -> str:
        if self.detail.get("resident"):
            return "(resident)"
        src = self.detail.get("shipped_from")
        return f"from {src}" if src else ""


class SemijoinShip(Ship):
    """A ship edge that may be pre-filtered by the resident side's
    semijoin digest before the rows travel (PR 2's technique, now a
    first-class plan operator)."""

    __slots__ = ()
    kind = "SemijoinShip"

    def describe(self) -> str:
        text = super().describe()
        pruned = self.detail.get("pruned")
        if pruned is not None:
            text = (text + f" pruned={pruned}").strip()
        return text


class _Binary(PhysOp):
    """Shared shape of the two-operand combines: each operand hangs off
    a :class:`Ship` edge (``children`` are the edges); ``left`` /
    ``right`` reference the operand plans.

    ``plan_probe`` (a join or left join only) is written by the cost
    planner: ``"left"`` or ``"right"`` lands that operand first, then
    pushes its join-key digest down into the other operand's chains
    (:func:`operand_digests`); None runs both operands in parallel.
    """

    __slots__ = ("left", "right", "plan_probe")

    def __init__(self, left: PhysOp, right: PhysOp,
                 edges: Sequence[Ship]) -> None:
        super().__init__(edges)
        self.left = left
        self.right = right
        self.plan_probe: Optional[str] = None

    def describe(self) -> str:
        if self.plan_probe is None:
            return ""
        return _probe_text(self.plan_probe, self.detail)

    @property
    def edges(self):
        """(left_edge, right_edge): the operands' ship edges."""
        return self.children[0], self.children[1]


class HashJoin(_Binary):
    """Ω1 ⋈ Ω2 — a combine at the join site the policy (or cost model)
    picks."""

    __slots__ = ()
    kind = "HashJoin"


class UnionOp(_Binary):
    """Ω1 ∪ Ω2 (Sect. IV-F)."""

    __slots__ = ()
    kind = "Union"


class LeftJoinOp(_Binary):
    """Ω1 ⟕ Ω2 — OPTIONAL (Sect. IV-E), with an optional embedded
    condition (paper footnote 16)."""

    __slots__ = ("condition",)
    kind = "LeftJoin"

    def __init__(self, left: PhysOp, right: PhysOp, edges: Sequence[Ship],
                 condition: Optional[ast.Expression] = None) -> None:
        super().__init__(left, right, edges)
        self.condition = condition

    def describe(self) -> str:
        text = super().describe()
        if self.condition is not None:
            text = ("+cond " + text).rstrip()
        return text


class FilterOp(PhysOp):
    """σ_C over a sub-plan whose condition could not be pushed into a
    leaf; runs where the operand's solutions sit."""

    __slots__ = ("condition",)
    kind = "Filter"

    def __init__(self, condition: ast.Expression, child: PhysOp) -> None:
        super().__init__((child,))
        self.condition = condition

    @property
    def operand(self) -> PhysOp:
        return self.children[0]


class OrderBy(PhysOp):
    """ORDER BY at the initiator (post-processing stage)."""

    __slots__ = ("conditions",)
    kind = "OrderBy"

    def __init__(self, conditions, child: PhysOp) -> None:
        super().__init__((child,))
        self.conditions = tuple(conditions)

    def describe(self) -> str:
        return f"({len(self.conditions)} keys)"


class Project(PhysOp):
    """Projection at the initiator."""

    __slots__ = ("variables",)
    kind = "Project"

    def __init__(self, variables, child: PhysOp) -> None:
        super().__init__((child,))
        self.variables = tuple(variables)

    def describe(self) -> str:
        return "(" + ", ".join(f"?{v.name}" for v in self.variables) + ")"


class Distinct(PhysOp):
    """DISTINCT / REDUCED dedup at the initiator."""

    __slots__ = ()
    kind = "Distinct"

    def __init__(self, child: PhysOp) -> None:
        super().__init__((child,))


class Slice(PhysOp):
    """OFFSET / LIMIT at the initiator."""

    __slots__ = ("offset", "limit")
    kind = "Slice"

    def __init__(self, offset: int, limit: Optional[int], child: PhysOp) -> None:
        super().__init__((child,))
        self.offset = offset
        self.limit = limit

    def describe(self) -> str:
        parts = []
        if self.offset:
            parts.append(f"offset={self.offset}")
        if self.limit is not None:
            parts.append(f"limit={self.limit}")
        return " ".join(parts)


class FormOp(PhysOp):
    """Non-SELECT result forms (ASK / CONSTRUCT / DESCRIBE) applied at
    the initiator over the final solution set."""

    __slots__ = ("form",)
    kind = "Form"

    def __init__(self, form: str, child: PhysOp) -> None:
        super().__init__((child,))
        self.form = form

    def describe(self) -> str:
        return self.form


# --------------------------------------------------------------- utilities


def pattern_leaf(pattern: TriplePattern,
                 condition: Optional[ast.Expression] = None) -> ChainShip:
    """A standalone primitive leaf (used e.g. by DESCRIBE's follow-ups)."""
    return ChainShip(IndexLookup(pattern, condition))


def note_lookup(lookup: IndexLookup, info) -> None:
    """Record what the index said about a leaf (display annotations only;
    never feeds back into execution decisions)."""
    lookup.est_rows = info.total_frequency
    lookup.detail["providers"] = len(info.entries)
    note_owner(lookup, info)


def note_owner(lookup: IndexLookup, info) -> None:
    """Record the index node that served a leaf and its key kind: all a
    leaf shows whose owner read the row itself."""
    lookup.placement = info.owner
    if info.key_kind is not None:
        lookup.detail["key"] = info.key_kind.value


def note_result(op: PhysOp, handle) -> None:
    """Record where *op*'s result landed and how many rows it holds."""
    op.placement = handle.site
    op.actual_rows = handle.count


def walk_plan(node: PhysOp) -> Iterator[PhysOp]:
    """Pre-order walk over every operator in the tree."""
    yield node
    for child in node.children:
        yield from walk_plan(child)


def chain_leaves(node: PhysOp) -> List[ChainShip]:
    """The primitive (:class:`ChainShip`) leaves, in plan order; after
    execution each leaf's ``detail["strategy"]`` is the scheme it ran."""
    return [op for op in walk_plan(node) if isinstance(op, ChainShip)]


def number_plan(node: PhysOp) -> int:
    """Assign pre-order op ids; returns the operator count."""
    count = 0
    for op in walk_plan(node):
        op.op_id = count
        count += 1
    return count


def count_ops(node: PhysOp) -> int:
    return sum(1 for _ in walk_plan(node))


# ------------------------------------------------------ digest push-down


def certain_vars(node: PhysOp) -> frozenset:
    """The variables every solution of a sub-plan binds: a join keeps
    both operands', a union those of both branches, a left join its
    required side's (the OPTIONAL bindings are the uncertain ones)."""
    if isinstance(node, ChainShip):
        return frozenset(node.lookup.pattern.variables())
    if isinstance(node, BGPWalk):
        return frozenset().union(*map(certain_vars, node.children))
    if isinstance(node, UnionOp):
        return certain_vars(node.left) & certain_vars(node.right)
    if isinstance(node, LeftJoinOp):
        return certain_vars(node.left)
    if isinstance(node, HashJoin):
        return certain_vars(node.left) | certain_vars(node.right)
    if isinstance(node, (FilterOp, Ship)):
        return certain_vars(node.children[0])
    return frozenset()


def operand_digests(node: "_Binary", digests: tuple) -> tuple:
    """The digests pushed into *node* that may prune each operand:
    ``(left, right)``, nearest first.

    The push-down rule, stated once (the planner's estimates and the
    runtime both read it). A digest over variables V lists the join-key
    values of a probe operand; a chain whose pattern binds all of V may
    shed the rows it does not admit, because every row derived from such
    a row carries those values up to the probe's join, where it needs a
    compatible probe row. So a digest passes through a FILTER, through
    both operands of a join, and through both branches of a union when V
    is certain there. Through a left join it prunes the required side
    only: an OPTIONAL row that never travels can leave its required row
    unextended, and the unextended row may join where the extended one
    would not. A left join's own probe is always its required side,
    whose digest may prune the optional side: an optional row no
    required row is compatible with can extend none of them. So the
    optional side never prunes the required one.
    """
    if isinstance(node, UnionOp):
        certain = certain_vars(node)
        digests = tuple(d for d in digests if certain.issuperset(d.variables))
    elif isinstance(node, LeftJoinOp):
        return digests, ()
    return digests, digests


def pick_digest(digests: tuple, variables):
    """The one digest a chain over *variables* carries: the nearest of
    *digests* whose variables it binds all of, else None."""
    for digest in digests:
        if variables.issuperset(digest.variables):
            return digest
    return None


# -------------------------------------------------- distributed compilation


def may_prune(op: str, role: str) -> bool:
    """May the *role* operand of *op* ship behind a semijoin digest?

    Join is symmetric: either side. LeftJoin keeps every unmatched left
    row, so only the right operand may be filtered (a right row whose
    join keys match no left row can neither extend a left row nor make
    one incompatible). Union and minus ship everything.
    """
    if op == "join":
        return True
    return op == "leftjoin" and role == "right"


def _edge(op: str, role: str, child: PhysOp, options) -> Ship:
    if options.semijoin and may_prune(op, role):
        return SemijoinShip(child)
    return Ship(child)


def _binary(cls, op: str, node, options, *extra) -> PhysOp:
    left = compile_distributed(node.left, options)
    right = compile_distributed(node.right, options)
    edges = (_edge(op, "left", left, options), _edge(op, "right", right, options))
    return cls(left, right, edges, *extra)


def compile_distributed(node: Algebra, options) -> PhysOp:
    """Compile an algebra tree into the distributed physical plan.

    The case analysis is exactly the one the executor and the filter
    module used to perform at runtime — moved to compile time, where it
    is pure — so legacy execution visits the same operator functions
    with the same arguments in the same order (the golden-metrics grid
    pins this bit-for-bit).
    """
    cached = getattr(options, "result_cache", False)

    if isinstance(node, BGP):
        if not node.patterns:
            return EmptyScan()
        if len(node.patterns) == 1:
            if cached:
                return CachedScan(IndexLookup(node.patterns[0]))
            return pattern_leaf(node.patterns[0])
        leaves = [pattern_leaf(p) for p in node.patterns]
        return CacheProbe(leaves) if cached else BGPWalk(leaves)

    if isinstance(node, Filter):
        target = node.pattern
        if isinstance(target, BGP) and len(target.patterns) == 1:
            # The condition travels with the sub-query to the providers.
            return pattern_leaf(target.patterns[0], node.condition)
        if isinstance(target, BGP) and target.patterns:
            return BGPWalk([pattern_leaf(p) for p in target.patterns],
                           post_filter=node.condition)
        return FilterOp(node.condition, compile_distributed(target, options))

    if isinstance(node, Join):
        return _binary(HashJoin, "join", node, options)

    if isinstance(node, Union):
        return _binary(UnionOp, "union", node, options)

    if isinstance(node, LeftJoin):
        return _binary(LeftJoinOp, "leftjoin", node, options, node.condition)

    if isinstance(node, GraphNode):
        raise SparqlError(
            "GRAPH patterns address named graphs; the ad-hoc system's dataset "
            "is the union of all providers (Sect. IV-A) and has no named graphs"
        )

    raise SparqlError(f"cannot compile algebra node {type(node).__name__}")


def compile_query_plan(query: ast.Query, algebra: Algebra, options) -> PhysOp:
    """The full per-query plan: the distributed root wrapped in the
    initiator's post-processing operators (Order → Project → Distinct →
    Slice, the spec's modifier order), numbered for explain renders.

    Returns the wrapper tree; :func:`execution_root` recovers the node
    the distributed engine actually runs.
    """
    plan = compile_distributed(algebra, options)

    if isinstance(query, ast.SelectQuery):
        modifiers = query.modifiers
        if modifiers.order:
            plan = OrderBy(modifiers.order, plan)
        projection = list(query.projection)
        if not projection:
            projection = sorted(algebra.in_scope_vars(), key=lambda v: v.name)
        plan = Project(projection, plan)
        if modifiers.distinct or modifiers.reduced:
            plan = Distinct(plan)
        if modifiers.offset or modifiers.limit is not None:
            plan = Slice(modifiers.offset, modifiers.limit, plan)
    elif isinstance(query, ast.AskQuery):
        plan = FormOp("Ask", plan)
    elif isinstance(query, ast.ConstructQuery):
        plan = FormOp("Construct", plan)
    elif isinstance(query, ast.DescribeQuery):
        plan = FormOp("Describe", plan)

    number_plan(plan)
    return plan


_POST_OPS = (OrderBy, Project, Distinct, Slice, FormOp)


def execution_root(plan: PhysOp) -> PhysOp:
    """Strip the initiator post-processing wrappers off a query plan."""
    while isinstance(plan, _POST_OPS):
        plan = plan.children[0]
    return plan


def record_postprocess(plan: PhysOp, root_rows: Optional[int],
                       final_rows: int, initiator: str) -> None:
    """Fill the post-processing wrappers' observations after execution.

    Order/Project preserve cardinality (they see the root's row count);
    Distinct/Slice/Form report the final result count.
    """
    node = plan
    while isinstance(node, _POST_OPS):
        node.placement = initiator
        if isinstance(node, (OrderBy, Project)):
            node.actual_rows = root_rows
        else:
            node.actual_rows = final_rows
        node = node.children[0]


# --------------------------------------------------------------- rendering


_COLUMNS = ("site", "est rows", "actual rows", "est bytes", "actual bytes")


def _fmt_num(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.0f}"
    return str(value)


def format_plan(plan: PhysOp) -> str:
    """Render the annotated operator tree as an aligned table.

    One row per operator: the tree-drawn label, the placement actually
    observed, and the estimate-vs-actual row/byte columns (``-`` where a
    quantity does not apply or was never estimated, e.g. legacy mode
    plans estimate nothing).
    """
    rows: List[tuple] = []

    def emit(node: PhysOp, prefix: str, tail: str) -> None:
        extra = node.describe()
        label = f"{prefix}{tail}{node.kind}" + (f" {extra}" if extra else "")
        rows.append((
            label,
            node.placement if node.placement is not None else "-",
            _fmt_num(node.est_rows),
            _fmt_num(node.actual_rows),
            _fmt_num(node.est_bytes),
            _fmt_num(node.actual_bytes),
        ))
        child_prefix = prefix
        if tail:
            child_prefix += "   " if tail == "└─ " else "│  "
        for i, child in enumerate(node.children):
            last = i == len(node.children) - 1
            emit(child, child_prefix, "└─ " if last else "├─ ")

    emit(plan, "", "")
    header = ("operator",) + _COLUMNS
    widths = [max(len(str(row[i])) for row in rows + [header])
              for i in range(len(header))]
    lines = [f"# physical plan: {count_ops(plan)} operators"]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    for row in rows:
        lines.append("  ".join(str(row[i]).ljust(widths[i])
                               for i in range(len(header))).rstrip())
    return "\n".join(lines)
