"""Frequency-driven cost model and plan-time optimization.

Sect. V: "We have yet to investigate, in a fully-distributed context, how
to process and optimize SPARQL queries in the face of a mixture of such
objectives [transmission cost vs response time] and come up with 'good'
query plans."

Two layers live here:

1. The **per-primitive strategy model** (:class:`CostModel`,
   :func:`choose_strategy`) — an analytic model over the information the
   initiator already has (the location-table row's provider frequencies
   and the link model) picking whichever of BASIC / FREQ-chain minimizes
   a weighted mixture of transmission and response time. The annotator
   below runs it once per leaf to pin that leaf's scheme (E11); for a
   plan that is one leaf, the key's owner runs it on its own row.

2. The **whole-plan annotator** (:func:`annotate_plan`) — the
   ``--plan cost`` mode. It consults the two-level index once for every
   leaf pattern of the physical plan (a real, parallel round of lookups,
   charged to the query's byte ledger like any other traffic), then runs
   a pure bottom-up estimation pass over the operator tree: triple
   frequencies seed leaf cardinalities, joins/optionals/unions/filters
   propagate them upward, and the estimates drive join order (greedy
   connected smallest-first, reusing the optimizer's reorder), the
   conjunction walk mode (basic chain vs shared-site), the per-leaf
   chain strategy, and byte-weighted combine-site choice
   (:func:`choose_combine_site`).

Model for one primitive (fan-out to n providers with estimated result
sizes s_1..s_n bytes, link latency L, bandwidth B, assembly/initiator
transfers included):

* BASIC:  bytes ≈ Σ s_i + U               (each provider → assembly, then
          time  ≈ 4L + (max_i s_i + U)/B   the union U → initiator; the
                                            fan-out legs run in parallel)
* FREQ:   bytes ≈ Σ_k prefix_k + U         (ascending chain: hop k ships
          time  ≈ (n+1)L + that/B           the union of the k smallest)

U, the deduplicated union, is unknowable a priori; the model takes
U = Σ s_i, i.e. it assumes no cross-provider duplication (the
conservative estimate: duplication only ever shrinks what ships).

The mixture knob ``time_weight`` ∈ [0, 1]: 0 minimizes transmission, 1
minimizes response time; intermediate values scalarize the bi-objective
the way Sect. V asks for. Both objectives are normalized by the BASIC
plan's cost so the weight is scale-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..net.sizes import HEADER_BYTES, size_of
from ..net.transport import LinkModel
from ..net.wire import DIGEST_HEADER_BYTES, PRUNED_COUNTER_BYTES, bloom_size
from ..overlay.location_table import LocationEntry
from ..sparql.algebra import BGP
from ..sparql.optimizer import reorder_bgp
from .conjunction import walk_site
from .physical import (
    BGPWalk, CachedScan, CacheProbe, ChainShip, EmptyScan, FilterOp,
    HashJoin, LeftJoinOp, PhysOp, UnionOp,
    certain_vars, chain_leaves, note_lookup, operand_digests, pick_digest,
)
from .join_site import (
    SEMIJOIN_BLOOM_BITS, SEMIJOIN_EXACT_THRESHOLD, digest_request,
)
from .plan import PatternInfo
from .primitive import locate_leaves
from .strategies import PrimitiveStrategy

__all__ = [
    "CostModel", "StrategyCosts", "choose_strategy", "BYTES_PER_SOLUTION",
    "est_row_bytes", "estimate_join_rows", "FILTER_SELECTIVITY",
    "annotate_leaf", "annotate_plan", "choose_combine_site",
]

#: Prior estimate of the wire size of one solution mapping. Only relative
#: costs matter for the decision, but the latency/bandwidth mix depends on
#: absolute scale, so this is calibrated to the FOAF workloads' mean
#: (two IRI bindings plus envelope).
BYTES_PER_SOLUTION = 90

#: Prior selectivity of a FILTER whose effect the planner cannot see
#: (regex/arithmetic over unbound data). One-third keeps filtered branches
#: cheaper than their inputs without pretending they vanish.
FILTER_SELECTIVITY = 1.0 / 3.0


#: Wire-size prior for one bound RDF term.
TERM_BYTES = 30.0


def est_row_bytes(n_vars: int) -> float:
    """Wire-size prior for a solution row with *n_vars* bindings.

    Calibrated so the 2-variable FOAF mean lands on
    :data:`BYTES_PER_SOLUTION` (30-byte envelope + ~30 bytes/binding).
    """
    return 30.0 + TERM_BYTES * max(n_vars, 1)


@dataclass(frozen=True, slots=True)
class StrategyCosts:
    """Predicted cost of one strategy for one primitive sub-query."""

    strategy: PrimitiveStrategy
    bytes: float
    time: float

    def scalarized(self, time_weight: float, bytes_norm: float, time_norm: float) -> float:
        wb = (1.0 - time_weight) * (self.bytes / bytes_norm if bytes_norm else 0.0)
        wt = time_weight * (self.time / time_norm if time_norm else 0.0)
        return wb + wt


@dataclass(frozen=True, slots=True)
class CostModel:
    """Analytic cost model over a location-table row."""

    link: LinkModel

    def _sizes(self, entries: Sequence[LocationEntry]) -> List[float]:
        return sorted(e.frequency * BYTES_PER_SOLUTION for e in entries)

    def predict(self, entries: Sequence[LocationEntry]) -> List[StrategyCosts]:
        sizes = self._sizes(entries)
        if not sizes:
            return [StrategyCosts(PrimitiveStrategy.BASIC, 0.0, 0.0)]
        # U = Σ s_i: no cross-provider duplication is assumed.
        union = sum(sizes)
        latency = self.link.latency
        bandwidth = self.link.bandwidth

        # BASIC: parallel fan-out (request+reply per provider, replies in
        # parallel so the slowest dominates), then assembly -> initiator.
        basic_bytes = 2 * union
        basic_time = 4 * latency + (max(sizes) + union) / bandwidth

        # FREQ: ascending chain; hop k ships the union of the k smallest
        # local results, the final node sends the full union straight to
        # the initiator.
        prefix = 0.0
        chain_bytes = 0.0
        chain_time = (len(sizes) + 1) * latency
        for size in sizes[:-1]:
            prefix += size
            chain_bytes += prefix
            chain_time += prefix / bandwidth
        chain_bytes += union
        chain_time += union / bandwidth

        return [
            StrategyCosts(PrimitiveStrategy.BASIC, basic_bytes, basic_time),
            StrategyCosts(PrimitiveStrategy.FREQ, chain_bytes, chain_time),
        ]


def choose_strategy(
    entries: Sequence[LocationEntry],
    link: LinkModel,
    time_weight: float,
) -> Tuple[PrimitiveStrategy, List[StrategyCosts]]:
    """Pick the strategy minimizing the scalarized objective.

    Returns (choice, predicted costs), so experiments can audit the
    model.
    """
    if not 0.0 <= time_weight <= 1.0:
        raise ValueError("time_weight must lie in [0, 1]")
    costs = CostModel(link=link).predict(entries)
    if len(costs) == 1:
        return costs[0].strategy, costs
    bytes_norm = costs[0].bytes or 1.0
    time_norm = costs[0].time or 1.0
    best = min(
        costs,
        key=lambda c: (c.scalarized(time_weight, bytes_norm, time_norm),
                       c.strategy.value),
    )
    return best.strategy, costs


# ------------------------------------------------- cardinality propagation


def estimate_join_rows(left_rows: float, right_rows: float,
                       shared_vars: bool) -> float:
    """|Ω1 ⋈ Ω2| prior: with a shared variable the smaller side bounds
    the match count (foreign-key-style prior); without one the join is a
    Cartesian product."""
    if shared_vars:
        return min(left_rows, right_rows)
    return left_rows * right_rows


# ------------------------------------------------------ walk-level choices


def order_walk_leaves(walk: BGPWalk) -> List[ChainShip]:
    """Frequency-driven join order for a conjunction walk.

    Reuses the optimizer's greedy connected smallest-first reorder
    (start from the rarest pattern, always extend through a shared
    variable to avoid Cartesian products) with the leaves' estimates
    (location-table frequencies, cut by any digest pushed into the walk)
    as the estimator, then maps the reordered patterns back to their
    leaves.
    """
    frequency = {id(leaf): leaf.est_rows for leaf in walk.children}
    by_pattern: Dict[object, List[ChainShip]] = {}
    for leaf in walk.children:
        by_pattern.setdefault(leaf.lookup.pattern, []).append(leaf)

    def estimate(pattern) -> tuple:
        candidates = by_pattern[pattern]
        return (min(frequency[id(leaf)] for leaf in candidates), str(pattern))

    bgp = BGP(tuple(leaf.lookup.pattern for leaf in walk.children))
    reordered = reorder_bgp(bgp, estimate)
    ordered: List[ChainShip] = []
    for pattern in reordered.patterns:
        ordered.append(by_pattern[pattern].pop(0))
    return ordered


def _walk_mode(ordered: List[ChainShip],
               row_bytes: float) -> Tuple[str, float]:
    """Choose basic-chain vs shared-site for a conjunction walk by
    estimated shipped bytes; returns (mode, estimated result rows).

    * basic: each step ships the accumulated intermediate to the next
      pattern's site, plus every pattern's own provider fan-in;
    * optimized: every pattern's chain lands once at a shared site (the
      heaviest pattern's rows stay resident), then pairwise combines are
      local and only the final result travels home.
    """
    sizes = []
    bound: frozenset = frozenset()
    inter: Optional[float] = None
    basic_bytes = 0.0
    for leaf in ordered:
        rows = leaf.est_rows
        sizes.append(rows)
        basic_bytes += rows * row_bytes  # providers -> the step's site
        if inter is None:
            inter = rows
        else:
            shared = bool(bound & certain_vars(leaf))
            inter = estimate_join_rows(inter, rows, shared)
            basic_bytes += inter * row_bytes  # step result travels onward
        bound |= certain_vars(leaf)
    result_rows = inter if inter is not None else 0.0
    basic_bytes += result_rows * row_bytes  # final -> initiator

    resident = max(sizes) if sizes else 0.0
    optimized_bytes = (sum(sizes) - resident + result_rows) * row_bytes

    mode = "optimized" if optimized_bytes < basic_bytes else "basic"
    return mode, result_rows


def _digest_bytes(keys: float, variables) -> float:
    """:meth:`~repro.net.wire.JoinDigest.wire_size` of a digest of *keys*
    key tuples over *variables*: exact up to
    ``SEMIJOIN_EXACT_THRESHOLD`` keys, each term at the prior, else a
    Bloom filter of ``SEMIJOIN_BLOOM_BITS`` bits per key."""
    header = DIGEST_HEADER_BYTES + sum(size_of(v) + 2 for v in variables)
    if keys > SEMIJOIN_EXACT_THRESHOLD:
        return header + bloom_size(keys, SEMIJOIN_BLOOM_BITS) // 8
    return header + keys * (TERM_BYTES * len(variables) + 2)


class Side(NamedTuple):
    """An operand as the probe rule sees it: its estimated rows and the
    variables it binds; as a probe, the predicted time to land it and
    whether it lands at the initiator (*home*), which builds its digest
    with no message; as a target, the providers its chain fans out to."""

    rows: float
    variables: frozenset
    serial: float = 0.0
    providers: int = 0
    home: bool = False


def chain_side(info: PatternInfo, strategy: Optional[PrimitiveStrategy] = None,
               link: Optional[LinkModel] = None,
               rows: Optional[float] = None) -> Side:
    """One chain as a :class:`Side`: *rows* (default: the row's
    frequency), the pattern's variables, its provider count and, given
    the *link* (a probe needs it, a target does not), the time its
    *strategy* (None: the faster one) takes to land it. A pattern with
    no index row (a broadcast) never lands in time to probe."""
    serial = 0.0
    if link is not None and info.owner is None:
        serial = math.inf
    elif link is not None:
        delay = {c.strategy: c.time
                 for c in CostModel(link).predict(info.entries)}
        serial = delay.get(strategy, min(delay.values()))
    return Side(float(info.total_frequency) if rows is None else rows,
                frozenset(info.pattern.variables()), serial,
                len(info.entries or ()))


def _probe_pays(probe: Side, targets: Sequence[Side], link: LinkModel) -> bool:
    """Should *probe* land alone first, then send its join-key digest
    with every target chain that shares a variable with it?

    The one rule of both planners, wherever the probe sits: the cost
    annotator applies it to a walk's first leaf and to either operand of
    a join (a left join's required side only), and a legacy
    ``--semijoin`` walk at run time to its located rows under the
    executor's primitive strategy. A Pareto rule: only when probe-first
    beats all-parallel on bytes *and* on time.

    * bytes saved: each target sharing a variable with the probe
      shrinks to :func:`estimate_join_rows` of the two;
    * bytes added: one digest round trip per distinct shared-variable
      set (none for a probe at home), an embed in every message the
      digest rides in (the call and one per provider) and a pruned
      counter per provider reply, the digest priced exact or Bloom by
      :func:`_digest_bytes`;
    * time: landing the probe (a composite operand's slowest chain) plus
      the digest round trips, now serial, against the transfer time the
      largest target saves.

    Only the cost planner knows, from its pins, where a probe lands; a
    legacy walk prices the round trip wherever it lands.
    """
    rows, probe_vars, serial = probe.rows, probe.variables, probe.serial
    saved = added = largest = 0.0
    fetched = set()
    for target in targets:
        shared = probe_vars & target.variables
        if not shared:
            continue
        saving = ((target.rows - estimate_join_rows(rows, target.rows, True))
                  * est_row_bytes(len(target.variables)))
        saved += saving
        largest = max(largest, saving)
        digest = _digest_bytes(rows, shared)
        added += ((1 + target.providers) * (size_of("digest") + digest + 2)
                  + target.providers * PRUNED_COUNTER_BYTES)
        if not probe.home and shared not in fetched:
            fetched.add(shared)
            round_trip = (2 * HEADER_BYTES + size_of("digest") + digest
                          + size_of(digest_request("", shared)))
            added += round_trip
            serial += 2 * link.latency + round_trip / link.bandwidth
    return saved > added and largest / link.bandwidth > serial


def _landing_site(ctx, walk: BGPWalk, probe: bool) -> Optional[str]:
    """The initiator, when no chain of an OPTIMIZED walk would end
    resident at its shared site (:func:`~repro.query.conjunction.walk_site`);
    else None, which leaves the walk on that site.

    A non-BASIC chain that lists the shared site among its providers
    ends there, so that provider's rows never travel. A BASIC chain's
    rows cross provider -> owner -> site wherever the site is, and the
    probe chain of a probe-first walk is the walk's most selective step,
    so neither is worth a site of its own: the walk combines where its
    result is consumed, and makes no return trip. The rule reads only
    pinned strategies and provider lists, never an estimate; *probe*
    says whether the walk probes first.
    """
    infos = [leaf.lookup.info for leaf in walk.plan_order
             if leaf.lookup.info.owner is not None]
    if not infos:
        return None
    site = walk_site(ctx, walk, infos)
    chains = walk.plan_order[1:] if probe else walk.plan_order
    for leaf in chains:
        if leaf.plan_strategy is not PrimitiveStrategy.BASIC and any(
                entry.storage_id == site for entry in leaf.lookup.info.entries):
            return None
    return ctx.initiator


# ----------------------------------------------------------- the annotator


def annotate_plan(ctx, plan: PhysOp):
    """Plan-time optimization pass for ``--plan cost`` (a sim process).

    Phase 1 — **statistics**: locate every :class:`IndexLookup` leaf in
    parallel through the two-level index. These are real lookups, charged
    to the query's byte/message ledger; their results are pinned on the
    leaves so execution never has to re-locate. Under
    ``partial_results`` a leaf whose owner and replicas are all
    unreachable keeps no row and is estimated at 0 rows; execution looks
    again and flags the loss where the legacy path does, so the leaf is
    named once and a left join above it sees the drop happen below it.

    Phase 2 — **pure estimation & decisions**: bottom-up cardinality and
    wire-cost estimates over the tree; conjunction walks get a
    frequency-driven join order, a mode, per-leaf chain strategies and,
    where no chain ends resident at a shared site, the initiator as
    their site (:func:`_landing_site`);
    combine edges get byte estimates that :func:`choose_combine_site`
    reads at execution time.

    A plan that is one leaf has nothing to decide but its scheme, so it
    pays no statistics round: the leaf stays unpinned and its sub-query
    goes to the key's owner, which picks the scheme from its own row
    (:func:`choose_strategy` on the ``cost`` wire strategy).
    """
    if isinstance(plan, ChainShip):
        ctx.report.merge_note("cost plan: the owner picks the scheme")
        return
    leaves = chain_leaves(plan)
    infos = yield from locate_leaves(
        ctx, leaves, partial=ctx.options.partial_results, flag=False)
    for leaf, info in zip(leaves, infos):
        leaf.lookup.info = info
    ctx.report.merge_note(f"cost plan: {len(leaves)} statistics lookups")
    _estimate(ctx, plan)


def annotate_leaf(ctx, leaf: ChainShip, info) -> None:
    """Annotate a lone leaf from *info*, the row its owner picked the
    scheme from and returned with its ack: the row, estimate and pinned
    scheme that the statistics round and estimation pass give a leaf of
    a larger plan, so ``repro explain`` shows the same."""
    leaf.lookup.info = info
    note_lookup(leaf.lookup, info)
    _estimate(ctx, leaf)


def _pin_leaf_strategy(ctx, leaf: ChainShip) -> None:
    """Freeze the BASIC/FREQ choice for one leaf from the statistics:
    the deterministic choice the explain output shows before execution
    starts."""
    info = leaf.lookup.info
    if info.owner is None or not info.entries:
        leaf.plan_strategy = PrimitiveStrategy.BASIC
        return
    strategy, _costs = choose_strategy(
        info.entries, ctx.network.link,
        ctx.options.time_weight,
    )
    leaf.plan_strategy = strategy


def _estimate(ctx, node: PhysOp, pushed: Tuple[Side, ...] = ()) -> float:
    """Bottom-up row estimation; writes est_rows/est_bytes and the plan
    decisions as a side effect. Returns the node's estimated rows.

    *pushed* are the probes whose digests will reach this sub-plan,
    nearest first (:func:`~repro.query.physical.operand_digests`), each
    a :class:`Side` over the digest's variables; a chain that carries
    the digest of a *k*-row probe is estimated at
    :func:`estimate_join_rows` of *k* and its rows, and so are the
    decisions read from it."""
    row_bytes = est_row_bytes(len(certain_vars(node)))

    if isinstance(node, EmptyScan):
        node.est_rows, node.est_bytes = 1.0, 0.0
        return 1.0

    if isinstance(node, ChainShip):
        info = node.lookup.info
        if info is None:  # dropped under partial_results
            node.est_rows, node.est_bytes = 0.0, 0.0
            return 0.0
        rows = float(info.total_frequency)
        if node.lookup.condition is not None:
            rows *= FILTER_SELECTIVITY  # the providers apply it
        digest = pick_digest(pushed, certain_vars(node))
        if digest is not None:
            rows = estimate_join_rows(digest.rows, rows, True)
        _pin_leaf_strategy(ctx, node)
        node.est_rows = rows
        node.est_bytes = rows * row_bytes
        if isinstance(node, CachedScan):
            # An expected hit serves the rows from the owner's cache and
            # ships nothing from the providers; the system-wide observed
            # hit ratio is the prior for how often that happens.
            node.est_bytes *= 1.0 - ctx.network.cache.hit_ratio()
        return rows

    if isinstance(node, BGPWalk):
        if isinstance(node, CacheProbe):
            pushed = ()  # a cache fill must hold the whole BGP
        for leaf in node.children:
            _estimate(ctx, leaf, pushed)
        if any(leaf.lookup.info is None for leaf in node.children):
            # A dropped leaf empties the walk: nothing to decide.
            node.est_rows, node.est_bytes = 0.0, 0.0
            return 0.0
        ordered = order_walk_leaves(node)
        mode, rows = _walk_mode(ordered, row_bytes)
        node.plan_order = ordered
        node.plan_mode = mode
        node.plan_probe = False
        # A CacheProbe keeps walk_site's initiator-independent site, so
        # that every initiator finds the same cache fill.
        cached = isinstance(node, CacheProbe)
        if not cached:
            node.plan_site = None  # a second pass decides afresh
        if mode == "optimized":
            link = ctx.network.link
            first = ordered[0]
            probe = chain_side(first.lookup.info, first.plan_strategy, link,
                               first.est_rows)
            home = not cached and (_landing_site(ctx, node, probe=True)
                                   == ctx.initiator)
            node.plan_probe = _probe_pays(
                probe._replace(home=home),
                [chain_side(leaf.lookup.info, rows=leaf.est_rows)
                 for leaf in ordered[1:]], link)
            if not cached:
                node.plan_site = _landing_site(ctx, node, node.plan_probe)
        if node.plan_probe:
            # The walk's own digest is the nearest to every chain it
            # shares a variable with.
            for leaf in ordered[1:]:
                shared = probe.variables & certain_vars(leaf)
                if shared:
                    _estimate(ctx, leaf,
                              (probe._replace(variables=shared),) + pushed)
        node.est_rows = rows
        node.est_bytes = rows * row_bytes
        if node.post_filter is not None:
            node.est_rows = rows = rows * FILTER_SELECTIVITY
            node.est_bytes = rows * row_bytes
        if isinstance(node, CacheProbe):
            # A combine-site hit skips every chain and join of the walk.
            node.est_bytes *= 1.0 - ctx.network.cache.hit_ratio()
        return rows

    if isinstance(node, (HashJoin, UnionOp, LeftJoinOp)):
        operands = (node.left, node.right)
        digests = operand_digests(node, pushed)
        rows_of = [_estimate(ctx, operand, into)
                   for operand, into in zip(operands, digests)]
        if not isinstance(node, UnionOp):
            node.plan_probe = _pin_probe(ctx, node)
        if node.plan_probe is not None:
            first = 0 if node.plan_probe == "left" else 1
            probe, other = operands[first], operands[1 - first]
            digest = Side(probe.est_rows,
                          certain_vars(probe) & certain_vars(other))
            rows_of[1 - first] = _estimate(ctx, other,
                                           (digest,) + digests[1 - first])
        left_rows, right_rows = rows_of
        shared = bool(certain_vars(node.left) & certain_vars(node.right))
        if isinstance(node, UnionOp):
            rows = left_rows + right_rows
        elif isinstance(node, LeftJoinOp):
            matched = estimate_join_rows(left_rows, right_rows, shared)
            rows = max(left_rows, matched)  # unmatched rows survive
        else:
            rows = estimate_join_rows(left_rows, right_rows, shared)
        for edge, operand_rows, operand in zip(node.edges, rows_of, operands):
            edge.est_rows = operand_rows
            edge.est_bytes = operand_rows * est_row_bytes(len(certain_vars(operand)))
        node.est_rows = rows
        node.est_bytes = rows * row_bytes
        return rows

    if isinstance(node, FilterOp):
        rows = _estimate(ctx, node.operand, pushed) * FILTER_SELECTIVITY
        node.est_rows = rows
        node.est_bytes = rows * row_bytes
        return rows

    # Post-processing wrappers and anything unestimated: pass through.
    rows = 0.0
    for child in node.children:
        rows = _estimate(ctx, child)
    node.est_rows = rows if node.children else None
    return rows


def _pin_probe(ctx, node) -> Optional[str]:
    """Which operand of a join lands first and pushes its join-key
    digest down into the other: the more selective one whose probe
    pays (:func:`_probe_pays`) into the chains the digest reaches, else
    None. A left join tries its required side only.

    A composite probe lands in the time of its slowest chain, which run
    in parallel."""
    roles = [("left", node.left, node.right)]
    if isinstance(node, HashJoin):
        roles.append(("right", node.right, node.left))
        roles.sort(key=lambda role: role[1].est_rows)  # stable: left on ties
    link = ctx.network.link
    for role, probe, other in roles:
        shared = certain_vars(probe) & certain_vars(other)
        if not shared:
            continue
        landed = [chain_side(leaf.lookup.info, leaf.plan_strategy, link).serial
                  for leaf in chain_leaves(probe)
                  if leaf.lookup.info is not None]
        side = Side(probe.est_rows, shared, max(landed, default=0.0),
                    home=_lands_home(ctx, probe))
        targets = [chain_side(leaf.lookup.info, rows=leaf.est_rows)
                   for leaf in _reached(other, side)]
        if _probe_pays(side, targets, link):
            return role
    return None


def _lands_home(ctx, node: PhysOp) -> bool:
    """Does *node*'s result land at the initiator, by the plan's pins?

    A leaf pinned BASIC does (:func:`~repro.query.primitive.exec_primitive`),
    and so does an OPTIMIZED walk whose site is the initiator; a join
    combines at one of its operands' sites, so one whose operands both
    land there does too. Anything else may land elsewhere."""
    if isinstance(node, ChainShip):
        return node.plan_strategy is PrimitiveStrategy.BASIC
    if isinstance(node, BGPWalk):
        return node.plan_mode == "optimized" and node.plan_site == ctx.initiator
    if isinstance(node, FilterOp):
        return _lands_home(ctx, node.operand)
    if isinstance(node, (HashJoin, LeftJoinOp)):
        return _lands_home(ctx, node.left) and _lands_home(ctx, node.right)
    return isinstance(node, EmptyScan)


def _reached(node: PhysOp, digest: Side) -> Iterator[ChainShip]:
    """The located chains of *node* that the digest of the probe
    *digest* reaches under the push-down rule
    (:func:`~repro.query.physical.operand_digests`)."""
    if isinstance(node, CacheProbe):
        return
    if isinstance(node, ChainShip):
        if (node.lookup.info is not None
                and pick_digest((digest,), certain_vars(node)) is not None):
            yield node
    elif isinstance(node, (BGPWalk, FilterOp)):
        for child in node.children:
            yield from _reached(child, digest)
    elif isinstance(node, (HashJoin, UnionOp, LeftJoinOp)):
        for operand, into in zip((node.left, node.right),
                                 operand_digests(node, (digest,))):
            if into:
                yield from _reached(operand, digest)


# -------------------------------------------------------- combine placement


def choose_combine_site(left, right) -> str:
    """Byte-weighted move-small: keep the side that is more expensive to
    move resident, ship the other. Costs come from the handles' actual
    counts and their schemas' wire prior; ties keep the left operand
    resident (the deterministic choice)."""
    left_bytes = left.count * est_row_bytes(len(left.vars or ()))
    right_bytes = right.count * est_row_bytes(len(right.vars or ()))
    return left.site if left_bytes >= right_bytes else right.site
