"""Execution strategies and options (Sect. IV, Sect. II).

The paper describes, for each query family, a *basic* processing scheme
and one or more *optimizations*; and for join placement the classic
Move-Small / Query-Site / Third-Site policies. These enums name them; the
benchmark harness sweeps them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..net.transport import RetryPolicy

__all__ = [
    "PrimitiveStrategy",
    "ConjunctionMode",
    "JoinSitePolicy",
    "ExecutionOptions",
]


class PrimitiveStrategy(enum.Enum):
    """How a single-triple-pattern sub-query is resolved (Sect. IV-C)."""

    #: Parallel fan-out from the index node; union at the index node
    #: (assembly site); result forwarded to the initiator. Lowest response
    #: time, highest transmission.
    BASIC = "basic"
    #: In-network aggregation: the query visits the target storage nodes
    #: in sequence, merging results along the way; the last node returns
    #: the final mappings to the initiator.
    CHAINED = "chained"
    #: Chained, with nodes "arranged in the increasing order of the
    #: frequency information", so the largest contributor is last and its
    #: (biggest) local result set never transits an extra hop.
    FREQ = "freq"
    #: Cost-based per-query choice between BASIC and FREQ using the
    #: location-table statistics and the executor's objective mixture —
    #: the Sect. V future-work planner (see :func:`repro.query.cost.choose_strategy`).
    ADAPTIVE = "adaptive"

    @property
    def wire_name(self) -> str:
        return self.value


class ConjunctionMode(enum.Enum):
    """How a multi-pattern BGP is processed (Sect. IV-D)."""

    #: The paper's basic scheme: resolve P1 at its index node, ship the
    #: solutions (with the query) to P2's index node, join there, and so
    #: on; the last index node returns the result to the initiator.
    BASIC = "basic"
    #: The paper's optimization: exploit overlap between the storage-node
    #: sets — chain each pattern's evaluation to a shared storage node and
    #: join there, with chains running in parallel.
    OPTIMIZED = "optimized"


class JoinSitePolicy(enum.Enum):
    """Join site selection (Sect. II / Du et al., Cornell & Yu, Ye et al.)."""

    #: Ship the smaller operand to the site of the larger one.
    MOVE_SMALL = "move-small"
    #: Perform the join at the site where the query was submitted.
    QUERY_SITE = "query-site"
    #: Choose a third site based on (simulated) QoS information — here the
    #: least-loaded storage node.
    THIRD_SITE = "third-site"


@dataclass(frozen=True, slots=True)
class ExecutionOptions:
    """Knobs of the distributed executor; defaults are the paper's
    most-optimized configuration."""

    primitive_strategy: PrimitiveStrategy = PrimitiveStrategy.FREQ
    conjunction_mode: ConjunctionMode = ConjunctionMode.OPTIMIZED
    join_site_policy: JoinSitePolicy = JoinSitePolicy.MOVE_SMALL
    #: Run the algebraic optimizer (filter pushing etc., Sect. IV-G).
    optimize: bool = True
    #: Reorder BGP patterns by location-table frequency statistics.
    reorder_joins: bool = True
    #: Allow (?s, ?p, ?o) broadcasts over all storage nodes.
    allow_broadcast: bool = True
    #: Seconds to wait for a one-way delivery before declaring the chain
    #: broken and falling back to the BASIC strategy.
    delivery_timeout: float = 5.0
    #: Objective mixture for the ADAPTIVE strategy: 0.0 = minimize total
    #: transmission, 1.0 = minimize response time (Sect. V's conflicting
    #: optimization criteria, scalarized).
    time_weight: float = 0.5
    #: Prior on cross-provider duplication for the adaptive cost model
    #: (expected |union| / Σ|local results|; 1.0 = no duplication).
    dedup_prior: float = 1.0
    #: Physical-plan mode. ``legacy`` executes the compiled operator tree
    #: exactly as the per-step strategy flags above dictate (bit-identical
    #: to previous releases); ``cost`` lets the frequency-driven planner
    #: (:mod:`repro.query.cost`) pre-fetch leaf statistics and pin join
    #: order, walk mode, chain strategies, and combine sites at plan time.
    plan_mode: str = "legacy"

    # --- transmission-minimizing shipping optimizations ------------------
    # Each technique is independently toggleable so benchmarks can
    # attribute savings; all default off, keeping the paper-faithful wire
    # behaviour byte-identical to previous releases.

    #: Semijoin pre-filtering: before a join operand ships, the receiver
    #: sends a digest of its join-key values (exact set or Bloom filter)
    #: and the sender drops rows that cannot join.
    semijoin: bool = False
    #: Projection pushdown: prune variables that no downstream operator,
    #: filter, or output needs before every ship.
    projection_pushdown: bool = False
    #: Dictionary-delta wire encoding (:class:`repro.net.wire.SolutionBatch`)
    #: for every shipped solution set.
    dictionary_encoding: bool = False
    #: Skip the digest round-trip when the candidate operand has fewer
    #: rows than this (the digest would cost more than it saves).
    semijoin_min_rows: int = 4

    # --- fault tolerance (PR 6) ------------------------------------------
    # All default off/None: a no-fault run with the defaults is
    # byte-identical to previous releases (no extra payload keys, no extra
    # messages). ``retries``/``failover`` only change behaviour when an
    # RPC actually times out.

    #: Extra attempts per RPC after a timeout (0 = classic fail-fast).
    retries: int = 0
    #: Backoff before the first retry, in seconds.
    backoff: float = 0.05
    #: Cap on each attempt's RPC timeout (None = the call's own timeout).
    #: Retrying is pointless unless this undercuts the query's patience.
    per_attempt_timeout: Optional[float] = None
    #: Re-route around dead index nodes: re-resolve a timed-out owner via
    #: its successor list and read/dispatch at the promoted replica.
    #: Requires ``replication_factor >= 2`` to return correct answers.
    failover: bool = False
    #: Hedged duplicate lookups: None = off; 0.0 = auto (p95 of observed
    #: lookup RTTs); > 0 = fixed delay in seconds before the hedge fires.
    hedge_delay: Optional[float] = None
    #: Wall-clock budget for the whole query, in simulated seconds; every
    #: RPC (and retry schedule) is clamped to the remaining budget, which
    #: travels with dispatched sub-queries. None = unbounded.
    query_deadline: Optional[float] = None

    # --- chaos defense (PR 10) -------------------------------------------
    # Off by default: without ``breaker``/``partial_results`` no health
    # ledger exists, no payload key changes, and every new counter stays
    # zero — the golden grid is byte-identical.

    #: Per-peer health ledger (EWMA latency + consecutive failures) and
    #: closed/open/half-open circuit breaker: open circuits short-circuit
    #: call attempts instantly and failover dispatch routes around them
    #: before dialing, so a browned-out owner stops burning the query
    #: deadline one timeout at a time.
    breaker: bool = False
    #: EWMA round-trip latency (seconds) above which a *responding* peer
    #: is treated as browned out and its breaker tripped (the gray-failure
    #: trigger). None disables latency tripping.
    breaker_latency: Optional[float] = None
    #: Degrade instead of fail: when a sub-pattern's owner and replicas
    #: are all unreachable, its contribution becomes the empty set (a
    #: guaranteed *subset* of the true answer — never wrong or extra
    #: rows) and the result is flagged incomplete on the report and the
    #: physical plan, rather than the whole query raising.
    partial_results: bool = False

    # --- cross-query result cache (PR 9) ---------------------------------
    # Off by default: a run without ``result_cache`` is byte-identical to
    # previous releases (no extra payload keys, no extra messages).

    #: Enable the per-site semantic result cache (:mod:`repro.cache`):
    #: index nodes memoize primitive-pattern results and combine sites
    #: memoize whole BGP sub-results, invalidated delta-exactly via the
    #: network's ``data_epochs`` ledger + ``membership_epoch``.
    result_cache: bool = False
    #: Per-node residency budget for cached solution data, in bytes.
    cache_bytes: int = 262144
    #: Admission gate: how many times a key must be asked for before its
    #: result is materialized (1 = admit on first miss).
    cache_admit_threshold: int = 2

    def __post_init__(self) -> None:
        if self.plan_mode not in ("legacy", "cost"):
            raise ValueError(
                f"plan_mode must be 'legacy' or 'cost', not {self.plan_mode!r}"
            )

    def retry_policy(self) -> Optional[RetryPolicy]:
        """The transport-level policy these options describe (None when
        retries are disabled); growth, cap and jitter are the
        :class:`RetryPolicy` defaults."""
        if self.retries <= 0:
            return None
        return RetryPolicy(
            attempts=self.retries + 1,
            base_backoff=self.backoff,
            per_attempt_timeout=self.per_attempt_timeout,
        )
