"""Execution strategies and options (Sect. IV, Sect. II).

The paper describes, for each query family, a *basic* processing scheme
and one or more *optimizations*; and for join placement the classic
Move-Small / Query-Site / Third-Site policies. These enums name them; the
benchmark harness sweeps them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from ..net.transport import RetryPolicy

__all__ = [
    "PrimitiveStrategy",
    "ConjunctionMode",
    "JoinSitePolicy",
    "ExecutionOptions",
    "DELIVERY_TIMEOUT",
]

#: Seconds to wait for a one-way delivery before declaring a chain broken
#: and falling back to the basic strategy; the owner's per-provider wait
#: (``storage_timeout``) and the dispatch deadline (four times this) are
#: derived from it.
DELIVERY_TIMEOUT = 5.0


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


_PLAN_MODES = ("legacy", "cost")


def _option(default, help: str, **flag):
    """An :class:`ExecutionOptions` field with its command-line flag:
    *help* is the flag's help text, and *flag* may hold ``flag`` (a
    spelling other than the field's kebab-case name), ``metavar`` or
    ``choices``."""
    return field(default=default, metadata={"help": help, **flag})


@dataclass(frozen=True, slots=True)
class ExecutionOptions:
    """Knobs of the distributed executor; defaults are the paper's
    most-optimized configuration.

    Each field is declared once, with its flag: :mod:`repro.cli` builds
    one ``--kebab-name`` per field (``--no-kebab-name`` for a boolean
    that defaults on) unless the field's metadata spells it otherwise."""

    primitive_strategy: PrimitiveStrategy = _option(
        PrimitiveStrategy.FREQ, "primitive-query strategy (Sect. IV-C)",
        flag="--strategy")
    conjunction_mode: ConjunctionMode = _option(
        ConjunctionMode.OPTIMIZED, "conjunction processing mode (Sect. IV-D)",
        flag="--conjunction")
    join_site_policy: JoinSitePolicy = _option(
        JoinSitePolicy.MOVE_SMALL, "join-site selection policy (Sect. II)",
        flag="--join-site")
    optimize: bool = _option(
        True, "disable algebraic optimization (filter pushing, Sect. IV-G)")
    reorder_joins: bool = _option(
        True, "keep BGP patterns in query order instead of reordering them "
              "by location-table frequency statistics")
    #: Sect. V's conflicting optimization criteria, scalarized.
    time_weight: float = _option(
        0.5, "cost-planner objective mixture for each leaf's BASIC/FREQ "
             "choice: 0=min bytes, 1=min time")
    #: ``legacy`` executes the compiled operator tree exactly as the
    #: per-step strategy flags dictate; ``cost`` (the Sect. V planner,
    #: :mod:`repro.query.cost`) pre-fetches leaf statistics and pins the
    #: plan's choices first.
    plan_mode: str = _option(
        "legacy", "physical-plan mode: legacy follows the per-step strategy "
                  "flags exactly; cost lets the frequency-driven planner pin "
                  "join order, walk mode, chain strategies, and combine "
                  "sites at plan time",
        flag="--plan", choices=_PLAN_MODES)

    # --- transmission-minimizing shipping optimizations ------------------
    # Each technique is independently toggleable so benchmarks can
    # attribute savings. Dictionary encoding defaults on: an adaptive
    # batch never costs more than the plain row list plus one mode byte.
    # The two row-dropping techniques default off (the paper's wire).

    semijoin: bool = _option(
        False, "semijoin/Bloom pre-filtering: ship join-key digests so "
               "non-joining rows never travel")
    projection_pushdown: bool = _option(
        False, "prune dead variables from intermediate results before "
               "every ship (sound for DISTINCT/ASK/CONSTRUCT queries)")
    #: The encoding is :class:`repro.net.wire.SolutionBatch`; off, every
    #: request that ships rows carries ``plain`` and they travel as the
    #: plain list of mappings.
    dictionary_encoding: bool = _option(
        True, "ship solution sets as plain mapping lists instead of "
              "adaptive dictionary-delta batches (never more than one "
              "byte larger)",
        flag="--no-dict-encoding")

    # --- fault tolerance (PR 6) ------------------------------------------
    # All default off/None. ``retries``/``failover`` only change
    # behaviour when an RPC actually times out.

    retries: int = _option(
        0, "retry budget per RPC: N extra attempts after a timeout "
           "(0 = fail fast)", metavar="N")
    backoff: float = _option(
        0.05, "base exponential backoff between retry attempts, with "
              "seeded jitter", metavar="SECS")
    #: Retrying is pointless unless this undercuts the query's patience.
    per_attempt_timeout: Optional[float] = _option(
        None, "cap on each RPC attempt's timeout (None = the call's own "
              "timeout)", metavar="SECS")
    #: At ``replication_factor`` 1 it never re-routes: a dead owner's
    #: rows are dropped (flagged, with ``partial_results``) or fail the
    #: query.
    failover: bool = _option(
        False, "re-route timed-out lookups and primitive dispatches to "
               "replica holders via the successor list (needs --replicas>=2)")
    #: Every RPC (and retry schedule) is clamped to the remaining budget,
    #: which travels with dispatched sub-queries.
    query_deadline: Optional[float] = _option(
        None, "end-to-end deadline per query in simulated seconds, "
              "propagated with every downstream call", metavar="SECS")

    # --- chaos defense (PR 10) -------------------------------------------
    # Off by default: without ``breaker``/``partial_results`` no health
    # ledger exists and no request field changes.

    #: Per-peer health ledger (EWMA latency + consecutive failures) and
    #: closed/open/half-open circuit breaker, so a browned-out owner stops
    #: burning the query deadline one timeout at a time.
    breaker: bool = _option(
        False, "per-peer health ledger + circuit breakers: open circuits "
               "fail calls instantly and failover routes around them "
               "before dialing")
    breaker_latency: Optional[float] = _option(
        None, "EWMA RTT above which a responding peer is treated as browned "
              "out and its breaker tripped (gray-failure detection; None = "
              "timeouts only)", metavar="SECS")
    #: The degraded answer is a guaranteed *subset* of the true one (never
    #: wrong or extra rows), flagged on the report and the physical plan.
    partial_results: bool = _option(
        False, "degrade instead of fail: when every replica of a "
               "sub-pattern is unreachable, return a flagged subset of the "
               "answer rather than raising")

    # --- cross-query result cache (PR 9) ---------------------------------
    #: See :mod:`repro.cache`; entries are validated by the freshness
    #: rule of :mod:`repro.cache.epoch`, and a key is admitted once it has
    #: been requested ``result_cache.DEFAULT_ADMIT_THRESHOLD`` times.
    result_cache: bool = _option(
        False, "cross-query per-site result cache: index nodes memoize "
               "primitive results and combine sites memoize BGP "
               "sub-results, invalidated delta-exactly by the data-epoch "
               "ledger")

    def __post_init__(self) -> None:
        if self.plan_mode not in _PLAN_MODES:
            raise ValueError(
                f"plan_mode must be 'legacy' or 'cost', not {self.plan_mode!r}"
            )
        if not 0.0 <= self.time_weight <= 1.0:
            raise ValueError(
                f"time_weight must lie in [0, 1], not {self.time_weight}")
        for name in ("retries", "backoff"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be >= 0, not {getattr(self, name)}")
        for name in ("per_attempt_timeout", "query_deadline",
                     "breaker_latency"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be > 0 when set, not {value}")

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
