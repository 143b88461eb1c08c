"""Distributed SPARQL query processing — the paper's core contribution
(S10): planning over the two-level index, the primitive / conjunction /
optional / union / filter execution schemes of Sect. IV, and join-site
selection."""

from .strategies import (
    ConjunctionMode,
    ExecutionOptions,
    JoinSitePolicy,
    PrimitiveStrategy,
)
from .cost import CostModel, StrategyCosts, annotate_plan, choose_strategy
from .physical import (
    PhysOp,
    compile_distributed,
    compile_query_plan,
    format_plan,
    walk_plan,
)
from .plan import PatternInfo, ResultHandle, choose_shared_site, subquery_algebra
from .executor import (
    DistributedExecutor,
    ExecutionContext,
    ExecutionReport,
    QueryDeadlineExceeded,
    QueryFailed,
)

__all__ = [
    "PhysOp",
    "compile_distributed",
    "compile_query_plan",
    "format_plan",
    "walk_plan",
    "annotate_plan",
    "PrimitiveStrategy",
    "ConjunctionMode",
    "JoinSitePolicy",
    "ExecutionOptions",
    "PatternInfo",
    "ResultHandle",
    "choose_shared_site",
    "subquery_algebra",
    "DistributedExecutor",
    "ExecutionContext",
    "ExecutionReport",
    "QueryFailed",
    "QueryDeadlineExceeded",
    "CostModel",
    "StrategyCosts",
    "choose_strategy",
]
