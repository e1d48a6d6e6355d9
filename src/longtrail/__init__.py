"""Longest-trail solver suite.

Engines: an exhaustive oracle, a full subset DP, and a hybrid solver that
precomputes a classical layer and drives the rest through simulated quantum
maximum finding with exact query accounting.
"""

from .bruteforce import OracleResult, longest_trail_bruteforce
from .dp import full_dp_longest_trail
from .graphs import (
    Graph,
    GraphFormatError,
    SizeLimitError,
    TrailVerdict,
    parse_graph,
    random_graph,
    serialize_graph,
    validate_trail,
)
from .hybrid import (
    HybridConfig,
    SolveResult,
    predict_deterministic_queries,
    solve_hybrid,
    theoretical_costs,
)
from .qmax import (
    QueryLedger,
    boosted,
    exhaustive,
)

__all__ = [
    "Graph",
    "GraphFormatError",
    "HybridConfig",
    "OracleResult",
    "QueryLedger",
    "SizeLimitError",
    "SolveResult",
    "TrailVerdict",
    "boosted",
    "exhaustive",
    "full_dp_longest_trail",
    "longest_trail_bruteforce",
    "parse_graph",
    "predict_deterministic_queries",
    "random_graph",
    "serialize_graph",
    "solve_hybrid",
    "theoretical_costs",
    "validate_trail",
]

__version__ = "0.1.0"
