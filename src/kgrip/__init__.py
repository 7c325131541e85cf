"""Greedy edge insertions that minimize a graph's total effective resistance.

The package solves two problems on connected, simple, unweighted graphs:
pick k new edges anywhere (global), or k new edges incident to one focus
node (local), so that the total effective resistance (Kirchhoff index) drops
as much as possible. Six heuristics trade speed against quality, from the
exact greedy over every non-edge down to sampled evaluations over
random-projection sketches or a truncated spectrum, and small-instance
brute-force oracles back every fast path in the test suite.
"""

from . import ust  # loaded with the package: no run imports the reference estimator, but perfbench's tracer patches it
from .errors import (
    ConfigError,
    DisconnectedError,
    InvariantError,
    KgripError,
    ParseError,
    SolverError,
    StaleStateError,
)
from .graphs import Graph, assert_connected, dump_edge_list, generate, is_connected, load_edge_list
from .greedy import GreedyParams, Heuristic, Solution, run_kgrip, run_klrip
from .linalg import (
    ColumnCache,
    DenseState,
    effective_resistance,
    gain_exact,
    pseudoinverse_dense,
    sherman_morrison_update,
    solve_lpinv_column,
    total_resistance,
    true_gain,
)

__version__ = "0.1.0"

__all__ = [
    "ColumnCache",
    "ConfigError",
    "DenseState",
    "DisconnectedError",
    "Graph",
    "GreedyParams",
    "Heuristic",
    "InvariantError",
    "KgripError",
    "ParseError",
    "Solution",
    "SolverError",
    "StaleStateError",
    "assert_connected",
    "dump_edge_list",
    "effective_resistance",
    "gain_exact",
    "generate",
    "is_connected",
    "load_edge_list",
    "pseudoinverse_dense",
    "run_kgrip",
    "run_klrip",
    "sherman_morrison_update",
    "solve_lpinv_column",
    "total_resistance",
    "true_gain",
]
