"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: configuration problems -> 2,
input/parse problems -> 3, solver non-convergence -> 4.
"""

from __future__ import annotations


class KgripError(Exception):
    """Base class for all package errors."""


class ConfigError(KgripError, ValueError):
    """Invalid parameter or infeasible request (bad delta, k too large, ...)."""


class InvariantError(KgripError, ValueError):
    """A structural invariant would be violated (existing edge, self-loop, ...)."""


class DisconnectedError(InvariantError):
    """Graph is not connected; carries two vertices from different components."""

    def __init__(self, u: int, v: int):
        super().__init__(f"graph is disconnected: no path between vertices {u} and {v}")
        self.u = u
        self.v = v


class ParseError(KgripError, ValueError):
    """Malformed edge-list input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class SolverError(KgripError, RuntimeError):
    """Linear or eigen solver failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved_residual: float | None = None):
        if achieved_residual is not None:
            message = f"{message} (achieved residual {achieved_residual:.3e})"
        super().__init__(message)
        self.achieved_residual = achieved_residual


class StaleStateError(KgripError, RuntimeError):
    """Cached state (sketch, columns) no longer matches the graph round."""
