"""Exact resistance and gain algebra on the Laplacian pseudoinverse.

Core identities, for a connected graph on n vertices with Laplacian L and
pseudoinverse P = L^+ (all implemented below):

  P            = (L + J/n)^(-1) - J/n                 (J = all-ones matrix)
  R(a,b)       = P[a,a] + P[b,b] - 2 P[a,b]           (effective resistance)
  B2(a,b)      = || P[:,a] - P[:,b] ||^2              (squared biharmonic distance)
  R_tot        = n * trace(P)                          (total effective resistance)
  gain(a,b)    = n * B2(a,b) / (1 + R(a,b))            (drop of R_tot when {a,b} is inserted)
  P'           = P - v v^T / (1 + R(a,b)),  v = P (e_a - e_b)   (rank-one insertion update)

Columns of P can also be obtained by solving L X = E - 1/n for a block of unit
vectors E (all at once through a sparse grounded-Laplacian factor, or by one
conjugate-gradient solve each) and re-centering X against the all-ones null
space; cached columns are brought forward across insertions by chaining the
rank-one update. A batch of gains reads B2 off the Gram matrix of the
columns it touches: B2(a,b) = G[a,a] + G[b,b] - 2 G[a,b], G = C^T C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import ConfigError, InvariantError, SolverError, StaleStateError
from .graphs import Graph, canonical_edge, is_connected


@dataclass(frozen=True)
class SolverConfig:
    """Accuracy knobs of the iterative column solver."""

    residual_tol: float = 1e-6
    max_iters: int | None = None  # default 10*n, resolved per solve

    def __post_init__(self):
        if not (math.isfinite(self.residual_tol) and self.residual_tol > 0):
            raise ConfigError(f"residual_tol must be finite and positive, got {self.residual_tol}")


DEFAULT_SOLVER = SolverConfig()
DENSE_CAP_DEFAULT = 20000
# where solve() factors: a factor pays from ~16 columns, its fill outgrows CG above n ~ 1000
_FACTOR_MAX_N = 1000
_FACTOR_MIN_COLUMNS = 16


def pseudoinverse_dense(graph: Graph, cap: int = DENSE_CAP_DEFAULT) -> np.ndarray:
    """Dense pseudoinverse via the exact identity (L + J/n)^(-1) - J/n."""
    n = graph.n
    if n > cap:
        raise ConfigError(
            f"n={n} exceeds the dense pseudoinverse cap {cap}; use column solves instead"
        )
    shift = 1.0 / n
    m = graph.laplacian_dense() + shift
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:  # disconnected graphs land here
        raise SolverError(f"factorization of L + J/n failed: {exc}") from exc
    return inv - shift


def solve(graph: Graph, rhs: np.ndarray, config: SolverConfig = DEFAULT_SOLVER) -> np.ndarray:
    """Solutions of L x = rhs orthogonal to the all-ones vector, one per column of ``rhs``.

    Every linear solve of the package goes through here. ``rhs`` is a vector
    or an n x s block whose columns sum to zero. All columns are solved
    through the graph's sparse factor of the grounded Laplacian when the
    graph already holds one for this round, or when n <= 1000 and s >= 16
    (the factor is then built and kept for the round). Otherwise each column
    runs Jacobi-preconditioned CG on the graph's cached Laplacian. Raises
    :class:`SolverError` carrying the worst achieved relative residual if CG
    stops early or any column's residual exceeds ``config.residual_tol``.
    """
    lap = graph.laplacian()
    block = rhs.reshape(graph.n, -1)
    stopped_early = False
    if graph.has_grounded_factor or (graph.n <= _FACTOR_MAX_N and block.shape[1] >= _FACTOR_MIN_COLUMNS):
        x = np.zeros_like(block)  # vertex 0 grounded
        x[1:] = graph.grounded_factor().solve(block[1:])
        x -= x.mean(axis=0)
        failure = "grounded-Laplacian factor solve missed the residual tolerance"
    else:
        maxiter = config.max_iters if config.max_iters is not None else 10 * graph.n
        precond = sp.diags(1.0 / np.maximum(lap.diagonal(), 1.0))
        x = np.empty_like(block)
        for j, column in enumerate(np.ascontiguousarray(block.T)):
            # solve one notch tighter than requested: the CG recurrence residual can
            # drift slightly from the true residual, and the contract is on the latter
            # on a singular system CG divides by zero; the residual check below reports it
            with np.errstate(divide="ignore", invalid="ignore"):
                xj, info = spla.cg(
                    lap, column, rtol=0.1 * config.residual_tol, atol=0.0, maxiter=maxiter, M=precond
                )
            x[:, j] = xj - xj.mean()
            stopped_early |= info != 0
        failure = f"CG did not converge within {maxiter} iterations"
    achieved = np.linalg.norm(lap @ x - block, axis=0) / np.maximum(np.linalg.norm(block, axis=0), 1e-300)
    if stopped_early or not achieved.max() <= config.residual_tol:  # NaN fails too
        raise SolverError(failure, float(achieved.max()))
    return x.reshape(rhs.shape)


def solve_lpinv_columns(graph: Graph, vertices, config: SolverConfig = DEFAULT_SOLVER) -> np.ndarray:
    """Columns of the pseudoinverse at ``vertices`` (n x len), from L X = E - 1/n in one :func:`solve`."""
    rhs = np.full((graph.n, len(vertices)), -1.0 / graph.n)
    rhs[vertices, np.arange(len(vertices))] += 1.0
    return solve(graph, rhs, config)


def solve_lpinv_column(graph: Graph, a: int, config: SolverConfig = DEFAULT_SOLVER) -> np.ndarray:
    """Column a of the pseudoinverse (see :func:`solve_lpinv_columns`)."""
    return solve_lpinv_columns(graph, [a], config)[:, 0]


def effective_resistance(col_a: np.ndarray, col_b: np.ndarray, a: int, b: int) -> float:
    """R(a,b) from two pseudoinverse columns of the same graph and round."""
    if a == b:
        raise InvariantError("effective resistance is defined for distinct vertices")
    return float(col_a[a] + col_b[b] - 2.0 * col_a[b])


def biharmonic_sq(col_a: np.ndarray, col_b: np.ndarray) -> float:
    """Squared biharmonic distance, the gain numerator."""
    d = col_a - col_b
    return float(d @ d)


def total_resistance(obj, cap: int = DENSE_CAP_DEFAULT) -> float:
    """n * trace(pseudoinverse), from a Graph or an existing DenseState.

    For a Graph no inverse is formed: with the Cholesky factor R of
    L + J/n (upper, R^T R), trace((L + J/n)^(-1)) = ||R^(-1)||_F^2, and the
    J/n term contributes 1 to it, so R_tot = n * (||R^(-1)||_F^2 - 1).
    """
    if isinstance(obj, DenseState):
        return obj.graph.n * float(np.trace(obj.matrix))
    if not isinstance(obj, Graph):
        raise TypeError(f"expected Graph or DenseState, got {type(obj)!r}")
    n = obj.n
    if n > cap:
        raise ConfigError(f"n={n} exceeds the dense total-resistance cap {cap}")
    # L + J/n is singular exactly when the graph is disconnected, but rounding
    # can leave the Cholesky factorization a tiny positive pivot instead of failing
    if not is_connected(obj):
        raise SolverError("L + J/n is singular: the graph is disconnected")
    factor, info = lapack.dpotrf(obj.laplacian_dense() + 1.0 / n, lower=0, clean=1, overwrite_a=1)
    if info == 0:
        factor, info = lapack.dtrtri(factor, lower=0, overwrite_c=1)
    if info != 0:
        raise SolverError(f"Cholesky factorization of L + J/n failed (LAPACK info {info})")
    return n * (float(np.einsum("ij,ij->", factor, factor)) - 1.0)


def gain_from_columns(col_a: np.ndarray, col_b: np.ndarray, a: int, b: int, n: int) -> float:
    return n * biharmonic_sq(col_a, col_b) / (1.0 + effective_resistance(col_a, col_b, a, b))


def sherman_morrison_update(lpinv: np.ndarray, a: int, b: int) -> np.ndarray:
    """Pseudoinverse of G + {a,b} from the pseudoinverse of G (rank-one update)."""
    v = lpinv[:, a] - lpinv[:, b]
    resistance = float(v[a] - v[b])
    return lpinv - np.outer(v, v) / (1.0 + resistance)


@dataclass(frozen=True)
class InsertionRecord:
    """Columns of the inserted edge's endpoints, taken just before insertion."""

    a: int
    b: int
    col_a: np.ndarray
    col_b: np.ndarray

    @property
    def resistance(self) -> float:
        return effective_resistance(self.col_a, self.col_b, self.a, self.b)


def refresh_column(
    column: np.ndarray, stale_round: int, records: list[InsertionRecord], target_round: int | None = None
) -> np.ndarray:
    """Bring a cached column forward by chaining the rank-one update per round.

    ``records[i]`` must describe the edge inserted at round i; the entry of the
    update direction v at the column's own vertex equals col[a] - col[b] by
    symmetry of the pseudoinverse, so the vertex id is not needed.
    """
    if target_round is None:
        target_round = len(records)
    if stale_round > target_round:
        raise StaleStateError(f"column stamped round {stale_round} is ahead of round {target_round}")
    if target_round > len(records):
        raise StaleStateError(
            f"missing insertion records for rounds {len(records)}..{target_round - 1}; re-solve the column"
        )
    col = column
    for i in range(stale_round, target_round):
        rec = records[i]
        v = rec.col_a - rec.col_b
        col = col - ((col[rec.a] - col[rec.b]) / (1.0 + rec.resistance)) * v
    return col


class DenseState:
    """Materialized pseudoinverse, kept current across insertions (round-stamped)."""

    def __init__(self, graph: Graph, matrix: np.ndarray, round_: int):
        self.graph = graph
        self.matrix = matrix
        self.round = round_

    @classmethod
    def compute(cls, graph: Graph, cap: int = DENSE_CAP_DEFAULT) -> "DenseState":
        return cls(graph, pseudoinverse_dense(graph, cap), graph.round)

    def column(self, v: int) -> np.ndarray:
        return self.matrix[:, v]

    def columns(self, vertices: np.ndarray) -> np.ndarray:
        return self.matrix[:, vertices]

    def apply_insertion(self, a: int, b: int) -> None:
        """Sherman-Morrison update after the graph gained edge {a,b}."""
        self.matrix = sherman_morrison_update(self.matrix, a, b)
        self.round += 1


class ColumnCache:
    """On-demand pseudoinverse columns with lazy refresh across insertions.

    Columns are solved when first requested and stamped with the cache round;
    a stale column is brought forward through the stored per-round insertion
    records instead of being re-solved.
    """

    def __init__(self, graph: Graph, config: SolverConfig = DEFAULT_SOLVER):
        self.graph = graph
        self.config = config
        self.round = 0
        self.records: list[InsertionRecord] = []
        self._cols: dict[int, tuple[np.ndarray, int]] = {}
        self._base_graph_round = graph.round
        self.solve_count = 0

    def _refresh_entry(self, v: int) -> np.ndarray:
        """Bring a cached column to the cache round without touching the graph."""
        col, stamp = self._cols[v]
        if stamp < self.round:
            col = refresh_column(col, stamp, self.records, self.round)
            self._cols[v] = (col, self.round)
        return col

    def column(self, v: int) -> np.ndarray:
        return self.columns(np.array([v]))[:, 0]

    def columns(self, vertices: np.ndarray) -> np.ndarray:
        """Columns of the given vertices side by side (n x len); missing ones are solved as one block."""
        missing = [v for v in dict.fromkeys(vertices.tolist()) if v not in self._cols]
        if missing:
            if self.graph.round != self._base_graph_round + self.round:
                raise StaleStateError(
                    "cache round out of sync with the graph; record insertions before new solves"
                )
            solved = solve_lpinv_columns(self.graph, missing, self.config)
            self.solve_count += len(missing)
            self._cols.update((v, (solved[:, j], self.round)) for j, v in enumerate(missing))
        return np.column_stack([self._refresh_entry(v) for v in vertices.tolist()])

    def note_insertion(self, a: int, b: int) -> None:
        """Record the just-inserted edge {a,b} from cached pre-insertion columns.

        Both endpoint columns must already be cached (they were evaluated in
        the round that chose the edge); solving here would read the mutated
        graph and corrupt the refresh chain.
        """
        a, b = canonical_edge(a, b)
        for v in (a, b):
            if v not in self._cols:
                raise StaleStateError(
                    f"column {v} was never solved; cannot record insertion ({a},{b})"
                )
        col_a = self._refresh_entry(a)
        col_b = self._refresh_entry(b)
        self.records.append(InsertionRecord(a, b, col_a.copy(), col_b.copy()))
        self.round += 1


def gain_exact(state, a: int, b: int) -> float:
    """Exact gain of inserting the non-edge {a,b}, including the factor n."""
    a, b = canonical_edge(a, b)
    graph: Graph = state.graph
    if graph.has_edge(a, b):
        raise InvariantError(f"edge ({a},{b}) already exists; gain undefined")
    return gain_from_columns(state.column(a), state.column(b), a, b, graph.n)


def gains_exact(state, pairs: np.ndarray) -> np.ndarray:
    """Exact gains of many non-edges at once; ``pairs`` is an (s, 2) int array.

    ``state`` is a :class:`DenseState` or a :class:`ColumnCache`. The columns
    C of every vertex the pairs touch are gathered once, and the squared
    biharmonic distances come from the Gram identity
    ||c_a - c_b||^2 = G[a,a] + G[b,b] - 2 G[a,b] with G = C^T C.
    """
    graph: Graph = state.graph
    a, b = pairs[:, 0], pairs[:, 1]
    if np.any(a == b) or np.any(graph.has_edges(a, b)):
        raise InvariantError("gains are defined for non-edges only")
    vertices, slot = np.unique(pairs, return_inverse=True)
    slot_a, slot_b = slot.reshape(pairs.shape).T
    cols = state.columns(vertices)
    gram = cols.T @ cols
    sq = np.diagonal(gram)
    b2 = sq[slot_a] + sq[slot_b] - 2.0 * gram[slot_a, slot_b]
    resistance = cols[a, slot_a] + cols[b, slot_b] - 2.0 * cols[b, slot_a]
    return graph.n * b2 / (1.0 + resistance)


def true_gain(graph: Graph, a: int, b: int, config: SolverConfig = DEFAULT_SOLVER) -> float:
    """Exact gain via a fresh two-column solve (heuristic-independent reporting path)."""
    a, b = canonical_edge(a, b)
    if graph.has_edge(a, b):
        raise InvariantError(f"edge ({a},{b}) already exists; gain undefined")
    cols = solve_lpinv_columns(graph, [a, b], config)
    return gain_from_columns(cols[:, 0], cols[:, 1], a, b, graph.n)
