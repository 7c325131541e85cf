"""Exact resistance and gain algebra on the Laplacian pseudoinverse.

Core identities, for a connected graph on n vertices with Laplacian L and
pseudoinverse P = L^+ (all implemented below):

  P            = (L + J/n)^(-1) - J/n                 (J = all-ones matrix)
  R(a,b)       = P[a,a] + P[b,b] - 2 P[a,b]           (effective resistance)
  B2(a,b)      = || P[:,a] - P[:,b] ||^2              (squared biharmonic distance)
  R_tot        = n * trace(P)                          (total effective resistance)
  gain(a,b)    = n * B2(a,b) / (1 + R(a,b))            (drop of R_tot when {a,b} is inserted)
  P'           = P - v v^T / (1 + R(a,b)),  v = P (e_a - e_b)   (rank-one insertion update)

All three pair quantities read off the one vector v = P[:,a] - P[:,b]:
B2(a,b) = v.v and R(a,b) = v[a] - v[b]. A single pair therefore needs one
solve, L v = e_a - e_b, not the two columns.

The dense P and R_tot both come from one Cholesky factor of L + J/n, which
refuses a disconnected graph. Columns of P can also be obtained by solving
L X = E - 1/n for a block of unit vectors E (all at once through a sparse
grounded-Laplacian factor, or by one conjugate-gradient solve each) and
re-centering X against the all-ones null space. Restricted to a block C of
columns, the rank-one update reads C' = C - v (C[a] - C[b]) / (1 + R(a,b));
one column cache applies it. A batch of gains reads B2 off the Gram matrix
of the columns it touches: B2(a,b) = G[a,a] + G[b,b] - 2 G[a,b], G = C^T C.
The dense state keeps Q = P^2 beside P, reads each gain's B2(a,b) =
Q[a,a] + Q[b,b] - 2 Q[a,b] in O(1), and updates both in place per insertion:
  Q' = Q - c (w v^T + v w^T) + c^2 (v.v) v v^T = Q + u v^T + v u^T,
  w = Q (e_a - e_b), c = 1 / (1 + R(a,b)), u = -c w + (c^2 (v.v) / 2) v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import blas, lapack

from .errors import ConfigError, InvariantError, SolverError, StaleStateError
from .graphs import Graph, canonical_edge, is_connected


@dataclass(frozen=True)
class SolverConfig:
    """Accuracy of the column solver: the relative residual every solve must reach."""

    residual_tol: float = 1e-6

    def __post_init__(self):
        if not (math.isfinite(self.residual_tol) and self.residual_tol > 0):
            raise ConfigError(f"residual_tol must be finite and positive, got {self.residual_tol}")


DEFAULT_SOLVER = SolverConfig()
# every dense path's largest n: P, Q = P^2 and the two n x n transients of the
# r_final Cholesky (run while P and Q are alive) take 32 n^2 bytes, 5.0 GB at 12500
DENSE_CAP_DEFAULT = 12500
# where solve() factors: a factor pays from ~16 columns, its fill outgrows CG above n ~ 1000
_FACTOR_MAX_N = 1000
_FACTOR_MIN_COLUMNS = 16


def _shifted_cholesky_inverse(graph: Graph, invert) -> np.ndarray:
    """``invert`` (LAPACK dpotri or dtrtri) of the upper Cholesky factor of L + J/n, its only factorisation."""
    n = graph.n
    if n > DENSE_CAP_DEFAULT:
        raise ConfigError(f"n={n} exceeds the dense cap {DENSE_CAP_DEFAULT}; use column solves instead")
    # L + J/n is singular exactly when the graph is disconnected, but rounding
    # can leave the Cholesky factorization a tiny positive pivot instead of failing
    if not is_connected(graph):
        raise SolverError("L + J/n is singular: the graph is disconnected")
    factor, info = lapack.dpotrf(graph.laplacian_dense() + 1.0 / n, lower=0, clean=1, overwrite_a=1)
    if info == 0:
        factor, info = invert(factor, lower=0, overwrite_c=1)
    if info != 0:
        raise SolverError(f"Cholesky inversion of L + J/n failed (LAPACK info {info})")
    return factor


def pseudoinverse_dense(graph: Graph) -> np.ndarray:
    """Dense pseudoinverse (L + J/n)^(-1) - J/n; dpotri's upper triangle is mirrored, so P == P.T exactly."""
    inv = _shifted_cholesky_inverse(graph, lapack.dpotri)
    inv += np.triu(inv, 1).T
    inv -= 1.0 / graph.n
    return inv.T  # the same symmetric matrix, C-contiguous


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
        maxiter = 10 * graph.n
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


def solve_lpinv_difference(graph: Graph, a: int, b: int, config: SolverConfig = DEFAULT_SOLVER) -> np.ndarray:
    """P[:,a] - P[:,b], the pseudoinverse applied to e_a - e_b, from one :func:`solve`."""
    rhs = np.zeros(graph.n)
    rhs[a], rhs[b] = 1.0, -1.0
    return solve(graph, rhs, config)


def effective_resistance(col_a: np.ndarray, col_b: np.ndarray, a: int, b: int) -> float:
    """R(a,b) from two pseudoinverse columns of the same graph and round."""
    if a == b:
        raise InvariantError("effective resistance is defined for distinct vertices")
    return float(col_a[a] + col_b[b] - 2.0 * col_a[b])


def biharmonic_sq(col_a: np.ndarray, col_b: np.ndarray) -> float:
    """Squared biharmonic distance, the gain numerator."""
    d = col_a - col_b
    return float(d @ d)


def total_resistance(obj) -> float:
    """n * trace(pseudoinverse), from a Graph or an existing DenseState.

    For a Graph no inverse is formed: with the Cholesky factor R of L + J/n
    (upper, R^T R, :class:`SolverError` if the graph is disconnected),
    trace((L + J/n)^(-1)) = ||R^(-1)||_F^2, and the J/n term contributes 1
    to it, so R_tot = n * (||R^(-1)||_F^2 - 1).
    """
    if isinstance(obj, DenseState):
        return obj.graph.n * float(np.trace(obj.block))
    if not isinstance(obj, Graph):
        raise TypeError(f"expected Graph or DenseState, got {type(obj)!r}")
    r_inv = _shifted_cholesky_inverse(obj, lapack.dtrtri)
    return obj.n * (float(np.einsum("ij,ij->", r_inv, r_inv)) - 1.0)


def gain_from_columns(col_a: np.ndarray, col_b: np.ndarray, a: int, b: int, n: int) -> float:
    return n * biharmonic_sq(col_a, col_b) / (1.0 + effective_resistance(col_a, col_b, a, b))


def refresh_column(columns: np.ndarray, col_a: np.ndarray, col_b: np.ndarray, a: int, b: int) -> np.ndarray:
    """Pseudoinverse columns of G + {a,b} from the same columns of G (rank-one update).

    ``columns`` is one column or an n x s block of G's pseudoinverse, and
    ``col_a``, ``col_b`` are G's columns at the endpoints. By symmetry of the
    pseudoinverse, row a of the block holds the entries of column a at the
    block's own vertices, so C - (c_a - c_b)(C[a] - C[b]) / (1 + R(a,b)).
    """
    scale = (columns[a] - columns[b]) / (1.0 + effective_resistance(col_a, col_b, a, b))
    return columns - np.multiply.outer(col_a - col_b, scale)


def sherman_morrison_update(lpinv: np.ndarray, a: int, b: int) -> np.ndarray:
    """Pseudoinverse of G + {a,b} from the pseudoinverse of G (rank-one update)."""
    return refresh_column(lpinv, lpinv[:, a], lpinv[:, b], a, b)


class ColumnCache:
    """On-demand pseudoinverse columns, kept current across insertions.

    Columns are solved when first requested and stored side by side in one
    n x s ``block``; ``slot[v]`` is v's column in it, -1 if v was never
    solved. Each insertion brings the whole block forward in one rank-one
    update; ``round`` is the round of the graph the block belongs to.
    :class:`DenseState` is the cache that holds every column from the start.
    """

    def __init__(self, graph: Graph, config: SolverConfig = DEFAULT_SOLVER):
        self.graph = graph
        self.config = config
        self.round = graph.round
        self.block = np.empty((graph.n, 0))
        self.slot = np.full(graph.n, -1, dtype=np.int64)
        self.solve_count = 0

    def column(self, v: int) -> np.ndarray:
        return self.columns(np.array([v]))[:, 0]

    def columns(self, vertices: np.ndarray) -> np.ndarray:
        """Columns of the given vertices side by side (n x len); missing ones are solved as one block."""
        missing = [v for v in dict.fromkeys(vertices.tolist()) if self.slot[v] < 0]
        if missing:
            if self.graph.round != self.round:
                raise StaleStateError(
                    "cache round out of sync with the graph; record insertions before new solves"
                )
            solved = solve_lpinv_columns(self.graph, missing, self.config)
            self.solve_count += len(missing)
            self.slot[missing] = np.arange(self.block.shape[1], self.block.shape[1] + len(missing))
            self.block = np.hstack([self.block, solved])
        return self.block[:, self.slot[vertices]]

    def note_insertion(self, a: int, b: int) -> None:
        """Bring every stored column across the just-inserted edge {a,b}.

        Both endpoint columns must already be stored (they were evaluated in
        the round that chose the edge); solving here would read the mutated
        graph instead of the one the stored columns belong to.
        """
        a, b = canonical_edge(a, b)
        for v in (a, b):
            if self.slot[v] < 0:
                raise StaleStateError(
                    f"column {v} was never solved; cannot record insertion ({a},{b})"
                )
        self.block = refresh_column(self.block, self.block[:, self.slot[a]], self.block[:, self.slot[b]], a, b)
        self.round += 1


class DenseState(ColumnCache):
    """The cache of every column: ``block`` is the dense P (column v at slot v), ``square`` is Q = P^2."""

    @classmethod
    def compute(cls, graph: Graph) -> "DenseState":
        state = cls(graph)
        state.block = pseudoinverse_dense(graph)
        state.slot = np.arange(graph.n)
        state.square = state.block @ state.block
        return state

    def gains(self, a, b):
        """n * B2(a,b) / (1 + R(a,b)) for vertices or index arrays a, b, read off Q and P."""
        p, q = self.block, self.square
        b2 = q[a, a] + q[b, b] - 2.0 * q[a, b]
        return self.graph.n * b2 / (1.0 + (p[a, a] + p[b, b] - 2.0 * p[a, b]))

    def note_insertion(self, a: int, b: int) -> None:
        """Bring P and Q across the just-inserted edge {a,b}, in place (module docstring)."""
        a, b = canonical_edge(a, b)
        p, q = self.block, self.square
        v = p[:, a] - p[:, b]
        w = q[:, a] - q[:, b]
        c = 1.0 / (1.0 + (v[a] - v[b]))
        u = (0.5 * c * c * float(v @ v)) * v - c * w
        # P and Q are symmetric, so BLAS overwrites their Fortran-ordered transposes
        uv, vu = np.array([u, v]).T, np.array([v, u]).T
        self.block = blas.dger(-c, v, v, a=p.T, overwrite_a=1).T
        self.square = blas.dgemm(1.0, uv, vu, beta=1.0, c=q.T, trans_b=1, overwrite_c=1).T
        self.round += 1

    apply_insertion = note_insertion  # the dense scorer's update step


def gain_exact(state, a: int, b: int) -> float:
    """Exact gain of inserting the non-edge {a,b}, including the factor n."""
    a, b = canonical_edge(a, b)
    graph: Graph = state.graph
    if graph.has_edge(a, b):
        raise InvariantError(f"edge ({a},{b}) already exists; gain undefined")
    if isinstance(state, DenseState):
        return float(state.gains(a, b))
    return gain_from_columns(state.column(a), state.column(b), a, b, graph.n)


def gains_exact(state, pairs: np.ndarray) -> np.ndarray:
    """Exact gains of many non-edges at once; ``pairs`` is an (s, 2) int array.

    A :class:`DenseState` reads every gain off Q and P in place. For a
    :class:`ColumnCache` the columns C of every vertex the pairs touch are
    gathered once, in vertex order; an endpoint's slot in C is its rank among
    the touched vertices, read off a running count of the touched flags
    (O(s + n), no sort). The squared biharmonic distances come from the Gram
    identity ||c_a - c_b||^2 = G[a,a] + G[b,b] - 2 G[a,b] with G = C^T C. A
    star batch (one vertex in every pair, as in a focus node's candidates)
    reads G[a,b] off the hub's row C^T c_hub and the diagonal off the column
    norms.
    """
    graph: Graph = state.graph
    a, b = pairs[:, 0], pairs[:, 1]
    if np.any(a == b) or np.any(graph.has_edges(a, b)):
        raise InvariantError("gains are defined for non-edges only")
    if isinstance(state, DenseState):
        return state.gains(a, b)
    counts = np.bincount(pairs.ravel(), minlength=graph.n)
    vertices = np.flatnonzero(counts)
    slot_a, slot_b = (np.cumsum(counts > 0) - 1)[pairs].T  # rank of each endpoint among the touched vertices
    cols = state.columns(vertices)
    hub = next((h for h in pairs[0] if np.all((a == h) | (b == h))), None)
    if hub is None:
        gram = cols.T @ cols
        sq = np.diagonal(gram)
        cross = gram[slot_a, slot_b]
    else:
        h = int(np.searchsorted(vertices, hub))
        sq = np.einsum("ij,ij->j", cols, cols)
        cross = (cols.T @ cols[:, h])[slot_a + slot_b - h]  # the slot of the pair's other end
    b2 = sq[slot_a] + sq[slot_b] - 2.0 * cross
    resistance = cols[a, slot_a] + cols[b, slot_b] - 2.0 * cols[b, slot_a]
    return graph.n * b2 / (1.0 + resistance)


def true_gain(graph: Graph, a: int, b: int, config: SolverConfig = DEFAULT_SOLVER) -> float:
    """Exact gain via one fresh solve of L x = e_a - e_b (heuristic-independent reporting path)."""
    a, b = canonical_edge(a, b)
    if graph.has_edge(a, b):
        raise InvariantError(f"edge ({a},{b}) already exists; gain undefined")
    v = solve_lpinv_difference(graph, a, b, config)
    return graph.n * float(v @ v) / (1.0 + float(v[a] - v[b]))
