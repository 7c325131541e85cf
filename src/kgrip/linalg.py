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
solve, L v = e_a - e_b, not the two columns, and none where the dense P is
held: ``DenseState.report`` reads v off it. Every residual ||L x - b|| is
judged on the graph as it stands through ``Graph.apply_laplacian``, which
needs no Laplacian rebuilt after an insertion.

The dense P and R_tot both come from one Cholesky factor of L + J/n, which
refuses a disconnected graph; up to ``DENSE_SOLVE_MAX_N`` vertices it is the
graph's factor, whose solve of a zero-sum b is L^+ b. Above that, diag(P) and
R_tot come from ``GroundedLU.inverse_diagonal``. Columns of P can also be
obtained by solving L X = E - 1/n for a block of unit vectors E (at once through
the graph's factor, a sparse LU of the grounded Laplacian L[1:,1:] above that
size, grown by the Woodbury identity below across insertions, or by one CG solve
each) and re-centering X. Restricted to a block C of columns, the rank-one
update reads C' = C - v (C[a] - C[b]) / (1 + R(a,b)); one column cache applies
it. A batch of gains reads B2 off the Gram matrix of the columns it touches:
B2(a,b) = G[a,a] + G[b,b] - 2 G[a,b], G = C^T C.
The dense state keeps Q = P^2 beside P, reads each gain's B2(a,b) =
Q[a,a] + Q[b,b] - 2 Q[a,b] in O(1), and updates both in place per insertion:
  Q' = Q - c (w v^T + v w^T) + c^2 (v.v) v v^T = Q + u v^T + v u^T,
  w = Q (e_a - e_b), c = 1 / (1 + R(a,b)), u = -c w + (c^2 (v.v) / 2) v.
Every gain reads a pair a < b, so only Q's upper triangle is kept: BLAS dsyrk
forms it, dsyr2 updates it, and w reads column a as Q[:a, a], Q[a, a:].
k edges inserted at once form an incidence block B (columns e_a - e_b, B^T 1 = 0);
with X = P B, one k-column solve, the Woodbury identity gives
  (L + B B^T)^+ = P - X (I + B^T X)^(-1) X^T,  R_tot' = R_tot - n * trace((I + B^T X)^(-1) X^T X).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import blas, lapack

from .errors import ConfigError, InvariantError, SolverError, StaleStateError
from .graphs import DENSE_SOLVE_MAX_N, DenseCholesky, Graph, GroundedLU, canonical_edge, is_connected


RESIDUAL_TOL = 1e-6  # the relative residual every solve must reach, unless its caller passes another tol
# every dense path's largest n: P, Q = P^2 and the transients of building them
# stay within four n x n arrays, 32 n^2 bytes, 5.0 GB at 12500
DENSE_CAP_DEFAULT = 12500
PASS_BLOCK = 1 << 14  # pairs a dense gain pass scores at once: its temporaries stay in cache


def check_dense_cap(n: int) -> None:
    """Raise :class:`ConfigError` for n above ``DENSE_CAP_DEFAULT``."""
    if n > DENSE_CAP_DEFAULT:
        raise ConfigError(f"n={n}: 4 n x n arrays exceed the dense budget (n <= {DENSE_CAP_DEFAULT})")


def _shifted_cholesky(graph: Graph) -> np.ndarray:
    """Cholesky factor U of L + J/n, F-ordered, in an array the caller may overwrite: a copy of the graph's dense
    factor up to ``DENSE_SOLVE_MAX_N`` (the one LAPACK would make), else factored in ``laplacian_dense``'s array."""
    n = graph.n
    check_dense_cap(n)
    # L + J/n is singular exactly when the graph is disconnected, but rounding
    # can leave the Cholesky factorization a tiny positive pivot instead of failing
    if not is_connected(graph):
        raise SolverError("L + J/n is singular: the graph is disconnected")
    if n <= DENSE_SOLVE_MAX_N and isinstance(graph.factor(), DenseCholesky):
        return np.array(graph.factor().upper, order="F")
    shifted = graph.laplacian_dense()
    shifted += 1.0 / n
    return DenseCholesky(shifted).upper


def pseudoinverse_dense(graph: Graph) -> np.ndarray:
    """Dense pseudoinverse (L + J/n)^(-1) - J/n; dpotri's triangle is mirrored in place, so P == P.T exactly."""
    inv, info = lapack.dpotri(_shifted_cholesky(graph), overwrite_c=1)
    if info != 0:
        raise SolverError(f"Cholesky inversion of L + J/n failed (LAPACK info {info})")
    p = inv.T  # C-ordered, with dpotri's triangle as its lower one: mirrored 64 rows at a time
    for first in range(0, graph.n, 64):
        p[first : first + 64, first:] += np.tril(p[first:, first : first + 64], -1).T
    p -= 1.0 / graph.n
    return p


def solve(graph: Graph, rhs: np.ndarray, tol: float = RESIDUAL_TOL) -> np.ndarray:
    """Solutions of L x = rhs orthogonal to the all-ones vector, one per column of ``rhs``.

    Every linear solve of the package goes through here, but for two that call the graph's factor directly:
    spectral's shift-invert operator and ``GrownFactor``'s solves on its base. ``rhs`` is a vector or an n x s block
    whose columns sum to zero. All columns are solved through the graph's :meth:`~kgrip.graphs.Graph.factor` when
    the graph holds one or n <= ``DENSE_SOLVE_MAX_N`` (README tables); otherwise each column runs
    Jacobi-preconditioned CG on the current Laplacian, and no factor is built: the callers that need one ask for it
    (the sketch's square root, the exact diagonal, shift-invert), and later solves use it. Every column's relative
    residual ||L x - rhs|| / ||rhs|| must reach ``tol``, which must be finite and positive (:class:`ConfigError`
    otherwise, before any work); it is judged by :func:`relative_residuals`, with no Laplacian rebuilt on the factor
    path. Raises :class:`SolverError` carrying the worst achieved relative residual if the factorisation fails
    (x = 0 is then judged), CG stops early or any column misses ``tol``.
    """
    if not (math.isfinite(tol) and tol > 0):  # CG at rtol=inf would return x = 0 and pass its own check
        raise ConfigError(f"tol must be finite and positive, got {tol}")
    block = rhs.reshape(graph.n, -1)
    stopped_early = False
    if graph.has_factor or graph.n <= DENSE_SOLVE_MAX_N:
        failure = "Laplacian factor solve missed the residual tolerance"
        try:
            x = graph.factor().solve(block)
        except SolverError as exc:  # singular: the graph is disconnected; x = 0 is judged
            x, failure, stopped_early = np.zeros_like(block), str(exc), True
        x -= x.mean(axis=0)
    else:
        lap, maxiter = graph.laplacian(), 10 * graph.n
        precond = sp.diags(1.0 / np.maximum(lap.diagonal(), 1.0))
        x = np.empty_like(block)
        for j, column in enumerate(np.ascontiguousarray(block.T)):
            # solve one notch tighter than requested: the CG recurrence residual can
            # drift slightly from the true residual, and the contract is on the latter
            # on a singular system CG divides by zero; the residual check below reports it
            with np.errstate(divide="ignore", invalid="ignore"):
                xj, info = spla.cg(lap, column, rtol=0.1 * tol, atol=0.0, maxiter=maxiter, M=precond)
            x[:, j] = xj - xj.mean()
            stopped_early |= info != 0
        failure = f"CG did not converge within {maxiter} iterations"
    achieved = relative_residuals(graph, x, block)
    if stopped_early or not achieved.max() <= tol:  # NaN fails too
        raise SolverError(failure, float(achieved.max()))
    return x.reshape(rhs.shape)


def relative_residuals(graph: Graph, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """||L x - rhs|| / ||rhs|| of each column of ``x``, with L the graph as it stands, by
    :meth:`~kgrip.graphs.Graph.apply_laplacian`."""
    return np.linalg.norm(graph.apply_laplacian(x) - rhs, axis=0) / np.maximum(np.linalg.norm(rhs, axis=0), 1e-300)


def solve_lpinv_columns(graph: Graph, vertices, tol: float = RESIDUAL_TOL) -> np.ndarray:
    """Columns of the pseudoinverse at ``vertices`` (n x len), from L X = E - 1/n in one :func:`solve`."""
    rhs = np.full((graph.n, len(vertices)), -1.0 / graph.n)
    rhs[vertices, np.arange(len(vertices))] += 1.0
    return solve(graph, rhs, tol)


def solve_lpinv_column(graph: Graph, a: int, tol: float = RESIDUAL_TOL) -> np.ndarray:
    """Column a of the pseudoinverse (see :func:`solve_lpinv_columns`)."""
    return solve_lpinv_columns(graph, [a], tol)[:, 0]


def solve_lpinv_difference(graph: Graph, a: int, b: int, tol: float = RESIDUAL_TOL) -> np.ndarray:
    """P[:,a] - P[:,b], the pseudoinverse applied to e_a - e_b, from one :func:`solve`."""
    rhs = np.zeros(graph.n)
    rhs[a], rhs[b] = 1.0, -1.0
    return solve(graph, rhs, tol)


def effective_resistance(col_a: np.ndarray, col_b: np.ndarray, a: int, b: int) -> float:
    """R(a,b) from two pseudoinverse columns of the same graph and round."""
    if a == b:
        raise InvariantError("effective resistance is defined for distinct vertices")
    return float(col_a[a] + col_b[b] - 2.0 * col_a[b])


def lpinv_diagonal(graph: Graph, tol: float = RESIDUAL_TOL) -> np.ndarray:
    """diag(L^+) exactly, from one inversion pass over the graph's factor (built here if the graph holds none, after
    the dense cap is checked); R_tot is n times its sum.

    On a :class:`GroundedLU` (n above ``DENSE_SOLVE_MAX_N``, not grown by insertions), off its
    ``inverse_diagonal``: with M = L_g^(-1) padded by zeros at vertex 0, L^+ = (I - J/n) M (I - J/n), so L^+[i,i] =
    M[i,i] - 2 (M 1)[i] / n + 1^T M 1 / n^2, where M 1 = x - x[0] for the :func:`solve` x of L x = 1 - n e_0.
    On the dense Cholesky factor or a grown one, by :func:`_dense_lpinv_diagonal`.
    """
    n = graph.n
    check_dense_cap(n)
    factor = graph.factor()
    if not isinstance(factor, GroundedLU):
        return _dense_lpinv_diagonal(graph)
    x = solve(graph, np.r_[1.0 - n, np.ones(n - 1)], tol)
    ones = x - x[0]  # M 1, whose entry 0 is 0
    return np.r_[0.0, factor.inverse_diagonal()] - (2.0 / n) * ones + ones.sum() / (n * n)


def _dense_lpinv_diagonal(graph: Graph) -> np.ndarray:
    """diag(L^+) off the Cholesky factor R of L + J/n (upper, R^T R, :class:`SolverError` if the graph is
    disconnected): diag((L + J/n)^(-1)) holds the squared row norms of R^(-1), and the J/n term adds 1/n to each."""
    r_inv, info = lapack.dtrtri(_shifted_cholesky(graph), overwrite_c=1)
    if info != 0:
        raise SolverError(f"Cholesky inversion of L + J/n failed (LAPACK info {info})")
    return np.einsum("ij,ij->i", r_inv, r_inv) - 1.0 / graph.n


def total_resistance(graph: Graph) -> float:
    """n * trace(L^+) by :func:`_dense_lpinv_diagonal`: the dense oracle of the tests and the README. No run calls
    it; every run's r_initial is n times the sum of its scorer's exact diagonal."""
    return graph.n * float(_dense_lpinv_diagonal(graph).sum())


def total_resistance_after(graph: Graph, r_total: float, edge_sets, tol: float = RESIDUAL_TOL) -> list[float]:
    """R_tot of ``graph`` grown by each edge set, from its R_tot ``r_total`` by the Woodbury form (module
    docstring); every set's incidence columns are solved as one block by :func:`solve`."""
    sets = [np.asarray(edges).reshape(-1, 2) for edges in edge_sets]
    pairs = np.concatenate(sets)
    rhs = np.zeros((graph.n, len(pairs)))
    rhs[pairs.T, np.arange(len(pairs))] = [[1.0], [-1.0]]
    x = solve(graph, rhs, tol)
    totals, start = [], 0
    for edges in sets:
        block, start = x[:, start : start + len(edges)], start + len(edges)
        inner = DenseCholesky(np.eye(len(edges)) + block[edges[:, 0]] - block[edges[:, 1]], "I + B^T X")
        totals.append(r_total - graph.n * float(np.trace(inner.solve(block.T @ block))))
    return totals


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


@dataclass
class RunningDiagonal:
    """A diagonal of the pseudoinverse, exact or estimated, and the graph round it belongs to."""

    diag: np.ndarray
    round: int


def rank_one_diag_step(graph: Graph, running: RunningDiagonal, v: np.ndarray, denominator: float) -> np.ndarray:
    """Move ``running`` across the insertion that brought ``graph`` to its round, in place: diag - v*v / denominator.

    Sherman-Morrison gives the term from either side of the insertion of {a,b}: v = P (e_a - e_b) solved before it
    with denominator 1 + R, R = v[a] - v[b], or v = P' (e_a - e_b) solved after it with denominator 1 - R',
    R' = v[a] - v[b]. It is exact when the diagonal it starts from is.
    """
    if graph.round != running.round + 1:
        raise StaleStateError(f"running diagonal expects graph round {running.round + 1}, got {graph.round}")
    running.diag = running.diag - v * v / denominator
    running.round += 1
    return running.diag


class ColumnCache:
    """On-demand pseudoinverse columns, kept current across insertions.

    Columns are solved when first requested and stored side by side in one
    n x s ``block``; ``slot[v]`` is v's column in it, -1 if v was never
    solved. Each insertion brings the whole block forward in one rank-one
    update; ``round`` is the round of the graph the block belongs to.
    ``gains`` scores a batch of pairs off the columns it touches.
    """

    def __init__(self, graph: Graph, tol: float = RESIDUAL_TOL):
        self.graph = graph
        self.tol = tol
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
            solved = solve_lpinv_columns(self.graph, missing, self.tol)
            self.solve_count += len(missing)
            self.slot[missing] = np.arange(self.block.shape[1], self.block.shape[1] + len(missing))
            self.block = np.hstack([self.block, solved])
        return self.block[:, self.slot[vertices]]

    def gains(self, pairs: np.ndarray) -> np.ndarray:
        """Exact gains of many non-edges at once; ``pairs`` is an (s, 2) int array of non-edges a < b, unchecked.

        The columns C of every vertex the pairs touch are gathered once, in
        vertex order; an endpoint's slot in C is its rank among the touched
        vertices, read off a running count of the touched flags (O(s + n), no
        sort). The squared biharmonic distances come from the Gram identity
        ||c_a - c_b||^2 = G[a,a] + G[b,b] - 2 G[a,b] with G = C^T C. A star
        batch (one vertex in every pair, as in a focus node's candidates) reads
        G[a,b] off the hub's row C^T c_hub and the diagonal off the column norms.
        """
        a, b = pairs[:, 0], pairs[:, 1]
        counts = np.bincount(pairs.ravel(), minlength=self.graph.n)
        vertices = np.flatnonzero(counts)
        slot_a, slot_b = (np.cumsum(counts > 0) - 1)[pairs].T  # rank of each endpoint among the touched vertices
        cols = self.columns(vertices)
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
        return self.graph.n * b2 / (1.0 + resistance)

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


class DenseState:
    """The dense P (``block``), Q = P^2's upper triangle (``square``) and contiguous copies of both ``diagonals``,
    replaced, never written into, per insertion; ``round`` is the round of the graph they belong to."""

    @classmethod
    def compute(cls, graph: Graph) -> "DenseState":
        state = cls()
        state.graph, state.round = graph, graph.round
        state.block = pseudoinverse_dense(graph)
        state.square = blas.dsyrk(1.0, state.block.T, lower=1).T
        state._copy_diagonals()
        return state

    def _copy_diagonals(self) -> None:  # contiguous, read by every gain of the round
        self.diagonals = np.diagonal(self.block).copy(), np.diagonal(self.square).copy()

    @staticmethod
    def _gain(n: int, q_a, q_b, q_ab, p_a, p_b, p_ab):  # n * B2(a,b) / (1 + R(a,b)), one formula for both reads
        return n * (q_a + q_b - 2.0 * q_ab) / (1.0 + (p_a + p_b - 2.0 * p_ab))

    def gains(self, pairs: np.ndarray) -> np.ndarray:
        """Gains of the (s, 2) pairs a < b, read off Q and P (flat: one index per entry)."""
        n, (p_diag, q_diag) = self.graph.n, self.diagonals
        a, b = pairs[:, 0], pairs[:, 1]
        ab = a * n + b
        p, q = self.block.reshape(-1), self.square.reshape(-1)  # views: both stay C-ordered
        return self._gain(n, q_diag[a], q_diag[b], q[ab], p_diag[a], p_diag[b], p[ab])

    def best_non_edge(self) -> tuple[int, int]:
        """The non-edge of greatest gain, ties to the lexicographically smallest, from one pass over the upper
        triangle in blocks of rows, with the arithmetic of :meth:`gains` and every other pair masked out."""
        n, (p_diag, q_diag) = self.graph.n, self.diagonals
        rows, best = max(1, PASS_BLOCK // n), (-math.inf, 0, 0)
        for first in range(0, n - 1, rows):  # the last row has no pair b > a
            stop = min(first + rows, n - 1)
            a, b = slice(first, stop), slice(first, None)
            q_ab, p_ab = self.square[a, b], self.block[a, b]
            gains = self._gain(n, q_diag[a, None], q_diag[b], q_ab, p_diag[a, None], p_diag[b], p_ab)
            gains[~self.graph.non_edge_rows(first, stop)] = -math.inf
            i = int(np.argmax(gains))  # the first greatest: ties go to the smallest pair of the block
            top = float(gains.flat[i])
            if not top < math.inf:  # argmax stops at the first NaN
                raise InvariantError("pair gains must be finite")
            if top > best[0]:
                best = (top, first + i // gains.shape[1], first + i % gains.shape[1])
        return best[1:]

    def report(self, a: int, b: int, tol: float = RESIDUAL_TOL) -> tuple[float, np.ndarray]:
        """:func:`report_insertion` read off P with no solve: v = P (e_a - e_b) for a < b is the difference of P's
        columns, the ones :meth:`apply_insertion` reads (its dger keeps P symmetric only to the last bits).

        As there, {a,b} must be a non-edge; the graph must stand at the state's round (:class:`StaleStateError`
        otherwise), and v's relative residual on the graph as it stands must reach ``tol``
        (:func:`relative_residuals`; :class:`SolverError` otherwise)."""
        a, b = _non_edge(self.graph, a, b)
        if self.graph.round != self.round:
            raise StaleStateError(f"dense state expects graph round {self.round}, got {self.graph.round}")
        v = self.block[:, a] - self.block[:, b]
        rhs = np.zeros(self.graph.n)
        rhs[a], rhs[b] = 1.0, -1.0
        achieved = float(relative_residuals(self.graph, v, rhs))
        if not achieved <= tol:  # NaN fails too
            raise SolverError("the dense pseudoinverse missed the residual tolerance", achieved)
        return _reported(self.graph, v, a, b)

    def apply_insertion(self, a: int, b: int) -> None:
        """Bring P and Q across the just-inserted edge {a,b}, in place (module docstring)."""
        a, b = canonical_edge(a, b)
        p, q = self.block, self.square
        v = p[:, a] - p[:, b]
        w = np.concatenate((q[:a, a] - q[:a, b], q[a, a:b] - q[a:b, b], q[a, b:] - q[b, b:]))
        c = 1.0 / (1.0 + (v[a] - v[b]))
        u = (0.5 * c * c * float(v @ v)) * v - c * w
        # P and Q are symmetric, so BLAS overwrites their Fortran-ordered transposes
        self.block = blas.dger(-c, v, v, a=p.T, overwrite_a=1).T
        self.square = blas.dsyr2(1.0, u, v, a=q.T, lower=1, overwrite_a=1).T
        self._copy_diagonals()
        self.round += 1


def gain_exact(state, a: int, b: int) -> float:
    """Exact gain of inserting the non-edge {a,b}, including the factor n: one row of ``state.gains``."""
    return float(state.gains(np.array([_non_edge(state.graph, a, b)]))[0])


def _non_edge(graph: Graph, a: int, b: int) -> tuple[int, int]:
    """The pair {a,b} as (min, max); raises :class:`InvariantError` unless it is a non-edge of ids in 0..n-1."""
    a, b = canonical_edge(a, b)
    if not (0 <= a and b < graph.n) or graph.has_edge(a, b):
        raise InvariantError(f"gains are defined for non-edges of vertices 0..{graph.n - 1}, not ({a},{b})")
    return a, b


def true_gain(graph: Graph, a: int, b: int, tol: float = RESIDUAL_TOL) -> float:
    """Exact gain via one fresh solve of L x = e_a - e_b (heuristic-independent reporting path)."""
    return report_insertion(graph, a, b, tol)[0]


def report_insertion(graph: Graph, a: int, b: int, tol: float = RESIDUAL_TOL) -> tuple[float, np.ndarray]:
    """The :func:`true_gain` of the non-edge {a,b} and the solve it reads, v = P (e_a - e_b) for a < b, with which
    Sherman-Morrison moves P across the insertion (module docstring)."""
    a, b = _non_edge(graph, a, b)
    return _reported(graph, solve_lpinv_difference(graph, a, b, tol), a, b)


def _reported(graph: Graph, v: np.ndarray, a: int, b: int) -> tuple[float, np.ndarray]:
    """The gain n (v.v) / (1 + v[a] - v[b]) of {a,b}, v = P (e_a - e_b), and v."""
    return graph.n * float(v @ v) / (1.0 + float(v[a] - v[b])), v
