"""Random-projection sketches for O(q)-time approximate gain evaluations.

Two q-column sketches are kept per graph round, built from sign projections:
every entry of P (q x n) and H (q x r) is +1/sqrt(q) or -1/sqrt(q), fair and
independent, all unpacked from one ``rng.bytes`` draw per build. With S an
r x n square root of the Laplacian, S^T S = L + c J (J = all-ones, c >= 0):

  biharm = Y with L Y = P^T - (1/n) 1 1^T P^T, i.e. Y = pinv(L) P^T,
           so ||biharm[a] - biharm[b]||^2 tracks the squared biharmonic distance;
  resist = pinv(L) (H S)^T, the rows of H S centred, so
           ||resist[a] - resist[b]||^2 tracks the effective resistance.

The square root is the cheapest one the graph already holds. Where the
solver uses the dense factor (n <= ``DENSE_SOLVE_MAX_N``), S stacks the
Cholesky factor U of L_0 + J/n (U^T U = L_0 + J/n, L_0 the Laplacian the
factor was built on) over one incidence row e_a - e_b per edge {a,b} the
factor has grown by since, so S^T S = L + J/n and r = n + (edges grown by);
the centring removes J/n. Elsewhere S is the signed m x n edge-vertex
incidence B (B^T B = L, r = m). All 2q right-hand sides go to the Laplacian
solver as one block. Both sketches are stored n x q, so a pair reads two
contiguous rows.

Each distance estimate uses its projection exactly once, which keeps it
unbiased: with y = pinv(L) d for the biharmonic half and y = S pinv(L) d for
the resistance half (d = e_a - e_b, so ||y||^2 is B2(a,b) or R(a,b)), the
estimate ||P y||^2 or ||H y||^2 has mean ||y||^2 and variance
2 (||y||^4 - sum_i y_i^4) / q, never above the Gaussian projection's
2 ||y||^4 / q (Achlioptas 2003); the Johnson-Lindenstrauss guarantee holds
for both. Concentrated vectors, such as the electrical flow of a close pair,
gain the most. Composing the resistance sketch out of Y instead (reusing P
on both sides, which saves the second set of solves) is only exact for
orthonormal projections; for signs E[P^T P A P^T P] = A + (A + tr(A) I -
2 diag(A)) / q, so their smaller fourth moment trims only the diagonal term,
and the tr(A) I / q term leaves the same additive bias of roughly
(2/q) trace(pinv(L)) as with Gaussian projections, which swamps small
resistances, so it is not used here. The identity test hook (q = max(n, r),
stacked identity blocks) makes both estimates exact. The sketch must be
rebuilt with fresh projections after every edge insertion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, StaleStateError
from .graphs import DENSE_SOLVE_MAX_N, Graph, GrownFactor
from .linalg import RESIDUAL_TOL, solve

_CHUNK = 4096  # pairs gathered at once by gains_jlt


def default_sketch_width(universe_size: int, c_jlt: float = 4.0) -> int:
    """q = max(4, ceil(c_jlt * ln(universe_size)))."""
    return max(4, math.ceil(c_jlt * math.log(max(2, universe_size))))


@dataclass
class JltSketch:
    biharm: np.ndarray  # n x q
    resist: np.ndarray  # n x q
    round: int

    @property
    def n(self) -> int:
        return self.biharm.shape[0]

    def resistance_sq(self, a: int, b: int) -> float:
        d = self.resist[a] - self.resist[b]
        return float(d @ d)

    def biharmonic_sq(self, a: int, b: int) -> float:
        d = self.biharm[a] - self.biharm[b]
        return float(d @ d)


def _incidence(graph: Graph) -> sp.csr_matrix:
    """Signed m x n incidence; row e=(u,v) with u<v carries -1 at u, +1 at v.

    Edges are numbered in sorted order, read off the strict upper triangle
    of the cached Laplacian.
    """
    lap = graph.laplacian()
    rows = np.repeat(np.arange(graph.n), np.diff(lap.indptr))
    upper = lap.indices > rows
    m = int(upper.sum())
    ends = np.column_stack([rows[upper], lap.indices[upper]]).ravel()
    return sp.csr_matrix((np.tile([-1.0, 1.0], m), ends, np.arange(0, 2 * m + 1, 2)), shape=(m, graph.n))


def _square_root(graph: Graph) -> np.ndarray | sp.csr_matrix:
    """An r x n square root S of the Laplacian, S^T S = L + c J: the dense Cholesky factor of the graph's solver
    stacked over one incidence row per edge it has grown by, or the incidence (module docstring)."""
    if graph.n > DENSE_SOLVE_MAX_N:
        return _incidence(graph)
    factor = graph.factor()  # a DenseCholesky of L_0 + J/n, or one grown by the edges inserted since
    grown = isinstance(factor, GrownFactor)
    ends = factor.ends if grown else np.empty((0, 2), dtype=np.int64)
    root = np.zeros((graph.n + len(ends), graph.n))
    root[: graph.n] = (factor.base if grown else factor).upper
    rows = np.arange(graph.n, len(root))
    root[rows, ends[:, 0]], root[rows, ends[:, 1]] = -1.0, 1.0
    return root


def _projections(n: int, r: int, q: int, rng, projection: str) -> tuple[np.ndarray, np.ndarray, int]:
    """P (q x n) and H (q x r), and the width q they have."""
    if projection == "signs":
        count = q * (n + r)
        bits = np.unpackbits(np.frombuffer(rng.bytes(-(-count // 8)), dtype=np.uint8), count=count)
        drawn = (np.array([1.0, -1.0]) / math.sqrt(q)).take(bits).reshape(q, n + r)
        return drawn[:, :n], drawn[:, n:], q
    if projection == "identity":
        # exactness hook: stacked identity blocks make P^T P = I_n and H^T H = I_r
        q = max(n, r)
        return np.eye(q, n), np.eye(q, r), q
    raise ConfigError(f"unknown projection kind {projection!r}")


def build_sketch(
    graph: Graph,
    q: int,
    rng: np.random.Generator,
    tol: float = RESIDUAL_TOL,
    projection: str = "signs",
) -> JltSketch:
    """Solve the 2q projected Laplacian systems in one block, to relative residual ``tol``, and assemble both
    sketches."""
    if q < 1:  # before any factorisation or draw
        raise ConfigError(f"sketch width q must be >= 1, got {q}")
    root = _square_root(graph)
    p, h, q = _projections(graph.n, root.shape[0], q, rng, projection)
    rhs = np.vstack([p, np.asarray(h @ root)])
    cols = solve(graph, (rhs - rhs.mean(axis=1, keepdims=True)).T, tol)
    biharm, resist = np.ascontiguousarray(cols[:, :q]), np.ascontiguousarray(cols[:, q:])
    return JltSketch(biharm=biharm, resist=resist, round=graph.round)


def gain_jlt(sketch: JltSketch, a: int, b: int, current_round: int | None = None) -> float:
    """The approximate gain of {a,b}: one row of :func:`gains_jlt`."""
    return float(gains_jlt(sketch, np.array([[a, b]]), current_round)[0])


def gains_jlt(sketch: JltSketch, pairs: np.ndarray, current_round: int | None = None) -> np.ndarray:
    """Approximate gains n * ||biharm d||^2 / (1 + ||resist d||^2), d = e_a - e_b, of every
    row (a, b) of an (s, 2) pair array, gathered in cache-sized chunks."""
    if current_round is not None and current_round != sketch.round:
        raise StaleStateError(f"sketch built at round {sketch.round}, graph at round {current_round}; refresh it")
    gains = np.empty(len(pairs))
    for lo in range(0, len(pairs), _CHUNK):
        a, b = pairs[lo : lo + _CHUNK, 0], pairs[lo : lo + _CHUNK, 1]
        d_bi = sketch.biharm[a] - sketch.biharm[b]
        d_res = sketch.resist[a] - sketch.resist[b]
        b2 = np.einsum("ij,ij->i", d_bi, d_bi)
        gains[lo : lo + _CHUNK] = sketch.n * b2 / (1.0 + np.einsum("ij,ij->i", d_res, d_res))
    return gains
