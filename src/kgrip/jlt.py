"""Random-projection sketches for O(q)-time approximate gain evaluations.

Two q-column sketches are kept per graph round, built from Gaussian
projections P (q x n) and Q (q x m) with entries N(0,1)/sqrt(q):

  biharm = Y with L Y = P^T - (1/n) 1 1^T P^T, i.e. Y = pinv(L) P^T,
           so ||biharm[a] - biharm[b]||^2 tracks the squared biharmonic distance;
  resist = pinv(L) (Q B)^T (B is the signed edge-vertex incidence), so
           ||resist[a] - resist[b]||^2 tracks the effective resistance.

All 2q right-hand sides go to the Laplacian solver as one block. Both
sketches are stored n x q, so a pair reads two contiguous rows.

Each distance estimate uses its projection exactly once, which keeps it
unbiased with chi-square concentration in q. Composing the resistance sketch
out of Y instead (reusing P on both sides, which saves the second set of
solves) is only exact for orthonormal projections; with Gaussian sketches it
acquires an additive bias of roughly (2/q) trace(pinv(L)), which swamps
small resistances, so it is not used here. The identity test hook
(q = max(n, m), stacked identity blocks) makes both estimates exact. The
sketch must be rebuilt with fresh projections after every edge insertion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, StaleStateError
from .graphs import Graph
from .linalg import DEFAULT_SOLVER, SolverConfig, solve

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


def _projections(graph: Graph, q: int, rng, projection: str) -> tuple[np.ndarray, np.ndarray, int]:
    n, m = graph.n, graph.m
    if projection == "gaussian":
        if q < 1:
            raise ConfigError(f"sketch width q must be >= 1, got {q}")
        p = rng.standard_normal((q, n)) / math.sqrt(q)
        qm = rng.standard_normal((q, m)) / math.sqrt(q)
        return p, qm, q
    if projection == "identity":
        # exactness hook: stacked identity blocks make P^T P = I_n and Q^T Q = I_m
        q = max(n, m)
        p = np.zeros((q, n))
        p[:n, :n] = np.eye(n)
        qm = np.zeros((q, m))
        qm[:m, :m] = np.eye(m)
        return p, qm, q
    raise ConfigError(f"unknown projection kind {projection!r}")


def build_sketch(
    graph: Graph,
    q: int,
    rng: np.random.Generator,
    config: SolverConfig = DEFAULT_SOLVER,
    projection: str = "gaussian",
) -> JltSketch:
    """Solve the 2q projected Laplacian systems in one block and assemble both sketches."""
    p, qm, q = _projections(graph, q, rng, projection)
    qb = np.asarray(qm @ _incidence(graph))  # q x n, rows orthogonal to ones
    rhs = np.vstack([p, qb])
    cols = solve(graph, (rhs - rhs.mean(axis=1, keepdims=True)).T, config)
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
