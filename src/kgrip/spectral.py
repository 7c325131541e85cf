"""Low end of the Laplacian spectrum and the spectral gain bracket.

With the eigenpairs (lambda_i, u_i) of L ordered ascending (lambda_1 = 0
excluded), both gain ingredients are spectral sums over i = 2..n:

  R(a,b)  = sum (u_i[a]-u_i[b])^2 / lambda_i
  B2(a,b) = sum (u_i[a]-u_i[b])^2 / lambda_i^2

Truncating at a cutoff c and bounding the tail i > c by its extreme
eigenvalues (lambda_c from below, lambda_n from above, using that the squared
eigenvector differences over the full basis sum to 2) gives two-sided bounds
for each sum, hence a bracket around the exact gain n*B2/(1+R):

  lower = n * [2/ln^2 + sum_(i<=c) (1/li^2 - 1/ln^2) d_i] / [1 + 2/lc + sum (1/li - 1/lc) d_i]
  upper = n * [2/lc^2 + sum_(i<=c) (1/li^2 - 1/lc^2) d_i] / [1 + 2/ln + sum (1/li - 1/ln) d_i]

with d_i = (u_i[a]-u_i[b])^2, lc = lambda_c, ln = lambda_n. The tail bound
for the numerator needs lambda_c >= 1; at c = n both sides collapse to the
exact gain. Estimates ranked by heuristics use the bracket midpoint.

The eigenpairs come from a dense symmetric eigensolve up to
``_DENSE_EIG_LIMIT`` vertices. Above it, L^+ is applied exactly through the
graph's cached factor of the grounded Laplacian L[1:,1:] (centre, solve with
vertex 0 grounded, centre again; the round's solves reuse it), and shift-invert
Lanczos (ARPACK) finds the c-1 largest eigenvalues 1/lambda_i of L^+; the
largest eigenvalue lambda_n comes from a second ARPACK call on L itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .errors import ConfigError, SolverError
from .graphs import Graph

_DENSE_EIG_LIMIT = 600


@dataclass
class SpectralState:
    """c-1 smallest nonzero eigenpairs plus the largest eigenvalue, round-stamped."""

    cutoff: int
    eigenvalues: np.ndarray  # lambda_2..lambda_c, ascending
    vectors: np.ndarray  # n x (c-1), orthonormal, each orthogonal to ones
    lambda_max: float
    round: int

    @property
    def n(self) -> int:
        return self.vectors.shape[0]


def _low_spectrum_dense(graph: Graph, k: int) -> tuple[np.ndarray, np.ndarray, float]:
    vals, vecs = scipy.linalg.eigh(graph.laplacian_dense())
    return vals[1 : k + 1], vecs[:, 1 : k + 1], float(vals[-1])


def _low_spectrum_shift_invert(
    graph: Graph, k: int, maxiter: int
) -> tuple[np.ndarray, np.ndarray, float]:
    n = graph.n
    lap = graph.laplacian()
    factor = graph.grounded_factor()  # shared with this round's linear solves

    def apply_pinv(x: np.ndarray) -> np.ndarray:
        # L^+ x: centre, solve with vertex 0 grounded, centre again
        x = np.ravel(x)
        y = np.zeros(n)
        y[1:] = factor.solve(x[1:] - x.mean())
        return y - y.mean()

    op = spla.LinearOperator((n, n), matvec=apply_pinv, dtype=float)
    # deterministic start vectors: ARPACK's default draws from global random state
    seed_rng = np.random.default_rng(0)
    start = seed_rng.standard_normal(n)
    start -= start.mean()
    try:
        mu, vecs = spla.eigsh(op, k=k, which="LA", v0=start, maxiter=maxiter)
    except spla.ArpackNoConvergence as exc:
        vals, vecs = 1.0 / exc.eigenvalues, exc.eigenvectors
        if not vals.size:  # nothing converged: judge the start vector's Rayleigh pair
            vecs = start[:, None] / np.linalg.norm(start)
            vals = np.ravel(vecs.T @ (lap @ vecs))
        worst = np.linalg.norm(lap @ vecs - vecs * vals, axis=0).max()
        raise SolverError(
            f"shift-invert Lanczos converged {len(exc.eigenvalues)} of {k} eigenpairs"
            f" within {maxiter} restarts",
            float(worst),
        ) from exc
    order = np.argsort(mu)[::-1]
    top = spla.eigsh(
        lap, k=1, which="LA", tol=1e-10, v0=seed_rng.standard_normal(n), return_eigenvectors=False
    )
    return 1.0 / mu[order], vecs[:, order], float(top[0])


def compute_low_spectrum(
    graph: Graph,
    c: int,
    eig_tol: float = 1e-7,
    maxiter: int = 500,
    force_iterative: bool = False,
) -> SpectralState:
    """Eigenpairs lambda_2..lambda_c (plus lambda_n) with residuals <= eig_tol.

    Graphs up to ``_DENSE_EIG_LIMIT`` vertices use a dense symmetric
    eigensolve. Larger ones (or ``force_iterative``) factor the grounded
    Laplacian once and run shift-invert Lanczos (ARPACK, at most ``maxiter``
    restarts) for the c-1 largest eigenvalues 1/lambda of L^+, from a start
    vector orthogonal to the all-ones null vector. Raises
    :class:`SolverError` carrying the worst true residual if ARPACK stops
    early or a residual ||L u - lambda u|| exceeds ``eig_tol``.
    """
    n = graph.n
    if not 2 <= c <= n:
        raise ConfigError(f"cutoff c must be in [2, n={n}], got {c}")
    k = c - 1
    if n <= _DENSE_EIG_LIMIT and not force_iterative:
        vals, vecs, lam_max = _low_spectrum_dense(graph, k)
    else:
        vals, vecs, lam_max = _low_spectrum_shift_invert(graph, k, maxiter)

    lap = graph.laplacian()
    residuals = np.linalg.norm(lap @ vecs - vecs * vals, axis=0)
    if np.any(residuals > eig_tol) or np.any(vals <= 0):
        raise SolverError(
            f"eigensolver residuals {residuals.max():.3e} above tolerance {eig_tol:.1e}"
            f" (or nonpositive eigenvalue); worst pair index {int(residuals.argmax())}",
            float(residuals.max()),
        )
    return SpectralState(
        cutoff=c, eigenvalues=vals, vectors=vecs, lambda_max=lam_max, round=graph.round
    )


def _bracket(state: SpectralState, dsq: np.ndarray):
    """Gain bracket from squared eigenvector differences, one row per pair."""
    lam = state.eigenvalues
    lam_c = float(lam[-1])
    lam_n = state.lambda_max
    inv1 = 1.0 / lam
    inv2 = inv1 * inv1

    num_hi = 2.0 / lam_c**2 + dsq @ (inv2 - 1.0 / lam_c**2)
    num_lo = 2.0 / lam_n**2 + dsq @ (inv2 - 1.0 / lam_n**2)
    den_hi = 2.0 / lam_c + dsq @ (inv1 - 1.0 / lam_c)
    den_lo = 2.0 / lam_n + dsq @ (inv1 - 1.0 / lam_n)

    n = state.n
    lower = n * num_lo / (1.0 + den_hi)
    upper = n * num_hi / (1.0 + den_lo)
    return lower, upper


def gain_bounds(state: SpectralState, a: int, b: int) -> tuple[float, float]:
    """Two-sided bracket around the exact gain of inserting {a,b} (factor n included)."""
    lower, upper = _bracket(state, (state.vectors[a, :] - state.vectors[b, :]) ** 2)
    return float(lower), float(upper)


def gain_spectral(state: SpectralState, a: int, b: int) -> float:
    """Bracket midpoint, the scalar the spectral heuristic ranks by."""
    lower, upper = gain_bounds(state, a, b)
    return 0.5 * (lower + upper)


def gains_spectral(state: SpectralState, pairs: np.ndarray) -> np.ndarray:
    """:func:`gain_spectral` of every row (a, b) of an (s, 2) pair array."""
    dsq = (state.vectors[pairs[:, 0]] - state.vectors[pairs[:, 1]]) ** 2
    lower, upper = _bracket(state, dsq)
    return 0.5 * (lower + upper)
