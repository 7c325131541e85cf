"""Low end of the Laplacian spectrum and the spectral gain bracket.

With the eigenpairs (lambda_i, u_i) of L ordered ascending (lambda_1 = 0
excluded), both gain ingredients are spectral sums over i = 2..n:

  R(a,b)  = sum (u_i[a]-u_i[b])^2 / lambda_i
  B2(a,b) = sum (u_i[a]-u_i[b])^2 / lambda_i^2

Truncating at a cutoff c and bounding the tail i > c by lambda_c from below
and by ln >= lambda_n from above, using that the squared eigenvector
differences over the full basis sum to 2, gives two-sided bounds for each
sum, hence a bracket around the exact gain n*B2/(1+R):

  lower = n * [2/ln^2 + sum_(i<=c) (1/li^2 - 1/ln^2) d_i] / [1 + 2/lc + sum (1/li - 1/lc) d_i]
  upper = n * [2/lc^2 + sum_(i<=c) (1/li^2 - 1/lc^2) d_i] / [1 + 2/ln + sum (1/li - 1/ln) d_i]

with d_i = (u_i[a]-u_i[b])^2, lc = lambda_c. For ln the degree bound of
Anderson & Morley (1985) serves, lambda_n <= max over edges {u,v} of
d_u + d_v, read off the graph without an eigensolve. Each tail is bounded
term by term (lambda_c <= lambda_i <= ln for i > c) and its weights are
nonnegative, so the bracket holds for any lambda_c > 0, not only
lambda_c >= 1; at c = n the d_i sum to 2, the ln terms cancel, and both
sides collapse to the exact gain.
Estimates ranked by heuristics use the lower bound: on scale-free graphs the
upper bound's tail term 2/lc^2 swamps the per-pair sums, and the midpoint
ranks pairs almost backwards.

The eigenpairs come from a dense symmetric eigensolve up to
``_DENSE_EIG_LIMIT`` vertices. Above it, L^+ is applied exactly through the
graph's Laplacian factor (centre, solve, centre again; the run's solves
share it), and shift-invert Lanczos (ARPACK) finds the c-1 largest
eigenvalues 1/lambda_i of L^+, one ARPACK call per eigensolve.

A run eigensolves once. Inserting {a,b} adds the rank-one term bb^T
(b = e_a - e_b) to L, and the new low eigenpairs lie close to span[U, L^+ b]
(Bunch, Nielsen & Sorensen 1978); L^+ b is the round's report solve.
:func:`carry_low_spectrum` takes one Rayleigh-Ritz step on that span, over
``RITZ_BUFFER`` more pairs than the bracket reads, and eigensolves afresh
only when the pairs in use drift past ``DRIFT_TOL``. The bracket is proven
for exact eigenpairs, so after round 0 its lower bound is an estimate, no
longer a proven lower bound; the gains a run reports stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .errors import ConfigError, SolverError
from .graphs import Graph

_DENSE_EIG_LIMIT = 600
EIG_TOL = 1e-7  # the largest residual ||L u - lambda u|| an eigenpair may keep
MAXITER = 500  # ARPACK's restart budget
RITZ_BUFFER = 10  # pairs carried beyond the c-1 in use, so the Ritz step has room to track them
DRIFT_TOL = 0.1  # largest ||L u - theta u|| / theta_(c-1) over the pairs in use before a fresh eigensolve


@dataclass
class SpectralState:
    """c-1 smallest nonzero eigenpairs, or Ritz pairs carried to them, plus an upper bound on the largest eigenvalue."""

    eigenvalues: np.ndarray  # lambda_2..lambda_c, ascending
    vectors: np.ndarray  # n x (c-1), orthonormal, each orthogonal to ones
    lambda_bound: float  # max over edges {u,v} of d_u + d_v, >= lambda_n

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    def leading(self, count: int) -> "SpectralState":
        """A view of the ``count`` lowest pairs: the state at cutoff c = count + 1."""
        return SpectralState(self.eigenvalues[:count], self.vectors[:, :count], self.lambda_bound)


def _degree_bound(graph: Graph) -> float:
    """max over edges {u,v} of d_u + d_v, an upper bound on lambda_n (Anderson & Morley 1985)."""
    indptr, indices = graph.adjacency_arrays()
    degrees = np.diff(indptr)
    return float((np.repeat(degrees, degrees) + degrees[indices]).max())


def _low_spectrum_dense(graph: Graph, k: int) -> tuple[np.ndarray, np.ndarray]:
    vals, vecs = scipy.linalg.eigh(graph.laplacian_dense(), driver="evd")  # divide and conquer
    return vals[1 : k + 1], vecs[:, 1 : k + 1]


def _low_spectrum_shift_invert(graph: Graph, k: int) -> tuple[np.ndarray, np.ndarray]:
    n = graph.n
    lap = graph.laplacian()
    factor = graph.factor()  # shared with the run's linear solves

    def apply_pinv(x: np.ndarray) -> np.ndarray:
        # L^+ x: centre, solve, centre again
        y = factor.solve(x - x.sum() / n)
        y -= y.sum() / n
        return y

    op = spla.LinearOperator((n, n), matvec=apply_pinv, dtype=float)
    # a deterministic start vector: ARPACK's default draws from global random state
    start = np.random.default_rng(0).standard_normal(n)
    start -= start.mean()
    try:
        mu, vecs = spla.eigsh(op, k=k, which="LA", v0=start, maxiter=MAXITER)
    except spla.ArpackNoConvergence as exc:
        vals, vecs = 1.0 / exc.eigenvalues, exc.eigenvectors
        if not vals.size:  # nothing converged: judge the start vector's Rayleigh pair
            vecs = start[:, None] / np.linalg.norm(start)
            vals = np.ravel(vecs.T @ (lap @ vecs))
        worst = np.linalg.norm(lap @ vecs - vecs * vals, axis=0).max()
        raise SolverError(
            f"shift-invert Lanczos converged {len(exc.eigenvalues)} of {k} eigenpairs"
            f" within {MAXITER} restarts",
            float(worst),
        ) from exc
    order = np.argsort(mu)[::-1]
    return 1.0 / mu[order], vecs[:, order]


def compute_low_spectrum(graph: Graph, c: int) -> SpectralState:
    """Eigenpairs lambda_2..lambda_c with residuals <= ``EIG_TOL``, plus the degree bound on lambda_n.

    Graphs up to ``_DENSE_EIG_LIMIT`` vertices use a dense symmetric
    eigensolve. Larger ones factor the Laplacian once and run shift-invert
    Lanczos (one ARPACK call, at most ``MAXITER`` restarts) for the c-1
    largest eigenvalues 1/lambda of L^+, from a start vector orthogonal to
    the all-ones null vector. Raises :class:`SolverError` carrying the
    worst true residual if ARPACK stops early or a residual
    ||L u - lambda u|| exceeds ``EIG_TOL``.
    """
    n = graph.n
    if not 2 <= c <= n:
        raise ConfigError(f"cutoff c must be in [2, n={n}], got {c}")
    k = c - 1
    solver = _low_spectrum_dense if n <= _DENSE_EIG_LIMIT else _low_spectrum_shift_invert
    vals, vecs = solver(graph, k)

    lap = graph.laplacian()
    residuals = np.linalg.norm(lap @ vecs - vecs * vals, axis=0)
    if np.any(residuals > EIG_TOL) or np.any(vals <= 0):
        raise SolverError(
            f"eigensolver residuals {residuals.max():.3e} above tolerance {EIG_TOL:.1e}"
            f" (or nonpositive eigenvalue); worst pair index {int(residuals.argmax())}",
            float(residuals.max()),
        )
    return SpectralState(eigenvalues=vals, vectors=vecs, lambda_bound=_degree_bound(graph))


def carry_low_spectrum(graph: Graph, state: SpectralState, report: np.ndarray, used: int) -> SpectralState:
    """The pairs of ``state`` carried across the insertion that grew ``graph`` by one Rayleigh-Ritz step on
    span[U, report], ``report`` = L^+ (e_a - e_b) before it; the lowest Ritz pairs, as many as ``state`` holds.

    When U spans the complement of the ones vector, the grown L maps that span to itself: the step on U alone is
    exact, and the report, rounding noise once projected, stays out. If a residual ||L u - theta u|| of the ``used``
    lowest pairs passes ``DRIFT_TOL`` times the largest of their Ritz values, :func:`compute_low_spectrum` re-solves.
    """
    basis = state.vectors
    count = basis.shape[1]
    if count < graph.n - 1:
        v = report - basis @ (basis.T @ report)
        v -= basis @ (basis.T @ v)
        basis = np.column_stack([basis, v / np.linalg.norm(v)])
    lap_basis = graph.laplacian() @ basis
    theta, rotation = scipy.linalg.eigh(basis.T @ lap_basis)
    theta, rotation = theta[:count], rotation[:, :count]
    vectors = basis @ rotation
    residuals = np.linalg.norm(lap_basis @ rotation[:, :used] - vectors[:, :used] * theta[:used], axis=0)
    if residuals.max() > DRIFT_TOL * theta[used - 1]:
        return compute_low_spectrum(graph, count + 1)
    return SpectralState(eigenvalues=theta, vectors=vectors, lambda_bound=_degree_bound(graph))


def gain_bounds(state: SpectralState, a: int, b: int) -> tuple[float, float]:
    """Two-sided bracket around the exact gain of inserting {a,b} (factor n included): the lower bound is
    :func:`gain_spectral`'s."""
    lam = state.eigenvalues
    lam_c, lam_n = float(lam[-1]), state.lambda_bound
    inv1 = 1.0 / lam
    dsq = (state.vectors[a, :] - state.vectors[b, :]) ** 2
    num = 2.0 / lam_c**2 + dsq @ (inv1 * inv1 - 1.0 / lam_c**2)
    den = 2.0 / lam_n + dsq @ (inv1 - 1.0 / lam_n)
    return gain_spectral(state, a, b), float(state.n * num / (1.0 + den))


def gain_spectral(state: SpectralState, a: int, b: int) -> float:
    """The bracket's lower bound for {a,b}: one row of :func:`gains_spectral`."""
    return float(gains_spectral(state, np.array([[a, b]]))[0])


def gains_spectral(state: SpectralState, pairs: np.ndarray) -> np.ndarray:
    """Bracket lower bounds, the estimates the spectral heuristic ranks by, of every row (a, b)
    of an (s, 2) pair array.

    The numerator's and the denominator's weighted sums come from one
    (s x (c-1)) . ((c-1) x 2) product; the upper bound is not formed.
    """
    lam = state.eigenvalues
    lam_c, lam_n = float(lam[-1]), state.lambda_bound
    inv1 = 1.0 / lam
    weights = np.column_stack((inv1 * inv1 - 1.0 / lam_n**2, inv1 - 1.0 / lam_c))
    dsq = state.vectors[pairs[:, 0]]
    dsq -= state.vectors[pairs[:, 1]]
    dsq *= dsq
    num, den = (dsq @ weights).T
    return state.n * (2.0 / lam_n**2 + num) / (1.0 + 2.0 / lam_c + den)
