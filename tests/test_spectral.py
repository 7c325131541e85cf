"""Spectral state, the gain bracket, and its collapse/validity properties."""

from __future__ import annotations

import time
import warnings

import numpy as np
import pytest
import scipy.linalg

from kgrip import oracles, spectral
from kgrip.errors import ConfigError, SolverError
from kgrip.graphs import Graph, generate
from kgrip.greedy import GreedyParams
from kgrip.linalg import DenseState, gain_exact, report_insertion
from kgrip.spectral import compute_low_spectrum, gain_bounds, gain_spectral

from conftest import random_connected


# -- compute_low_spectrum ---------------------------------------------------------


def test_p3_spectrum(p3):
    st = compute_low_spectrum(p3, 3)
    assert np.allclose(st.eigenvalues, [1.0, 3.0], atol=1e-9)
    assert st.lambda_bound == pytest.approx(3.0)


def test_k4_spectrum(k4):
    st = compute_low_spectrum(k4, 4)
    assert np.allclose(st.eigenvalues, [4.0, 4.0, 4.0], atol=1e-9)


def test_c4_spectrum_matches_circulant(c4):
    # circulant eigenvalues 2 - 2 cos(2 pi k / n)
    expected = sorted(2 - 2 * np.cos(2 * np.pi * k / 4) for k in range(1, 4))
    st = compute_low_spectrum(c4, 4)
    assert np.allclose(st.eigenvalues, expected, atol=1e-9)
    assert st.lambda_bound == pytest.approx(4.0)


def test_invalid_cutoff(p3):
    with pytest.raises(ConfigError):
        compute_low_spectrum(p3, 1)
    with pytest.raises(ConfigError):
        compute_low_spectrum(p3, 4)


def test_state_invariants():
    g = random_connected(40, 0.2, seed=5)
    st = compute_low_spectrum(g, 10)
    assert np.all(np.diff(st.eigenvalues) >= -1e-12)
    assert st.eigenvalues[-1] <= st.lambda_bound + 1e-9
    norms = np.linalg.norm(st.vectors, axis=0)
    assert np.allclose(norms, 1.0, atol=1e-8)
    assert np.max(np.abs(st.vectors.sum(axis=0))) < 1e-7  # orthogonal to ones
    lap = g.laplacian()
    residuals = np.linalg.norm(lap @ st.vectors - st.vectors * st.eigenvalues, axis=0)
    assert residuals.max() <= 1e-7


def test_iterative_path_matches_dense(monkeypatch):
    monkeypatch.setattr(spectral, "EIG_TOL", 1e-6)
    monkeypatch.setattr(spectral, "MAXITER", 2000)
    g = generate("ws", {"n": 700, "degree": 8, "rewire_prob": 0.05}, seed=4)
    st = compute_low_spectrum(g, 15)
    vals = scipy.linalg.eigh(g.laplacian_dense(), eigvals_only=True)
    assert np.max(np.abs(st.eigenvalues - vals[1:15])) < 1e-8
    assert vals[-1] <= st.lambda_bound


def test_iterative_resolve_after_insertion(monkeypatch):
    monkeypatch.setattr(spectral, "EIG_TOL", 1e-6)
    monkeypatch.setattr(spectral, "MAXITER", 2000)
    g = generate("ws", {"n": 700, "degree": 8, "rewire_prob": 0.05}, seed=4)
    compute_low_spectrum(g, 12)
    g.insert_edge(0, 350)
    after = compute_low_spectrum(g, 12)
    vals = scipy.linalg.eigh(g.laplacian_dense(), eigvals_only=True)
    assert np.max(np.abs(after.eigenvalues - vals[1:12])) < 1e-8


def test_nonconvergence_raises_with_residual(monkeypatch):
    monkeypatch.setattr(spectral, "_DENSE_EIG_LIMIT", 0)
    monkeypatch.setattr(spectral, "EIG_TOL", 1e-30)
    monkeypatch.setattr(spectral, "MAXITER", 3)
    g = random_connected(200, 0.05, seed=6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(SolverError) as err:
            compute_low_spectrum(g, 8)
    assert err.value.achieved_residual is not None


def test_arpack_stop_reports_partial_residual(monkeypatch):
    # one restart leaves ARPACK short of 7 pairs; the error carries the true
    # residual of the pairs it did return, a finite number
    monkeypatch.setattr(spectral, "_DENSE_EIG_LIMIT", 0)
    monkeypatch.setattr(spectral, "MAXITER", 1)
    g = random_connected(200, 0.05, seed=6)
    with pytest.raises(SolverError, match="converged 1 of 7") as err:
        compute_low_spectrum(g, 8)
    assert 0.0 <= err.value.achieved_residual < 1e-7


def test_one_arpack_call_per_shift_invert_eigensolve_and_none_when_dense(monkeypatch):
    # lambda_n comes from the degree bound, so only the shift-invert Lanczos calls ARPACK
    calls, eigsh = [], spectral.spla.eigsh
    monkeypatch.setattr(spectral.spla, "eigsh", lambda *args, **kw: calls.append(1) or eigsh(*args, **kw))
    g = generate("ba", {"n": 700, "m_attach": 3}, seed=1)
    for round_ in range(3):
        compute_low_spectrum(g, GreedyParams().cutoff)
        assert len(calls) == round_ + 1
        g.insert_edge(*oracles.all_non_edges(g)[round_])
    calls.clear()
    compute_low_spectrum(generate("ba", {"n": 400, "m_attach": 3}, seed=1), GreedyParams().cutoff)
    assert calls == []


def test_lambda_bound_is_the_degree_bound(p3, c4, k4):
    # max over edges of d_u + d_v, on or above lambda_n: tight on P3, C4 and the star
    star = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    for g in (p3, c4, k4, star, generate("ba", {"n": 120, "m_attach": 3}, seed=2)):
        degrees = [g.degree(v) for v in range(g.n)]
        bound = compute_low_spectrum(g, 2).lambda_bound
        assert bound == max(degrees[a] + degrees[b] for a, b in g.edges())
        assert scipy.linalg.eigh(g.laplacian_dense(), eigvals_only=True)[-1] <= bound + 1e-9


def _grid(side: int) -> Graph:
    right = [(v, v + 1) for v in range(side * side) if (v + 1) % side]
    down = [(v, v + side) for v in range(side * (side - 1))]
    return Graph(side * side, right + down)


# the default cutoff and the former default 50, EIG_TOL and MAXITER, all above
# the dense limit of 600; the ring lattice and the grid have doubled eigenvalues
_DEFAULT_PARAM_GRAPHS = {
    "ba2000": (lambda: generate("ba", {"n": 2000, "m_attach": 3, "m0": 3}, seed=1), 30.0),
    "er700": (lambda: generate("er", {"n": 700, "p": 0.02}, seed=1), 15.0),
    "er1000": (lambda: generate("er", {"n": 1000, "p": 0.01}, seed=1), 15.0),
    "ring700": (lambda: generate("ws", {"n": 700, "degree": 8, "rewire_prob": 0.0}, seed=1), 15.0),
    "grid26": (lambda: _grid(26), 15.0),
}


@pytest.mark.parametrize("name", sorted(_DEFAULT_PARAM_GRAPHS))
def test_iterative_default_parameters(name):
    build, seconds = _DEFAULT_PARAM_GRAPHS[name]
    g = build()
    assert g.n > 600
    vals = scipy.linalg.eigh(g.laplacian_dense(), eigvals_only=True)
    for cutoff in (GreedyParams().cutoff, 50):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            start = time.perf_counter()
            st = compute_low_spectrum(g, cutoff)
            elapsed = time.perf_counter() - start
        assert elapsed < seconds
        assert np.max(np.abs(st.eigenvalues - vals[1:cutoff])) < 1e-8
        assert vals[-1] <= st.lambda_bound
        residuals = np.linalg.norm(g.laplacian() @ st.vectors - st.vectors * st.eigenvalues, axis=0)
        assert residuals.max() <= 1e-7
        assert np.max(np.abs(st.vectors.sum(axis=0))) < 1e-7


# -- gain bracket ----------------------------------------------------------------


def test_bracket_collapses_at_full_cutoff_p3(p3):
    st = compute_low_spectrum(p3, 3)
    lower, upper = gain_bounds(st, 0, 2)
    assert lower == pytest.approx(2.0, rel=1e-9)
    assert upper == pytest.approx(2.0, rel=1e-9)


def test_bracket_collapses_at_full_cutoff_c4(c4):
    st = compute_low_spectrum(c4, 4)
    lower, upper = gain_bounds(st, 0, 2)
    exact = oracles.gain_brute(c4, 0, 2)
    assert lower == pytest.approx(exact, rel=1e-8)
    assert upper == pytest.approx(exact, rel=1e-8)


def test_bracket_k4_minus_edge_cutoff_2():
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    st = compute_low_spectrum(g, 2)
    assert st.eigenvalues[-1] >= 1.0
    lower, upper = gain_bounds(st, 2, 3)
    exact = oracles.gain_brute(g, 2, 3)
    assert lower - 1e-9 <= exact <= upper + 1e-9


def test_bracket_contains_exact_when_lambda_c_large():
    for seed in (3, 8):
        g = random_connected(50, 0.15, seed=seed)
        st = compute_low_spectrum(g, 15)
        assert st.eigenvalues[-1] >= 1.0  # the premise criterion 6 states; the shift-invert cases go below it
        state = DenseState.compute(g)
        for a, b in oracles.all_non_edges(g):
            lower, upper = gain_bounds(st, a, b)
            exact = gain_exact(state, a, b)
            assert lower - 1e-9 <= exact <= upper + 1e-9


def test_bracket_width_collapses_at_c_equal_n():
    for seed in (9, 10):
        g = random_connected(30, 0.2, seed=seed)
        st = compute_low_spectrum(g, g.n)
        state = DenseState.compute(g)
        for a, b in oracles.all_non_edges(g)[:40]:
            lower, upper = gain_bounds(st, a, b)
            exact = gain_exact(state, a, b)
            assert (upper - lower) <= 1e-8 * max(1.0, exact)
            assert exact == pytest.approx(0.5 * (lower + upper), rel=1e-7)


def test_monotone_refinement():
    g = random_connected(40, 0.15, seed=11)
    pairs = oracles.all_non_edges(g)[:15]
    prev: dict[tuple[int, int], tuple[float, float]] = {}
    for c in (5, 10, 20, 39, g.n):
        st = compute_low_spectrum(g, c)
        for pair in pairs:
            lower, upper = gain_bounds(st, *pair)
            if pair in prev:
                lo_old, up_old = prev[pair]
                assert lower >= lo_old - 1e-9
                assert upper <= up_old + 1e-9
            prev[pair] = (lower, upper)


# shift-invert spectra (n > 600): the ring lattice's lambda_c is far below 1 at the
# default cutoff and at 20, and the bracket still holds on every sampled non-edge
_SHIFT_INVERT_BRACKETS = {
    "ring700-default": (lambda: generate("ws", {"n": 700, "degree": 8, "rewire_prob": 0.0}, seed=1), None),
    "ring700-c20": (lambda: generate("ws", {"n": 700, "degree": 8, "rewire_prob": 0.0}, seed=1), 20),
    "ws650": (lambda: generate("ws", {"n": 650, "degree": 10, "rewire_prob": 0.01}, seed=1), None),
    "ba700": (lambda: generate("ba", {"n": 700, "m_attach": 3}, seed=1), None),
}


@pytest.mark.parametrize("name", sorted(_SHIFT_INVERT_BRACKETS))
def test_bracket_contains_exact_on_shift_invert_path(name):
    build, cutoff = _SHIFT_INVERT_BRACKETS[name]
    g = build()
    st = compute_low_spectrum(g, cutoff or GreedyParams().cutoff)
    if name.startswith("ring"):
        assert st.eigenvalues[-1] < 0.6
    non_edges = np.array(oracles.all_non_edges(g))
    pairs = non_edges[np.random.default_rng(5).choice(len(non_edges), 3000, replace=False)]
    exact = DenseState.compute(g).gains(pairs)
    bounds = np.array([gain_bounds(st, a, b) for a, b in pairs.tolist()])
    assert np.all(bounds[:, 0] <= exact * (1 + 1e-9))
    assert np.all(exact <= bounds[:, 1] * (1 + 1e-9))


def test_eigvector_difference_identity():
    # with the full orthonormal basis, squared differences across all vectors sum to 2
    g = random_connected(30, 0.2, seed=12)
    _, vecs = np.linalg.eigh(g.laplacian_dense())
    for a, b in oracles.all_non_edges(g)[:20]:
        total = float(np.sum((vecs[a, :] - vecs[b, :]) ** 2))
        assert total == pytest.approx(2.0, abs=1e-9)


# -- gain_spectral ------------------------------------------------------------------


def test_estimate_is_lower_bound_and_inside_bracket():
    g = random_connected(35, 0.2, seed=13)
    st = compute_low_spectrum(g, 12)
    for a, b in oracles.all_non_edges(g)[:25]:
        lower, upper = gain_bounds(st, a, b)
        est = gain_spectral(st, a, b)
        assert lower * (1 - 1e-12) <= est <= upper
        assert est == pytest.approx(lower, rel=1e-12)


def test_estimate_exact_at_full_cutoff(p3):
    st = compute_low_spectrum(p3, 3)
    assert gain_spectral(st, 0, 2) == pytest.approx(2.0, rel=1e-9)


def test_rank_correlation_ba300():
    from scipy.stats import spearmanr

    g = generate("ba", {"n": 300, "m_attach": 4, "m0": 4}, seed=2)
    st = compute_low_spectrum(g, 50)
    state = DenseState.compute(g)
    non_edges = oracles.all_non_edges(g)
    idx = np.random.default_rng(17).choice(len(non_edges), 500, replace=False)
    approx = [gain_spectral(st, *non_edges[i]) for i in idx]
    exact = [gain_exact(state, *non_edges[i]) for i in idx]
    assert spearmanr(approx, exact).statistic >= 0.7


# -- carry_low_spectrum ---------------------------------------------------------------


def _carried_across(g: Graph, count: int, a: int, b: int):
    """Pairs lambda_2..lambda_(count+1) of g carried across the insertion of {a,b} by one Ritz step."""
    state = compute_low_spectrum(g, count + 1)
    _, report = report_insertion(g, a, b)
    g.insert_edge(a, b)
    return spectral.carry_low_spectrum(g, state, report, count)


@pytest.mark.parametrize("count", [12, 39])
def test_ritz_values_bound_the_grown_spectrum_from_above(count, monkeypatch):
    # Rayleigh-Ritz on a subspace orthogonal to ones: each theta_i is at least lambda_(i+1) of the grown L, the
    # vectors stay orthonormal and orthogonal to ones, and lambda_bound is the grown graph's degree bound
    tol = spectral.DRIFT_TOL
    monkeypatch.setattr(spectral, "DRIFT_TOL", np.inf)
    g = generate("ws", {"n": 120, "degree": 10, "rewire_prob": 0.01}, seed=1)
    st = _carried_across(g, count, 0, 60)
    vals = scipy.linalg.eigh(g.laplacian_dense(), eigvals_only=True)
    assert st.eigenvalues.shape == (count,) and np.all(np.diff(st.eigenvalues) >= -1e-12)
    assert np.all(st.eigenvalues >= vals[1 : count + 1] - 1e-10)
    assert np.allclose(st.vectors.T @ st.vectors, np.eye(count), atol=1e-10)
    assert np.max(np.abs(st.vectors.sum(axis=0))) < 1e-10
    assert st.lambda_bound == spectral._degree_bound(g)
    residuals = np.linalg.norm(g.laplacian() @ st.vectors - st.vectors * st.eigenvalues, axis=0)
    assert residuals[:10].max() < tol * st.eigenvalues[9]  # the guard's measure, on c-1 = 10 pairs


def test_ritz_step_on_the_full_spectrum_is_exact():
    # n-1 carried pairs span the complement of ones, which the grown L maps to itself
    g = generate("ba", {"n": 35, "m_attach": 3}, seed=1)
    st = _carried_across(g, g.n - 1, 2, 30)
    vals = scipy.linalg.eigh(g.laplacian_dense(), eigvals_only=True)
    assert np.max(np.abs(st.eigenvalues - vals[1:])) < 1e-10
    residuals = np.linalg.norm(g.laplacian() @ st.vectors - st.vectors * st.eigenvalues, axis=0)
    assert residuals.max() < 1e-10


def test_drift_guard_resolves_past_its_threshold(monkeypatch):
    # at 0 every step re-solves: the state equals compute_low_spectrum's on the grown graph
    monkeypatch.setattr(spectral, "DRIFT_TOL", 0.0)
    g = generate("ba", {"n": 120, "m_attach": 3}, seed=1)
    st = _carried_across(g, 39, 0, 100)
    fresh = compute_low_spectrum(g, 40)
    assert np.array_equal(st.eigenvalues, fresh.eigenvalues) and np.array_equal(st.vectors, fresh.vectors)
