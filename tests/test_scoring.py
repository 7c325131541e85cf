"""Batched gain scorers against scalar per-pair formulas, and the shared CG entry point."""

from __future__ import annotations

import numpy as np
import pytest

from kgrip.errors import InvariantError, SolverError, StaleStateError
from kgrip.graphs import Graph, generate
from kgrip.jlt import build_sketch, gains_jlt
from kgrip.linalg import ColumnCache, DenseState, gain_exact, solve, solve_lpinv_column
from kgrip.spectral import compute_low_spectrum, gain_bounds, gains_spectral

REL_TOL = 1e-12
FOCUS = 5


def _graphs() -> dict[str, Graph]:
    return {
        "er60": generate("er", {"n": 60, "p": 0.1}, seed=21),
        "ba80": generate("ba", {"n": 80, "m_attach": 3, "m0": 3}, seed=22),
    }


def _pair_sets(g: Graph) -> dict[str, np.ndarray]:
    nbrs = np.asarray(g.non_neighbors(FOCUS))
    focus = np.column_stack([np.minimum(nbrs, FOCUS), np.maximum(nbrs, FOCUS)])
    return {"global": g.non_edges(), "focus": focus}


CASES = [(gname, pname) for gname in ("er60", "ba80") for pname in ("global", "focus")]


def _assert_matches(batched: np.ndarray, pairs: np.ndarray, per_pair) -> None:
    reference = np.array([per_pair(a, b) for a, b in pairs.tolist()])
    assert batched.shape == reference.shape
    assert np.all(reference > 0)
    assert np.max(np.abs(batched - reference) / reference) <= REL_TOL


def _gain_from_columns(n: int, col_a: np.ndarray, col_b: np.ndarray, a: int, b: int) -> float:
    """n * B2 / (1 + R) with d = P[:,a] - P[:,b]: B2 = d.d and R = d[a] - d[b]."""
    d = col_a - col_b
    return n * float(d @ d) / (1.0 + d[a] - d[b])


@pytest.mark.parametrize("gname,pname", CASES)
def test_dense_scorer_matches_scalar(gname, pname):
    g = _graphs()[gname]
    pairs = _pair_sets(g)[pname]
    state = DenseState.compute(g)
    p = state.block
    _assert_matches(state.gains(pairs), pairs, lambda a, b: _gain_from_columns(g.n, p[:, a], p[:, b], a, b))


def _solved_column_gain(g: Graph):
    return lambda a, b: _gain_from_columns(g.n, solve_lpinv_column(g, a), solve_lpinv_column(g, b), a, b)


@pytest.mark.parametrize("gname,pname", CASES)
def test_column_cache_scorer_matches_scalar(gname, pname):
    g = _graphs()[gname]
    pairs = _pair_sets(g)[pname]
    cache = ColumnCache(g)
    _assert_matches(cache.gains(pairs), pairs, _solved_column_gain(g))


@pytest.mark.parametrize("gname", ["er60", "ba80"])
def test_column_cache_scorer_after_insertions(gname):
    g = _graphs()[gname]
    cache = ColumnCache(g)
    rng = np.random.default_rng(3)
    for _ in range(3):
        free = g.non_edges()
        a, b = free[rng.integers(len(free))].tolist()
        cache.gains(np.array([[a, b]]))  # caches both endpoint columns
        g.insert_edge(a, b)
        cache.note_insertion(a, b)
    for pairs in _pair_sets(g).values():
        # columns cached before the insertions are refreshed, the rest solved fresh
        _assert_matches(cache.gains(pairs), pairs, _solved_column_gain(g))


@pytest.mark.parametrize("gname,pname", CASES)
def test_sketch_scorer_matches_scalar(gname, pname):
    g = _graphs()[gname]
    pairs = _pair_sets(g)[pname]
    sketch = build_sketch(g, 12, np.random.default_rng(4))
    _assert_matches(
        gains_jlt(sketch, pairs, current_round=g.round),
        pairs,
        lambda a, b: g.n * sketch.biharmonic_sq(a, b) / (1.0 + sketch.resistance_sq(a, b)),
    )


@pytest.mark.parametrize("gname,pname", CASES)
def test_spectral_scorer_matches_scalar(gname, pname):
    g = _graphs()[gname]
    pairs = _pair_sets(g)[pname]
    state = compute_low_spectrum(g, 20)
    _assert_matches(gains_spectral(state, pairs), pairs, lambda a, b: gain_bounds(state, a, b)[0])


def test_batched_scorers_reject_edges_and_stale_sketches():
    g = _graphs()["er60"]
    a, b = next(g.edges())
    with pytest.raises(InvariantError):
        gain_exact(DenseState.compute(g), a, b)  # the batch trusts its pairs; the scalar entry point checks
    sketch = build_sketch(g, 4, np.random.default_rng(5))
    free = g.non_edges()[:1]
    g.insert_edge(*free[0].tolist())
    with pytest.raises(StaleStateError):
        gains_jlt(sketch, g.non_edges()[:2], current_round=g.round)


def test_solve_matches_column_solve_and_reports_residual():
    g = _graphs()["ba80"]
    rhs = np.zeros(g.n)
    rhs[[3, 9]] = [1.0, -1.0]
    x = solve(g, rhs)
    assert np.allclose(x, solve_lpinv_column(g, 3) - solve_lpinv_column(g, 9), atol=1e-6)
    assert abs(x.sum()) < 1e-9 * g.n
    with pytest.raises(SolverError) as err:
        solve(g, rhs, 1e-300)  # unattainable: even the dense factor misses it
    assert err.value.achieved_residual > 1e-300
