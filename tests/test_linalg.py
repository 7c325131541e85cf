"""Pseudoinverse algebra against eigendecomposition and brute-force oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp

from kgrip import greedy, linalg, oracles
from kgrip.errors import ConfigError, InvariantError, SolverError, StaleStateError
from kgrip.graphs import DENSE_SOLVE_MAX_N, DenseCholesky, Graph, GroundedLU, GrownFactor, generate
from kgrip.greedy import GreedyParams, Heuristic, run_kgrip
from kgrip.linalg import (
    ColumnCache,
    DenseState,
    effective_resistance,
    gain_exact,
    pseudoinverse_dense,
    refresh_column,
    sherman_morrison_update,
    solve,
    solve_lpinv_column,
    solve_lpinv_columns,
    solve_lpinv_difference,
    total_resistance,
    total_resistance_after,
    true_gain,
)

from conftest import complete_graph, cycle_graph, path_graph, random_connected, random_tree, reference_bfs, star_graph

_ABOVE_DENSE = DENSE_SOLVE_MAX_N + 50  # graphs of this size solve by CG or by a sparse factor


# -- pseudoinverse_dense ---------------------------------------------------------


def test_dense_pinv_p3_trace(p3):
    assert np.trace(pseudoinverse_dense(p3)) == pytest.approx(4.0 / 3.0, abs=1e-10)


def test_dense_pinv_k3_matrix(k3):
    expected = np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]) / 9.0
    assert np.allclose(pseudoinverse_dense(k3), expected, atol=1e-10)


def test_dense_pinv_k2():
    k2 = complete_graph(2)
    expected = np.array([[1, -1], [-1, 1]]) / 4.0
    assert np.allclose(pseudoinverse_dense(k2), expected, atol=1e-12)


def test_dense_pinv_matches_eig_oracle():
    g = random_connected(40, 0.15, seed=3)
    assert np.allclose(pseudoinverse_dense(g), oracles.pinv_eig(g), atol=1e-9)


def test_dense_pinv_and_total_resistance_leave_the_round_factor_valid():
    # up to DENSE_SOLVE_MAX_N both invert the graph's round factor into a new array
    g = generate("ba", {"n": 120, "m_attach": 3, "m0": 3}, seed=5)
    pseudoinverse_dense(g)
    total_resistance(g)
    assert g.has_factor
    vertices = [0, 7, 64, 119]
    fresh = Graph(g.n, g.edges())
    assert np.array_equal(solve_lpinv_columns(g, vertices), solve_lpinv_columns(fresh, vertices))


def test_dense_pinv_is_the_same_with_or_without_a_round_factor():
    for n in (120, DENSE_SOLVE_MAX_N + 50):
        g = generate("ba", {"n": n, "m_attach": 3, "m0": 3}, seed=5)
        expected = pseudoinverse_dense(g.copy())
        g.factor()  # leaves the round's factor on the graph
        assert g.has_factor
        assert np.array_equal(pseudoinverse_dense(g), expected)
        assert total_resistance(g) == total_resistance(g.copy()) == total_resistance(Graph(g.n, g.edges()))


def test_dense_pinv_identities():
    g = random_connected(35, 0.2, seed=11)
    lap = g.laplacian_dense()
    p = pseudoinverse_dense(g)
    n = g.n
    centering = np.eye(n) - np.ones((n, n)) / n
    assert np.max(np.abs(lap @ p - centering)) < 1e-7
    assert np.max(np.abs(lap @ p @ lap - lap)) < 1e-7
    assert np.array_equal(p, p.T)
    assert np.max(np.abs(p.sum(axis=1))) < 1e-8 * n


def test_dense_pinv_is_built_in_the_array_laplacian_dense_returns(monkeypatch):
    # above DENSE_SOLVE_MAX_N, L + J/n is shifted, factored (dpotrf on the F-ordered transpose, no C -> F copy),
    # inverted and mirrored in that one array
    g = generate("ba", {"n": _ABOVE_DENSE, "m_attach": 3, "m0": 3}, seed=5)
    built, laplacian_dense = [], Graph.laplacian_dense
    monkeypatch.setattr(Graph, "laplacian_dense", lambda self: built.append(laplacian_dense(self)) or built[-1])
    upper = linalg._shifted_cholesky(g)
    assert np.shares_memory(upper, built[-1])
    p = pseudoinverse_dense(g)
    assert np.shares_memory(p, built[-1]) and p.flags.c_contiguous
    assert np.array_equal(p, p.T)


def test_dense_pinv_cap(monkeypatch):
    monkeypatch.setattr(linalg, "DENSE_CAP_DEFAULT", 10)
    with pytest.raises(ConfigError):
        pseudoinverse_dense(path_graph(30))


def test_stgreedy_budget_counts_its_universe_queue(monkeypatch):
    # P, Q and their transients fit the four n x n arrays of the dense cap; neither dense heuristic holds a
    # candidate array of n^2 size beside them, so both share the cap
    monkeypatch.setattr(linalg, "DENSE_CAP_DEFAULT", 20)
    built, dense = [], linalg.pseudoinverse_dense
    monkeypatch.setattr(linalg, "pseudoinverse_dense", lambda g: built.append(g.n) or dense(g))
    for kind in (Heuristic.ST_GREEDY, Heuristic.SIMPL_STOCH):
        with pytest.raises(ConfigError, match="4 n x n arrays"):
            run_kgrip(path_graph(21), 1, kind)
        assert run_kgrip(path_graph(20), 1, kind).inserted_edges
    assert built == [20, 20]  # the run checks the cap before P is built, so nothing is allocated above it


# -- solve_lpinv_column ----------------------------------------------------------


def test_column_p3(p3):
    col = solve_lpinv_column(p3, 0)
    assert np.allclose(col, [5 / 9, -1 / 9, -4 / 9], atol=1e-6)


def test_column_k2():
    col = solve_lpinv_column(complete_graph(2), 1)
    assert np.allclose(col, [-0.25, 0.25], atol=1e-9)


def test_column_k3(k3):
    col = solve_lpinv_column(k3, 2)
    assert np.allclose(col, [-1 / 9, -1 / 9, 2 / 9], atol=1e-6)


def test_column_matches_dense_oracle():
    g = random_connected(60, 0.1, seed=9)
    p = oracles.pinv_eig(g)
    for v in (0, 7, g.n - 1):
        col = solve_lpinv_column(g, v)
        assert np.allclose(col, p[:, v], atol=5e-6)
        assert abs(col.sum()) < 1e-9 * g.n


def test_column_nonconvergence_reports_residual():
    g = random_connected(_ABOVE_DENSE, 6.4 / _ABOVE_DENSE, seed=2)
    with pytest.raises(SolverError, match="CG") as err:
        # unattainable: CG stops at its 10 n iteration limit
        solve_lpinv_column(g, 0, 1e-300)
    assert err.value.achieved_residual is not None
    assert err.value.achieved_residual > 1e-300


# -- block solves: the round's factor and per-column CG ----------------------------

# up to DENSE_SOLVE_MAX_N vertices every block is solved by the dense factor of L + J/n
_DENSE_SOLVE_GRAPHS = {
    "ba": lambda: generate("ba", {"n": DENSE_SOLVE_MAX_N, "m_attach": 3, "m0": 3}, seed=2),
    "ws": lambda: generate("ws", {"n": 150, "degree": 6, "rewire_prob": 0.05}, seed=3),
    "er": lambda: random_connected(150, 0.05, seed=4),
    "path": lambda: path_graph(60),
    "star": lambda: star_graph(50),
    "cycle": lambda: cycle_graph(DENSE_SOLVE_MAX_N),
}
# above it the solve rule picks CG or the sparse factor
_SOLVE_GRAPHS = {
    "ba": lambda: generate("ba", {"n": _ABOVE_DENSE, "m_attach": 3, "m0": 3}, seed=2),
    "ws": lambda: generate("ws", {"n": _ABOVE_DENSE, "degree": 6, "rewire_prob": 0.05}, seed=3),
    "er": lambda: random_connected(_ABOVE_DENSE, 7.5 / _ABOVE_DENSE, seed=4),
    "path": lambda: path_graph(_ABOVE_DENSE),
    "star": lambda: star_graph(_ABOVE_DENSE),
}


@pytest.mark.parametrize("s", [1, 2, 16])
@pytest.mark.parametrize("family", sorted(_DENSE_SOLVE_GRAPHS))
def test_dense_factor_path_matches_dense_columns(family, s, cg_calls):
    g = _DENSE_SOLVE_GRAPHS[family]()
    assert g.n <= DENSE_SOLVE_MAX_N
    vertices = np.random.default_rng(s).choice(g.n, s, replace=False)
    expected = pseudoinverse_dense(g.copy())[:, vertices]  # builds the copy's factor alone
    # a fresh graph, with no solve recorded, factors from its first column
    got = solve_lpinv_columns(g, vertices)
    assert cg_calls[0] == 0 and isinstance(g.factor(), DenseCholesky)
    err = np.linalg.norm(got - expected, axis=0) / np.linalg.norm(expected, axis=0)
    assert err.max() <= 1e-10
    assert np.abs(got.sum(axis=0)).max() <= 1e-9


def test_solves_of_a_small_graph_share_one_dense_factor_per_round(factorisations):
    built = factorisations.dense
    g = generate("ba", {"n": 50, "m_attach": 2, "m0": 2}, seed=3)
    solve_lpinv_column(g, 0)
    solve_lpinv_columns(g, [1, 2, 3])
    true_gain(g, *g.non_edges()[0].tolist())
    assert built == [g.n]  # the first column factors, the later solves reuse it
    dup = g.copy()
    g.insert_edge(*g.non_edges()[0].tolist())
    solve_lpinv_column(dup, 4)
    assert dup.factor() is g.factor().base  # the copy still holds the factor of round 0
    solve_lpinv_column(g, 4)
    assert built == [g.n, 1]  # the insertion grew it: I + B^T X is 1 x 1, and the graph is not factored again


@pytest.mark.parametrize("s", [1, 2, 16, 40])
@pytest.mark.parametrize("family", sorted(_SOLVE_GRAPHS))
def test_factor_and_cg_paths_match_dense_columns(family, s, cg_calls):
    g = _SOLVE_GRAPHS[family]()
    assert g.n > DENSE_SOLVE_MAX_N
    vertices = np.random.default_rng(s).choice(g.n, s, replace=False)
    expected = pseudoinverse_dense(g)[:, vertices]
    tight = 1e-10
    # one column on a fresh graph, with no solve recorded, runs CG
    fresh = [g.copy() for _ in vertices]
    by_cg = np.column_stack([solve_lpinv_column(h, v, tight) for h, v in zip(fresh, vertices)])
    assert cg_calls[0] == s and not any(h.has_factor for h in fresh)
    # a graph holding a factor solves every block through it
    assert isinstance(g.factor(), GroundedLU)
    by_factor = solve_lpinv_columns(g, vertices)
    assert cg_calls[0] == s
    for got in (by_cg, by_factor):
        err = np.linalg.norm(got - expected, axis=0) / np.linalg.norm(expected, axis=0)
        assert err.max() <= 1e-6
        assert np.abs(got.sum(axis=0)).max() <= 1e-9


def test_solve_takes_vectors_and_blocks():
    g = random_connected(60, 0.1, seed=9)
    rhs = np.random.default_rng(1).standard_normal((g.n, 3))
    rhs -= rhs.mean(axis=0)
    block = solve(g, rhs)
    assert block.shape == rhs.shape
    assert np.allclose(solve(g, rhs[:, 1]), block[:, 1], atol=1e-6)


def test_solve_record_survives_copy_and_insertion():
    g = generate("ba", {"n": _ABOVE_DENSE, "m_attach": 3, "m0": 3}, seed=2)
    assert not g.has_factor
    solve_lpinv_columns(g, [0, 1, 2])
    factor = g.factor()
    assert isinstance(factor, GroundedLU)
    dup = g.copy()
    a, b = next(map(tuple, g.non_edges()))
    g.insert_edge(a, b)
    # the insertion grows the factor of the grown graph alone; the copy keeps the one it shares
    assert isinstance(g.factor(), GrownFactor) and g.factor().base is factor and dup.factor() is factor
    g.clear_solve_record()
    assert not g.has_factor
    dup.clear_solve_record()
    assert not dup.has_factor
    small = generate("ba", {"n": 120, "m_attach": 3, "m0": 3}, seed=2)
    solve_lpinv_columns(small, [0, 1, 2])
    assert isinstance(small.factor(), DenseCholesky)


@pytest.mark.parametrize(
    "model, params, base",
    [("ba", {"n": 150, "m_attach": 3}, DenseCholesky), ("ws", {"n": 250, "degree": 10, "rewire_prob": 0.01}, GroundedLU)],
    ids=["ba150-dense", "ws250-grounded"],
)
def test_grown_factor_matches_a_fresh_pseudoinverse(model, params, base, factorisations):
    g = generate(model, params, seed=1)
    factor = g.factor()
    assert isinstance(factor, base)
    rng = np.random.default_rng(5)
    for _ in range(60):
        free = g.non_edges()
        g.insert_edge(*free[rng.integers(len(free))].tolist())
    assert isinstance(g.factor(), GrownFactor) and g.factor().base is factor and len(g.factor().ends) == 60
    got = solve_lpinv_columns(g, np.arange(g.n))
    expected = pseudoinverse_dense(Graph(g.n, g.edges()))
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
    assert len(factorisations.sparse) == (base is GroundedLU)  # the grown graph was never factored again


@pytest.mark.parametrize(
    "model, params",
    [
        ("ws", {"n": _ABOVE_DENSE, "degree": 10, "rewire_prob": 0.01}),
        ("er", {"n": 1000, "p": 0.01}),
        ("ba", {"n": 2000, "m_attach": 3, "m0": 3}),
    ],
    ids=["ws250", "er1000", "ba2000"],
)
def test_above_the_dense_limit_a_solve_never_factors(model, params, cg_calls, factorisations):
    # with no factor held, every block runs CG, one call per column, and leaves the graph unfactored; once a caller
    # has asked for the factor, every block goes through it, and through its growth across an insertion
    g = generate(model, params, seed=1)
    widths = [1, 2, 16, 40]
    for s in widths:
        solve_lpinv_columns(g, list(range(s)))
    assert cg_calls[0] == sum(widths) and not g.has_factor and factorisations.sparse == []
    factor = g.factor()
    assert isinstance(factor, GroundedLU)
    for s in widths:
        solve_lpinv_columns(g, list(range(s)))
    g.insert_edge(0, next(v for v in range(1, g.n) if not g.has_edge(0, v)))
    for s in widths:
        solve_lpinv_columns(g, list(range(s)))
    assert cg_calls[0] == sum(widths) and len(factorisations.sparse) == 1
    assert isinstance(g.factor(), GrownFactor) and g.factor().base is factor


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_solve_rejects_non_finite_or_non_positive_tol(cg_calls, tol):
    # on the CG path: at rtol=inf CG returns x = 0, which an unguarded residual check at tol=inf would pass
    g = generate("ba", {"n": 250, "m_attach": 3, "m0": 3}, seed=1)
    rhs = np.zeros(g.n)
    rhs[0], rhs[1] = 1.0, -1.0
    for call in (
        lambda: solve(g, rhs, tol),
        lambda: solve_lpinv_columns(g, [0], tol),
        lambda: ColumnCache(g, tol).columns(np.array([0])),
    ):
        with pytest.raises(ConfigError, match="tol"):
            call()
    assert cg_calls[0] == 0 and not g.has_factor


def test_factor_path_unattainable_tolerance_raises():
    for n, kind in ((120, DenseCholesky), (_ABOVE_DENSE, GroundedLU)):
        g = generate("ba", {"n": n, "m_attach": 3, "m0": 3}, seed=6)
        assert isinstance(g.factor(), kind)
        with pytest.raises(SolverError) as err:
            solve_lpinv_columns(g, [0, 5, 9], 1e-300)
        assert np.isfinite(err.value.achieved_residual) and err.value.achieved_residual > 1e-300
        assert "CG" not in str(err.value)


@pytest.mark.filterwarnings("error")  # the singular solve reports through SolverError alone
@pytest.mark.parametrize("s", [1, 16])
@pytest.mark.parametrize("n, split", [(6, 3), (40, 13), (60, 30), (_ABOVE_DENSE, 150)])
def test_solve_on_disconnected_graph_raises(n, split, s):
    # two paths: up to DENSE_SOLVE_MAX_N the dense factor; above, with no factor held, CG at any s
    edges = [(i, i + 1) for i in range(split - 1)] + [(i, i + 1) for i in range(split, n - 1)]
    g = Graph(n, edges)
    with pytest.raises(SolverError) as err:
        solve_lpinv_columns(g, [v % n for v in range(s)])
    assert np.isfinite(err.value.achieved_residual)
    assert ("CG" in str(err.value)) == (n > DENSE_SOLVE_MAX_N)
    if n > DENSE_SOLVE_MAX_N:  # a caller's request for the sparse factor fails on its zero pivot
        with pytest.raises(SolverError, match="grounded Laplacian"):
            g.factor()


def test_colstoch_k1_solves_its_columns_by_factor(cg_calls, factorisations):
    # the exact diagonal, the sampled columns, the report and the one-column r_final share one factor, built before
    # the insertion and so a factor of the input; no column runs CG
    g = generate("ba", {"n": 650, "m_attach": 3, "m0": 3}, seed=1)
    run_kgrip(g, 1, Heuristic.COL_STOCH, seed=7)
    assert len(factorisations.sparse) == 1 and cg_calls[0] == 0


def test_column_cache_solves_missing_columns_once():
    g = random_connected(60, 0.1, seed=12)
    cache = ColumnCache(g)
    cols = cache.columns(np.array([4, 9, 4, 20]))
    assert cache.solve_count == 3
    assert np.array_equal(cols[:, 0], cols[:, 2])
    assert np.allclose(cols, pseudoinverse_dense(g)[:, [4, 9, 4, 20]], atol=5e-6)
    cache.columns(np.array([9, 20]))
    assert cache.solve_count == 3


# -- effective_resistance / biharmonic -------------------------------------------


def test_resistance_series(p3):
    state = DenseState.compute(p3)
    assert effective_resistance(state.block[:, 0], state.block[:, 2], 0, 2) == pytest.approx(2.0)


def test_resistance_k3(k3):
    state = DenseState.compute(k3)
    for a, b in [(0, 1), (0, 2), (1, 2)]:
        r = effective_resistance(state.block[:, a], state.block[:, b], a, b)
        assert r == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_resistance_star_leaves():
    g = star_graph(4)
    state = DenseState.compute(g)
    assert effective_resistance(state.block[:, 1], state.block[:, 2], 1, 2) == pytest.approx(2.0)


def test_resistance_same_vertex_rejected(p3):
    state = DenseState.compute(p3)
    with pytest.raises(InvariantError):
        effective_resistance(state.block[:, 1], state.block[:, 1], 1, 1)


def test_resistance_is_metric_small_graphs():
    for seed in (1, 2, 3):
        g = random_connected(25, 0.2, seed=seed)
        p = pseudoinverse_dense(g)
        d = np.diag(p)
        r = d[:, None] + d[None, :] - 2 * p
        assert np.allclose(r, r.T, atol=1e-10)
        for a in range(g.n):
            for b in range(a + 1, g.n):
                for c in range(g.n):
                    assert r[a, b] <= r[a, c] + r[c, b] + 1e-9


def test_tree_resistance_equals_bfs_distance():
    # on trees the resistance is the path length, checked over all pairs
    for n, seed in [(50, 4), (200, 5)]:
        g = random_tree(n, seed)
        p = pseudoinverse_dense(g)
        d = np.diag(p)
        for root in range(n):
            _, depth = reference_bfs(g, root)
            r_row = d[root] + d - 2 * p[root]
            for v in range(root + 1, n):
                assert abs(r_row[v] - depth[v]) < 1e-9


def _biharmonic_sq(state: DenseState, a: int, b: int) -> float:
    """B2(a,b) = Q[a,a] + Q[b,b] - 2 Q[a,b], read off the dense state's Q = P^2."""
    q = state.square
    return float(q[a, a] + q[b, b] - 2.0 * q[a, b])


def test_biharmonic_p3(p3):
    state = DenseState.compute(p3)
    assert _biharmonic_sq(state, 0, 2) == pytest.approx(2.0, abs=1e-9)


def test_biharmonic_identical_columns(p3):
    state = DenseState.compute(p3)
    assert _biharmonic_sq(state, 1, 1) == 0.0


def test_biharmonic_k2():
    state = DenseState.compute(complete_graph(2))
    assert _biharmonic_sq(state, 0, 1) == pytest.approx(0.5, abs=1e-12)


# -- total_resistance -------------------------------------------------------------


def test_total_resistance_complete_graphs():
    assert total_resistance(complete_graph(4)) == pytest.approx(3.0, abs=1e-9)
    assert total_resistance(complete_graph(2)) == pytest.approx(1.0, abs=1e-9)


def test_total_resistance_p3(p3):
    assert total_resistance(p3) == pytest.approx(4.0, abs=1e-9)


def test_total_resistance_equals_pairsum():
    g = random_connected(30, 0.2, seed=13)
    assert total_resistance(g) == pytest.approx(oracles.resistance_pairsum(g), rel=1e-6)


@pytest.mark.parametrize(
    "graph",
    [
        path_graph(40),
        star_graph(25),
        random_tree(60, seed=3),
        random_connected(80, 0.1, seed=4),
        generate("ba", {"n": 650, "m_attach": 3, "m0": 3}, seed=1),
    ],
    ids=["path40", "star25", "tree60", "er80", "ba650"],
)
def test_total_resistance_matches_dense_trace(graph):
    # the Cholesky route equals n * trace(L^+) from the dense pseudoinverse
    expected = graph.n * float(np.trace(pseudoinverse_dense(graph)))
    assert total_resistance(graph) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n, split", [(4, 2), (6, 1), (6, 3), (9, 4), (40, 13)])
def test_total_resistance_disconnected_raises(n, split):
    # two paths; several of these leave dpotrf a tiny positive pivot instead of failing
    edges = [(i, i + 1) for i in range(split - 1)] + [(i, i + 1) for i in range(split, n - 1)]
    for dense in (total_resistance, pseudoinverse_dense, DenseState.compute):
        with pytest.raises(SolverError):
            dense(Graph(n, edges))


def test_total_resistance_cap(monkeypatch):
    monkeypatch.setattr(linalg, "DENSE_CAP_DEFAULT", 10)
    with pytest.raises(ConfigError):
        total_resistance(path_graph(30))


# -- r_initial by selected inversion on the sparse factor ------------------------------


def _r_initial(graph: Graph) -> float:
    """The r_initial of ColStoch, SimplStochJLT, ColStochJLT and (holding a factor) SpecStoch."""
    return greedy._Scorer(graph, 1, GreedyParams(), 0, Heuristic.COL_STOCH).total_resistance()


def _spy_dense_inversions(monkeypatch, orders: list) -> None:
    """Record in ``orders`` the order of every triangular inversion of the dense form, R^(-1)."""
    dtrtri = linalg.lapack.dtrtri
    monkeypatch.setattr(linalg.lapack, "dtrtri", lambda upper, **kw: orders.append(len(upper)) or dtrtri(upper, **kw))


@pytest.mark.parametrize(
    "graph, selected",
    [
        (generate("ba", {"n": 650, "m_attach": 3}, seed=1), True),
        (generate("ws", {"n": 650, "degree": 10, "rewire_prob": 0.01}, seed=1), True),
        (generate("er", {"n": 650, "p": 0.01}, seed=1), True),
        (generate("er", {"n": 1000, "p": 0.05}, seed=1), True),  # mean degree 50: the recurrences gather the most
        (generate("er", {"n": 1000, "p": 0.008}, seed=1), True),
        (Graph(625, [(i, i + 1) for i in range(625) if i % 25 < 24] + [(i, i + 25) for i in range(600)]), True),
        (generate("ba", {"n": 120, "m_attach": 3}, seed=1), False),
        (generate("ws", {"n": 120, "degree": 10, "rewire_prob": 0.01}, seed=1), False),
        (path_graph(210), True),
        (star_graph(210), True),
    ],
    ids=["ba650", "ws650", "er650", "er1000-deg50", "er1000-deg8", "grid25", "ba120", "ws120", "path210", "star210"],
)
def test_lpinv_diagonal_matches_the_dense_pseudoinverse(graph, selected, monkeypatch):
    expected, dense = np.diagonal(pseudoinverse_dense(graph.copy())), []
    _spy_dense_inversions(monkeypatch, dense)
    diagonal = linalg.lpinv_diagonal(graph)
    assert dense == ([] if selected else [graph.n])
    assert (np.abs(diagonal - expected) / expected).max() <= 1e-12
    assert graph.n * diagonal.sum() == pytest.approx(total_resistance(graph), rel=1e-12)


def test_lpinv_diagonal_of_a_graph_whose_factor_grew_takes_the_dense_form(monkeypatch):
    # a grown factor holds no selected inversion: the diagonal of the grown graph comes from the dense form
    g = generate("ba", {"n": 650, "m_attach": 3}, seed=1)
    g.factor()
    g.insert_edge(*next((0, b) for b in range(1, g.n) if not g.has_edge(0, b)))
    assert isinstance(g.factor(), GrownFactor)
    expected, dense = np.diagonal(pseudoinverse_dense(Graph(g.n, g.edges()))), []
    _spy_dense_inversions(monkeypatch, dense)
    assert (np.abs(linalg.lpinv_diagonal(g) - expected) / expected).max() <= 1e-12 and dense == [g.n]


def test_lpinv_diagonal_checks_the_residual_of_its_solve(monkeypatch):
    # the solve of M 1 goes through linalg.solve: a factor that returns zeros fails its residual check
    g = generate("ba", {"n": 650, "m_attach": 3}, seed=1)
    monkeypatch.setattr(GroundedLU, "solve", lambda self, b: np.zeros_like(b))
    with pytest.raises(SolverError) as err:
        linalg.lpinv_diagonal(g)
    assert err.value.achieved_residual == pytest.approx(1.0)


@pytest.mark.parametrize("n", [150, 600], ids=["dense", "selected"])
def test_lpinv_diagonal_meets_the_closed_form_of_the_path(n):
    # on a path R(i,j) = |i - j|, and L^+[i,i] = sum_j R(i,j) / n - R_tot / n^2 with R_tot = (n^3 - n) / 6
    i = np.arange(n)
    exact = (i * (i + 1) + (n - 1 - i) * (n - i)) / (2 * n) - (n**3 - n) / (6 * n * n)
    assert (np.abs(linalg.lpinv_diagonal(path_graph(n)) - exact) / exact).max() <= 1e-12


@pytest.mark.parametrize(
    "model, params",
    [
        ("ba", {"n": 650, "m_attach": 3}),
        ("ba", {"n": 2000, "m_attach": 3}),
        ("ws", {"n": 700, "degree": 10, "rewire_prob": 0.01}),
        ("er", {"n": 650, "p": 0.01}),
    ],
    ids=["ba650", "ba2000", "ws700", "er650"],
)
def test_r_initial_by_selected_inversion_matches_the_dense_oracle(model, params, monkeypatch):
    # a scale-free or ring graph fills little, ER fills much: every fresh sparse factor takes selected inversion
    g = generate(model, params, seed=1)
    expected, dense = total_resistance(g), []
    _spy_dense_inversions(monkeypatch, dense)
    assert _r_initial(g) == pytest.approx(expected, rel=1e-9)
    assert dense == []


@pytest.mark.parametrize(
    "graph",
    [path_graph(210), star_graph(210), cycle_graph(250), random_tree(230, seed=5), complete_graph(210)],
    ids=["path210", "star210", "cycle250", "tree230", "k210"],
)
def test_selected_inversion_on_extreme_elimination_trees(graph, monkeypatch):
    # deep chains, a flat star, and K_210, whose root block is the whole factor: the recurrences run on each
    expected, dense = total_resistance(graph), []
    _spy_dense_inversions(monkeypatch, dense)
    assert _r_initial(graph) == pytest.approx(expected, rel=1e-9)
    assert dense == []


def test_selected_inversion_meets_the_closed_form_of_the_cycle():
    n = 2000  # R_tot(C_n) = (n^3 - n) / 12; the dense oracle is off it by about 3e-11 here
    g = cycle_graph(n)
    assert _r_initial(g) == pytest.approx((n**3 - n) / 12, rel=1e-12)


@pytest.mark.parametrize("split", [120, 300])
def test_selected_inversion_on_a_disconnected_graph_raises(split):
    # two scale-free pieces: SuperLU leaves a rounding-sized pivot in place of the zero one
    first = generate("ba", {"n": split, "m_attach": 3}, seed=2)
    second = generate("ba", {"n": 250, "m_attach": 2}, seed=3)
    g = Graph(first.n + second.n, list(first.edges()) + [(a + first.n, b + first.n) for a, b in second.edges()])
    with pytest.raises(SolverError):
        _r_initial(g)


def test_selected_inversion_gathers_at_most_a_quarter_square(monkeypatch):
    # ER(650, 0.01) fills enough that some batch of one width would hold more than n^2/4 entries of Z at once
    g = generate("er", {"n": 650, "p": 0.01}, seed=1)
    gathers, einsum, expected = [], np.einsum, total_resistance(g)

    def spy(spec, *ops):
        gathers.append(ops[0].size)
        return einsum(spec, *ops)

    monkeypatch.setattr(np, "einsum", spy)
    assert _r_initial(g) == pytest.approx(expected, rel=1e-9)
    assert 0 < max(gathers) <= (g.n - 1) ** 2 / 4


class _Factor:
    """A stand-in for SuperLU's factor: a unit lower L with the given rows below each diagonal, D = I, no pivoting."""

    def __init__(self, below: list[list[int]]):
        lower = np.eye(len(below))
        for j, rows in enumerate(below):
            lower[rows, j] = 0.1
        self.L, self.U = sp.csc_matrix(lower), sp.identity(len(below), format="csc")
        self.perm_r = self.perm_c = np.arange(len(below))


@pytest.mark.parametrize(
    "below, closed",
    [
        ([[1, 3], [2, 3], [3], []], True),
        ([[1, 3], [2], [3], []], False),  # 3 is in S_0 but not in S_1, its parent's
        ([[1, 2], [3], [4], [4], []], False),  # 2, in S_0, is a leaf: no column's parent
    ],
    ids=["closed", "row-off-the-parent", "leaf-row"],
)
def test_selected_inversion_refuses_a_pattern_not_closed_along_the_tree(below, closed):
    factor = GroundedLU.__new__(GroundedLU)
    factor._lu = _Factor(below)
    if closed:
        lower = factor._lu.L.toarray()
        expected = np.diagonal(np.linalg.inv(lower @ lower.T))
        assert factor.inverse_diagonal() == pytest.approx(expected, rel=1e-12)
    else:
        with pytest.raises(InvariantError):
            factor.inverse_diagonal()


# -- total_resistance_after (Woodbury) ----------------------------------------------


def _grown(graph: Graph, edges) -> Graph:
    after = graph.copy()
    for a, b in edges:
        after.insert_edge(int(a), int(b))
    return after


@pytest.mark.parametrize(
    "graph",
    [
        path_graph(14),
        star_graph(12),
        cycle_graph(15),
        generate("ba", {"n": 300, "m_attach": 3, "m0": 3}, seed=2),
        generate("ws", {"n": 200, "degree": 4, "rewire_prob": 0.0}, seed=3),
        random_connected(150, 0.05, seed=4),
    ],
    ids=["path14", "star12", "cycle15", "ba300", "ws200", "er150"],
)
@pytest.mark.parametrize("k", [1, 3, 8])
def test_total_resistance_after_matches_grown_graph(graph, k):
    non_edges = graph.non_edges()
    edges = non_edges[np.random.default_rng(k).choice(len(non_edges), k, replace=False)]
    (after,) = total_resistance_after(graph, total_resistance(graph), [edges])
    grown = _grown(graph, edges)
    assert after == pytest.approx(total_resistance(grown), rel=1e-9)
    if graph.n <= 20:
        assert after == pytest.approx(oracles.total_resistance(grown), rel=1e-9)


def test_total_resistance_after_block_equals_one_set_at_a_time():
    # one solve for every set, as a local batch calls it; sets may share edges
    g = generate("ba", {"n": 120, "m_attach": 2, "m0": 2}, seed=5)
    non_edges = g.non_edges()
    rng = np.random.default_rng(0)
    sets = [non_edges[rng.choice(len(non_edges), k, replace=False)] for k in (2, 2, 5, 1)] + [non_edges[:2]] * 2
    r_total = total_resistance(g)
    block = total_resistance_after(g, r_total, sets)
    for edges, after in zip(sets, block):
        assert after == pytest.approx(total_resistance_after(g, r_total, [edges])[0], rel=1e-12)
        assert after == pytest.approx(total_resistance(_grown(g, edges)), rel=1e-9)


def test_total_resistance_after_unattainable_tolerance_raises():
    g = generate("ba", {"n": 120, "m_attach": 3, "m0": 3}, seed=6)
    edges = g.non_edges()[:3]
    with pytest.raises(SolverError) as err:
        total_resistance_after(g, total_resistance(g), [edges], 1e-300)
    assert np.isfinite(err.value.achieved_residual) and err.value.achieved_residual > 1e-300


def test_total_resistance_after_indefinite_inner_matrix_raises(monkeypatch):
    # X = -B makes I + B^T X = I - B^T B indefinite (its diagonal is -1)
    monkeypatch.setattr(linalg, "solve", lambda graph, rhs, config: -rhs)
    g = path_graph(6)
    with pytest.raises(SolverError, match="I \\+ B\\^T X"):
        total_resistance_after(g, total_resistance(g), [[(0, 2), (3, 5)]])


# -- gain_exact -------------------------------------------------------------------


def test_gain_p3(p3):
    state = DenseState.compute(p3)
    assert gain_exact(state, 0, 2) == pytest.approx(2.0, abs=1e-9)


def test_gain_rejects_existing_edge_and_loop(k3, p3):
    state = DenseState.compute(k3)
    with pytest.raises(InvariantError):
        gain_exact(state, 0, 1)
    with pytest.raises(InvariantError):
        gain_exact(DenseState.compute(p3), 1, 1)


@pytest.mark.parametrize("a,b", [(-1, 3), (3, -1), (7, 1), (1, 5), (-5, 0)])
def test_gains_reject_vertex_ids_out_of_range(a, b):
    # a path on 5 vertices plus (1, 3): -1 would read vertex 4, and key 8 = 1*5 + 3 aliases the edge (1, 3)
    g = path_graph(5)
    g.insert_edge(1, 3)
    with pytest.raises(InvariantError):
        true_gain(g, a, b)
    for state in (DenseState.compute(g), ColumnCache(g)):
        with pytest.raises(InvariantError):
            gain_exact(state, a, b)


def test_dense_gain_reads_either_order_of_a_pair():
    # Q keeps only its upper triangle, so the scalar entry point orders the pair before the read
    g = random_connected(30, 0.2, seed=5)
    state = DenseState.compute(g)
    for a, b in oracles.all_non_edges(g)[:10]:
        assert gain_exact(state, b, a) == gain_exact(state, a, b) > 0


def test_gain_c4_matches_brute(c4):
    state = DenseState.compute(c4)
    assert gain_exact(state, 0, 2) == pytest.approx(oracles.gain_brute(c4, 0, 2), rel=1e-9)


def test_gain_matches_brute_on_random_graphs():
    for seed in (21, 22, 23, 24, 25):
        g = random_connected(30, 0.2, seed=seed)
        state = DenseState.compute(g)
        for a, b in oracles.all_non_edges(g):
            assert gain_exact(state, a, b) == pytest.approx(
                oracles.gain_brute(g, a, b), rel=1e-6
            )


def test_true_gain_matches_dense_route():
    g = random_connected(40, 0.12, seed=31)
    state = DenseState.compute(g)
    a, b = oracles.all_non_edges(g)[0]
    assert true_gain(g, a, b) == pytest.approx(gain_exact(state, a, b), rel=1e-6)


def test_true_gain_is_a_python_float():
    g = random_connected(40, 0.12, seed=31)
    a, b = oracles.all_non_edges(g)[0]
    assert type(true_gain(g, a, b)) is float


def test_lpinv_difference_matches_dense_columns():
    g = random_connected(40, 0.12, seed=31)
    lpinv = pseudoinverse_dense(g)
    for a, b in [(0, 7), (12, 3), (39, 20)]:
        v = solve_lpinv_difference(g, a, b, 1e-10)
        assert np.allclose(v, lpinv[:, a] - lpinv[:, b], atol=1e-8)


# -- Sherman-Morrison update ------------------------------------------------------


def test_sm_p3_insertion(p3):
    p = pseudoinverse_dense(p3)
    updated = sherman_morrison_update(p, 0, 2)
    assert np.trace(updated) == pytest.approx(2.0 / 3.0, abs=1e-10)


def test_sm_single_update_matches_fresh():
    g = random_connected(50, 0.2, seed=41)
    p = pseudoinverse_dense(g)
    a, b = oracles.all_non_edges(g)[3]
    g2 = g.copy()
    g2.insert_edge(a, b)
    assert np.max(np.abs(sherman_morrison_update(p, a, b) - pseudoinverse_dense(g2))) <= 1e-8


def test_sm_chained_20_updates():
    rng = np.random.default_rng(7)
    g = random_connected(50, 0.2, seed=42)
    p = pseudoinverse_dense(g)
    for _ in range(20):
        non_edges = oracles.all_non_edges(g)
        a, b = non_edges[rng.integers(len(non_edges))]
        p = sherman_morrison_update(p, a, b)
        g.insert_edge(a, b)
    assert np.max(np.abs(p - pseudoinverse_dense(g))) <= 1e-6


def test_dense_state_rayleigh_monotone():
    g = random_connected(30, 0.15, seed=51)
    state = DenseState.compute(g)
    before = g.n * np.trace(state.block)
    for a, b in oracles.all_non_edges(g)[:5]:
        g.insert_edge(a, b)
        state.apply_insertion(a, b)
        after = g.n * np.trace(state.block)
        assert after < before
        before = after


def test_dense_state_square_tracks_fresh_pseudoinverse_in_place():
    # criterion 2's chain: after every in-place update, Q's kept upper triangle matches
    # the square of a fresh pseudoinverse, and P and Q keep their buffers
    g = generate("er", {"n": 50, "p": 0.2}, seed=42)
    state = DenseState.compute(g)
    p, q = state.block, state.square
    rng = np.random.default_rng(7)
    for _ in range(100):
        non_edges = oracles.all_non_edges(g)
        a, b = non_edges[rng.integers(len(non_edges))]
        g.insert_edge(a, b)
        state.apply_insertion(a, b)
        fresh = pseudoinverse_dense(g)
        square = fresh @ fresh
        assert np.max(np.abs(np.triu(state.square) - np.triu(square))) <= 1e-9 * np.max(np.abs(square))
        assert np.max(np.abs(state.block - fresh)) <= 1e-9 * np.max(np.abs(fresh))
    assert np.shares_memory(state.block, p) and np.shares_memory(state.square, q)
    assert state.round == g.round


@pytest.mark.parametrize("n", [150, 250])
@pytest.mark.parametrize("model", ["ba", "ws"])
def test_dense_state_keeps_the_upper_triangle_of_the_square(model, n):
    # dsyrk forms Q's upper triangle and dsyr2 updates it from columns read off that triangle
    params = {"n": n, "m_attach": 3, "m0": 3} if model == "ba" else {"n": n, "degree": 6, "rewire_prob": 0.05}
    g = generate(model, params, seed=2)
    state = DenseState.compute(g)
    rng = np.random.default_rng(n)
    for inserted in range(6):
        if inserted in (0, 1, 5):
            fresh = pseudoinverse_dense(g)
            square = fresh @ fresh
            assert np.max(np.abs(np.triu(state.square) - np.triu(square))) <= 1e-12 * np.max(np.abs(square))
        pairs = g.non_edges()
        a, b = pairs[rng.integers(len(pairs))].tolist()
        g.insert_edge(a, b)
        state.apply_insertion(a, b)


@pytest.mark.parametrize(
    "model,params",
    [("ba", {"n": 80, "m_attach": 3, "m0": 3}), ("ws", {"n": 80, "degree": 6, "rewire_prob": 0.05})],
)
def test_dense_gains_equal_the_gram_path_of_every_column(model, params):
    # the O(1) reads of Q and P against the Gram identity on a column cache
    # holding the same P, before and after insertions brought to both
    g = generate(model, params, seed=3)
    dense = DenseState.compute(g)
    cache = ColumnCache(g)
    cache.block, cache.slot = dense.block.copy(), np.arange(g.n)
    rng = np.random.default_rng(5)
    for _ in range(3):
        pairs = g.non_edges()
        from_dense, from_cache = dense.gains(pairs), cache.gains(pairs)
        assert np.max(np.abs(from_dense - from_cache) / from_cache) <= 1e-12
        a, b = pairs[rng.integers(len(pairs))].tolist()
        g.insert_edge(a, b)
        dense.apply_insertion(a, b)
        cache.note_insertion(a, b)


# -- refresh_column and the column cache -------------------------------------------


def _insert(g, cache, a, b):
    """Insert {a,b}, storing both endpoint columns first, and bring the cache across."""
    cache.columns(np.array([a, b]))
    g.insert_edge(a, b)
    cache.note_insertion(a, b)


def test_refresh_p3_one_insertion(p3):
    cache = ColumnCache(p3)
    cache.column(1)
    _insert(p3, cache, 0, 2)
    k3 = complete_graph(3)
    for v in range(3):
        assert np.allclose(cache.column(v), solve_lpinv_column(k3, v), atol=1e-6)


def test_refresh_three_rounds_matches_fresh_solve():
    g = random_connected(50, 0.15, seed=61)
    cache = ColumnCache(g)
    cache.column(5)
    rng = np.random.default_rng(62)
    for _ in range(3):
        non_edges = oracles.all_non_edges(g)
        _insert(g, cache, *non_edges[rng.integers(len(non_edges))])
    fresh = solve_lpinv_column(g, 5)
    assert np.max(np.abs(cache.column(5) - fresh)) <= 1e-5


from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_refresh_chain_matches_fresh_solve_property(data):
    # arbitrary insertion sequences: a column stored before them and brought
    # forward by every insertion must agree with a fresh solve on the final graph
    seed = data.draw(st.integers(0, 10_000))
    g = random_connected(16, 0.35, seed=seed)
    steps = data.draw(st.integers(1, 4))
    cache = ColumnCache(g)
    tracked = data.draw(st.integers(0, g.n - 1))
    cache.column(tracked)
    for _ in range(steps):
        non_edges = oracles.all_non_edges(g)
        if not non_edges:
            break
        _insert(g, cache, *non_edges[data.draw(st.integers(0, len(non_edges) - 1))])
    fresh = solve_lpinv_column(g, tracked)
    assert np.max(np.abs(cache.column(tracked) - fresh)) <= 1e-5


def test_refresh_block_equals_per_column_updates():
    g = random_connected(40, 0.15, seed=63)
    block = solve_lpinv_columns(g, [0, 3, 7, 11, 20])
    a, b = 3, 20
    updated = refresh_column(block, block[:, 1], block[:, 4], a, b)
    for j in range(block.shape[1]):
        single = refresh_column(block[:, j], block[:, 1], block[:, 4], a, b)
        assert np.array_equal(updated[:, j], single)


def test_refresh_full_matrix_is_sherman_morrison():
    g = random_connected(30, 0.2, seed=64)
    p = pseudoinverse_dense(g)
    a, b = oracles.all_non_edges(g)[5]
    assert np.array_equal(refresh_column(p, p[:, a], p[:, b], a, b), sherman_morrison_update(p, a, b))


def test_column_cache_solver_error_leaves_cache_usable(monkeypatch):
    g = random_connected(30, 0.2, seed=65)
    cache = ColumnCache(g)
    cache.columns(np.array([1, 2]))

    def failing(*args, **kwargs):
        raise SolverError("forced failure", 1.0)

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "solve_lpinv_columns", failing)
        with pytest.raises(SolverError):
            cache.columns(np.array([1, 4, 6]))
    assert cache.solve_count == 2
    assert list(np.flatnonzero(cache.slot >= 0)) == [1, 2]
    cols = cache.columns(np.array([4, 1, 6]))
    for j, v in enumerate((4, 1, 6)):
        assert np.allclose(cols[:, j], solve_lpinv_column(g, v), atol=1e-6)


def test_column_cache_unstored_endpoint_raises():
    g = path_graph(5)
    cache = ColumnCache(g)
    cache.column(0)
    g.insert_edge(0, 4)
    with pytest.raises(StaleStateError):
        cache.note_insertion(0, 4)


def test_column_cache_solve_out_of_sync_raises():
    g = path_graph(5)
    cache = ColumnCache(g)
    cache.column(0)
    g.insert_edge(0, 4)
    with pytest.raises(StaleStateError):
        cache.column(2)


def test_column_cache_refreshes_on_demand():
    g = random_connected(30, 0.2, seed=71)
    cache = ColumnCache(g)
    cache.column(3)
    first_solves = cache.solve_count
    cache.column(3)
    assert cache.solve_count == first_solves
    a, b = oracles.all_non_edges(g)[0]
    cache.column(a), cache.column(b)
    g.insert_edge(a, b)
    cache.note_insertion(a, b)
    refreshed = cache.column(3)
    assert cache.solve_count == first_solves + 2  # refresh, not re-solve
    assert np.allclose(refreshed, solve_lpinv_column(g, 3), atol=1e-5)
