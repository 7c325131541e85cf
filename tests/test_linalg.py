"""Pseudoinverse algebra against eigendecomposition and brute-force oracles."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from kgrip import oracles
from kgrip.errors import ConfigError, InvariantError, SolverError, StaleStateError
from kgrip.graphs import Graph, bfs_parents, generate
from kgrip.greedy import Heuristic, run_kgrip
from kgrip.linalg import (
    ColumnCache,
    DenseState,
    SolverConfig,
    biharmonic_sq,
    effective_resistance,
    gain_exact,
    pseudoinverse_dense,
    refresh_column,
    sherman_morrison_update,
    solve,
    solve_lpinv_column,
    solve_lpinv_columns,
    total_resistance,
    true_gain,
)

from conftest import complete_graph, path_graph, random_connected, random_tree, star_graph


@pytest.fixture
def cg_calls(monkeypatch):
    """Number of scipy CG calls made so far, read as ``cg_calls[0]``."""
    calls = [0]
    cg = spla.cg

    def counted(*args, **kwargs):
        calls[0] += 1
        return cg(*args, **kwargs)

    monkeypatch.setattr(spla, "cg", counted)
    return calls


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


def test_dense_pinv_identities():
    g = random_connected(35, 0.2, seed=11)
    lap = g.laplacian_dense()
    p = pseudoinverse_dense(g)
    n = g.n
    centering = np.eye(n) - np.ones((n, n)) / n
    assert np.max(np.abs(lap @ p - centering)) < 1e-7
    assert np.max(np.abs(lap @ p @ lap - lap)) < 1e-7
    assert np.max(np.abs(p - p.T)) < 1e-8
    assert np.max(np.abs(p.sum(axis=1))) < 1e-8 * n


def test_dense_pinv_cap():
    with pytest.raises(ConfigError):
        pseudoinverse_dense(path_graph(30), cap=10)


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
    g = random_connected(80, 0.08, seed=2)
    with pytest.raises(SolverError) as err:
        solve_lpinv_column(g, 0, SolverConfig(residual_tol=1e-12, max_iters=1))
    assert err.value.achieved_residual is not None
    assert err.value.achieved_residual > 1e-12


# -- block solves: grounded factor and per-column CG -------------------------------

_SOLVE_GRAPHS = {
    "ba": lambda: generate("ba", {"n": 200, "m_attach": 3, "m0": 3}, seed=2),
    "ws": lambda: generate("ws", {"n": 150, "degree": 6, "rewire_prob": 0.05}, seed=3),
    "er": lambda: random_connected(150, 0.05, seed=4),
    "path": lambda: path_graph(60),
    "star": lambda: star_graph(50),
}


@pytest.mark.parametrize("s", [1, 2, 16, 40])
@pytest.mark.parametrize("family", sorted(_SOLVE_GRAPHS))
def test_factor_and_cg_paths_match_dense_columns(family, s, cg_calls):
    g = _SOLVE_GRAPHS[family]()
    vertices = np.random.default_rng(s).choice(g.n, s, replace=False)
    expected = pseudoinverse_dense(g)[:, vertices]
    tight = SolverConfig(residual_tol=1e-10)
    # one column at a time on a graph without a factor runs CG
    plain = g.copy()
    by_cg = np.column_stack([solve_lpinv_column(plain, v, tight) for v in vertices])
    assert cg_calls[0] == s and not plain.has_grounded_factor
    # a graph holding a factor solves every block through it
    g.grounded_factor()
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


@pytest.mark.parametrize(
    "n, s, factor", [(300, 16, True), (300, 15, False), (1000, 16, True), (1001, 16, False)]
)
def test_factor_selection_rule(n, s, factor, cg_calls):
    # the factor is built at n <= 1000 with s >= 16 columns, then kept for the round
    g = generate("ba", {"n": n, "m_attach": 2, "m0": 2}, seed=5)
    solve_lpinv_columns(g, list(range(s)))
    assert g.has_grounded_factor is factor
    assert cg_calls[0] == (0 if factor else s)
    solve_lpinv_column(g, s)
    assert cg_calls[0] == (0 if factor else s + 1)


def test_factor_path_unattainable_tolerance_raises():
    g = generate("ba", {"n": 120, "m_attach": 3, "m0": 3}, seed=6)
    g.grounded_factor()
    with pytest.raises(SolverError) as err:
        solve_lpinv_columns(g, [0, 5, 9], SolverConfig(residual_tol=1e-300))
    assert np.isfinite(err.value.achieved_residual) and err.value.achieved_residual > 1e-300
    assert "CG" not in str(err.value)


@pytest.mark.filterwarnings("error")  # the singular solve reports through SolverError alone
@pytest.mark.parametrize("s", [1, 16])
@pytest.mark.parametrize("n, split", [(6, 3), (40, 13), (60, 30)])
def test_solve_on_disconnected_graph_raises(n, split, s):
    # two paths: s = 16 takes the factor path, s = 1 per-column CG
    edges = [(i, i + 1) for i in range(split - 1)] + [(i, i + 1) for i in range(split, n - 1)]
    g = Graph(n, edges)
    with pytest.raises(SolverError):
        solve_lpinv_columns(g, [v % n for v in range(s)])


def test_colstoch_k1_solves_its_columns_by_factor(cg_calls):
    # the pivot column is one CG solve; the sampled columns and the report share one factor
    g = generate("ba", {"n": 650, "m_attach": 3, "m0": 3}, seed=1)
    run_kgrip(g, 1, Heuristic.COL_STOCH, seed=7)
    assert cg_calls[0] <= 1


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
    assert effective_resistance(state.column(0), state.column(2), 0, 2) == pytest.approx(2.0)


def test_resistance_k3(k3):
    state = DenseState.compute(k3)
    for a, b in [(0, 1), (0, 2), (1, 2)]:
        r = effective_resistance(state.column(a), state.column(b), a, b)
        assert r == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_resistance_star_leaves():
    g = star_graph(4)
    state = DenseState.compute(g)
    assert effective_resistance(state.column(1), state.column(2), 1, 2) == pytest.approx(2.0)


def test_resistance_same_vertex_rejected(p3):
    state = DenseState.compute(p3)
    with pytest.raises(InvariantError):
        effective_resistance(state.column(1), state.column(1), 1, 1)


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
            _, depth = bfs_parents(g, root)
            r_row = d[root] + d - 2 * p[root]
            for v in range(root + 1, n):
                assert abs(r_row[v] - depth[v]) < 1e-9


def test_biharmonic_p3(p3):
    state = DenseState.compute(p3)
    assert biharmonic_sq(state.column(0), state.column(2)) == pytest.approx(2.0, abs=1e-9)


def test_biharmonic_identical_columns(p3):
    state = DenseState.compute(p3)
    assert biharmonic_sq(state.column(1), state.column(1)) == 0.0


def test_biharmonic_k2():
    state = DenseState.compute(complete_graph(2))
    assert biharmonic_sq(state.column(0), state.column(1)) == pytest.approx(0.5, abs=1e-12)


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
    with pytest.raises(SolverError):
        total_resistance(Graph(n, edges))


def test_total_resistance_cap():
    with pytest.raises(ConfigError):
        total_resistance(path_graph(30), cap=10)


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
    before = total_resistance(state)
    for a, b in oracles.all_non_edges(g)[:5]:
        g.insert_edge(a, b)
        state.apply_insertion(a, b)
        after = total_resistance(state)
        assert after < before
        before = after


# -- refresh_column ----------------------------------------------------------------


def test_refresh_identity_when_current(p3):
    col = solve_lpinv_column(p3, 1)
    assert np.array_equal(refresh_column(col, 0, []), col)


def test_refresh_p3_one_insertion(p3):
    cache = ColumnCache(p3)
    col1 = cache.column(1).copy()
    cache.column(0), cache.column(2)
    p3.insert_edge(0, 2)
    cache.note_insertion(0, 2)
    refreshed = refresh_column(col1, 0, cache.records)
    k3 = complete_graph(3)
    assert np.allclose(refreshed, solve_lpinv_column(k3, 1), atol=1e-6)


def test_refresh_three_rounds_matches_fresh_solve():
    g = random_connected(50, 0.15, seed=61)
    cache = ColumnCache(g)
    stale = cache.column(5).copy()
    rng = np.random.default_rng(62)
    for _ in range(3):
        non_edges = oracles.all_non_edges(g)
        a, b = non_edges[rng.integers(len(non_edges))]
        cache.column(a), cache.column(b)
        g.insert_edge(a, b)
        cache.note_insertion(a, b)
    refreshed = refresh_column(stale, 0, cache.records)
    fresh = solve_lpinv_column(g, 5)
    assert np.max(np.abs(refreshed - fresh)) <= 1e-5


def test_refresh_missing_records_errors():
    g = path_graph(4)
    col = solve_lpinv_column(g, 0)
    with pytest.raises(StaleStateError):
        refresh_column(col, 0, [], target_round=2)


from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_refresh_chain_matches_fresh_solve_property(data):
    # arbitrary insertion sequences: a column refreshed through the recorded
    # chain must agree with a fresh solve on the final graph
    seed = data.draw(st.integers(0, 10_000))
    g = random_connected(16, 0.35, seed=seed)
    steps = data.draw(st.integers(1, 4))
    cache = ColumnCache(g)
    tracked = data.draw(st.integers(0, g.n - 1))
    stale = cache.column(tracked).copy()
    for _ in range(steps):
        non_edges = oracles.all_non_edges(g)
        if not non_edges:
            break
        a, b = non_edges[data.draw(st.integers(0, len(non_edges) - 1))]
        cache.column(a), cache.column(b)
        g.insert_edge(a, b)
        cache.note_insertion(a, b)
    refreshed = refresh_column(stale, 0, cache.records)
    fresh = solve_lpinv_column(g, tracked)
    assert np.max(np.abs(refreshed - fresh)) <= 1e-5


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
