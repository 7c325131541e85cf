"""Sketch fidelity: identity-hook exactness, JL distortion bounds, gain ranking."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.stats import spearmanr

from kgrip import oracles
from kgrip.errors import ConfigError, StaleStateError
from kgrip.graphs import DENSE_SOLVE_MAX_N, DenseCholesky, Graph, GrownFactor, generate
from kgrip.jlt import _incidence, _projections, _square_root, build_sketch, default_sketch_width, gain_jlt
from kgrip.linalg import DenseState, gain_exact, pseudoinverse_dense

from conftest import path_graph, star_graph

ETA = 0.55


def exact_resistance_matrix(g: Graph) -> np.ndarray:
    p = pseudoinverse_dense(g)
    d = np.diag(p)
    return d[:, None] + d[None, :] - 2 * p


# -- incidence -----------------------------------------------------------------------


def _incidence_loop(graph: Graph) -> sp.csr_matrix:
    """Reference: one row per edge of ``graph.edges()``, built in a Python loop."""
    rows, cols, vals = [], [], []
    for e, (u, v) in enumerate(graph.edges()):
        rows.extend((e, e))
        cols.extend((u, v))
        vals.extend((-1.0, 1.0))
    return sp.csr_matrix((vals, (rows, cols)), shape=(graph.m, graph.n))


@pytest.mark.parametrize(
    "graph",
    [
        path_graph(7),
        star_graph(9),
        generate("ba", {"n": 80, "m_attach": 3, "m0": 3}, seed=1),
        generate("ws", {"n": 60, "degree": 4, "rewire_prob": 0.1}, seed=2),
        generate("er", {"n": 50, "p": 0.1}, seed=3),
    ],
    ids=["path7", "star9", "ba80", "ws60", "er50"],
)
def test_incidence_matches_edge_loop(graph):
    rng = np.random.default_rng(graph.n)
    for _ in range(3):  # before and after insertions
        got, want = _incidence(graph), _incidence_loop(graph)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.toarray(), want.toarray())
        free = graph.non_edges()
        graph.insert_edge(*free[rng.integers(len(free))].tolist())


# -- identity projection hook -----------------------------------------------------


def test_identity_hook_exact_on_p3(p3):
    sk = build_sketch(p3, 3, np.random.default_rng(0), projection="identity")
    assert sk.resistance_sq(0, 2) == pytest.approx(2.0, abs=1e-6)
    assert sk.biharmonic_sq(0, 2) == pytest.approx(2.0, abs=1e-6)
    assert gain_jlt(sk, 0, 2) == pytest.approx(2.0, abs=1e-6)


def test_identity_hook_after_refresh_triangle(p3):
    p3.insert_edge(0, 2)  # now a triangle
    sk = build_sketch(p3, 3, np.random.default_rng(1), projection="identity")
    assert sk.round == 1
    assert sk.resistance_sq(0, 1) == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_identity_hook_all_pairs_random_graph():
    g = generate("er", {"n": 24, "p": 0.2}, seed=4)
    sk = build_sketch(g, 1, np.random.default_rng(2), projection="identity")
    r = exact_resistance_matrix(g)
    p = pseudoinverse_dense(g)
    for a in range(g.n):
        for b in range(a + 1, g.n):
            assert sk.resistance_sq(a, b) == pytest.approx(r[a, b], abs=1e-6)
            exact_b2 = float((p[:, a] - p[:, b]) @ (p[:, a] - p[:, b]))
            assert sk.biharmonic_sq(a, b) == pytest.approx(exact_b2, abs=1e-6)


# -- square roots and sign projections ----------------------------------------------


def _grown_dense_graph() -> Graph:
    """n <= DENSE_SOLVE_MAX_N, with a dense factor grown by three insertions: the root is U over three edge rows."""
    g = generate("ba", {"n": 60, "m_attach": 2, "m0": 2}, seed=31)
    g.factor()
    for pair in g.non_edges()[[5, 400, 900]]:
        g.insert_edge(*pair.tolist())
    return g


def _sparse_graph() -> Graph:
    """n > DENSE_SOLVE_MAX_N: the root is the incidence."""
    return generate("ba", {"n": 240, "m_attach": 2, "m0": 2}, seed=32)


_ROOT_GRAPHS = pytest.mark.parametrize("make", [_grown_dense_graph, _sparse_graph], ids=["grown-dense", "incidence"])


@_ROOT_GRAPHS
def test_square_root_squares_to_the_laplacian(make):
    g = make()
    root = _square_root(g)
    lap = g.laplacian_dense()
    if g.n <= DENSE_SOLVE_MAX_N:
        factor = g.factor()
        assert isinstance(factor, GrownFactor) and isinstance(factor.base, DenseCholesky)
        assert root.shape == (g.n + len(factor.ends), g.n)
        lap = lap + 1.0 / g.n
    else:
        assert root.shape == (g.m, g.n)
    gram = root.T @ root
    assert np.allclose(gram.toarray() if sp.issparse(gram) else gram, lap, rtol=0.0, atol=1e-12)


@_ROOT_GRAPHS
def test_identity_hook_exact_through_each_root(make):
    g = make()
    sk = build_sketch(g, 1, np.random.default_rng(0), projection="identity")
    r = exact_resistance_matrix(g)
    p = pseudoinverse_dense(g)
    for a, b in [(0, 1), (2, g.n - 1), (7, 40), *g.insertion_log]:
        assert sk.resistance_sq(a, b) == pytest.approx(r[a, b], abs=1e-6)
        assert sk.biharmonic_sq(a, b) == pytest.approx(float((p[:, a] - p[:, b]) @ (p[:, a] - p[:, b])), abs=1e-6)


@_ROOT_GRAPHS
def test_resistance_sketch_unbiased_through_each_root(make):
    # the mean of ||resist[a] - resist[b]||^2 over fresh sketches is R(a,b): within 3 standard errors of it
    g = make()
    r = exact_resistance_matrix(g)
    pairs = np.array([(0, 1), (2, g.n - 1), (7, 40), *g.insertion_log])
    rng = np.random.default_rng(33)
    sketches = 2000
    draws = np.empty((sketches, len(pairs)))
    for i in range(sketches):
        sk = build_sketch(g, 4, rng)
        d = sk.resist[pairs[:, 0]] - sk.resist[pairs[:, 1]]
        draws[i] = np.einsum("ij,ij->i", d, d)
    error = np.abs(draws.mean(axis=0) - r[pairs[:, 0], pairs[:, 1]])
    assert np.all(error <= 3 * draws.std(axis=0, ddof=1) / math.sqrt(sketches))


def test_projection_entries_are_signs():
    q, n, r = 7, 30, 45
    p, h, width = _projections(n, r, q, np.random.default_rng(34), "signs")
    assert width == q and p.shape == (q, n) and h.shape == (q, r)
    for block in (p, h):
        assert set(np.unique(block)) == {-1 / math.sqrt(q), 1 / math.sqrt(q)}
    assert abs(float(np.concatenate([p.ravel(), h.ravel()]).sum()) * math.sqrt(q)) <= 4 * math.sqrt(q * (n + r))


# -- sign sketches ------------------------------------------------------------------


def test_zero_width_rejected(p3):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ConfigError):
        build_sketch(p3, 0, rng)
    assert rng.bit_generator.state == state and not p3.has_factor  # nothing drawn or factored


def test_resistance_fidelity_er300():
    g = generate("er", {"n": 300, "p": 0.05}, seed=1)
    q = math.ceil(4 * math.log(g.n))
    sk = build_sketch(g, q, np.random.default_rng(7))
    r = exact_resistance_matrix(g)
    rng = np.random.default_rng(11)
    ok = 0
    trials = 1000
    for _ in range(trials):
        a, b = rng.choice(g.n, 2, replace=False)
        est = sk.resistance_sq(a, b)
        if (1 - ETA) * r[a, b] <= est <= (1 + ETA) * r[a, b]:
            ok += 1
    assert ok / trials >= 0.90


def test_gain_rank_correlation_er300():
    g = generate("er", {"n": 300, "p": 0.05}, seed=1)
    q = math.ceil(4 * math.log(g.n))
    sk = build_sketch(g, q, np.random.default_rng(9))
    state = DenseState.compute(g)
    non_edges = oracles.all_non_edges(g)
    idx = np.random.default_rng(13).choice(len(non_edges), 500, replace=False)
    approx = [gain_jlt(sk, *non_edges[i]) for i in idx]
    exact = [gain_exact(state, *non_edges[i]) for i in idx]
    assert spearmanr(approx, exact).statistic >= 0.8


def test_lemma_distortion_bound_small_graphs():
    # q above the 24 ln(n)/eta^2 threshold: at least a (1 - 1/n) fraction of all
    # pairwise sketched biharmonic distances inside (1 +- eta)
    for n, p_edge, seed in [(60, 0.1, 2), (100, 0.08, 3)]:
        g = generate("er", {"n": n, "p": p_edge}, seed=seed)
        q = math.ceil(24 * math.log(g.n) / ETA**2)
        sk = build_sketch(g, q, np.random.default_rng(20 + seed))
        pinv = pseudoinverse_dense(g)
        total = ok = 0
        for a in range(g.n):
            for b in range(a + 1, g.n):
                exact = float((pinv[:, a] - pinv[:, b]) @ (pinv[:, a] - pinv[:, b]))
                total += 1
                if (1 - ETA) * exact <= sk.biharmonic_sq(a, b) <= (1 + ETA) * exact:
                    ok += 1
        assert ok / total >= 1 - 1 / g.n


def test_gain_jlt_symmetric():
    g = generate("er", {"n": 40, "p": 0.15}, seed=6)
    sk = build_sketch(g, 8, np.random.default_rng(3))
    for a, b in oracles.all_non_edges(g)[:20]:
        assert gain_jlt(sk, a, b) == gain_jlt(sk, b, a)


def test_gain_jlt_same_vertex_is_zero(p3):
    sk = build_sketch(p3, 4, np.random.default_rng(4))
    assert gain_jlt(sk, 1, 1) == 0.0


def test_stale_sketch_rejected(p3):
    sk = build_sketch(p3, 4, np.random.default_rng(5))
    p3.insert_edge(0, 2)
    with pytest.raises(StaleStateError):
        gain_jlt(sk, 0, 1, current_round=p3.round)


def test_refresh_draws_new_projections():
    g = path_graph(6)
    a = build_sketch(g, 6, np.random.default_rng(10))
    b = build_sketch(g, 6, np.random.default_rng(11))
    assert np.max(np.abs(a.biharm - b.biharm)) > 0
    assert np.max(np.abs(a.resist - b.resist)) > 0


def test_refresh_keeps_fidelity():
    g = generate("er", {"n": 150, "p": 0.07}, seed=8)
    g.insert_edge(*oracles.all_non_edges(g)[0])
    q = math.ceil(4 * math.log(g.n))
    sk = build_sketch(g, q, np.random.default_rng(16))
    assert sk.round == 1
    r = exact_resistance_matrix(g)
    rng = np.random.default_rng(14)
    ok = 0
    trials = 400
    for _ in range(trials):
        a, b = rng.choice(g.n, 2, replace=False)
        est = sk.resistance_sq(a, b)
        if (1 - ETA) * r[a, b] <= est <= (1 + ETA) * r[a, b]:
            ok += 1
    assert ok / trials >= 0.90


def test_default_width():
    assert default_sketch_width(300) == math.ceil(4 * math.log(300))
    assert default_sketch_width(2) == 4  # floor kicks in
