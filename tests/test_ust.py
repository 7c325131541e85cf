"""Spanning-tree sampling distributions and the UST diagonal estimator.

Distributional checks draw their trees through the batched sampler and
compare empirical frequencies against full enumeration of spanning trees
(tiny graphs); the batched aggregation is compared with a per-tree loop
reference; the diagonal estimates compare against the eigendecomposition
pseudoinverse oracle.
"""

from __future__ import annotations

import copy
import hashlib
from collections import deque

import numpy as np
import pytest

from kgrip import oracles, ust
from kgrip.errors import ConfigError, DisconnectedError, InvariantError, SolverError, StaleStateError
from kgrip.graphs import Graph, generate
from kgrip.linalg import pseudoinverse_dense, solve_lpinv_column
from kgrip.ust import (
    BfsTree,
    SpanningTree,
    aggregate_tree,
    aggregate_trees,
    approx_diag_lpinv,
    approx_update_diag,
    choose_pivot,
    sample_trees,
    sample_ust,
    sample_ust_with_edge,
    tree_budget,
)

from conftest import (
    complete_graph,
    cycle_graph,
    edge_frequencies,
    path_graph,
    random_connected,
    sampled_edge_sets,
)


def tree_from_edges(n: int, edges, root: int = 0) -> SpanningTree:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * n
    seen = [False] * n
    seen[root] = True
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                parent[w] = u
                queue.append(w)
    return SpanningTree(parent, root)


def reference_aggregate(tree: SpanningTree, acc: np.ndarray, bfs: BfsTree) -> np.ndarray:
    """Per-tree loop: re-root at the pivot by DFS, then walk every BFS path."""
    n = len(tree.parent)
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for v, p in enumerate(tree.parent):
        if p >= 0:
            nbrs[v].append(p)
            nbrs[p].append(v)
    tparent, tin, tout = [-2] * n, [0] * n, [0] * n
    tparent[bfs.pivot] = -1
    clock = 0
    stack = [(bfs.pivot, False)]
    while stack:
        v, done = stack.pop()
        if done:
            tout[v] = clock
            continue
        tin[v] = clock
        clock += 1
        stack.append((v, True))
        for w in nbrs[v]:
            if tparent[w] == -2:
                tparent[w] = v
                stack.append((w, False))
    for v in range(n):
        score, c = 0, v
        while c != bfs.pivot:
            p = bfs.parent[c]
            if tparent[c] == p and tin[c] <= tin[v] < tout[c]:
                score += 1
            elif tparent[p] == c and tin[p] <= tin[v] < tout[p]:
                score -= 1
            c = p
        acc[v] += score
    return acc


# -- sample_ust -------------------------------------------------------------------


def test_ust_uniform_on_triangle(k3):
    trees = oracles.spanning_trees(k3)
    assert len(trees) == oracles.spanning_tree_count(k3) == 3
    samples = 30000
    counts = sampled_edge_sets(k3, (0,), samples, 100)
    assert set(counts) == set(trees)
    for c in counts.values():
        assert abs(c / samples - 1 / 3) <= 0.02


def test_ust_uniform_on_c4(c4):
    trees = oracles.spanning_trees(c4)
    assert len(trees) == 4
    samples = 40000
    counts = sampled_edge_sets(c4, (2,), samples, 101)
    for c in counts.values():
        assert abs(c / samples - 1 / 4) <= 0.02


def test_ust_on_tree_returns_the_tree():
    g = path_graph(6)
    tree = sample_ust(g, 0, np.random.default_rng(5))
    assert tree.edges() == frozenset(g.edges())


def test_ust_samples_are_spanning():
    g = random_connected(25, 0.15, seed=8)
    for stream in np.random.default_rng(9).spawn(20):
        sample_ust(g, 3, stream).check_spanning(g)
    for parents in sample_trees(g, (3,), 200, np.random.default_rng(10)):
        for row in parents:
            assert row[3] == -1
            SpanningTree(row.tolist(), 3).check_spanning(g)


def test_plain_trees_are_pinned():
    # one-root blocks of a ring lattice and of a scale-free graph large enough
    # for two blocks (403 trees per block at n = 650); pinned bit for bit
    digest = hashlib.sha256()
    for model, params, count in (
        ("ws", {"n": 120, "degree": 10, "rewire_prob": 0.01}, 300),
        ("ba", {"n": 650, "m_attach": 3, "m0": 3}, 450),
    ):
        g = generate(model, params, seed=3)
        pivot = choose_pivot(g)
        blocks = list(sample_trees(g, (pivot,), count, np.random.default_rng(8)))
        assert sum(len(b) for b in blocks) == count
        for parents in blocks:
            assert np.all(parents[:, pivot] == -1)
            digest.update(parents.astype("<i4").tobytes())
    assert len(blocks) == 2
    assert digest.hexdigest() == "0b84cf08f8d16b24052d67e8aa731d25bba5eafc16ac89fd085b53d622bd03d9"


def edge_counts(graph: Graph, roots: tuple[int, ...], samples: int, seed: int) -> np.ndarray:
    """n x n counts of the sampled trees holding each edge (a, b), a < b."""
    n = graph.n
    counts = np.zeros(n * n, dtype=np.int64)
    for parents in sample_trees(graph, roots, samples, np.random.default_rng(seed)):
        child = parents >= 0
        v, p = np.broadcast_to(np.arange(n), parents.shape)[child], parents[child]
        counts += np.bincount(np.minimum(v, p) * n + np.maximum(v, p), minlength=n * n)
    return counts.reshape(n, n)


@pytest.mark.parametrize(
    "model,params",
    [("ws", {"n": 40, "degree": 4, "rewire_prob": 0.0}), ("ba", {"n": 40, "m_attach": 2, "m0": 2})],
    ids=["ring40", "ba40"],
)
def test_edge_marginals_match_resistance_over_many_rounds(model, params):
    # a tree holds e with probability R_eff(e); on the ring lattice popping runs
    # about a thousand rounds per block, on the BA graph about 150. Over the 80
    # and 77 edges, |z| <= 4.5 fails a uniform sampler with probability below 1e-3.
    g = generate(model, params, seed=3)
    p = pseudoinverse_dense(g)
    samples = 20000
    counts = edge_counts(g, (choose_pivot(g),), samples, 3)
    for a, b in g.edges():
        r = p[a, a] + p[b, b] - 2 * p[a, b]
        z = (counts[a, b] / samples - r) / np.sqrt(r * (1 - r) / samples)
        assert abs(z) <= 4.5, ((a, b), r, counts[a, b])
    assert counts.sum() == samples * (g.n - 1)


def test_sampler_raises_past_the_step_guard(monkeypatch):
    # every arrow drawn is one Wilson walk step; the first round alone draws 50 x 39
    monkeypatch.setattr(ust, "_WALK_STEP_GUARD", 1000)
    g = generate("ws", {"n": 40, "degree": 4, "rewire_prob": 0.0}, seed=3)
    with pytest.raises(SolverError):
        next(sample_trees(g, (0,), 50, np.random.default_rng(0)))
    monkeypatch.setattr(ust, "_WALK_STEP_GUARD", 10**9)
    assert next(sample_trees(g, (0,), 50, np.random.default_rng(0))).shape == (50, 40)


def test_choose_pivot_takes_the_smallest_id_of_highest_degree():
    assert choose_pivot(cycle_graph(5)) == 0
    assert choose_pivot(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 2), (1, 3)])) == 1


def test_sampler_blocks_cover_the_count(monkeypatch):
    g = random_connected(30, 0.2, seed=11)
    monkeypatch.setattr(ust, "_BLOCK_ELEMENTS", 7 * g.n)
    blocks = list(sample_trees(g, (0,), 30, np.random.default_rng(12)))
    assert [len(b) for b in blocks] == [7, 7, 7, 7, 2]
    for parents in blocks:
        assert parents.shape[1] == g.n and parents.dtype == np.int32


# -- sample_ust_with_edge ------------------------------------------------------------


def test_fixed_edge_uniform_on_triangle(k3):
    qualifying = [t for t in oracles.spanning_trees(k3) if (0, 1) in t]
    assert len(qualifying) == 2
    samples = 20000
    counts = sampled_edge_sets(k3, (0, 1), samples, 102)
    assert all((0, 1) in t for t in counts)
    assert set(counts) == set(qualifying)
    for c in counts.values():
        assert abs(c / samples - 1 / 2) <= 0.02


def test_fixed_edge_uniform_on_k4(k4):
    qualifying = [t for t in oracles.spanning_trees(k4) if (0, 1) in t]
    assert len(qualifying) == 8
    samples = 20000
    counts = sampled_edge_sets(k4, (0, 1), samples, 103)
    assert set(counts) == set(qualifying)
    for c in counts.values():
        assert abs(c / samples - 1 / 8) <= 0.02


def test_fixed_edge_trees_contain_the_edge_and_span():
    g = random_connected(40, 0.12, seed=13)
    a, b = sorted(g.edges())[len(list(g.edges())) // 2]
    for parents in sample_trees(g, (a, b), 300, np.random.default_rng(14)):
        for row in parents:
            parent = row.tolist()
            tree = SpanningTree(parent, parent.index(-1))
            assert (a, b) in tree.edges()
            tree.check_spanning(g)
    tree = sample_ust_with_edge(g, b, a, np.random.default_rng(15))
    assert tree.parent[tree.root] == -1 and tree.parent.count(-1) == 1
    assert (a, b) in tree.edges()
    tree.check_spanning(g)


def assert_uniform(counts, trees, samples: int) -> None:
    """The sample hits exactly ``trees``, with a chi-square statistic within 5 sd of its mean."""
    assert set(counts) == set(trees)
    expected = samples / len(trees)
    chi2 = sum((counts[t] - expected) ** 2 / expected for t in trees)
    dof = len(trees) - 1
    assert chi2 <= dof + 5 * (2 * dof) ** 0.5


def test_fixed_edge_uniform_with_shared_neighbours():
    # 1 and 2 share the neighbours 0 (a hub) and 3, so a walk through either
    # may end at either root
    g = Graph(7, [(0, i) for i in range(1, 7)] + [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6)])
    qualifying = [t for t in oracles.spanning_trees(g) if (1, 2) in t]
    assert len(qualifying) == 136
    samples = 80000
    counts = sampled_edge_sets(g, (1, 2), samples, 105)
    assert_uniform(counts, qualifying, samples)
    for t in qualifying:
        assert abs(counts[t] / samples - 1 / len(qualifying)) <= 0.25 / len(qualifying)


def test_fixed_edge_uniform_on_long_cycles():
    # a 12-cycle with the chord {0,6}: arrows wind round two 7-cycles, so many
    # rounds pop; 41 of the 48 spanning trees hold {2,3}
    g = Graph(12, [(i, (i + 1) % 12) for i in range(12)] + [(0, 6)])
    qualifying = [t for t in oracles.spanning_trees(g) if (2, 3) in t]
    assert len(qualifying) == 41
    samples = 41000
    assert_uniform(sampled_edge_sets(g, (2, 3), samples, 106), qualifying, samples)


@pytest.mark.parametrize("seed", range(6))
def test_fixed_edge_trees_span_rooted_at_first_end(seed):
    g = random_connected(30, 0.15, seed=seed)
    for edge in sorted(g.edges()):
        a, b = edge[::-1] if seed % 2 else edge  # the tree is rooted at the first id
        for parents in sample_trees(g, (a, b), 4, np.random.default_rng(seed)):
            for row in parents:
                assert np.flatnonzero(row == -1).tolist() == [a]
                tree = SpanningTree(row.tolist(), a)
                assert edge in tree.edges()
                tree.check_spanning(g)


def test_fixed_edge_trees_are_pinned():
    # every tree is rooted at 36 with 41 hung off it; these trees are pinned bit for bit
    g = generate("ws", {"n": 120, "degree": 10, "rewire_prob": 0.01}, seed=3)
    digest = hashlib.sha256()
    for parents in sample_trees(g, (36, 41), 300, np.random.default_rng(7)):
        assert np.all(parents[:, 36] == -1) and np.all(parents[:, 41] == 36)
        digest.update(parents.astype("<i4").tobytes())
    assert digest.hexdigest() == "3061b762e0f18a743016ae05e86d21c2c2881e488c39753369cfe26d66d1b8b6"


def test_fixed_edge_on_tree_returns_the_tree():
    g = path_graph(5)
    tree = sample_ust_with_edge(g, 2, 3, np.random.default_rng(6))
    assert tree.edges() == frozenset(g.edges())


def test_fixed_edge_requires_edge(p3):
    with pytest.raises(InvariantError):
        sample_ust_with_edge(p3, 0, 2, np.random.default_rng(0))
    with pytest.raises(InvariantError):
        next(sample_trees(p3, (0, 2), 5, np.random.default_rng(0)))


@pytest.mark.parametrize(
    "graph",
    [Graph(4, [(0, 1), (1, 2)]), Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)])],
    ids=["isolated-vertex", "two-components"],
)
def test_sampler_refuses_disconnected_graphs(graph):
    # an isolated vertex would become a second root; a walk in the other
    # component would never hit the tree
    for roots in ((0,), (0, 1)):
        with pytest.raises(DisconnectedError):
            next(sample_trees(graph, roots, 5, np.random.default_rng(0)))
    with pytest.raises(DisconnectedError):
        sample_ust(graph, 1, np.random.default_rng(0))
    with pytest.raises(DisconnectedError):
        sample_ust_with_edge(graph, 1, 2, np.random.default_rng(0))
    with pytest.raises(DisconnectedError):
        approx_diag_lpinv(graph, 0.5, np.random.default_rng(0))


def test_check_spanning_rejects_non_trees(p3):
    with pytest.raises(InvariantError):
        SpanningTree([-1, 0, 0], 0).check_spanning(p3)  # (2,0) is no edge of P3
    with pytest.raises(InvariantError):
        SpanningTree([-1, 2, 1], 0).check_spanning(p3)  # 1 <-> 2 cycle
    with pytest.raises(InvariantError):
        SpanningTree([-1, 2, 3, 1], 0).check_spanning(complete_graph(4))  # cycle 1->2->3->1


def test_edge_membership_probability_matches_resistance():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
    p = pseudoinverse_dense(g)
    samples = 30000
    member = edge_frequencies(sampled_edge_sets(g, (0,), samples, 104))
    for a, b in g.edges():
        expected = p[a, a] + p[b, b] - 2 * p[a, b]
        assert abs(member[(a, b)] / samples - expected) <= 0.02


# -- aggregate_tree -------------------------------------------------------------------


def test_aggregate_p3_unique_tree(p3):
    bfs = BfsTree(p3, 0)
    acc = np.zeros(3)
    aggregate_tree(tree_from_edges(3, [(0, 1), (1, 2)]), acc, bfs)
    assert acc.tolist() == [0.0, 1.0, 2.0]  # two path edges toward v=2, zero at the pivot


def test_aggregate_triangle_tree_missing_direct_edge(k3):
    # BFS path 0->2 is the direct edge; the tree {01,12} never crosses it
    bfs = BfsTree(k3, 0)
    acc = np.zeros(3)
    aggregate_tree(tree_from_edges(3, [(0, 1), (1, 2)]), acc, bfs)
    assert acc.tolist() == [0.0, 1.0, 0.0]


def test_aggregate_over_all_trees_reproduces_resistance():
    # averaging the signed counts over the full enumeration is exactly Eq.-style
    # resistance, here verified against the pseudoinverse
    for g in (complete_graph(4), cycle_graph(5), Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])):
        pivot = choose_pivot(g)
        bfs = BfsTree(g, pivot)
        trees = oracles.spanning_trees(g)
        acc = np.zeros(g.n)
        for t in trees:
            aggregate_tree(tree_from_edges(g.n, t, root=pivot), acc, bfs)
        mean = acc / len(trees)
        p = pseudoinverse_dense(g)
        for v in range(g.n):
            expected = 0.0 if v == pivot else p[pivot, pivot] + p[v, v] - 2 * p[pivot, v]
            assert mean[v] == pytest.approx(expected, abs=1e-9)


def test_batched_aggregate_matches_loop_on_enumerated_trees():
    # every spanning tree, rooted at every vertex, against every pivot
    for g in (complete_graph(4), cycle_graph(5), Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])):
        trees = oracles.spanning_trees(g)
        for pivot in range(g.n):
            bfs = BfsTree(g, pivot)
            for root in range(g.n):
                rooted = [tree_from_edges(g.n, t, root=root) for t in trees]
                acc = aggregate_trees(np.array([t.parent for t in rooted], dtype=np.int32), np.zeros(g.n), bfs)
                ref = np.zeros(g.n)
                for tree in rooted:
                    single = aggregate_tree(tree, np.zeros(g.n), bfs)
                    assert np.array_equal(single, reference_aggregate(tree, np.zeros(g.n), bfs))
                    reference_aggregate(tree, ref, bfs)
                assert np.array_equal(acc, ref)


def test_batched_aggregate_matches_loop_on_sampled_trees():
    g = random_connected(60, 0.1, seed=59)
    a, b = next(g.edges())
    rng = np.random.default_rng(60)
    for roots in ((choose_pivot(g),), (a, b)):
        for pivot in (choose_pivot(g), 7):
            bfs = BfsTree(g, pivot)
            for parents in sample_trees(g, roots, 150, rng):
                acc = aggregate_trees(parents, np.zeros(g.n), bfs)
                ref = np.zeros(g.n)
                for row in parents:
                    reference_aggregate(SpanningTree(row.tolist(), roots[0]), ref, bfs)
                assert np.array_equal(acc, ref)


def test_rooted_at_reroots_with_euler_intervals():
    g = random_connected(30, 0.15, seed=61)
    tree = sample_ust(g, 0, np.random.default_rng(62))
    rooted = tree.rooted_at(5)
    assert rooted.parent[5] == -1 and rooted.order[0] == 5 and len(rooted.order) == g.n
    assert sorted(rooted.order) == list(range(g.n))
    assert SpanningTree(rooted.parent, 5).edges() == tree.edges()
    for v in range(g.n):
        assert rooted.order[rooted.tin[v]] == v
        p = rooted.parent[v]
        if p >= 0:  # a child's interval nests inside its parent's
            assert rooted.tin[p] < rooted.tin[v] and rooted.tout[v] <= rooted.tout[p]


# -- approx_diag_lpinv -------------------------------------------------------------------


def test_diag_estimate_p3(p3):
    diag, _ = approx_diag_lpinv(p3, 0.1, np.random.default_rng(200))
    assert choose_pivot(p3) == 1  # highest degree
    assert np.allclose(diag, [5 / 9, 2 / 9, 5 / 9])  # unique tree, exact


def test_diag_estimate_k2_exact():
    diag, _ = approx_diag_lpinv(complete_graph(2), 0.3, np.random.default_rng(201))
    assert np.allclose(diag, [0.25, 0.25], atol=1e-6)


def test_diag_estimate_er200(monkeypatch):
    g = generate("er", {"n": 200, "p": 0.05}, seed=42)
    eps = 0.1
    counts = []
    sample = ust.sample_trees

    def spy(graph, roots, count, rng):
        counts.append(count)
        return sample(graph, roots, count, rng)

    monkeypatch.setattr(ust, "sample_trees", spy)
    diag, _ = approx_diag_lpinv(g, eps, np.random.default_rng(42))
    assert counts == [tree_budget(g.n, eps)]
    exact = np.diag(oracles.pinv_eig(g))
    assert np.max(np.abs(diag - exact)) <= 2 * eps


def test_tree_budget_formula():
    assert tree_budget(200, 0.1) == 530  # ceil(ln(200)/0.01)
    with pytest.raises(ConfigError):
        tree_budget(10, 0.0)


# -- approx_update_diag -------------------------------------------------------------------


@pytest.mark.parametrize(
    "graph",
    [
        path_graph(30),
        generate("ws", {"n": 120, "degree": 10, "rewire_prob": 0.01}, seed=3),
        generate("ba", {"n": 150, "m_attach": 2, "m0": 2}, seed=5),
    ],
    ids=["path30", "ws120", "ba150"],
)
def test_update_is_exact_from_an_exact_start(graph):
    # the rank-one correction carries an exact diagonal forward exactly
    g = graph.copy()
    _, repo = approx_diag_lpinv(g, 0.5, np.random.default_rng(61))
    repo.diag = np.diag(oracles.pinv_eig(g))
    picker = np.random.default_rng(62)
    for _ in range(5):
        non_edges = oracles.all_non_edges(g)
        g.insert_edge(*non_edges[picker.integers(len(non_edges))])
        diag = approx_update_diag(g, repo)
        assert np.max(np.abs(diag - np.diag(oracles.pinv_eig(g)))) <= 1e-6


def test_update_er200_accuracy():
    g = generate("er", {"n": 200, "p": 0.05}, seed=42)
    eps = 0.1
    diag, repo = approx_diag_lpinv(g, eps, np.random.default_rng(42))
    g.insert_edge(*oracles.all_non_edges(g)[17])
    diag = approx_update_diag(g, repo)
    exact = np.diag(oracles.pinv_eig(g))
    assert np.max(np.abs(diag - exact)) <= 3 * eps


def test_update_round_bookkeeping():
    g = random_connected(40, 0.15, seed=44)
    eps = 0.2
    diag, repo = approx_diag_lpinv(g, eps, np.random.default_rng(45))
    for i in range(4):
        g.insert_edge(*oracles.all_non_edges(g)[i])
        diag = approx_update_diag(g, repo)
        assert repo.round == g.round


def test_diag_pivot_entry_matches_solved_column():
    g = random_connected(60, 0.1, seed=57)
    diag, repo = approx_diag_lpinv(g, 0.2, np.random.default_rng(58))
    pivot = choose_pivot(g)
    col = solve_lpinv_column(g, pivot)
    assert diag[pivot] == pytest.approx(col[pivot], abs=1e-6)
    assert np.all(np.isfinite(diag))


def test_update_rejects_round_skew():
    g = random_connected(20, 0.2, seed=47)
    diag, repo = approx_diag_lpinv(g, 0.3, np.random.default_rng(48))
    g.insert_edge(*oracles.all_non_edges(g)[0])
    g.insert_edge(*oracles.all_non_edges(g)[0])
    with pytest.raises(StaleStateError):
        approx_update_diag(g, repo)


def test_repository_copy_updates_independently():
    # per-focus runs deep-copy the repository; an update of the copy leaves the original as it was
    g = random_connected(30, 0.2, seed=59)
    diag, repo = approx_diag_lpinv(g, 0.3, np.random.default_rng(60))
    clone, work = copy.deepcopy(repo), g.copy()
    work.insert_edge(*oracles.all_non_edges(work)[0])
    updated = approx_update_diag(work, clone)
    assert clone.round == repo.round + 1
    assert np.array_equal(repo.diag, diag) and not np.array_equal(updated, diag)


def test_repository_diag_close_to_scratch():
    g = random_connected(100, 0.08, seed=53)
    eps = 0.1
    diag, repo = approx_diag_lpinv(g, eps, np.random.default_rng(54))
    for i in range(3):
        g.insert_edge(*oracles.all_non_edges(g)[2 * i])
        diag = approx_update_diag(g, repo)
    scratch, _ = approx_diag_lpinv(g, eps, np.random.default_rng(56))
    assert np.max(np.abs(diag - scratch)) <= 4 * eps
