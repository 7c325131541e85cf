"""Shared fixtures: small named graphs, seeded random connected graphs, a reference BFS, tree samples,
and counts of matrix factorisations and of CG solves."""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads, as the benchmark does: threaded BLAS on a small or shared host
# slows the suite's many small dense products and makes its wall-clock bounds depend on the host's load
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from collections import Counter, deque
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from kgrip.graphs import Graph, generate
from kgrip.ust import SpanningTree, sample_trees


def env_with_src() -> dict[str, str]:
    """This process's environment, with this checkout's ``src`` first on PYTHONPATH, for a child Python."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def star_graph(n: int) -> Graph:
    """Star on n vertices: center 0, leaves 1..n-1."""
    return Graph(n, [(0, i) for i in range(1, n)])


def random_connected(n: int, p: float, seed: int) -> Graph:
    """ER graph reduced to its largest component (may have fewer than n vertices)."""
    return generate("er", {"n": n, "p": p}, seed)


def random_tree(n: int, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    return Graph(n, edges)


def reference_bfs(graph: Graph, root: int) -> tuple[list[int], list[int]]:
    """FIFO BFS over the sorted adjacency lists: (parent, depth), parent[root] = -1, unreachable -2 at depth -1."""
    parent, depth = [-2] * graph.n, [-1] * graph.n
    parent[root], depth[root] = -1, 0
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in graph.neighbors(u):
            if parent[w] == -2:
                parent[w], depth[w] = u, depth[u] + 1
                queue.append(w)
    return parent, depth


def sampled_edge_sets(graph: Graph, roots: tuple[int, ...], samples: int, seed: int) -> Counter:
    """Edge sets of ``samples`` trees from the batched sampler, counted by tree.

    One root draws uniform spanning trees; two roots (a, b) draw uniformly
    from the spanning trees containing {a,b}. Each tree's root is read off its
    parent array.
    """
    counts: Counter = Counter()
    for parents in sample_trees(graph, roots, samples, np.random.default_rng(seed)):
        for row in parents:
            parent = row.tolist()
            counts[SpanningTree(parent, parent.index(-1)).edges()] += 1
    return counts


def edge_frequencies(tree_counts: Counter) -> Counter:
    """Number of sampled trees containing each edge."""
    member: Counter = Counter()
    for edges, c in tree_counts.items():
        for e in edges:
            member[e] += c
    return member


@pytest.fixture
def p3() -> Graph:
    return path_graph(3)


@pytest.fixture
def k3() -> Graph:
    return complete_graph(3)


@pytest.fixture
def c4() -> Graph:
    return cycle_graph(4)


@pytest.fixture
def k4() -> Graph:
    return complete_graph(4)


@pytest.fixture
def factorisations(monkeypatch):
    """Orders of the matrices factored so far: ``.dense`` by LAPACK dpotrf, ``.sparse`` by SuperLU."""
    seen = SimpleNamespace(dense=[], sparse=[])
    for module, name, orders in ((lapack, "dpotrf", seen.dense), (spla, "splu", seen.sparse)):

        def spy(matrix, *args, inner=getattr(module, name), orders=orders, **kwargs):
            orders.append(matrix.shape[0])
            return inner(matrix, *args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return seen


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
