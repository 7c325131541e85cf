"""Exact small-instance oracles, kept independent of the production code paths.

These exist to verify the fast implementations on graphs small enough for
brute force: the pseudoinverse is built from a full eigendecomposition (not
the (L + J/n)^(-1) identity the production path uses), gains are measured as
differences of independently computed total resistances, spanning trees are
enumerated outright, and the greedy baseline re-evaluates every candidate
from scratch each round.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .graphs import Graph, canonical_edge

_EIG_ZERO_TOL = 1e-9


def pinv_eig(graph: Graph) -> np.ndarray:
    """Pseudoinverse via eigendecomposition: sum of u_i u_i^T / lambda_i over lambda_i > 0."""
    vals, vecs = np.linalg.eigh(graph.laplacian_dense())
    inv = np.zeros_like(vals)
    keep = vals > _EIG_ZERO_TOL * max(1.0, float(vals[-1]))
    inv[keep] = 1.0 / vals[keep]
    return (vecs * inv) @ vecs.T


def resistance_pairsum(graph: Graph) -> float:
    """Total resistance as the explicit sum of R(a,b) over all vertex pairs."""
    p = pinv_eig(graph)
    d = np.diag(p)
    total = 0.0
    for a in range(graph.n):
        for b in range(a + 1, graph.n):
            total += d[a] + d[b] - 2.0 * p[a, b]
    return total


def total_resistance(graph: Graph) -> float:
    return graph.n * float(np.trace(pinv_eig(graph)))


def gain_brute(graph: Graph, a: int, b: int) -> float:
    """R(G) - R(G + {a,b}) from two independent pseudoinversions."""
    after = graph.copy()
    after.insert_edge(a, b)
    return total_resistance(graph) - total_resistance(after)


def all_non_edges(graph: Graph) -> list[tuple[int, int]]:
    return [
        (a, b) for a in range(graph.n) for b in range(a + 1, graph.n) if not graph.has_edge(a, b)
    ]


def greedy_naive(graph: Graph, k: int, focus: int | None = None) -> list[tuple[int, int]]:
    """Full re-evaluation greedy: per round, brute-force every non-edge, or every (focus, b), insert the best.

    Ties break toward the lexicographically smallest canonical pair, matching
    the production tie-break so sequences are comparable.
    """
    g = graph.copy()
    picked: list[tuple[int, int]] = []
    for _ in range(k):
        base = total_resistance(g)
        best = None
        best_gain = -np.inf
        candidates = all_non_edges(g) if focus is None else [canonical_edge(focus, b) for b in g.non_neighbors(focus)]
        for a, b in candidates:
            after = g.copy()
            after.insert_edge(a, b)
            gain = base - total_resistance(after)
            if gain > best_gain or (gain == best_gain and (a, b) < best):
                best = (a, b)
                best_gain = gain
        if best is None:
            break
        picked.append(best)
        g.insert_edge(*best)
    return picked


def greedy_naive_local(graph: Graph, focus: int, k: int) -> list[tuple[int, int]]:
    """Focus-node variant of :func:`greedy_naive`: candidates are (focus, b) only."""
    return greedy_naive(graph, k, focus)


# -- spanning-tree enumeration (tiny graphs only) ------------------------------


def spanning_trees(graph: Graph) -> list[frozenset[tuple[int, int]]]:
    """All spanning trees as frozensets of canonical edges (feasible for n <= ~10)."""
    edges = list(graph.edges())
    n = graph.n
    trees = []
    for subset in combinations(edges, n - 1):
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if acyclic:
            trees.append(frozenset(subset))
    return trees


def spanning_tree_count(graph: Graph) -> int:
    """Kirchhoff's matrix-tree count: determinant of any Laplacian cofactor."""
    lap = graph.laplacian_dense()
    minor = lap[1:, 1:]
    return int(round(float(np.linalg.det(minor))))
