"""Uniform spanning trees and the paper's UST estimate of diag(pseudoinverse): a reference, which no run calls.

Sampling uses Wilson's cycle popping over a block of trees at once: every
non-root vertex of every tree draws a random arrow to a neighbour, and round
by round every vertex on a cycle of arrows draws a fresh one; the arrows left
when no cycle remains are the parent array of a uniform spanning forest of
the root set, whatever order the cycles are popped in (Wilson 1996; Propp and
Wilson 1998). One root yields USTs; the ends {a,b} of an edge e yield uniform
two-tree forests, which e joins into a uniform draw from the spanning trees
containing e. Blocks hold at most ``_BLOCK_ELEMENTS`` (trees x vertices)
entries, which bounds the working memory independently of the number of trees.

The diagonal estimate rests on two facts.  First, the resistance R(u,v)
equals the expected signed number of times the path u->v of a UST traverses
the edges of one fixed u->v path, counted along that fixed path with +1 when
tree path and fixed path agree in direction and -1 when they oppose; we use
BFS-tree paths from a pivot u.  Second, one solved pseudoinverse column at
the pivot converts resistances into diagonal entries:

    diag[v] = R(u,v) - P[u,u] + 2 P[v,u].

A block of trees is aggregated with array passes: Euler intervals of every
tree come from one pointer-jumping depth pass plus one pass per tree level,
and the signed counts take one vector pass per BFS depth.

After an edge {a,b} is inserted, ``approx_update_diag`` moves the estimate
by the exact rank-one term of the Sherman-Morrison identity: it solves the
new graph's L v' = e_a - e_b and subtracts v'*v' / (1 - R'),
R' = v'[a] - v'[b], which equals the term v*v / (1 + R) that runs read off
the solve v = P (e_a - e_b) on the graph before the insertion. No trees are
drawn for an update; the fixed-edge sampler serves the sampling checks only.

A block draws the arrows of each round from one generator at once, so the
trees of a seeded run depend on the block layout as well as on the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, DisconnectedError, InvariantError, SolverError, StaleStateError
from .graphs import Graph, assert_connected, bfs_parents, canonical_edge
from .linalg import (
    RESIDUAL_TOL,
    RunningDiagonal,
    rank_one_diag_step,
    solve_lpinv_columns,
    solve_lpinv_difference,
)

# arrows drawn per block at most; each is one step of a Wilson walk
_WALK_STEP_GUARD = 10**9
# trees x vertices per block: bounds the block's working arrays
# (a few int32 arrays for the popping, tens of bytes per entry for the aggregation)
_BLOCK_ELEMENTS = 1 << 18


class SpanningTree:
    """Spanning tree as a parent-pointer array (parent[root] == -1)."""

    __slots__ = ("parent", "root")

    def __init__(self, parent: list[int], root: int):
        self.parent = parent
        self.root = root

    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            canonical_edge(v, p) for v, p in enumerate(self.parent) if p >= 0
        )

    def check_spanning(self, graph: Graph) -> None:
        """Verify the tree spans the graph and uses only graph edges (test hook)."""
        n = graph.n
        if len(self.parent) != n:
            raise InvariantError("tree size does not match graph")
        seen = 0
        for v, p in enumerate(self.parent):
            if p < 0:
                continue
            seen += 1
            if not graph.has_edge(v, p):
                raise InvariantError(f"tree edge ({v},{p}) not in graph")
        if seen != n - 1:
            raise InvariantError(f"tree has {seen} edges, expected {n - 1}")
        rooted = self.rooted_at(self.root)  # raises if cyclic / disconnected
        if len(rooted.order) != n:
            raise InvariantError("tree does not span all vertices")

    def rooted_at(self, pivot: int) -> "RootedTree":
        """Re-rooted view with Euler intervals (preorder entry/exit positions)."""
        parent = list(self.parent)
        prev, v = -1, pivot
        for _ in range(len(parent)):  # reverse the parent chain from the pivot up
            if v < 0:
                break
            parent[v], prev, v = prev, v, parent[v]
        else:
            if v >= 0:
                raise InvariantError("parent pointers contain a cycle")
        tin, tout, root = _euler_intervals(np.asarray([parent], dtype=np.int32))
        reached = np.flatnonzero(root[0] == pivot)
        order = reached[np.argsort(tin[0, reached], kind="stable")]
        return RootedTree(parent, tin[0].tolist(), tout[0].tolist(), order.tolist())


@dataclass
class RootedTree:
    parent: list[int]
    tin: list[int]
    tout: list[int]
    order: list[int]


class BfsTree:
    """Deterministic BFS tree from a pivot (sorted adjacency -> unique parents).

    ``levels[j]`` holds, for every vertex v at BFS depth > j, the arrays
    (v, c, p): c is the ancestor of v at distance j and p = parent[c], so
    level j lists the (j+1)-th edge (p, c) of each BFS path, counted from v.
    """

    __slots__ = ("pivot", "parent", "levels")

    def __init__(self, graph: Graph, pivot: int):
        self.pivot = pivot
        self.parent = parent = bfs_parents(graph, pivot)
        unreached = np.flatnonzero(parent == -2)
        if unreached.size:
            raise DisconnectedError(pivot, int(unreached[0]))
        vs = np.flatnonzero(parent >= 0).astype(np.int32)  # every vertex but the pivot
        c = vs
        self.levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        while vs.size:
            p = parent[c]
            self.levels.append((vs, c, p))
            deeper = p != pivot
            vs, c = vs[deeper], p[deeper]


# -- cycle popping ---------------------------------------------------------------


def _cycle_pop_block(
    indptr: np.ndarray, indices: np.ndarray, roots: Sequence[int], count: int, rng
) -> np.ndarray:
    """Parent arrays (count x n, int32) of ``count`` uniform spanning forests rooted at ``roots``.

    Every tree of the forest holds one root; entry v is the neighbour v points
    to, -1 at the roots. Every non-root vertex of every forest draws a random
    arrow to a neighbour; then, round by round, every vertex that lies on a
    cycle of arrows draws a fresh one. By Wilson's cycle-popping theorem the
    arrows left when no cycle remains form a uniform forest, whatever order the
    cycles are popped in. A round pointer-doubles the arrows of the still-open
    vertices ceil(log2(n+1)) times, settled vertices absorbing: an open vertex
    whose chain reaches a root settles for good, and the image of the doubling
    over the rest is exactly the set of vertices on a cycle.
    """
    n = len(indptr) - 1
    total = count * n
    deg = np.diff(indptr)
    base = np.arange(count, dtype=np.int32)[:, None] * n
    sink = np.zeros(total, dtype=bool)
    sink[base + np.asarray(roots, dtype=np.int32)] = True
    open_ = np.flatnonzero(~sink).astype(np.int32)
    nxt = np.zeros(total, dtype=np.int32)  # flat index of each vertex's arrow head
    local = np.full(total, -1, dtype=np.int32)  # position among the open vertices, -1 once settled
    doublings = n.bit_length()  # ceil(log2(n+1)): 2^doublings steps outrun any chain of one tree
    popped, drawn = open_, 0
    while popped.size:
        drawn += popped.size  # one arrow is one step of a Wilson walk
        if drawn > _WALK_STEP_GUARD:
            raise SolverError("cycle popping exceeded the step guard; graph too large?")
        v = popped % n
        pick = (rng.random(popped.size) * deg[v]).astype(np.int32)
        nxt[popped] = popped - v + indices[indptr[v] + pick]
        m = open_.size
        local[open_] = np.arange(m, dtype=np.int32)
        jump = np.empty(m + 1, dtype=np.int32)
        np.take(local, nxt[open_], out=jump[:m])
        jump[m] = -1  # index -1 reads this slot, so settled vertices absorb
        for _ in range(doublings):
            jump = np.take(jump, jump)  # faster than fancy indexing for int32 indices
        settle = jump[:m] < 0
        local[open_[settle]] = -1
        on_cycle = np.zeros(m, dtype=bool)
        on_cycle[jump[:m][~settle]] = True
        popped = open_[on_cycle]
        open_ = open_[~settle]
    parents = nxt.reshape(count, n) - base
    parents[:, roots] = -1
    return parents


def sample_trees(
    graph: Graph, roots: Sequence[int], count: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """``count`` spanning trees in blocks of parent arrays (trees x n, int32, -1 at the root).

    One root r: uniform spanning trees rooted at r. Two roots (a, b), which
    must be adjacent: uniform over the spanning trees that contain e = {a,b}.
    These are the uniform two-tree forests rooted at {a, b}, joined by e; b
    hangs off a, so every tree is rooted at a. The graph must be connected.
    Blocks are drawn lazily from ``rng`` in order.
    """
    if len(roots) not in (1, 2):
        raise ConfigError(f"expected one root or one fixed edge, got roots {tuple(roots)}")
    if len(roots) == 2 and not graph.has_edge(*roots):
        raise InvariantError(f"fixed edge {tuple(roots)} is not in the graph")
    assert_connected(graph)
    indptr, indices = graph.adjacency_arrays()
    per_block = max(1, _BLOCK_ELEMENTS // graph.n)
    for first in range(0, count, per_block):
        parents = _cycle_pop_block(indptr, indices, roots, min(per_block, count - first), rng)
        if len(roots) == 2:
            parents[:, roots[1]] = roots[0]
        yield parents


def sample_ust(graph: Graph, root: int, rng: np.random.Generator) -> SpanningTree:
    """Uniform spanning tree of a connected graph, rooted at ``root``."""
    parents = next(sample_trees(graph, (root,), 1, rng))
    return SpanningTree(parents[0].tolist(), root)


def sample_ust_with_edge(graph: Graph, a: int, b: int, rng: np.random.Generator) -> SpanningTree:
    """Uniform sample from the spanning trees that contain {a,b}, rooted at ``a``."""
    parents = next(sample_trees(graph, (a, b), 1, rng))
    return SpanningTree(parents[0].tolist(), a)


# -- aggregation and the diagonal estimate ---------------------------------------


def _euler_intervals(parents: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Preorder entry ``tin`` and exit ``tout`` of every vertex of every tree.

    ``parents`` is count x n, -1 at roots. Within one tree, v lies in the
    subtree of c (in the tree's own rooting) iff tin[c] <= tin[v] < tout[c].
    Depths come from pointer jumping; subtree sizes accumulate bottom-up and
    entry positions top-down (children in vertex order), one pass per depth.
    The third array holds each vertex's root, or -1 where the parent chain
    runs into a cycle; tin and tout are meaningful only where it is >= 0.
    """
    count, n = parents.shape
    total = count * n
    key_dtype = np.int16 if n < 2**15 - 1 else np.int32  # int16 keys sort by radix
    flat = parents.reshape(-1)
    child = flat >= 0
    own = np.arange(total, dtype=np.int32)
    # flat parent index (own[::n] is each tree's offset); roots point to themselves
    par = np.where(child, (parents + own[::n, None]).reshape(-1), own)

    depth = child.astype(np.int32)
    anc = par
    for _ in range(max(1, n.bit_length())):
        if not child[anc].any():
            break
        depth += depth[anc]
        anc = anc[anc]
    spans = ~child[anc]
    depth[~spans] = n
    depth = depth.astype(key_dtype)
    by_depth = np.argsort(depth, kind="stable").astype(np.int32)
    bounds = np.concatenate(([0], np.cumsum(np.bincount(depth, minlength=n + 1))))
    height = int(depth[spans].max(initial=0))
    levels = [by_depth[bounds[d] : bounds[d + 1]] for d in range(1, height + 1)]
    del depth

    size = np.ones(total, dtype=np.int32)
    for nodes in reversed(levels):
        np.add.at(size, par[nodes], size[nodes])

    tin = np.zeros(total, dtype=np.int32)
    local_parent = flat.astype(key_dtype)
    for nodes in levels:
        # group each level by parent; a child enters after its earlier siblings' subtrees
        nodes = nodes[np.argsort(local_parent[nodes], kind="stable")]
        up = par[nodes]
        sizes = size[nodes]
        before = np.cumsum(sizes, dtype=np.int64) - sizes
        first = np.ones(len(nodes), dtype=bool)
        first[1:] = up[1:] != up[:-1]
        head = np.maximum.accumulate(np.where(first, np.arange(len(nodes)), 0))
        tin[nodes] = tin[up] + 1 + (before - before[head])
    tout = tin + size
    root = np.where(spans, anc % n, -1)
    return tin.reshape(count, n), tout.reshape(count, n), root.reshape(count, n)


def aggregate_trees(parents: np.ndarray, acc: np.ndarray, bfs: BfsTree) -> np.ndarray:
    """Add every tree's signed path-traversal counts along BFS paths into ``acc``.

    For each vertex v, walk the BFS path pivot->v; a path edge (p,c) oriented
    away from the pivot scores +1 if the tree path pivot->v crosses it in the
    same direction, -1 if opposed, 0 if the tree path avoids it. Trees may be
    rooted anywhere: a tree edge is crossed iff exactly one of pivot and v
    lies below it. One vector pass per BFS depth covers all vertices and trees.
    """
    tin, tout, _ = _euler_intervals(parents)
    piv_in = tin[:, bfs.pivot, None]

    def below(top, t):  # is the vertex with entry time t in the subtree of top?
        return (tin[:, top] <= t) & (t < tout[:, top])

    for vs, c, p in bfs.levels:
        v_in = tin[:, vs]
        down = parents[:, c] == p  # tree edge p->c: c's side lies below
        up = parents[:, p] == c  # tree edge c->p: p's side lies below
        with_path = (down & below(c, v_in)) | (up & below(p, piv_in))
        against = (down & below(c, piv_in)) | (up & below(p, v_in))
        acc[vs] += np.count_nonzero(with_path, axis=0) - np.count_nonzero(against, axis=0)
    return acc


def aggregate_tree(tree: SpanningTree, acc: np.ndarray, bfs: BfsTree) -> np.ndarray:
    """:func:`aggregate_trees` for one tree."""
    return aggregate_trees(np.asarray([tree.parent], dtype=np.int32), acc, bfs)


def _mean_counts(graph: Graph, roots: Sequence[int], count: int, bfs: BfsTree, rng) -> np.ndarray:
    """Average signed BFS-path counts over ``count`` sampled trees."""
    acc = np.zeros(graph.n)
    for parents in sample_trees(graph, roots, count, rng):
        aggregate_trees(parents, acc, bfs)
    return acc / count


def tree_budget(n: int, epsilon: float) -> int:
    """Sample size ceil(ln(n) / epsilon^2), at least 1."""
    if epsilon <= 0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    return max(1, math.ceil(math.log(max(n, 2)) / (epsilon * epsilon)))


def choose_pivot(graph: Graph) -> int:
    """Highest-degree vertex, smallest id on ties (short expected BFS paths)."""
    return int(np.argmax(np.diff(graph.adjacency_arrays()[0])))  # the first maximum


def approx_diag_lpinv(
    graph: Graph,
    epsilon: float,
    rng: np.random.Generator,
    tol: float = RESIDUAL_TOL,
) -> tuple[np.ndarray, RunningDiagonal]:
    """UST-sampled diagonal of the pseudoinverse plus its running form for updates: the paper's estimator. Runs read
    the exact diagonal off ``linalg.lpinv_diagonal`` instead, so this serves only as a test hook.
    Samples ceil(ln(n)/eps^2) trees from the pivot, averages the signed
    BFS-path counts into resistance estimates R(pivot, .), then converts them
    with one pivot column, solved to relative residual ``tol``. The BFS tree from the pivot raises
    :class:`DisconnectedError` on a disconnected graph before any tree is drawn.
    """
    pivot = choose_pivot(graph)
    resistance = _mean_counts(graph, (pivot,), tree_budget(graph.n, epsilon), BfsTree(graph, pivot), rng)
    col = solve_lpinv_columns(graph, [pivot], tol)[:, 0]
    diag = resistance - col[pivot] + 2.0 * col
    return diag, RunningDiagonal(diag=diag, round=graph.round)


def approx_update_diag(graph: Graph, running: RunningDiagonal, tol: float = RESIDUAL_TOL) -> np.ndarray:
    """The diagonal estimate after exactly one edge insertion; ``running`` moves forward in place.

    Solves the new graph's L v = e_a - e_b once, to relative residual ``tol``,
    for the inserted edge's ends a, b, so v = c'_a - c'_b, and takes :func:`rank_one_diag_step` with
    denominator 1 - R', R' = v[a] - v[b]. Runs take the step from the solve
    that reported the edge instead, which saves this one.
    """
    if graph.round != running.round + 1:  # before the solve
        raise StaleStateError(f"running diagonal expects graph round {running.round + 1}, got {graph.round}")
    a, b = graph.insertion_log[-1]
    v = solve_lpinv_difference(graph, a, b, tol)
    return rank_one_diag_step(graph, running, v, 1.0 - (v[a] - v[b]))
