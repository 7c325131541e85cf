"""Uniform spanning trees and the UST-based estimate of diag(pseudoinverse).

Sampling uses Wilson's loop-erased random walks, run in lockstep for a block
of trees at once. Every tree of the block keeps its own in-tree marks, its
own last-exit pointers ``nxt`` and its own start pointer; one numpy pass per
step moves every walker of the block over the graph's CSR arrays. A walk
from the start vertex runs until it hits its tree; retracing from the start
along the last-exit pointers then follows exactly the loop-erased path, so
loop erasure needs no explicit cycle removal. The plain rooted form yields
whole-graph USTs; the two-root form grows a forest rooted at a and b (walks
stop on either component) and joins the components by the edge {a,b}, which
yields a tree drawn uniformly from the spanning trees containing that edge.
Blocks hold at most ``_BLOCK_ELEMENTS`` (trees x vertices) entries, which
bounds the working memory independently of the number of trees.

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

After an edge {a,b} is inserted, the tree sample is not re-drawn from
scratch.  With w = R_new(a,b) (the resistance of the inserted edge in the new
graph), a UST of the new graph contains {a,b} with probability w, so the new
estimate mixes freshly sampled trees that contain {a,b} (weight w) with the
running estimate (weight 1-w).  Only the running resistance vector and the
per-round weights are kept, not the trees.

A block draws its walk steps from one generator in lockstep order, so the
trees of a seeded run depend on the block layout as well as on the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, InvariantError, SolverError, StaleStateError
from .graphs import Graph, assert_connected, bfs_parents, canonical_edge
from .linalg import DEFAULT_SOLVER, SolverConfig, effective_resistance, solve_lpinv_columns

_WALK_STEP_GUARD = 10**9
# trees x vertices per lockstep block: bounds the block's working arrays
# (a few bytes per entry for the walk, tens for the aggregation)
_BLOCK_ELEMENTS = 1 << 18
# vertices a seeking tree inspects per lockstep step when looking for its next start
_SEEK_WINDOW = 16

_WALK, _RETRACE, _SEEK, _DONE = 0, 1, 2, 3


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

    __slots__ = ("pivot", "parent", "depth", "levels")

    def __init__(self, graph: Graph, pivot: int):
        self.pivot = pivot
        self.parent, self.depth = bfs_parents(graph, pivot)
        if any(p == -2 for p in self.parent):
            raise InvariantError("BFS tree requires a connected graph")
        parent = np.asarray(self.parent, dtype=np.int32)
        vs = np.flatnonzero(np.asarray(self.depth) > 0).astype(np.int32)
        c = vs
        self.levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        while vs.size:
            p = parent[c]
            self.levels.append((vs, c, p))
            deeper = p != pivot
            vs, c = vs[deeper], p[deeper]


# -- lockstep Wilson sampling -------------------------------------------------------


def _wilson_block(
    indptr: np.ndarray, indices: np.ndarray, roots: Sequence[int], count: int, rng
) -> np.ndarray:
    """Parent arrays (count x n, int32) of ``count`` forests grown from ``roots``.

    Each tree seeks its next start vertex in index order, walks from it until
    the walk hits the tree (recording last exits in ``nxt``), then retraces
    the loop-erased path from the start, one vertex per step. All trees of
    the block take their step together; a tree's phase only decides which
    pass moves it.
    """
    n = len(indptr) - 1
    deg = np.diff(indptr)
    base = np.arange(count, dtype=np.int64) * n
    in_tree = np.zeros(count * n, dtype=bool)
    for r in roots:
        in_tree[base + r] = True
    nxt = np.zeros(count * n, dtype=np.int32)
    parent = np.full(count * n, -1, dtype=np.int32)
    start = np.zeros(count, dtype=np.int64)
    cur = np.zeros(count, dtype=np.int64)
    phase = np.full(count, _SEEK, dtype=np.int8)
    window = np.arange(_SEEK_WINDOW)
    steps = 0
    while True:
        retrace = np.flatnonzero(phase == _RETRACE)
        if retrace.size:
            at = base[retrace] + cur[retrace]
            in_tree[at] = True
            to = nxt[at]
            parent[at] = to
            cur[retrace] = to
            joined = retrace[in_tree[base[retrace] + to]]
            phase[joined] = _SEEK
            start[joined] += 1  # the start vertex itself is in the tree now

        seek = np.flatnonzero(phase == _SEEK)
        if seek.size:
            cand = start[seek, None] + window
            free = cand < n
            free[free] = ~in_tree[(base[seek, None] + cand)[free]]
            found = free.any(axis=1)
            go = seek[found]
            start[go] += free[found].argmax(axis=1)
            cur[go] = start[go]
            phase[go] = _WALK
            later = seek[~found]
            start[later] += _SEEK_WINDOW
            phase[later[start[later] >= n]] = _DONE

        walk = np.flatnonzero(phase == _WALK)
        if walk.size:
            u = cur[walk]
            to = indices[indptr[u] + (rng.random(walk.size) * deg[u]).astype(np.int64)]
            nxt[base[walk] + u] = to
            cur[walk] = to
            hit = walk[in_tree[base[walk] + to]]
            phase[hit] = _RETRACE
            cur[hit] = start[hit]
            steps += 1
            if steps > _WALK_STEP_GUARD:
                raise SolverError("random walk exceeded the step guard; graph too large?")
        elif not retrace.size and not seek.size:
            return parent.reshape(count, n)


def sample_trees(
    graph: Graph, roots: Sequence[int], count: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """``count`` spanning trees in blocks of parent arrays (trees x n, int32).

    One root r: uniform spanning trees rooted at r. Two roots (a, b), which
    must be adjacent: uniform over the spanning trees that contain {a,b},
    rooted at a. Blocks are drawn lazily from ``rng`` in order.
    """
    if len(roots) == 2:
        a, b = roots
        if not graph.has_edge(a, b):
            raise InvariantError(f"fixed edge ({a},{b}) is not in the graph")
    elif len(roots) != 1:
        raise ConfigError(f"expected one root or one fixed edge, got roots {tuple(roots)}")
    indptr, indices = graph.adjacency_arrays()
    per_block = max(1, _BLOCK_ELEMENTS // graph.n)
    for first in range(0, count, per_block):
        parents = _wilson_block(indptr, indices, roots, min(per_block, count - first), rng)
        if len(roots) == 2:
            parents[:, roots[1]] = roots[0]  # join the two components by the fixed edge
        yield parents


def sample_ust(graph: Graph, root: int, rng: np.random.Generator) -> SpanningTree:
    """Uniform spanning tree of a connected graph, rooted at ``root``."""
    parents = next(sample_trees(graph, (root,), 1, rng))
    return SpanningTree(parents[0].tolist(), root)


def sample_ust_with_edge(graph: Graph, a: int, b: int, rng: np.random.Generator) -> SpanningTree:
    """Uniform sample from the spanning trees that contain the edge {a,b}, rooted at a."""
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


@dataclass
class DiagEstimate:
    """Per-vertex estimate of the pseudoinverse diagonal."""

    values: np.ndarray
    epsilon: float


@dataclass
class UstRepository:
    """Running UST resistance estimate with its round weights (dynamic updates).

    Trees sampled at round i entered ``resistance`` with weight ``weights[i]``
    (the weights sum to one); ``total`` is the tree budget of a full
    resample. ``resistance[v]`` estimates R(pivot, v) for the graph of the
    latest round. The trees themselves are not kept.
    """

    pivot: int
    bfs: BfsTree
    total: int
    weights: list[float]
    resistance: np.ndarray
    base_round: int
    update_count: int = 0
    max_rounds: int = 64

    def expected_graph_round(self) -> int:
        return self.base_round + self.update_count


def tree_budget(n: int, epsilon: float, c_ust: float = 1.0) -> int:
    """Sample size ceil(c_ust * ln(n) / epsilon^2), at least 1."""
    if epsilon <= 0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    return max(1, math.ceil(c_ust * math.log(max(n, 2)) / (epsilon * epsilon)))


def choose_pivot(graph: Graph) -> int:
    """Highest-degree vertex, smallest id on ties (short expected BFS paths)."""
    return max(range(graph.n), key=lambda v: (graph.degree(v), -v))


def approx_diag_lpinv(
    graph: Graph,
    epsilon: float,
    rng: np.random.Generator,
    config: SolverConfig = DEFAULT_SOLVER,
    c_ust: float = 1.0,
) -> tuple[DiagEstimate, UstRepository]:
    """UST-sampled diagonal of the pseudoinverse plus the repository for updates.

    Samples ceil(c_ust*ln(n)/eps^2) trees from the pivot, averages the signed
    BFS-path counts into resistance estimates R(pivot, .), then converts them
    with one solved pivot column.
    """
    assert_connected(graph)
    pivot = choose_pivot(graph)
    tau = tree_budget(graph.n, epsilon, c_ust)
    bfs = BfsTree(graph, pivot)
    resistance = _mean_counts(graph, (pivot,), tau, bfs, rng)
    col = solve_lpinv_columns(graph, [pivot], config)[:, 0]
    diag = resistance - col[pivot] + 2.0 * col
    repo = UstRepository(
        pivot=pivot,
        bfs=bfs,
        total=tau,
        weights=[1.0],
        resistance=resistance,
        base_round=graph.round,
    )
    return DiagEstimate(diag, epsilon), repo


def approx_update_diag(
    graph: Graph,
    repo: UstRepository,
    diag: DiagEstimate,
    rng: np.random.Generator,
    config: SolverConfig = DEFAULT_SOLVER,
) -> tuple[DiagEstimate, UstRepository]:
    """Refresh the diagonal estimate after exactly one edge insertion.

    Solves the new graph's columns at a, b and the pivot as one block, reads
    the edge's resistance w off the first two, downweights every stored round
    by (1-w), samples ceil(w*total) trees forced to contain the new edge, and
    mixes the resistance estimates before converting them with the pivot column.
    """
    if graph.round != repo.expected_graph_round() + 1:
        raise StaleStateError(
            f"repository expects graph round {repo.expected_graph_round() + 1}, got {graph.round}"
        )
    a, b = graph.insertion_log[-1]

    cols = solve_lpinv_columns(graph, [a, b, repo.pivot], config)
    omega = effective_resistance(cols[:, 0], cols[:, 1], a, b)  # equals R_old/(1+R_old) in (0,1)

    repo.weights = [w * (1.0 - omega) for w in repo.weights] + [omega]
    fresh = max(1, math.ceil(omega * repo.total))
    counts = _mean_counts(graph, (a, b), fresh, repo.bfs, rng)
    repo.resistance = omega * counts + (1.0 - omega) * repo.resistance
    repo.update_count += 1
    while len(repo.weights) > repo.max_rounds:
        repo.weights[:2] = [repo.weights[0] + repo.weights[1]]

    col_u = cols[:, 2]
    values = repo.resistance - col_u[repo.pivot] + 2.0 * col_u
    return DiagEstimate(values, diag.epsilon), repo
