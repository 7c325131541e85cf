"""Graph representation, generators, edge-list I/O, and connectivity checks.

Vertices are dense 0-based integers. Graphs are simple, undirected, and
unweighted; every solver in this package additionally requires connectivity.
A graph stores its edges once, as the ascending keys a*n + b of its pairs
a < b; its CSR Laplacian and every other view derive from them. Edge
insertions are round-stamped: round r means r edges have been inserted since
construction.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from typing import IO, Iterable, Iterator

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .errors import ConfigError, DisconnectedError, InvariantError, ParseError, SolverError

Edge = tuple[int, int]
# up to this n the graph's factor is a dense Cholesky of L + J/n: a column by it beats CG and SuperLU
DENSE_SOLVE_MAX_N = 200


def in_sorted(held: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Whether each query lies in the ascending ``held``. Ascending queries cost far less: numpy starts each binary
    search where the previous one ended, so the searches walk ``held`` in memory order."""
    if not len(held):
        return np.zeros(np.shape(queries), dtype=bool)
    pos = np.searchsorted(held, queries)
    return held[np.minimum(pos, len(held) - 1, out=pos)] == queries


def canonical_edge(a: int, b: int) -> Edge:
    """Order a vertex pair as (min, max); rejects self-loops."""
    if a == b:
        raise InvariantError(f"self-loop ({a},{a}) is not a valid edge")
    return (a, b) if a < b else (b, a)


class DenseCholesky:
    """Dense LAPACK Cholesky factor ``upper`` (dpotrf: U^T U, lower triangle zeroed) of the SPD matrix ``name``,
    in place in the F-ordered view ``matrix.T`` of a C-ordered ``matrix`` (no copy)."""

    def __init__(self, matrix: np.ndarray, name: str = "L + J/n"):
        self.upper, info = lapack.dpotrf(matrix.T, overwrite_a=1)
        if info != 0:
            raise SolverError(f"Cholesky factorisation of {name} failed (LAPACK info {info})")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return lapack.dpotrs(self.upper, rhs)[0]


class GroundedLU:
    """Sparse LU factor P L_g P^T = L D L^T (L unit lower, D = diag(U)) of the grounded Laplacian L_g = L[1:,1:].

    A symmetric fill-reducing ordering without pivoting keeps it nearly as sparse as a Cholesky factor (COLAMD
    stores ~10x more on BA graphs). A singular block (a disconnected graph) raises :class:`SolverError`.
    """

    def __init__(self, lap: sp.csr_matrix):
        try:
            self._lu = spla.splu(
                lap[1:, 1:].tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
            )
        except RuntimeError as exc:  # exactly singular: the graph is disconnected
            raise SolverError(f"factorization of the grounded Laplacian failed: {exc}") from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The solution of L x = rhs with x[0] = 0, for ``rhs`` a vector or block summing to zero."""
        x = np.zeros_like(rhs)
        x[1:] = self._lu.solve(rhs[1:])
        return x

    def inverse_diagonal(self) -> np.ndarray:
        """diag(L_g^-1) by selected inversion (Takahashi, Fagan & Chin 1973), at any fill: at mean degree 40-50 it takes
        2-3.5x the time of the dense form's R^(-1).

        The root block (the trailing columns full below the diagonal) is inverted by dpotri; each column j left of
        it, l_j its entries in the rows S_j below the diagonal (its tree ancestors), takes Z[S_j, j] = -Z[S_j, S_j]
        l_j and Z[j, j] = 1/d_j - l_j^T Z[S_j, j], Z = (L D L^T)^-1: one depth, then the leaves (kept out of the
        dense scratch Z), at a time, in batches of |S_j| within a factor 2 that gather at most n^2/4 entries each."""
        if not np.array_equal(self._lu.perm_r, self._lu.perm_c):
            raise InvariantError("selected inversion needs the symmetric ordering perm_r == perm_c")
        lower, d = self._lu.L, self._lu.U.diagonal()  # CSC, read once
        lower.sort_indices()  # each column's unit diagonal first
        n, ptr, rows, size = len(d), lower.indptr, lower.indices, np.diff(lower.indptr) - 1
        if not d.min() > 0.5 / n:  # a pivot is a conductance to the ground, at least 1/n in a connected graph
            raise SolverError("the grounded Laplacian is singular: the graph is disconnected")
        r = n - int(np.cumprod((size == n - 1 - np.arange(n))[::-1]).sum())  # the root block is [r, n)
        parent = np.where(size[:r] > 0, rows[np.minimum(ptr[:r] + 1, len(rows) - 1)], n)  # min S_j, or n
        depth, up = [0] * r + [-1], np.minimum(parent, r).tolist()
        for j in range(r - 1, -1, -1):
            depth[j] = depth[up[j]] + 1
        leaf = (np.bincount(parent, minlength=n + 1) == 0) & (np.arange(n + 1) < r)
        depth, size = np.where(leaf[:r], r, depth[:r]), size[:r]  # the leaves, last
        order = np.lexsort((size, depth))
        starts = np.flatnonzero(np.diff(depth[order] * n + np.ceil(np.log2(np.maximum(size[order], 1))), prepend=-1))
        counts, width = np.diff(starts, append=r), np.maximum.reduceat(size[order], starts)
        per_col = np.repeat(width, counts)
        col, entry = np.repeat(order, per_col), np.cumsum(per_col) - per_col  # a column's first padded entry
        at = np.arange(len(col)) - np.repeat(entry, per_col)
        pos = np.where(at < size[col], ptr[col] + 1 + at, -1)
        slot = np.where(leaf, -1, np.cumsum(~leaf) - 1)  # Z's index of each column kept and of the padding (n)
        idx, vals, k = slot[np.where(pos < 0, n, rows[pos])], np.where(pos < 0, 0.0, lower.data[pos]), slot[n]
        z, root = np.full((k + 2, k + 2), np.nan), np.sqrt(d[r:])[:, None] * lower[r:, r:].T.toarray()  # D^1/2 L^T
        z[k], z[:, k] = 0.0, 0.0  # padding; NaN unwritten and on leaves' row -1, read only if S_j is not j's ancestors
        inverse = lapack.dpotri(root.T, lower=1, overwrite_c=1)[0]  # the lower triangle
        z[k - n + r : k, k - n + r : k], diag = inverse + np.tril(inverse, -1).T, np.r_[np.empty(r), inverse.diagonal()]
        for first, end, w in zip(starts.tolist(), (starts + counts).tolist(), width.tolist()):
            step = max(1, n * n // (4 * w * w + 1))
            for lo, hi in ((lo, min(lo + step, end)) for lo in range(first, end, step)):
                cols, span = order[lo:hi], slice(entry[lo], entry[lo] + (hi - lo) * w)
                s, l = idx[span].reshape(hi - lo, w), vals[span].reshape(hi - lo, w)
                below = -np.einsum("cij,cj->ci", z[s[:, :, None], s[:, None, :]], l)
                diag[cols] = 1.0 / d[cols] - np.einsum("ci,ci->c", l, below)
                if not leaf[cols[0]]:
                    j = slot[cols]
                    z[s, j[:, None]] = z[j[:, None], s] = below
                    z[j, j] = diag[cols]
        if not np.isfinite(diag).all():
            raise InvariantError("selected inversion needs the factor's pattern closed along the elimination tree")
        return diag[self._lu.perm_c]  # Z's diagonal in the grounded Laplacian's own order


class GrownFactor:
    """A factor ``base`` grown by inserted edges {a,b}, the columns e_a - e_b of B, by the Woodbury identity (Hager
    1989): with X = base.solve(B), it solves y - X (I + B^T X)^(-1) B^T y for y = base.solve(rhs), as the grown
    L + J/n or, with X[0] = 0, grounded Laplacian is the base's plus B B^T."""

    def __init__(self, held: "DenseCholesky | GroundedLU | GrownFactor", a: int, b: int, n: int):
        column = np.zeros((n, 1))
        column[a], column[b] = 1.0, -1.0
        grown = isinstance(held, GrownFactor)
        self.base = held.base if grown else held
        self.ends = np.vstack([held.ends, [(a, b)]]) if grown else np.array([(a, b)])
        self.cols = np.hstack([held.cols, self.base.solve(column)]) if grown else self.base.solve(column)
        self.inner = DenseCholesky(np.eye(len(self.ends)) + self._across(self.cols), "I + B^T X")

    def _across(self, y: np.ndarray) -> np.ndarray:  # B^T y
        return y[self.ends[:, 0]] - y[self.ends[:, 1]]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        y = self.base.solve(rhs)
        return y - self.cols @ self.inner.solve(self._across(y))


class Graph:
    """Undirected simple graph held as one ascending int64 array of edge keys a*n + b, a < b, and an insertion log.

    Every other view derives from the keys through the cached CSR Laplacian. The keys and the round caches (the
    Laplacian and its factor) are built once, never modified in place and shared by copies: an insertion replaces
    the keys and drops the Laplacian of the graph that grows; a factor it holds grows into a :class:`GrownFactor`.
    """

    __slots__ = ("_n", "_keys", "_log", "_lap", "_factor", "_pending")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if n <= 0:
            raise ConfigError("graph needs at least one vertex")
        self._n, self._log, self._lap = int(n), [], None
        a, b = np.sort(np.array([*edges], dtype=np.int64).reshape(-1, 2), axis=1).T  # each edge as (min, max)
        bad = (a == b) | (a < 0) | (b >= n)
        if bad.any():
            raise InvariantError(f"edge ({a[bad][0]},{b[bad][0]}) is a self-loop or out of range for n={n}")
        self._keys = np.sort(a * self._n + b)
        twice = self._keys[1:][self._keys[1:] == self._keys[:-1]]
        if len(twice):
            raise InvariantError(f"edge {divmod(int(twice[0]), self._n)} already present")
        self.clear_solve_record()

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return len(self._keys)

    @property
    def round(self) -> int:
        """Number of edges inserted via :meth:`insert_edge` since construction."""
        return len(self._log)

    @property
    def insertion_log(self) -> list[Edge]:
        return list(self._log)

    def _row(self, v: int) -> np.ndarray:
        """The sorted columns the cached Laplacian stores in row v: v's neighbours and v; v must lie in 0..n-1."""
        if not 0 <= v < self._n:
            raise InvariantError(f"vertex {v} is outside 0..{self._n - 1}")
        lap = self.laplacian()
        return lap.indices[lap.indptr[v] : lap.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return len(self._row(v)) - 1

    def neighbors(self, v: int) -> list[int]:
        return [u for u in self._row(v).tolist() if u != v]

    def has_edge(self, a: int, b: int) -> bool:
        """Whether {a,b} is an edge; False for a == b and for any id outside 0..n-1."""
        n, keys = self._n, self._keys
        if not (0 <= a < n and 0 <= b < n) or a == b:
            return False
        key = a * n + b if a < b else b * n + a
        i = int(keys.searchsorted(key))
        return i < len(keys) and keys.item(i) == key

    def edges(self) -> Iterator[Edge]:
        """Yield each edge once, as (a, b) with a < b, in sorted order."""
        n = self._n
        return (divmod(key, n) for key in self._keys.tolist())

    def non_edge_count(self) -> int:
        return self._n * (self._n - 1) // 2 - self.m

    def non_neighbors(self, v: int) -> list[int]:
        """Vertices u != v with {v,u} not an edge, ascending."""
        free = np.ones(self._n, dtype=bool)
        free[self._row(v)] = False  # v's neighbours and v
        return np.flatnonzero(free).tolist()

    def copy(self) -> "Graph":
        """Same edges, insertion log and round caches."""
        g = Graph.__new__(Graph)
        g._n, g._keys, g._log = self._n, self._keys, list(self._log)
        g._lap, g._factor, g._pending = self._lap, self._factor, list(self._pending)
        return g

    def clear_solve_record(self) -> None:
        """Forget the factor, as if no solve had run on this graph."""
        self._factor: DenseCholesky | GroundedLU | GrownFactor | None = None
        self._pending: list[Edge] = []  # insertions the factor has not grown by yet

    # -- mutation ----------------------------------------------------------

    def insert_edge(self, a: int, b: int) -> None:
        """Insert a new edge and stamp it with the current round; a factor held grows by the edge when next used."""
        a, b = canonical_edge(a, b)
        if not (0 <= a and b < self._n) or self.has_edge(a, b):
            raise InvariantError(f"edge ({a},{b}) is already present or out of range for n={self._n}")
        key = a * self._n + b
        self._keys, self._lap = np.insert(self._keys, np.searchsorted(self._keys, key), key), None
        self._log.append((a, b))
        if self._factor is not None:
            self._pending.append((a, b))

    # -- linear algebra views ----------------------------------------------

    def adjacency_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``indptr`` and ``indices`` (int32, sorted) of the adjacency: the Laplacian's, less the diagonal."""
        lap = self.laplacian()  # its off-diagonal entries are the -1.0s
        return lap.indptr - np.arange(self._n + 1, dtype=np.int32), lap.indices[lap.data < 0]

    def has_edges(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`has_edge` over two equally long arrays of vertex ids in 0..n-1 (unchecked)."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        return in_sorted(self._keys, np.minimum(a, b) * self._n + np.maximum(a, b))  # no edge key is a*n + a

    def stores_entries(self, keys: np.ndarray) -> np.ndarray:
        """Whether the Laplacian stores entry (a, b) of each key a*n + b, a <= b in 0..n-1 (unchecked): a == b, or
        {a,b} is an edge. Key a*n + a is a multiple of n + 1, and no key with a < b is. Ascending keys are looked up
        fastest (see :func:`in_sorted`)."""
        return in_sorted(self._keys, keys) | (keys % (self._n + 1) == 0)

    def non_edges(self) -> np.ndarray:
        """Every non-edge as an (N, 2) array of pairs a < b, in sorted order, masked in blocks of about 2^17 pairs."""
        n, rows = self.n, max(1, (1 << 17) // self.n)
        pairs, filled = np.empty((self.non_edge_count(), 2), dtype=np.int64), 0
        for first in range(0, n, rows):
            a, b = np.nonzero(self.non_edge_rows(first, min(first + rows, n)))
            pairs[filled : filled + len(a)] = np.column_stack([a + first, b + first])
            filled += len(a)
        return pairs

    def non_edge_rows(self, first: int, stop: int) -> np.ndarray:
        """Whether each pair (a, b), first <= a < stop, first <= b < n, is a non-edge with a < b: the upper
        triangle, less the edge keys in [first*n, stop*n)."""
        n, keys = self._n, self._keys
        free = np.arange(first, n) > np.arange(first, stop)[:, None]
        edges = keys[np.searchsorted(keys, first * n) : np.searchsorted(keys, stop * n)]
        free[edges // n - first, edges % n - first] = False
        return free

    def laplacian(self) -> sp.csr_matrix:
        """Sparse Laplacian L = D - A, CSR with sorted int32 indices, storing every diagonal entry (0.0 if isolated).

        The matrix is cached for the current round and shared by every
        caller and copy, so it must not be modified in place.
        """
        if self._lap is None:
            self._lap = self._build_laplacian()
        return self._lap

    def _build_laplacian(self) -> sp.csr_matrix:
        n, keys = self._n, self._keys
        a, b = np.divmod(keys, n)
        # the key row*n + col of every stored entry, in row-major order: each edge both ways and the diagonal
        rows, cols = np.divmod(np.sort(np.concatenate([keys, b * n + a, np.arange(0, n * n, n + 1)])), n)
        size = np.bincount(rows, minlength=n)  # degree + 1
        indptr = np.r_[0, np.cumsum(size)].astype(np.int32)
        data = np.where(rows == cols, size[rows] - 1.0, -1.0)
        return sp.csr_matrix((data, cols.astype(np.int32), indptr), shape=(n, n))

    @property
    def has_factor(self) -> bool:
        """Whether the graph holds a :meth:`factor`."""
        return self._factor is not None

    def factor(self) -> DenseCholesky | GroundedLU | GrownFactor:
        """The Laplacian factor, built on first use; its ``solve`` gives L x = b for zero-sum b.

        Up to ``DENSE_SOLVE_MAX_N`` vertices it is a :class:`DenseCholesky` of L + J/n (SPD for a connected
        graph), which maps b to L^+ b ungrounded; above, a :class:`GroundedLU`. Insertions grow it, never refactor.
        """
        if self._factor is None:
            if self.n <= DENSE_SOLVE_MAX_N:
                self._factor = DenseCholesky(self.laplacian_dense() + 1.0 / self.n)
            else:
                self._factor = GroundedLU(self.laplacian())
        for a, b in self._pending:
            self._factor = GrownFactor(self._factor, a, b, self.n)
        self._pending = []
        return self._factor

    def laplacian_dense(self) -> np.ndarray:
        return self.laplacian().toarray()

    # -- invariants ----------------------------------------------------------

    def check_invariants(self) -> None:
        """Full-scan check that the edge keys ascend strictly and each is a*n + b for 0 <= a < b < n (test hook)."""
        a, b = np.divmod(self._keys, self._n)
        if self._keys.dtype != np.int64 or np.any(np.diff(self._keys) <= 0) or np.any((a < 0) | (a >= b)):
            raise InvariantError("edge keys must ascend strictly, each a*n + b for 0 <= a < b < n")


# -- connectivity ------------------------------------------------------------


def bfs_parents(graph: Graph, root: int) -> np.ndarray:
    """BFS tree from ``root`` over the sorted adjacency: parent[root] = -1, unreachable = -2."""
    _, parent = breadth_first_order(graph.laplacian(), root, return_predecessors=True)
    parent[parent < 0] = -2
    parent[root] = -1
    return parent


def is_connected(graph: Graph) -> bool:
    return not np.any(bfs_parents(graph, 0) == -2)


def assert_connected(graph: Graph) -> None:
    """Raise :class:`DisconnectedError` naming vertices in different components."""
    unreached = np.flatnonzero(bfs_parents(graph, 0) == -2)
    if unreached.size:
        raise DisconnectedError(0, int(unreached[0]))


# -- edge-list I/O -----------------------------------------------------------


def load_edge_list(stream: IO[str]) -> Graph:
    """Parse a whitespace-separated "u v" edge list into a compacted graph.

    Lines starting with '#' or '%' are comments. Duplicate edges and
    self-loops are silently dropped. Vertex ids are remapped to 0..n-1 in
    order of first appearance.
    """
    ids: dict[int, int] = {}
    edges: set[Edge] = set()

    def intern(token: str, line_no: int) -> int:
        try:
            raw = int(token)
        except ValueError:
            raise ParseError(line_no, f"expected integer vertex id, got {token!r}") from None
        if raw < 0:
            raise ParseError(line_no, f"negative vertex id {raw}")
        if raw not in ids:
            ids[raw] = len(ids)
        return ids[raw]

    for line_no, line in enumerate(stream, start=1):
        text = line.strip()
        if not text or text[0] in "#%":
            continue
        tokens = text.split()
        if len(tokens) != 2:
            raise ParseError(line_no, f"expected 'u v', got {len(tokens)} tokens")
        u = intern(tokens[0], line_no)
        v = intern(tokens[1], line_no)
        if u != v:
            edges.add(canonical_edge(u, v))

    if not ids:
        raise ParseError(0, "empty graph: no vertices found")
    return Graph(len(ids), edges)


def dump_edge_list(graph: Graph, stream: IO[str]) -> None:
    """Write one "u v" line per edge, u < v, sorted."""
    for a, b in graph.edges():
        stream.write(f"{a} {b}\n")


# -- generators ----------------------------------------------------------------
# NetworkX's algorithms (Hagberg, Schult & Swart 2008), each drawing from random.Random(seed) exactly as networkx
# 3.6's gnp_random_graph, barabasi_albert_graph (initial_graph = complete_graph(m0)) and watts_strogatz_graph do.


_ER_BLOCK = 1 << 20  # vertex pairs whose uniforms one getrandbits call draws, in whole rows


def _er_edges(n: int, p: float, rng: random.Random) -> list[Edge]:
    """The pairs a < b, in ``itertools.combinations`` order, whose ``rng.random()`` draw falls below p.

    The draws come a block of whole rows at a time from one ``getrandbits`` call, equal bit for bit to calling
    ``random()`` once per pair: the call's 32-bit words come out least significant first, and ``random()`` takes
    two consecutive words w0, w1 to ((w0 >> 5) 2^26 + (w1 >> 6)) / 2^53. That falls below p exactly when the integer
    (w0 >> 5) 2^26 + (w1 >> 6) falls below ceil(p 2^53), which the words' high and low parts compare against.
    """
    high, low = divmod(math.ceil(p * 2.0**53), 1 << 26)
    lengths = np.arange(n - 1, 0, -1)  # row a holds the pairs (a, a+1) .. (a, n-1)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    edges: list[Edge] = []
    first = 0
    while first < n - 1:
        stop = max(first + 1, int(np.searchsorted(ends, starts[first] + _ER_BLOCK, side="right")))
        count = int(ends[stop - 1] - starts[first])
        words = np.frombuffer(rng.getrandbits(64 * count).to_bytes(8 * count, "little"), dtype="<u4")
        w0 = words[0::2] >> 5
        hits = np.flatnonzero((w0 < high) | (w0 == high) & (words[1::2] >> 6 < low)) + starts[first]
        a = np.searchsorted(ends, hits, side="right")
        edges += zip(a.tolist(), (hits - starts[a] + a + 1).tolist())
        first = stop
    return edges


def _ba_edges(n: int, m_attach: int, m0: int, rng: random.Random) -> list[Edge]:
    edges = list(itertools.combinations(range(m0), 2))
    repeated = [v for v in range(m0) for _ in range(m0 - 1)]  # each vertex once per incident edge
    for source in range(m0, n):
        targets: set[int] = set()  # networkx extends `repeated` in this set's iteration order
        while len(targets) < m_attach:
            targets.add(rng.choice(repeated))
        edges += ((t, source) for t in targets)
        repeated += [*targets, *[source] * m_attach]
    return edges


def _ws_edges(n: int, degree: int, rewire: float, rng: random.Random) -> list[Edge]:
    nodes = range(n)
    ring = [(u, (u + j) % n) for j in range(1, degree // 2 + 1) for u in nodes]
    adj: list[set[int]] = [set() for _ in nodes]
    for u, v in ring:
        adj[u].add(v)
        adj[v].add(u)
    for u, v in ring:
        if rng.random() < rewire:
            w = rng.choice(nodes)
            while w == u or w in adj[u]:
                w = rng.choice(nodes)
                if len(adj[u]) >= n - 1:
                    break  # u is joined to every vertex: keep (u, v)
            else:
                adj[u].remove(v)
                adj[v].remove(u)
                adj[u].add(w)
                adj[w].add(u)
    return [(u, v) for u in nodes for v in adj[u] if u < v]


def _largest_component(n: int, edges: list[Edge]) -> Graph:
    """The largest connected component (the one with the least vertex among equals), vertex ids compacted in order."""
    g = Graph(n, edges)
    count, labels = connected_components(g.laplacian(), directed=False)
    if count == 1:
        return g
    keep = labels == np.argmax(np.bincount(labels))  # labels number the components by least vertex
    new_id = np.cumsum(keep) - 1
    a, b = np.divmod(g._keys, n)
    inside = keep[a]
    return Graph(int(keep.sum()), zip(new_id[a[inside]].tolist(), new_id[b[inside]].tolist()))


def generate(model: str, params: dict, seed: int) -> Graph:
    """Seeded ER / BA / WS generator; disconnected outputs reduce to their LCC.

    Models and parameters:
      er: n, p                     -- G(n, p)
      ba: n, m_attach, m0          -- preferential attachment, initial m0-clique
      ws: n, degree (even), rewire_prob

    ``seed`` is any integer, numpy's included; equal seeds give equal graphs.
    """
    try:
        rng = random.Random(operator.index(seed))
    except TypeError:
        raise ConfigError(f"generator seed must be an integer, got {seed!r}") from None
    model = model.lower()
    if model == "er":
        n, p = int(params["n"]), float(params["p"])
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"er: p={p} outside [0,1]")
        if n < 1:
            raise ConfigError("er: n must be positive")
        return _largest_component(n, _er_edges(n, p, rng))
    if model == "ba":
        n, m_attach = int(params["n"]), int(params["m_attach"])
        m0 = int(params.get("m0", m_attach))
        if m0 < m_attach:
            raise ConfigError(f"ba: m0={m0} smaller than m_attach={m_attach}")
        if not 1 <= m_attach < n or m0 >= n:
            raise ConfigError(f"ba: need 1 <= m_attach < n and m0 < n, got n={n}")
        if m0 < 2:
            raise ConfigError(f"ba: m0={m0}, but the initial m0-clique needs m0 >= 2 for an edge to attach to")
        return _largest_component(n, _ba_edges(n, m_attach, m0, rng))
    if model == "ws":
        n, degree = int(params["n"]), int(params["degree"])
        rewire = float(params["rewire_prob"])
        if degree % 2 != 0:
            raise ConfigError(f"ws: degree={degree} must be even")
        if not 0 < degree < n:
            raise ConfigError(f"ws: need 0 < degree < n, got degree={degree}, n={n}")
        if not 0.0 <= rewire <= 1.0:
            raise ConfigError(f"ws: rewire_prob={rewire} outside [0,1]")
        return _largest_component(n, _ws_edges(n, degree, rewire, rng))
    raise ConfigError(f"unknown generator model {model!r} (expected er, ba, or ws)")
