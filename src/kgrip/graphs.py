"""Graph representation, generators, edge-list I/O, and connectivity checks.

Vertices are dense 0-based integers. Graphs are simple, undirected, and
unweighted; every solver in this package additionally requires connectivity.
Edge insertions are round-stamped: round r means r edges have been inserted
since construction.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from itertools import chain
from typing import IO, Iterable, Iterator

import networkx as nx
import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigError, DisconnectedError, InvariantError, ParseError, SolverError

Edge = tuple[int, int]


def canonical_edge(a: int, b: int) -> Edge:
    """Order a vertex pair as (min, max); rejects self-loops."""
    if a == b:
        raise InvariantError(f"self-loop ({a},{a}) is not a valid edge")
    return (a, b) if a < b else (b, a)


class Graph:
    """Undirected simple graph with sorted neighbor lists and an insertion log.

    The sparse Laplacian and the factor of its grounded block are built on
    first use and cached until the next edge insertion.
    """

    __slots__ = ("_adj", "_m", "_log", "_lap", "_factor")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if n <= 0:
            raise ConfigError("graph needs at least one vertex")
        self._adj: list[list[int]] = [[] for _ in range(n)]
        self._m = 0
        self._log: list[Edge] = []
        self._lap: sp.csr_matrix | None = None
        self._factor: spla.SuperLU | None = None
        for a, b in edges:
            self._add_edge_unlogged(a, b)

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return self._m

    @property
    def round(self) -> int:
        """Number of edges inserted via :meth:`insert_edge` since construction."""
        return len(self._log)

    @property
    def insertion_log(self) -> list[Edge]:
        return list(self._log)

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def neighbors(self, v: int) -> list[int]:
        return self._adj[v]

    def has_edge(self, a: int, b: int) -> bool:
        if a == b:
            return False
        adj = self._adj[a]
        i = bisect_left(adj, b)
        return i < len(adj) and adj[i] == b

    def edges(self) -> Iterator[Edge]:
        """Yield each edge once, as (a, b) with a < b, in sorted order."""
        for a in range(self.n):
            for b in self._adj[a]:
                if a < b:
                    yield (a, b)

    def non_edge_count(self) -> int:
        return self.n * (self.n - 1) // 2 - self._m

    def non_neighbors(self, v: int) -> list[int]:
        """Vertices u != v with {v,u} not an edge, ascending."""
        nbrs = set(self._adj[v])
        return [u for u in range(self.n) if u != v and u not in nbrs]

    def copy(self) -> "Graph":
        g = Graph.__new__(Graph)
        g._adj = [list(a) for a in self._adj]
        g._m = self._m
        g._log = list(self._log)
        g._lap = g._factor = None
        return g

    # -- mutation ----------------------------------------------------------

    def _add_edge_unlogged(self, a: int, b: int) -> None:
        a, b = canonical_edge(a, b)
        if not (0 <= a and b < self.n):
            raise InvariantError(f"edge ({a},{b}) out of range for n={self.n}")
        if self.has_edge(a, b):
            raise InvariantError(f"edge ({a},{b}) already present")
        insort(self._adj[a], b)
        insort(self._adj[b], a)
        self._m += 1
        self._lap = self._factor = None

    def insert_edge(self, a: int, b: int) -> None:
        """Insert a new edge and stamp it with the current round."""
        a, b = canonical_edge(a, b)
        self._add_edge_unlogged(a, b)
        self._log.append((a, b))

    # -- linear algebra views ----------------------------------------------

    def adjacency_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``indptr`` and ``indices`` (int32) of the sorted adjacency lists."""
        indptr = np.zeros(self.n + 1, dtype=np.int32)
        np.cumsum(np.fromiter(map(len, self._adj), dtype=np.int32, count=self.n), out=indptr[1:])
        indices = np.fromiter(chain.from_iterable(self._adj), dtype=np.int32, count=2 * self._m)
        return indptr, indices

    def has_edges(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`has_edge` over two equally long vertex arrays.

        Reads the sparsity pattern of the cached Laplacian: {a,b} is an edge
        when a != b and entry (a, b) is stored.
        """
        n = self.n
        lap = self.laplacian()
        # keys u*n + w of the stored entries, ascending (rows in order, sorted columns)
        keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(lap.indptr)) * n + lap.indices
        a = np.asarray(a, dtype=np.int64)
        query = a * n + b
        pos = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
        return (keys[pos] == query) & (a != b)

    def non_edges(self) -> np.ndarray:
        """Every non-edge as an (N, 2) array of pairs a < b, in sorted order."""
        a, b = np.triu_indices(self.n, 1)
        keep = ~self.has_edges(a, b)
        return np.column_stack([a[keep], b[keep]])

    def laplacian(self) -> sp.csr_matrix:
        """Sparse Laplacian L = D - A, CSR with sorted column indices.

        The matrix is cached for the current round and shared by every
        caller, so it must not be modified in place.
        """
        if self._lap is None:
            self._lap = self._build_laplacian()
        return self._lap

    def _build_laplacian(self) -> sp.csr_matrix:
        n = self.n
        adj_ptr, nbrs = self.adjacency_arrays()
        deg = np.diff(adj_ptr)
        rows = np.repeat(np.arange(n, dtype=np.int32), deg)
        above = nbrs > rows
        # every row gains its diagonal entry, placed after the neighbours below it
        indptr = adj_ptr + np.arange(n + 1, dtype=np.int32)
        diag_pos = indptr[:-1] + np.bincount(rows[~above], minlength=n)
        nbr_pos = np.arange(len(nbrs)) + rows + above
        indices = np.empty(n + len(nbrs), dtype=np.int32)
        data = np.empty(n + len(nbrs))
        indices[diag_pos] = np.arange(n)
        data[diag_pos] = deg
        indices[nbr_pos] = nbrs
        data[nbr_pos] = -1.0
        return sp.csr_matrix((data, indices, indptr), shape=(n, n))

    @property
    def has_grounded_factor(self) -> bool:
        """Whether :meth:`grounded_factor` was already built this round."""
        return self._factor is not None

    def grounded_factor(self) -> spla.SuperLU:
        """Sparse LU factor of the grounded Laplacian L[1:,1:], cached like :meth:`laplacian`.

        L[1:,1:] is SPD for a connected graph; a symmetric fill-reducing
        ordering without pivoting keeps its LU factor nearly as sparse as a
        Cholesky factor (COLAMD stores ~10x more entries on BA graphs).
        """
        if self._factor is None:
            try:
                self._factor = spla.splu(
                    self.laplacian()[1:, 1:].tocsc(),
                    permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True},
                )
            except RuntimeError as exc:  # exactly singular: the graph is disconnected
                raise SolverError(f"factorization of the grounded Laplacian failed: {exc}") from exc
        return self._factor

    def laplacian_dense(self) -> np.ndarray:
        return self.laplacian().toarray()

    # -- invariants ----------------------------------------------------------

    def check_invariants(self) -> None:
        """Full-scan check of simplicity and adjacency symmetry (test hook)."""
        seen = 0
        for a in range(self.n):
            adj = self._adj[a]
            if any(adj[i] >= adj[i + 1] for i in range(len(adj) - 1)):
                raise InvariantError(f"adjacency of {a} not strictly sorted")
            if a in adj:
                raise InvariantError(f"self-loop at {a}")
            for b in adj:
                if not self.has_edge(b, a):
                    raise InvariantError(f"asymmetric edge ({a},{b})")
            seen += len(adj)
        if seen != 2 * self._m:
            raise InvariantError("edge count does not match adjacency lists")


# -- connectivity ------------------------------------------------------------


def bfs_parents(graph: Graph, root: int) -> tuple[list[int], list[int]]:
    """BFS tree from ``root``: (parent, depth); parent[root] = -1, unreachable = -2."""
    parent = [-2] * graph.n
    depth = [-1] * graph.n
    parent[root] = -1
    depth[root] = 0
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in graph.neighbors(u):
            if parent[w] == -2:
                parent[w] = u
                depth[w] = depth[u] + 1
                queue.append(w)
    return parent, depth


def is_connected(graph: Graph) -> bool:
    parent, _ = bfs_parents(graph, 0)
    return all(p != -2 for p in parent)


def assert_connected(graph: Graph) -> None:
    """Raise :class:`DisconnectedError` naming vertices in different components."""
    parent, _ = bfs_parents(graph, 0)
    for v, p in enumerate(parent):
        if p == -2:
            raise DisconnectedError(0, v)


# -- edge-list I/O -----------------------------------------------------------


def load_edge_list(stream: IO[str]) -> Graph:
    """Parse a whitespace-separated "u v" edge list into a compacted graph.

    Lines starting with '#' or '%' are comments. Duplicate edges and
    self-loops are silently dropped. Vertex ids are remapped to 0..n-1 in
    order of first appearance.
    """
    ids: dict[int, int] = {}
    edges: list[Edge] = []
    seen: set[Edge] = set()

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
        if u == v:
            continue
        e = canonical_edge(u, v)
        if e not in seen:
            seen.add(e)
            edges.append(e)

    if not ids:
        raise ParseError(0, "empty graph: no vertices found")
    return Graph(len(ids), edges)


def dump_edge_list(graph: Graph, stream: IO[str]) -> None:
    """Write one "u v" line per edge, u < v, sorted."""
    for a, b in graph.edges():
        stream.write(f"{a} {b}\n")


# -- generators ----------------------------------------------------------------


def _from_networkx(g: "nx.Graph") -> Graph:
    """Largest connected component of g, vertex ids compacted preserving order."""
    if g.number_of_nodes() == 0:
        raise ConfigError("generator produced an empty graph")
    if not nx.is_connected(g):
        keep = max(nx.connected_components(g), key=len)
        g = g.subgraph(keep)
    nodes = sorted(g.nodes())
    remap = {v: i for i, v in enumerate(nodes)}
    return Graph(len(nodes), (canonical_edge(remap[u], remap[v]) for u, v in g.edges()))


def generate(model: str, params: dict, seed: int) -> Graph:
    """Seeded ER / BA / WS generator; disconnected outputs reduce to their LCC.

    Models and parameters:
      er: n, p                     -- G(n, p)
      ba: n, m_attach, m0          -- preferential attachment, initial m0-clique
      ws: n, degree (even), rewire_prob
    """
    model = model.lower()
    if model == "er":
        n, p = int(params["n"]), float(params["p"])
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"er: p={p} outside [0,1]")
        if n < 1:
            raise ConfigError("er: n must be positive")
        g = nx.gnp_random_graph(n, p, seed=seed)
    elif model == "ba":
        n, m_attach = int(params["n"]), int(params["m_attach"])
        m0 = int(params.get("m0", m_attach))
        if m0 < m_attach:
            raise ConfigError(f"ba: m0={m0} smaller than m_attach={m_attach}")
        if not 1 <= m_attach < n or m0 >= n:
            raise ConfigError(f"ba: need 1 <= m_attach < n and m0 < n, got n={n}")
        g = nx.barabasi_albert_graph(n, m_attach, seed=seed, initial_graph=nx.complete_graph(m0))
    elif model == "ws":
        n, degree = int(params["n"]), int(params["degree"])
        rewire = float(params["rewire_prob"])
        if degree % 2 != 0:
            raise ConfigError(f"ws: degree={degree} must be even")
        if not 0 < degree < n:
            raise ConfigError(f"ws: need 0 < degree < n, got degree={degree}, n={n}")
        if not 0.0 <= rewire <= 1.0:
            raise ConfigError(f"ws: rewire_prob={rewire} outside [0,1]")
        g = nx.watts_strogatz_graph(n, degree, rewire, seed=seed)
    else:
        raise ConfigError(f"unknown generator model {model!r} (expected er, ba, or ws)")
    return _from_networkx(g)
