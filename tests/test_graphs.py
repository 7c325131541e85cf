"""Graph construction, I/O round-trips, generators, and connectivity guards."""

from __future__ import annotations

import io
import subprocess
import sys
import tracemalloc

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrip.errors import ConfigError, DisconnectedError, InvariantError, ParseError
from kgrip.graphs import (
    DENSE_SOLVE_MAX_N,
    DenseCholesky,
    Graph,
    GroundedLU,
    GrownFactor,
    assert_connected,
    bfs_parents,
    canonical_edge,
    dump_edge_list,
    generate,
    is_connected,
    load_edge_list,
)

from conftest import complete_graph, env_with_src, path_graph, reference_bfs, star_graph


# -- load_edge_list ------------------------------------------------------------


def test_load_path_graph():
    g = load_edge_list(io.StringIO("0 1\n1 2"))
    assert (g.n, g.m) == (3, 2)
    assert g.has_edge(0, 1) and g.has_edge(1, 2) and not g.has_edge(0, 2)


def test_load_drops_duplicates_and_loops():
    g = load_edge_list(io.StringIO("0 1\n1 0\n1 1"))
    assert (g.n, g.m) == (2, 1)


def test_load_malformed_token_reports_line():
    with pytest.raises(ParseError) as err:
        load_edge_list(io.StringIO("a b"))
    assert err.value.line_no == 1


def test_load_wrong_token_count_reports_line():
    with pytest.raises(ParseError) as err:
        load_edge_list(io.StringIO("0 1\n2 3 4"))
    assert err.value.line_no == 2


def test_load_empty_is_error():
    with pytest.raises(ParseError):
        load_edge_list(io.StringIO("# only comments\n% and more\n"))


def test_load_negative_id_reports_line():
    with pytest.raises(ParseError) as err:
        load_edge_list(io.StringIO("0 1\n-2 3\n"))
    assert err.value.line_no == 2


def test_load_comments_and_compaction():
    g = load_edge_list(io.StringIO("# header\n% matrix-market style\n10 20\n20 30\n"))
    assert (g.n, g.m) == (3, 2)
    # first-appearance compaction: 10->0, 20->1, 30->2
    assert g.has_edge(0, 1) and g.has_edge(1, 2)


def test_roundtrip_serialize_load():
    g = Graph(5, [(0, 3), (3, 4), (1, 3), (0, 1), (2, 4)])
    buf = io.StringIO()
    dump_edge_list(g, buf)
    again = load_edge_list(io.StringIO(buf.getvalue()))
    # loader compacts by first appearance, so the round-trip is an id relabeling
    remap: dict[int, int] = {}
    for line in buf.getvalue().split():
        remap.setdefault(int(line), len(remap))
    relabeled = {canonical_edge(remap[a], remap[b]) for a, b in g.edges()}
    assert set(again.edges()) == relabeled
    assert (again.n, again.m) == (g.n, g.m)
    # serializer emits sorted canonical lines
    lines = buf.getvalue().splitlines()
    assert lines == sorted(lines, key=lambda s: tuple(map(int, s.split())))


def test_roundtrip_identity_when_ids_ordered():
    g = path_graph(5)
    g.insert_edge(1, 3)
    buf = io.StringIO()
    dump_edge_list(g, buf)
    again = load_edge_list(io.StringIO(buf.getvalue()))
    assert sorted(again.edges()) == sorted(g.edges())


# -- insert_edge ---------------------------------------------------------------


def test_insert_into_path_makes_triangle(p3):
    p3.insert_edge(0, 2)
    assert p3.m == 3
    assert p3.insertion_log == [(0, 2)]
    p3.check_invariants()


def test_insert_existing_edge_rejected(k3):
    with pytest.raises(InvariantError):
        k3.insert_edge(0, 1)


def test_insert_self_loop_rejected(p3):
    with pytest.raises(InvariantError):
        p3.insert_edge(1, 1)


def test_insert_into_star():
    g = star_graph(4)
    g.insert_edge(1, 2)
    assert g.m == 4
    assert g.round == 1


def test_canonical_edge_orders():
    assert canonical_edge(5, 2) == (2, 5)
    with pytest.raises(InvariantError):
        canonical_edge(3, 3)


@given(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40))
@settings(max_examples=60, deadline=None)
def test_insertion_sequences_keep_invariants(pairs):
    g = Graph(12)
    for a, b in pairs:
        if a == b or g.has_edge(a, b):
            continue
        g.insert_edge(a, b)
    g.check_invariants()
    assert g.round == g.m


def _laplacian_from_triples(g: Graph) -> sp.csr_matrix:
    """Reference build: (row, col, value) triples through scipy's COO conversion."""
    rows, cols, vals = [], [], []
    for a in range(g.n):
        rows.append(a)
        cols.append(a)
        vals.append(float(g.degree(a)))
        for b in g.neighbors(a):
            rows.append(a)
            cols.append(b)
            vals.append(-1.0)
    return sp.csr_matrix((vals, (rows, cols)), shape=(g.n, g.n))


@pytest.mark.parametrize("seed", range(8))
def test_laplacian_arrays_match_triple_build(seed):
    g = generate("er", {"n": 20 + 9 * seed, "p": 0.25}, seed)
    rng = np.random.default_rng(seed)
    for _ in range(4):  # before and after insertions
        lap, ref = g.laplacian(), _laplacian_from_triples(g)
        for name in ("indptr", "indices", "data"):
            got, want = getattr(lap, name), getattr(ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        free = [(a, b) for a in range(g.n) for b in range(a + 1, g.n) if not g.has_edge(a, b)]
        g.insert_edge(*free[rng.integers(len(free))])
    assert Graph(1).laplacian().toarray().tolist() == [[0.0]]


def _insert_any(g: Graph, rng) -> None:
    free = g.non_edges()
    g.insert_edge(*free[rng.integers(len(free))].tolist())


def test_laplacian_cache_follows_insertions():
    g = generate("ba", {"n": 50, "m_attach": 2, "m0": 2}, seed=3)
    lap = g.laplacian()
    assert g.laplacian() is lap  # one build per round
    dup = g.copy()
    assert dup.laplacian() is lap  # a copy shares the round's caches
    rng = np.random.default_rng(3)
    for _ in range(3):
        _insert_any(g, rng)
        fresh = Graph(g.n, g.edges()).laplacian()
        assert (g.laplacian() != fresh).nnz == 0
        assert g.laplacian().has_sorted_indices
    # neither the copy nor the first matrix saw the insertions
    assert dup.laplacian() is lap
    assert (lap != _laplacian_from_triples(dup)).nnz == 0
    # nor does the original see the copy's
    grown = g.laplacian()
    _insert_any(dup, rng)
    assert g.laplacian() is grown and (grown != _laplacian_from_triples(g)).nnz == 0
    assert (dup.laplacian() != _laplacian_from_triples(dup)).nnz == 0


def _exact_products(g: Graph, x: np.ndarray) -> np.ndarray:
    """The product of a freshly built Laplacian of g's edges with x."""
    return Graph(g.n, g.edges()).laplacian() @ x


def test_apply_laplacian_adds_the_insertions_since_the_last_build(monkeypatch):
    # the product with the last-built Laplacian plus one term per edge inserted since equals the current
    # Laplacian's, after 0, 1 and 5 insertions, with no rebuild; integer entries make both sides exact
    g = generate("ba", {"n": 60, "m_attach": 2, "m0": 2}, seed=4)
    g.laplacian()
    built = []
    build = Graph._build_laplacian
    monkeypatch.setattr(Graph, "_build_laplacian", lambda graph: built.append((graph, graph.round)) or build(graph))
    rng = np.random.default_rng(4)
    vector, block = rng.integers(-9, 10, size=g.n).astype(float), rng.integers(-9, 10, size=(g.n, 3)).astype(float)
    floats = rng.standard_normal((g.n, 2))
    for inserted in (0, 1, 5):
        while g.round < inserted:
            _insert_any(g, rng)
        for x in (vector, block):
            got = g.apply_laplacian(x)
            assert got.shape == x.shape and np.array_equal(got, _exact_products(g, x))
        assert np.allclose(g.apply_laplacian(floats), _exact_products(g, floats), rtol=0, atol=1e-12)
    assert [r for graph, r in built if graph is g] == [] and g.round == 5
    # a graph that never built its Laplacian builds it on its first product
    fresh = Graph(g.n, g.edges())
    _insert_any(fresh, rng)
    assert np.array_equal(fresh.apply_laplacian(block), _exact_products(fresh, block))
    assert [r for graph, r in built if graph is fresh] == [1]


def test_apply_laplacian_on_a_copy_whose_parent_rebuilt_later():
    # a copy keeps the Laplacian it shared; the parent's later rebuild replaces only the parent's
    g = generate("ws", {"n": 50, "degree": 4, "rewire_prob": 0.1}, seed=6)
    shared = g.laplacian()
    dup = g.copy()
    rng = np.random.default_rng(6)
    for _ in range(2):
        _insert_any(g, rng)
    assert g.laplacian() is not shared  # the parent rebuilds at round 2
    for _ in range(3):
        _insert_any(dup, rng)
    x = rng.integers(-9, 10, size=(g.n, 4)).astype(float)
    for graph in (dup, g, dup):
        assert np.array_equal(graph.apply_laplacian(x), _exact_products(graph, x))
        assert np.array_equal(graph.apply_laplacian(x[:, 0]), _exact_products(graph, x[:, 0]))
    assert dup.laplacian() is not shared and (dup.laplacian() != _laplacian_from_triples(dup)).nnz == 0


def test_non_neighbors_from_the_keys_equal_the_csr_rows():
    g = generate("ba", {"n": 40, "m_attach": 2, "m0": 2}, seed=8)
    rng = np.random.default_rng(8)
    for _ in range(3):  # before and after insertions
        lap = g.laplacian()
        for v in range(g.n):
            row = lap.indices[lap.indptr[v] : lap.indptr[v + 1]].tolist()  # v's neighbours and v
            assert g.non_neighbors(v) == sorted(set(range(g.n)) - set(row))
        for _ in range(4):
            _insert_any(g, rng)
    for v in (-1, g.n):
        with pytest.raises(InvariantError, match=f"vertex {v} is outside"):
            g.non_neighbors(v)


# the factor is a dense Cholesky of L + J/n up to DENSE_SOLVE_MAX_N vertices and a grounded sparse LU above
_FACTOR_KINDS = [(50, DenseCholesky), (DENSE_SOLVE_MAX_N + 50, GroundedLU)]


def test_copy_sharing_the_caches_keeps_them_across_the_originals_insertions():
    for n, kind in _FACTOR_KINDS:
        g = generate("ba", {"n": n, "m_attach": 2, "m0": 2}, seed=3)
        pairs = np.array([(a, b) for a in range(n) for b in range(a + 1, n)]).T
        lap, factor, adjacent = g.laplacian(), g.factor(), g.has_edges(*pairs)
        assert isinstance(factor, kind)
        dup = g.copy()
        assert dup.laplacian() is lap and dup.factor() is factor
        g.insert_edge(*g.non_edges()[0].tolist())
        assert g.factor() is not factor and g.factor().base is factor and g.laplacian() is not lap
        assert dup.laplacian() is lap and dup.factor() is factor and dup.round == 0
        assert np.array_equal(dup.has_edges(*pairs), adjacent)
        # and the other way round: the copy's insertion leaves the original's caches
        lap, factor, adjacent = g.laplacian(), g.factor(), g.has_edges(*pairs)
        dup.insert_edge(*dup.non_edges()[-1].tolist())
        assert dup.factor() is not factor and dup.factor().base is factor.base and dup.laplacian() is not lap
        assert g.laplacian() is lap and g.factor() is factor and g.round == 1
        assert np.array_equal(g.has_edges(*pairs), adjacent)
        assert dup.has_edges(*pairs).sum() == adjacent.sum()  # one edge each, at different pairs
        assert not np.array_equal(dup.has_edges(*pairs), adjacent)


def test_grounded_factor_cache_follows_insertions():
    def solves(graph, f):  # L x = b for a zero-sum b; x is fixed up to a constant
        rhs = np.random.default_rng(graph.round).standard_normal(graph.n)
        rhs -= rhs.mean()
        return np.allclose(graph.laplacian() @ f.solve(rhs), rhs, atol=1e-9)

    for n, kind in _FACTOR_KINDS:
        g = generate("ba", {"n": n, "m_attach": 2, "m0": 2}, seed=3)
        assert not g.has_factor
        factor = g.factor()
        assert isinstance(factor, kind)
        assert g.factor() is factor and g.has_factor  # one build
        dup = g.copy()
        assert dup.factor() is factor  # shared with the copy

        rng = np.random.default_rng(3)
        for r in range(3):
            _insert_any(g, rng)
            # the insertion grows the factor by one Woodbury column on the same base
            grown = g.factor()
            assert isinstance(grown, GrownFactor) and grown.base is factor
            assert grown.ends.tolist() == [list(e) for e in g.insertion_log] and grown.cols.shape == (n, r + 1)
            assert solves(g, grown)
        # neither the copy nor the first factor saw the insertions
        assert dup.factor() is factor
        assert solves(dup, factor)
        assert not solves(g, factor)
        # nor does the original's factor see the copy's
        _insert_any(dup, rng)
        assert g.factor() is grown and dup.factor().base is factor and len(dup.factor().ends) == 1
        assert solves(g, grown) and solves(dup, dup.factor())
        assert not solves(dup, grown)
        # a graph that holds no factor builds its own on first use
        fresh = Graph(n, g.edges())
        assert not fresh.has_factor and isinstance(fresh.factor(), kind) and solves(fresh, fresh.factor())


def test_non_edges_are_built_in_row_blocks():
    # the sorted non-edges of a reference mask over every pair, with little held beside the 16-byte pairs
    g = generate("ba", {"n": 2000, "m_attach": 3}, seed=1)
    a, b = np.triu_indices(g.n, 1)
    keep = ~g.has_edges(a, b)
    expected = np.column_stack([a[keep], b[keep]])
    del a, b, keep
    tracemalloc.start()
    try:
        got = g.non_edges()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.dtype == expected.dtype and np.array_equal(got, expected)
    assert peak <= 10 * g.n**2
    for h in (Graph(1), Graph(2, [(0, 1)]), complete_graph(5), path_graph(7)):
        a, b = np.triu_indices(h.n, 1)
        keep = ~h.has_edges(a, b)
        assert np.array_equal(h.non_edges(), np.column_stack([a[keep], b[keep]]).reshape(-1, 2))


# -- the edge store -------------------------------------------------------------


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1), (2, 2)],
        [(0, 1), (-1, 2)],
        [(0, 1), (1, 4)],
        [(4, 5)],
        [(0, 1), (1, 2), (0, 1)],
        [(0, 1), (2, 1), (1, 2)],
    ],
    ids=["self-loop", "negative-id", "id-n", "ids-past-n", "duplicate", "duplicate-reversed"],
)
def test_constructor_rejects_loops_ids_out_of_range_and_duplicates(edges):
    with pytest.raises(InvariantError):
        Graph(4, edges)
    with pytest.raises(InvariantError):
        Graph(4, iter(edges))


def test_constructor_needs_a_vertex():
    for n in (0, -3):
        with pytest.raises(ConfigError):
            Graph(n)
    assert (Graph(4, [(3, 0), (1, 2)]).m, list(Graph(4, [(3, 0), (1, 2)]).edges())) == (2, [(0, 3), (1, 2)])


def test_edgeless_graph_answers_every_query():
    g = Graph(5)
    a, b = np.triu_indices(5, 1)
    keys = np.arange(25)
    keys = keys[keys // 5 <= keys % 5]  # every entry a <= b
    assert g.m == 0 and not g.has_edge(0, 1) and not g.has_edges(a, b).any() and not g.has_edges(b, a).any()
    assert np.array_equal(g.stores_entries(keys), keys // 5 == keys % 5)
    assert np.array_equal(g.non_edges(), np.column_stack([a, b]))


def test_has_edge_is_false_for_vertex_ids_out_of_range():
    # a path on 5 vertices plus (1, 3): -1 is no alias of vertex 4, nor (0, 8) of key 8 = 1*5 + 3
    g = path_graph(5)
    g.insert_edge(1, 3)
    assert g.has_edge(1, 3) and g.has_edge(3, 1) and g.has_edge(3, 4)
    for a, b in [(-1, 3), (3, -1), (-1, 4), (7, 1), (1, 7), (0, 8), (5, 5), (-1, -1)]:
        assert g.has_edge(a, b) is False, (a, b)


def _networkx_laplacian(ref: nx.Graph) -> sp.csr_matrix:
    """networkx's Laplacian, CSR with sorted indices; networkx leaves an isolated vertex's 0.0 diagonal unstored,
    so it is stored here, as the graph stores every diagonal entry."""
    lap = sp.coo_matrix(nx.laplacian_matrix(ref, nodelist=range(len(ref))))
    bare = np.setdiff1d(np.arange(len(ref)), lap.row[lap.row == lap.col])
    rows, cols = np.r_[lap.row, bare], np.r_[lap.col, bare]
    lap = sp.csr_matrix((np.r_[lap.data, np.zeros(len(bare))], (rows, cols)), shape=lap.shape)
    lap.sort_indices()
    return lap


@pytest.mark.parametrize("v", [-1, -4, 4, 5])
def test_vertex_views_refuse_ids_outside_the_graph(v):
    # a negative id would otherwise index the CSR row pointers from the end: degree(-1) read -1
    g = path_graph(4)
    for view in (g.degree, g.neighbors, g.non_neighbors):
        with pytest.raises(InvariantError, match=f"vertex {v} is outside 0..3"):
            view(v)


def _assert_views_match_networkx(g: Graph, ref: nx.Graph) -> None:
    n, nodes = g.n, range(len(ref))
    assert (n, g.m) == (len(ref), ref.number_of_edges())
    assert list(g.edges()) == sorted((min(e), max(e)) for e in ref.edges())
    lap, want = g.laplacian(), _networkx_laplacian(ref)
    adjacency = nx.to_scipy_sparse_array(ref, nodelist=nodes, format="csr")
    adjacency.sort_indices()
    for indptr, indices, ref_csr in ((lap.indptr, lap.indices, want), (*g.adjacency_arrays(), adjacency)):
        assert indptr.dtype == indices.dtype == np.int32
        assert np.array_equal(indptr, ref_csr.indptr.astype(np.int32))
        assert np.array_equal(indices, ref_csr.indices.astype(np.int32))
    assert lap.data.dtype == np.float64 and np.array_equal(lap.data, want.data.astype(np.float64))
    dense = want.toarray()
    assert [g.degree(v) for v in nodes] == [ref.degree(v) for v in nodes]
    assert all(g.neighbors(v) == sorted(ref[v]) for v in nodes)
    assert all(g.non_neighbors(v) == sorted(set(nodes) - set(ref[v]) - {v}) for v in nodes)
    a, b = np.triu_indices(n)  # every key a <= b
    assert np.array_equal(g.stores_entries(a * n + b), (dense[a, b] != 0) | (a == b))
    non_edge = np.triu(dense == 0, 1)
    for rows in (1, 3, n):
        for first in range(0, n, rows):
            stop = min(first + rows, n)
            assert np.array_equal(g.non_edge_rows(first, stop), non_edge[first:stop, first:])


_REFERENCE_GRAPHS = {
    "er": lambda: nx.gnp_random_graph(40, 0.12, seed=4),
    "ba": lambda: nx.barabasi_albert_graph(60, 3, seed=2),
    "ws": lambda: nx.watts_strogatz_graph(50, 4, 0.1, seed=3),
    "isolated-vertex": lambda: nx.Graph([(0, 1), (1, 2), (2, 4), (4, 5), (3, 3)]),
    "one-vertex": lambda: nx.empty_graph(1),
}


@pytest.mark.parametrize("family", sorted(_REFERENCE_GRAPHS))
def test_csr_views_match_networkx_across_insertions(family):
    ref = _REFERENCE_GRAPHS[family]()
    ref.remove_edges_from(list(nx.selfloop_edges(ref)))  # a self-loop only adds its vertex
    ref = nx.relabel_nodes(ref, {v: i for i, v in enumerate(sorted(ref))})
    if family == "isolated-vertex":
        assert min(d for _, d in ref.degree()) == 0
    g = Graph(len(ref), ref.edges())
    rng = np.random.default_rng(len(ref))
    for _ in range(4):  # before and after insertions
        _assert_views_match_networkx(g, ref)
        free = sorted(nx.non_edges(ref))
        if not free:
            break
        a, b = free[rng.integers(len(free))]
        g.insert_edge(a, b)
        ref.add_edge(a, b)


# -- generators ----------------------------------------------------------------


def test_generate_ba_edge_count():
    g = generate("ba", {"n": 1000, "m_attach": 4, "m0": 4}, seed=1)
    # initial 4-clique plus 4 edges per later vertex; BA here stays connected
    assert g.n == 1000
    assert g.m == 4 * (1000 - 4) + 6


def test_generate_er_complete_limit():
    g = generate("er", {"n": 100, "p": 1.0}, seed=7)
    assert (g.n, g.m) == (100, 4950)


def test_generate_ws_ring_lattice():
    g = generate("ws", {"n": 50, "degree": 4, "rewire_prob": 0.0}, seed=3)
    assert (g.n, g.m) == (50, 100)


def test_generate_is_deterministic():
    a = generate("er", {"n": 60, "p": 0.08}, seed=42)
    b = generate("er", {"n": 60, "p": 0.08}, seed=42)
    assert list(a.edges()) == list(b.edges())


def test_generate_reduces_to_lcc():
    g = generate("er", {"n": 80, "p": 0.03}, seed=5)
    assert is_connected(g)
    assert g.n <= 80


@pytest.mark.parametrize(
    "model,params",
    [
        ("er", {"n": 10, "p": 1.5}),
        ("ws", {"n": 10, "degree": 10, "rewire_prob": 0.1}),
        ("ws", {"n": 10, "degree": 3, "rewire_prob": 0.1}),
        ("ba", {"n": 10, "m_attach": 4, "m0": 2}),
        ("zzz", {"n": 10}),
    ],
)
def test_generate_rejects_infeasible(model, params):
    with pytest.raises(ConfigError):
        generate(model, params, seed=1)


def test_generate_ba_needs_an_initial_edge():
    for params in ({"n": 10, "m_attach": 1}, {"n": 10, "m_attach": 1, "m0": 1}):
        with pytest.raises(ConfigError, match="initial m0-clique"):
            generate("ba", params, seed=1)


def test_generate_takes_numpy_integer_seeds():
    params = {"n": 40, "degree": 4, "rewire_prob": 0.2}
    want = list(generate("ws", params, seed=3).edges())
    assert list(generate("ws", params, seed=np.int64(3)).edges()) == want
    assert list(generate("ws", params, seed=np.uint32(3)).edges()) == want


@pytest.mark.parametrize("seed", [None, 3.0, "3"], ids=["none", "float", "str"])
def test_generate_refuses_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(ConfigError, match="seed must be an integer"):
        generate("er", {"n": 10, "p": 0.5}, seed=seed)


_NX_GENERATORS = {
    "er": lambda p, seed: nx.gnp_random_graph(p["n"], p["p"], seed=seed),
    "ba": lambda p, seed: nx.barabasi_albert_graph(
        p["n"], p["m_attach"], seed=seed, initial_graph=nx.complete_graph(p["m0"])
    ),
    "ws": lambda p, seed: nx.watts_strogatz_graph(p["n"], p["degree"], p["rewire_prob"], seed=seed),
}


def _networkx_reference(model: str, params: dict, seed: int):
    """(n, sorted edges) of networkx's graph reduced to its largest component (the first of the largest, by least
    vertex) with ids compacted in order, as generate reduced it when it called networkx; None where either refuses."""
    if model == "ws" and params["degree"] >= params["n"]:
        return None  # generate refuses degree >= n; networkx returns K_n at degree == n
    try:
        g = _NX_GENERATORS[model](params, seed)
    except (nx.NetworkXError, IndexError):  # IndexError: BA's initial 1-clique has no edge to attach to
        return None
    if not nx.is_connected(g):
        g = g.subgraph(max(nx.connected_components(g), key=len))
    remap = {v: i for i, v in enumerate(sorted(g))}
    return len(remap), sorted(tuple(sorted((remap[u], remap[v]))) for u, v in g.edges())


def _generated(model: str, params: dict, seed: int):
    try:
        g = generate(model, params, seed)
    except ConfigError:
        return None
    return g.n, list(g.edges())


def _generator_grid(n: int):
    yield from (("er", {"n": n, "p": p}) for p in (0, 0.02, 0.1, 0.3, 1))
    yield from (("ba", {"n": n, "m_attach": m, "m0": m0}) for m, m0 in ((1, 2), (2, 2), (3, 3), (3, 5)))
    for degree in (2, 4, 10):
        yield from (("ws", {"n": n, "degree": degree, "rewire_prob": p}) for p in (0, 0.01, 0.1, 0.5, 1))


_EDGE_CASES = [
    ("ba", {"n": 10, "m_attach": 1, "m0": 1}),  # refused by both, as the next two
    ("ba", {"n": 10, "m_attach": 10, "m0": 10}),
    ("ws", {"n": 10, "degree": 12, "rewire_prob": 0.1}),
    ("ws", {"n": 5, "degree": 4, "rewire_prob": 0.5}),  # every vertex is joined to all others: rewiring gives up
    ("ws", {"n": 8, "degree": 6, "rewire_prob": 1}),
]


@pytest.mark.parametrize("n", [10, 30, 120])
def test_generate_reproduces_networkx_streams(n):
    for model, params in [*_generator_grid(n), *_EDGE_CASES]:
        for seed in range(20):
            want = _networkx_reference(model, params, seed)
            assert _generated(model, params, seed) == want, (model, params, seed)


def test_generate_reproduces_networkx_on_the_benchmark_shapes():
    shapes = [
        ("ba", {"n": 650, "m_attach": 3, "m0": 3}),
        ("ws", {"n": 120, "degree": 10, "rewire_prob": 0.01}),
        ("ba", {"n": 120, "m_attach": 3, "m0": 3}),
    ]
    for model, params in shapes:
        for seed in (1, 7, 1536272198, 2**32 - 1, 12345):
            want = _networkx_reference(model, params, seed)
            assert want is not None and _generated(model, params, seed) == want, (model, params, seed)


def test_generators_run_without_networkx():
    code = (
        "import sys\n"
        "import kgrip\n"
        "kgrip.generate('er', {'n': 40, 'p': 0.2}, 1)\n"
        "kgrip.generate('ba', {'n': 40, 'm_attach': 2}, 1)\n"
        "kgrip.generate('ws', {'n': 40, 'degree': 4, 'rewire_prob': 0.1}, 1)\n"
        "assert 'networkx' not in sys.modules, 'kgrip imported networkx'\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env_with_src(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]


# -- connectivity --------------------------------------------------------------


def test_assert_connected_ok(k3):
    assert_connected(k3)


def test_assert_connected_singleton():
    assert_connected(Graph(1))


def test_assert_connected_names_vertices():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedError) as err:
        assert_connected(g)
    assert {err.value.u, err.value.v} == {0, 2}


_BFS_GRAPHS = {
    "ba": lambda: generate("ba", {"n": 120, "m_attach": 3, "m0": 3}, seed=1),
    "ws": lambda: generate("ws", {"n": 120, "degree": 4, "rewire_prob": 0.1}, seed=1),
    "er": lambda: generate("er", {"n": 300, "p": 0.02}, seed=1),
    "disconnected": lambda: Graph(9, [(0, 1), (1, 2), (0, 3), (4, 5), (5, 6), (7, 8)]),
}


@pytest.mark.parametrize("family", sorted(_BFS_GRAPHS))
def test_bfs_parents_match_a_fifo_walk_over_the_sorted_adjacency(family):
    g = _BFS_GRAPHS[family]()
    for root in (0, 5, g.n - 1):
        parent, _ = reference_bfs(g, root)
        assert bfs_parents(g, root).tolist() == parent
    assert is_connected(g) == (family != "disconnected")


def test_complete_and_path_helpers():
    assert complete_graph(4).m == 6
    assert path_graph(4).m == 3
