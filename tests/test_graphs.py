"""Graph construction, I/O round-trips, generators, and connectivity guards."""

from __future__ import annotations

import io

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrip.errors import ConfigError, DisconnectedError, InvariantError, ParseError
from kgrip.graphs import (
    Graph,
    assert_connected,
    canonical_edge,
    dump_edge_list,
    generate,
    is_connected,
    load_edge_list,
)

from conftest import complete_graph, path_graph, star_graph


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


def test_laplacian_cache_follows_insertions():
    g = generate("ba", {"n": 50, "m_attach": 2, "m0": 2}, seed=3)
    lap = g.laplacian()
    assert g.laplacian() is lap  # one build per round
    dup = g.copy()
    assert dup.laplacian() is not lap
    rng = np.random.default_rng(3)
    for _ in range(3):
        free = g.non_edges()
        g.insert_edge(*free[rng.integers(len(free))].tolist())
        fresh = Graph(g.n, g.edges()).laplacian()
        assert (g.laplacian() != fresh).nnz == 0
        assert g.laplacian().has_sorted_indices
    # neither the copy nor the first matrix saw the insertions
    assert (dup.laplacian() != lap).nnz == 0
    assert (lap != _laplacian_from_triples(dup)).nnz == 0


def test_grounded_factor_cache_follows_insertions():
    g = generate("ba", {"n": 50, "m_attach": 2, "m0": 2}, seed=3)
    assert not g.has_grounded_factor
    factor = g.grounded_factor()
    assert g.grounded_factor() is factor and g.has_grounded_factor  # one build per round
    dup = g.copy()
    assert not dup.has_grounded_factor
    assert dup.grounded_factor() is not factor

    def solves_grounded(graph, f):
        rhs = np.random.default_rng(graph.round).standard_normal(graph.n - 1)
        return np.allclose(graph.laplacian()[1:, 1:] @ f.solve(rhs), rhs, atol=1e-9)

    rng = np.random.default_rng(3)
    for _ in range(3):
        free = g.non_edges()
        g.insert_edge(*free[rng.integers(len(free))].tolist())
        assert not g.has_grounded_factor
        assert solves_grounded(g, g.grounded_factor())
    # neither the copy nor the first factor saw the insertions
    assert dup.grounded_factor() is not g.grounded_factor()
    assert solves_grounded(dup, dup.grounded_factor()) and solves_grounded(dup, factor)
    assert not solves_grounded(g, factor)


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


def test_complete_and_path_helpers():
    assert complete_graph(4).m == 6
    assert path_graph(4).m == 3
