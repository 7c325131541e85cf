"""Candidate sizing/sampling, the per-round selection, and both greedy runners."""

from __future__ import annotations

import itertools
import math
import sys
from collections import Counter

import numpy as np
import pytest

from kgrip import graphs, greedy, jlt, linalg, oracles, spectral, ust
from kgrip.errors import ConfigError, InvariantError, SolverError, StaleStateError
from kgrip.graphs import DENSE_SOLVE_MAX_N, Graph, generate
from kgrip.linalg import total_resistance
from kgrip.greedy import (
    GreedyParams,
    Heuristic,
    LazyQueue,
    candidate_size,
    run_kgrip,
    run_klrip,
    sample_candidates_diag_weighted,
    sample_candidates_uniform,
    sample_nonedge_pairs,
)
from kgrip.seeds import derive_rng

from conftest import star_graph


# -- candidate_size ------------------------------------------------------------


def test_candidate_size_examples():
    # frozen from the formulas: ceil(475*ln(1/0.99)) and ceil(100*sqrt(ln(1/0.9)/10))
    assert candidate_size("grip-simpl", 100, 200, 10, 0.99) == 5
    assert candidate_size("grip-col", 100, 100, 10, 0.9) == 11


def test_candidate_size_saturated_focus():
    with pytest.raises(ConfigError):
        candidate_size("lrip", 100, 99, 1, 0.9)


def test_candidate_size_validation():
    with pytest.raises(ConfigError):
        candidate_size("grip-simpl", 10, 5, 2, 1.5)
    with pytest.raises(ConfigError):
        candidate_size("grip-simpl", 10, 5, 0, 0.9)
    with pytest.raises(ConfigError):
        candidate_size("bogus", 10, 5, 2, 0.9)


def test_candidate_size_clamped_to_universe():
    # tiny delta wants a huge sample; the universe caps it
    assert candidate_size("grip-simpl", 10, 20, 1, 1e-9) == 10 * 9 // 2 - 20


# -- samplers ----------------------------------------------------------------------


def test_uniform_sampler_exhaustive():
    universe = [(0, 1), (0, 2), (1, 2)]
    assert sample_candidates_uniform(universe, 3, np.random.default_rng(0)) == universe
    assert sample_candidates_uniform(universe, 9, np.random.default_rng(0)) == universe


def test_uniform_sampler_deterministic():
    universe = list(range(100))
    a = sample_candidates_uniform(universe, 10, np.random.default_rng(5))
    b = sample_candidates_uniform(universe, 10, np.random.default_rng(5))
    assert a == b and len(set(a)) == 10


def test_nonedge_pair_sampler_p3(p3):
    assert sample_nonedge_pairs(p3, 1, np.random.default_rng(1)).tolist() == [[0, 2]]


def test_nonedge_pair_sampler_excludes_edges():
    g = generate("er", {"n": 30, "p": 0.2}, seed=3)
    pairs = sample_nonedge_pairs(g, 40, np.random.default_rng(2)).tolist()
    assert len(pairs) == len(set(map(tuple, pairs))) == 40
    for a, b in pairs:
        assert a < b and not g.has_edge(a, b)


def _nonedge_pairs_reference(graph, s, rng):
    """The sampler one pair at a time: the behaviour the vectorised one must keep."""
    universe = graph.non_edge_count()
    if s >= universe:
        return [
            (a, b) for a in range(graph.n) for b in range(a + 1, graph.n) if not graph.has_edge(a, b)
        ]
    picked, out = set(), []
    while len(out) < s:
        a = int(rng.integers(graph.n))
        b = int(rng.integers(graph.n))
        if a == b:
            continue
        e = (a, b) if a < b else (b, a)
        if e in picked or graph.has_edge(*e):
            continue
        picked.add(e)
        out.append(e)
    return out


@pytest.mark.parametrize(
    "model,params,seed",
    [
        ("er", {"n": 30, "p": 0.2}, 3),
        ("er", {"n": 12, "p": 0.6}, 4),
        ("ba", {"n": 60, "m_attach": 3, "m0": 3}, 5),
        ("ws", {"n": 40, "degree": 6, "rewire_prob": 0.1}, 6),
    ],
)
def test_nonedge_pair_sampler_equals_pair_by_pair_reference(model, params, seed):
    g = generate(model, params, seed)
    universe = g.non_edge_count()
    for s in sorted({1, 7, universe // 10, universe // 2, universe - 3, universe - 1, universe}):
        for rng_seed in range(4):
            got = sample_nonedge_pairs(g, s, np.random.default_rng(rng_seed))
            want = _nonedge_pairs_reference(g, s, np.random.default_rng(rng_seed))
            assert got.shape == (len(want), 2)
            assert [tuple(p) for p in got.tolist()] == want, (s, rng_seed)


@pytest.mark.parametrize("k", [1, 4])
def test_nonedge_pair_sampler_equals_reference_at_benchmark_size(k):
    # BA(650, 3) at the sample size SimplStoch draws for k edges
    g = generate("ba", {"n": 650, "m_attach": 3, "m0": 3}, 1)
    s = candidate_size("grip-simpl", g.n, g.m, k, GreedyParams().delta)
    for rng_seed in (1, 77):
        got = sample_nonedge_pairs(g, s, np.random.default_rng(rng_seed))
        assert [tuple(p) for p in got.tolist()] == _nonedge_pairs_reference(g, s, np.random.default_rng(rng_seed))


class _RecordingRng:
    """A generator that keeps every block ``integers`` draws."""

    def __init__(self, seed):
        self.rng, self.blocks = np.random.default_rng(seed), []

    def integers(self, *args, **kwargs):
        self.blocks.append(self.rng.integers(*args, **kwargs))
        return self.blocks[-1]


def test_nonedge_pair_sampler_dedups_across_blocks():
    # half the universe: the first block's distinct non-edges fall short, and the second redraws some of them
    g = generate("ws", {"n": 120, "degree": 10, "rewire_prob": 0.01}, 1)
    s = g.non_edge_count() // 2
    rng = _RecordingRng(3)
    want = _nonedge_pairs_reference(g, s, np.random.default_rng(3))
    assert [tuple(p) for p in sample_nonedge_pairs(g, s, rng).tolist()] == want
    assert len(rng.blocks) >= 2
    first, second = ({tuple(p) for p in np.sort(d.reshape(-1, 2), axis=1).tolist()} for d in rng.blocks[:2])
    assert first & second & set(want)


def test_pairs_from_vertices_are_sorted_non_edges():
    from kgrip.greedy import _pairs_from_vertices

    g = generate("er", {"n": 30, "p": 0.3}, seed=8)
    vertices = [17, 3, 25, 3, 0, 11, 29, 8, 17, 21]
    ordered = sorted(set(vertices))
    want = [
        [a, b] for i, a in enumerate(ordered) for b in ordered[i + 1 :] if not g.has_edge(a, b)
    ]
    assert _pairs_from_vertices(g, vertices).tolist() == want


def test_diag_weighted_sampler_favors_heavy_vertices():
    # P3 diagonal (5/9, 2/9, 5/9): the endpoints should be the modal pair
    diag = np.array([5 / 9, 2 / 9, 5 / 9])
    rng = np.random.default_rng(7)
    counts = Counter()
    for _ in range(4000):
        picked = frozenset(sample_candidates_diag_weighted(diag, 2, rng))
        counts[picked] += 1
    assert counts.most_common(1)[0][0] == frozenset({0, 2})
    # exact probability of {0,2}: 2 * (5/12)*(5/7)
    expect = 2 * (5 / 12) * (5 / 7)
    assert abs(counts[frozenset({0, 2})] / 4000 - expect) < 0.04


def test_diag_weighted_sampler_full_draw():
    diag = np.array([0.3, 0.1, 0.7, 0.2])
    assert sorted(sample_candidates_diag_weighted(diag, 4, np.random.default_rng(0))) == [0, 1, 2, 3]


def test_diag_weighted_sampler_zero_mass_falls_back_uniform():
    diag = np.zeros(6)
    picked = sample_candidates_diag_weighted(diag, 3, np.random.default_rng(3))
    assert len(picked) == len(set(picked)) == 3


def test_diag_weighted_sampler_uniform_when_flat():
    diag = np.ones(5)
    rng = np.random.default_rng(11)
    counts = Counter()
    for _ in range(5000):
        counts[sample_candidates_diag_weighted(diag, 1, rng)[0]] += 1
    for v in range(5):
        assert abs(counts[v] / 5000 - 0.2) < 0.03


def test_diag_weighted_sampler_respects_allowed():
    diag = np.array([10.0, 1.0, 1.0, 10.0])
    picked = sample_candidates_diag_weighted(diag, 2, np.random.default_rng(5), allowed=[1, 2])
    assert sorted(picked) == [1, 2]


def test_diag_weighted_sampler_ordered_draws_follow_successive_sampling():
    # weights (3, 2, 1, 0), s = 2: the ordered pair (i, j) has probability
    # w_i / 6 * w_j / (6 - w_i); the zero-weight vertex never makes the cut
    diag = np.array([3.0, 2.0, 1.0, 0.0])
    rng = np.random.default_rng(17)
    draws = 20000
    counts = Counter(tuple(sample_candidates_diag_weighted(diag, 2, rng)) for _ in range(draws))
    for i, j in itertools.permutations(range(4), 2):
        p = diag[i] / 6 * diag[j] / (6 - diag[i])
        assert abs(counts[(i, j)] - draws * p) <= 4 * math.sqrt(draws * p * (1 - p)), (i, j)


def test_diag_weighted_sampler_zero_weight_tail_comes_last_and_uniform():
    # clamped weights (0, 2, 0, 1, 0, 0): the positive ones lead, the four
    # zero-weight vertices follow in a uniform random order
    diag = np.array([0.0, 2.0, -0.5, 1.0, 0.0, 0.0])
    rng = np.random.default_rng(23)
    draws = 12000
    tails = Counter()
    for _ in range(draws):
        picked = sample_candidates_diag_weighted(diag, 6, rng)
        assert sorted(picked[:2]) == [1, 3]
        tails[tuple(picked[2:])] += 1
    assert sorted(tails) == sorted(itertools.permutations([0, 2, 4, 5]))
    p = 1 / 24
    for count in tails.values():
        assert abs(count - draws * p) <= 4 * math.sqrt(draws * p * (1 - p))


# -- selection ----------------------------------------------------------------------


def test_queue_returns_max_when_current():
    q = LazyQueue()
    q.push_many(np.array([[0, 1], [0, 2]]), np.array([5.0, 7.0]), 0)
    a, b, gain = q.lazy_next(None, current_round=0)
    assert (a, b, gain) == (0, 2, 7.0)


def test_queue_tie_break_canonical_order():
    q = LazyQueue()
    q.push_many(np.array([[1, 3], [0, 9], [0, 4]]), np.array([2.0, 2.0, 1.0]), 0)
    a, b, _ = q.lazy_next(None, current_round=0)
    assert (a, b) == (0, 9)


def test_queue_exhaustion_raises():
    with pytest.raises(ConfigError):
        LazyQueue().lazy_next(lambda *_: 0.0, current_round=0)


def test_queue_selects_from_the_current_rounds_batch_only():
    # a batch serves the round it was scored in, once; a later push replaces it
    q = LazyQueue()
    q.push_many(np.array([[0, 1]]), np.array([9.0]), 0)
    with pytest.raises(ConfigError):
        q.lazy_next(None, current_round=1)
    q.push_many(np.array([[0, 1]]), np.array([9.0]), 1)
    q.push_many(np.array([[0, 2], [1, 2]]), np.array([1.0, 3.0]), 1)
    assert q.lazy_next(None, current_round=1) == (1, 2, 3.0)
    with pytest.raises(ConfigError):
        q.lazy_next(None, current_round=1)


def test_queue_matches_full_rescan_argmax():
    # the selection equals a naive scan of the batch: greatest gain, ties to the smallest pair
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(8, 20))
        pairs = np.array([(a, b) for a in range(n) for b in range(a + 1, n)])
        pairs = pairs[rng.permutation(len(pairs))]
        values = rng.integers(0, 4, size=len(pairs)).astype(float)  # many ties
        q = LazyQueue()
        q.push_many(pairs, values, 3)
        best = q.lazy_next(None, current_round=3)
        expect = max(zip(map(tuple, pairs.tolist()), values), key=lambda kv: (kv[1], (-kv[0][0], -kv[0][1])))
        assert best == (*expect[0], expect[1])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_queue_rejects_non_finite_gains(bad):
    q = LazyQueue()
    with pytest.raises(InvariantError):
        q.push_many(np.array([[0, 1], [0, 2]]), np.array([1.0, bad]), 0)


_BATCH_RUNS = [(kind, None) for kind in Heuristic if kind is not Heuristic.ST_GREEDY] + [
    (kind, 7) for kind in Heuristic
]


@pytest.mark.parametrize("coarse", [False, True], ids=["exact", "coarse"])
@pytest.mark.parametrize(
    "kind,focus", _BATCH_RUNS, ids=[f"{kind.value}-{'global' if v is None else 'local'}" for kind, v in _BATCH_RUNS]
)
def test_every_round_picks_the_argmax_of_its_scored_batch(monkeypatch, kind, focus, coarse):
    # every heuristic but global StGreedy (the triangle pass) scores one batch a round, in one call, and inserts its
    # pair of greatest gain, ties to the lexicographically smallest; coarse gains, rounded up to quarters of the
    # batch's best, tie at the top
    calls = []
    for cls in (greedy._Columns, greedy._Sketch, greedy._Spectral):

        def spy(self, pairs, inner=cls.gains):
            gains = inner(self, pairs)
            gains = np.ceil(4 * gains / gains.max()) if coarse else gains
            calls.append((self.graph.round, pairs.copy(), gains.copy()))
            return gains

        monkeypatch.setattr(cls, "gains", spy)
    g = generate("ba", {"n": 80, "m_attach": 3, "m0": 3}, seed=22)
    k = 3
    if focus is None:
        picked = run_kgrip(g, k, kind, seed=5).inserted_edges
    else:
        picked = run_klrip(g, [focus], k, kind, seed=5)[0].inserted_edges
    assert [r for r, _, _ in calls] == list(range(k))
    tied = 0
    for (a, b), (_, pairs, gains) in zip(picked, calls):
        ties = pairs[gains == gains.max()]
        tied += len(ties) > 1
        assert (a, b) == min(map(tuple, ties.tolist()))
    assert tied or not coarse


def test_round_loop_asks_the_scorer_only_for_its_pick():
    # the loop hands each round's candidates to the scorer's pick and inserts what it returns, here the batch's last
    # pair rather than its best; it asks the scorer for exactly one report a round, of the picked pair, before the
    # insertion, and hands the report's vector to both parts' update: it asks for no gains and keeps no selection
    g = generate("ba", {"n": 40, "m_attach": 3}, seed=1)
    calls, reports = [], []

    class Stub:
        def candidates(self, round_idx):
            return g.non_edges()

        def pick(self, pairs):
            calls.append(("pick", tuple(pairs[-1].tolist())))
            return calls[-1][1]

        def report(self, a, b):
            calls.append(("report", (a, b)))
            assert not g.has_edge(a, b)
            reports.append(linalg.report_insertion(g, a, b))
            return reports[-1]

        def update(self, a, b, round_idx, report):
            calls.append(("update", (a, b)))
            assert report is reports[round_idx][1]

    stub = Stub()
    timings = dict.fromkeys(("compute", "eval", "update", "report"), 0.0)
    picked, gains = greedy._run_rounds(g, (stub, stub), 2, timings)
    first, second = picked
    assert calls == [
        ("pick", first), ("report", first), ("update", first), ("update", first),  # source and scorer
        ("pick", second), ("report", second),  # no update after the last insertion
    ]
    assert gains == [gain for gain, _ in reports] and all(gain > 0 for gain in gains)


@pytest.mark.parametrize(
    "n,rel,vector_rel", [(120, 1e-12, 1e-12), (DENSE_SOLVE_MAX_N + 50, 1e-8, 1e-6)], ids=["factor", "cg"]
)
@pytest.mark.parametrize("kind", [Heuristic.ST_GREEDY, Heuristic.SIMPL_STOCH], ids=lambda kind: kind.value)
def test_dense_report_equals_the_report_solve(kind, n, rel, vector_rel, monkeypatch):
    # the dense scorer reads every round's report off P; a solve on the same graph and round (through the dense
    # factor at n = 120, by CG above DENSE_SOLVE_MAX_N, whose vector is only as close as its residual tolerance)
    # gives the same gain and vector
    checked = []
    inner = greedy._DenseP.report

    def spy(self, a, b):
        gain, v = inner(self, a, b)
        solved_gain, solved = linalg.report_insertion(self.graph.copy(), a, b)
        assert gain == pytest.approx(solved_gain, rel=rel)
        assert np.max(np.abs(v - solved)) <= vector_rel * np.max(np.abs(solved))
        checked.append((self.focus, self.graph.round))
        return gain, v

    monkeypatch.setattr(greedy._DenseP, "report", spy)
    g = generate("ba", {"n": n, "m_attach": 3, "m0": 3}, seed=1)
    k, focus = 4, [3, 30, 90]
    run_kgrip(g, k, kind, seed=7)
    run_klrip(g, focus, k, kind, seed=7)
    assert checked == [(v, r) for v in [None, *focus] for r in range(k)]


def test_dense_report_keeps_the_report_contract():
    # a residual above solver_eps raises SolverError, as a solve's would, from the scorer and from a run; the pair
    # must be a non-edge and the state must stand at the graph's round
    g = generate("ws", {"n": 120, "degree": 10, "rewire_prob": 0.01}, seed=1)

    def dense_scorer(eps):
        scorer = greedy._DenseP(g.copy(), 2, GreedyParams(solver_eps=eps), 0, Heuristic.ST_GREEDY)
        scorer.compute(greedy._StGreedy(scorer.graph, 2, scorer.params, 0, Heuristic.ST_GREEDY))
        return scorer

    scorer = dense_scorer(1e-20)
    with pytest.raises(SolverError, match="missed the residual tolerance") as err:
        scorer.report(*scorer.pick(None))
    assert 1e-20 < err.value.achieved_residual <= linalg.RESIDUAL_TOL
    with pytest.raises(SolverError):
        run_kgrip(g, 2, Heuristic.ST_GREEDY, GreedyParams(solver_eps=1e-20))
    scorer = dense_scorer(linalg.RESIDUAL_TOL)
    a, b = scorer.pick(None)
    assert scorer.report(a, b)[0] > 0
    with pytest.raises(InvariantError, match="non-edges"):
        scorer.report(*next(g.edges()))
    scorer.graph.insert_edge(a, b)
    with pytest.raises(StaleStateError, match="round"):
        scorer.report(*scorer.graph.non_edges()[0].tolist())


@pytest.mark.parametrize(
    "n,degree,naive_edges",
    [
        # oracles.greedy_naive's edges; it takes about 70 s on this graph
        (120, 10, [(37, 92), (14, 82), (43, 98), (1, 49)]),
        (50, 6, None),  # the oracle runs here
    ],
)
def test_stgreedy_caps_single_rescores_on_ring_lattices(monkeypatch, n, degree, naive_edges):
    # after a long-range insertion almost every earlier gain beats the best current one,
    # which once cost the lazy pop 1324-2557 single re-scores a round on WS(120); the
    # dense scorer instead passes once a round over the upper triangle, every non-edge of the graph as it stands
    g = generate("ws", {"n": n, "degree": degree, "rewire_prob": 0.01}, seed=1)
    passes, scored = Counter(), Counter()
    best_non_edge, gains = linalg.DenseState.best_non_edge, greedy._DenseP.gains

    def counted_pass(self):
        passes[self.graph.round] += 1
        return best_non_edge(self)

    def counted_gains(self, pairs):
        scored[self.graph.round] += len(pairs)
        return gains(self, pairs)

    monkeypatch.setattr(linalg.DenseState, "best_non_edge", counted_pass)
    monkeypatch.setattr(greedy._DenseP, "gains", counted_gains)
    sol = run_kgrip(g, 4, Heuristic.ST_GREEDY, seed=1)
    assert passes == {r: 1 for r in range(4)}
    assert not scored  # no pair array is scored
    assert sol.inserted_edges == (naive_edges or oracles.greedy_naive(g, 4))


def _complete_minus_matching(n: int) -> Graph:
    return Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n) if not (a % 2 == 0 and b == a + 1)])


@pytest.mark.parametrize(
    "graph,exact_ties",
    [
        (generate("ba", {"n": 60, "m_attach": 2, "m0": 2}, seed=3), False),
        (generate("ws", {"n": 50, "degree": 4, "rewire_prob": 0.1}, seed=3), False),
        (generate("er", {"n": 45, "p": 0.12}, seed=3), False),
        (Graph(12, [(i, (i + 1) % 12) for i in range(12)]), True),
        (_complete_minus_matching(10), True),
    ],
    ids=["ba", "ws", "er", "cycle", "complete-minus-matching"],
)
def test_triangle_pass_picks_as_the_pool_pass_and_the_naive_oracle(graph, exact_ties):
    # global StGreedy passes over the upper triangle of P and Q; each round its pick equals the oracle's and that of
    # the batch selection (once the pool pass) over every non-edge: the greatest gain, ties to the lexicographically
    # smallest pair. On the symmetric graphs equal gains differ in their last bits, differently in the oracle;
    # rounded in both passes, they tie, and the oracle's pick is only as good
    g = graph.copy()
    for r in range(2):
        scorer = greedy._DenseP(g, 2, GreedyParams(), 0, Heuristic.ST_GREEDY)
        scorer.compute(greedy._StGreedy(g, 2, GreedyParams(), 0, Heuristic.ST_GREEDY))
        if exact_ties:  # the one gain formula of both passes
            scorer.cache._gain = lambda *args: np.round(linalg.DenseState._gain(*args), 9)
        pairs = g.non_edges()
        gains = scorer.gains(pairs)
        ties = pairs[gains == gains.max()]
        picked = scorer.cache.best_non_edge()
        selection = LazyQueue()
        selection.push_many(pairs, gains, r)
        assert picked == selection.lazy_next(None, r)[:2] == tuple(ties[0].tolist())
        naive = oracles.greedy_naive(g, 1)[0]
        if exact_ties:
            assert len(ties) > 1 or r > 0
            assert oracles.gain_brute(g, *naive) == pytest.approx(oracles.gain_brute(g, *picked), rel=1e-9)
        else:
            assert picked == naive
        g.insert_edge(*picked)


# -- run_kgrip -------------------------------------------------------------------


def test_kgrip_p3_stgreedy(p3):
    sol = run_kgrip(p3, 1, Heuristic.ST_GREEDY, seed=1)
    assert sol.inserted_edges == [(0, 2)]
    assert sol.per_edge_true_gain[0] == pytest.approx(2.0, rel=1e-6)
    assert sol.r_initial == pytest.approx(4.0, rel=1e-9)
    assert sol.r_final == pytest.approx(2.0, rel=1e-6)


def test_kgrip_c4_tie_break(c4):
    sol = run_kgrip(c4, 1, Heuristic.ST_GREEDY, seed=1)
    assert sol.inserted_edges == [(0, 2)]  # both diagonals tie; canonical order wins
    assert sol.per_edge_true_gain[0] == pytest.approx(oracles.gain_brute(c4, 0, 2), rel=1e-6)


def test_kgrip_stgreedy_matches_naive_oracle():
    g = generate("er", {"n": 60, "p": 0.15}, seed=5)
    sol = run_kgrip(g, 3, Heuristic.ST_GREEDY, seed=2)
    assert sol.inserted_edges == oracles.greedy_naive(g, 3)


def test_kgrip_rejects_bad_k(k3, p3):
    with pytest.raises(ConfigError):
        run_kgrip(k3, 1, Heuristic.ST_GREEDY)  # complete graph: no non-edges
    with pytest.raises(ConfigError):
        run_kgrip(p3, 0, Heuristic.ST_GREEDY)
    with pytest.raises(ConfigError):
        run_kgrip(p3, 2, Heuristic.ST_GREEDY)  # only one non-edge available


def test_kgrip_rejects_bad_delta(p3):
    with pytest.raises(ConfigError):
        run_kgrip(p3, 1, Heuristic.SIMPL_STOCH, GreedyParams(delta=1.5))


@pytest.mark.parametrize("bad", [2.5, 2.0, "3", 1, np.int64(1)])
def test_kgrip_rejects_non_integer_or_small_cutoff(p3, bad):
    with pytest.raises(ConfigError):
        run_kgrip(p3, 1, Heuristic.SPEC_STOCH, GreedyParams(cutoff=bad))


def test_kgrip_accepts_numpy_integer_cutoff(p3):
    sol = run_kgrip(p3, 1, Heuristic.SPEC_STOCH, GreedyParams(cutoff=np.int64(2)))
    assert sol.inserted_edges == [(0, 2)]


@pytest.mark.parametrize("kind", list(Heuristic))
def test_kgrip_all_heuristics_complete_and_decrease(kind):
    g = generate("er", {"n": 40, "p": 0.15}, seed=6)
    sol = run_kgrip(g, 3, kind, seed=3)
    assert len(sol.inserted_edges) == 3
    assert all(gain > 0 for gain in sol.per_edge_true_gain)
    assert sol.r_final < sol.r_initial
    assert sol.r_final == pytest.approx(
        sol.r_initial - sum(sol.per_edge_true_gain), rel=1e-5
    )
    for a, b in sol.inserted_edges:
        assert not g.has_edge(a, b)  # input untouched


@pytest.mark.parametrize("kind", list(Heuristic))
def test_kgrip_deterministic_given_seed(kind):
    g = generate("er", {"n": 35, "p": 0.18}, seed=7)
    first = run_kgrip(g, 2, kind, seed=11)
    second = run_kgrip(g, 2, kind, seed=11)
    assert first.inserted_edges == second.inserted_edges


def test_simplstoch_full_universe_degenerates_to_stgreedy():
    # a delta tiny enough to clamp the sample to the whole universe each round
    g = generate("er", {"n": 25, "p": 0.2}, seed=8)
    st = run_kgrip(g, 3, Heuristic.ST_GREEDY, seed=1)
    ss = run_kgrip(g, 3, Heuristic.SIMPL_STOCH, GreedyParams(delta=1e-12), seed=1)
    assert ss.inserted_edges == st.inserted_edges


def test_colstoch_candidates_never_include_edges():
    g = generate("er", {"n": 40, "p": 0.2}, seed=9)
    sol = run_kgrip(g, 3, Heuristic.COL_STOCH, seed=4)
    work = g.copy()
    for a, b in sol.inserted_edges:
        assert not work.has_edge(a, b)
        work.insert_edge(a, b)


@pytest.mark.parametrize("kind", [Heuristic.COL_STOCH, Heuristic.COL_STOCH_JLT])
@pytest.mark.parametrize("n", [6, 8, 10, 20])
def test_diag_source_completes_on_complete_graph_minus_an_edge(kind, n):
    # the vertex sample mostly spans only edges; such a round falls back to
    # uniform non-edges instead of running out of candidates
    g = Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) != (0, 1)])
    for seed in range(20):
        assert run_kgrip(g, 1, kind, seed=seed).inserted_edges == [(0, 1)]


def test_colstoch_completes_on_dense_er():
    g = generate("er", {"n": 30, "p": 0.9}, seed=1)  # 41 non-edges
    for seed in range(10):
        assert len(run_kgrip(g, 5, Heuristic.COL_STOCH, seed=seed).inserted_edges) == 5


def test_colstoch_cached_columns_stay_consistent_over_long_runs():
    # after many rounds of block updates, every stored column must still
    # match a fresh solve on the graph it was last brought forward to
    import numpy as np

    from kgrip.greedy import _computed_parts, _run_rounds
    from kgrip.linalg import solve_lpinv_column

    g = generate("er", {"n": 50, "p": 0.15}, seed=15)
    work = g.copy()
    params = GreedyParams()
    parts = _computed_parts(work, 8, Heuristic.COL_STOCH, params, seed=2)

    timings = {"compute": 0.0, "eval": 0.0, "update": 0.0, "report": 0.0}
    picked, _ = _run_rounds(work, parts, 8, timings)
    cache = parts[1].cache
    stored_for = g.copy()  # nothing brings the columns across the last insertion
    for a, b in picked[:-1]:
        stored_for.insert_edge(a, b)
    assert cache.round == stored_for.round
    for v in np.flatnonzero(cache.slot >= 0):
        refreshed = cache.column(v)
        fresh = solve_lpinv_column(stored_for, v)
        assert np.max(np.abs(refreshed - fresh)) <= 10 * params.solver_eps


@pytest.mark.parametrize(
    "model, params, k",
    [
        ("ba", {"n": 700, "m_attach": 3, "m0": 3}, 3),
        ("er", {"n": 700, "p": 0.02}, 3),
        ("ba", {"n": 2000, "m_attach": 3, "m0": 3}, 5),
    ],
    ids=["ba700", "er700", "ba2000"],
)
def test_specstoch_resolves_after_insertions(model, params, k):
    # above the dense eigensolver limit every round after the first carries the low
    # spectrum across the insertion at default parameters, re-solving if it drifts
    g = generate(model, params, seed=1)
    sol = run_kgrip(g, k, Heuristic.SPEC_STOCH, seed=7)
    assert len(sol.inserted_edges) == k
    assert all(gain > 0 for gain in sol.per_edge_true_gain)


def test_specstoch_quality_on_scale_free_graphs():
    # quality is total gain over StGreedy's. The bracket midpoint ranked BA pairs almost
    # backwards (mean 0.13 global, 0.49 local here); the lower bound at the default cutoff
    # reaches 0.96 and 0.88. Single local runs spread from 0.86 to 0.90 here and reach
    # 0.84 on other seeds, so the bounds are set on the mean of four graphs
    def total(solutions):
        return sum(sum(s.per_edge_true_gain) for s in solutions)

    focus = list(range(0, 1000, 100))
    global_q, local_q = [], []
    for graph_seed in range(1, 5):
        g = generate("ba", {"n": 1000, "m_attach": 3}, seed=graph_seed)
        runs = {kind: total([run_kgrip(g, 5, kind, seed=1)]) for kind in (Heuristic.ST_GREEDY, Heuristic.SPEC_STOCH)}
        global_q.append(runs[Heuristic.SPEC_STOCH] / runs[Heuristic.ST_GREEDY])
        runs = {kind: total(run_klrip(g, focus, 2, kind, seed=1)) for kind in (Heuristic.ST_GREEDY, Heuristic.SPEC_STOCH)}
        local_q.append(runs[Heuristic.SPEC_STOCH] / runs[Heuristic.ST_GREEDY])
    assert np.mean(global_q) >= 0.85
    assert np.mean(local_q) >= 0.80


def _per_round_eigensolve(monkeypatch):
    """SpecStoch as it ran before it carried the spectrum: c-1 pairs, eigensolved afresh after every insertion."""
    monkeypatch.setattr(spectral, "RITZ_BUFFER", 0)
    monkeypatch.setattr(spectral, "carry_low_spectrum",
                        lambda graph, state, report, used: spectral.compute_low_spectrum(graph, used + 1))


@pytest.mark.parametrize("n", [12, 20, 35, 40])
def test_specstoch_carrying_the_full_spectrum_picks_as_a_per_round_eigensolve(n, monkeypatch):
    # at the default cutoff c-1 + RITZ_BUFFER pairs clamp to n-1, the whole complement of the ones vector; the step
    # on U alone is exact there, where a report direction, rounding noise once projected, would corrupt the basis
    g = generate("ba", {"n": n, "m_attach": 3}, seed=1)
    carried = {seed: run_kgrip(g, 4, Heuristic.SPEC_STOCH, seed=seed).inserted_edges for seed in (0, 3)}
    _per_round_eigensolve(monkeypatch)
    for seed, edges in carried.items():
        assert edges == run_kgrip(g, 4, Heuristic.SPEC_STOCH, seed=seed).inserted_edges, seed


_DENSE_EIG_GRAPHS = {
    "ba400": lambda: generate("ba", {"n": 400, "m_attach": 3}, seed=2),
    "ws120": lambda: generate("ws", {"n": 120, "degree": 10, "rewire_prob": 0.01}, seed=1),
    "er600": lambda: generate("er", {"n": 600, "p": 0.015}, seed=1),
}


@pytest.mark.parametrize("name", sorted(_DENSE_EIG_GRAPHS))
def test_specstoch_with_the_drift_guard_at_zero_equals_a_per_round_eigensolve(name, monkeypatch):
    # a guard at 0 re-solves every round; the dense eigensolve returns the same leading pairs whatever count is
    # kept, so the runs equal those that eigensolve c-1 pairs afresh each round, bit for bit
    g = _DENSE_EIG_GRAPHS[name]()
    monkeypatch.setattr(spectral, "DRIFT_TOL", 0.0)
    rounds, compute = [], spectral.compute_low_spectrum
    monkeypatch.setattr(spectral, "compute_low_spectrum",
                        lambda graph, c: rounds.append(graph.round) or compute(graph, c))
    runs = [lambda: [run_kgrip(g, 4, Heuristic.SPEC_STOCH, seed=7)],
            lambda: run_klrip(g, [3, 50, 90], 3, Heuristic.SPEC_STOCH, seed=7)]
    guarded = [[(s.inserted_edges, s.per_edge_true_gain) for s in run()] for run in runs]
    assert rounds == [0, 1, 2, 3] + [0] + [1, 2] * 3
    _per_round_eigensolve(monkeypatch)
    assert guarded == [[(s.inserted_edges, s.per_edge_true_gain) for s in run()] for run in runs]


@pytest.mark.parametrize(
    "model, params, focus, k",
    [
        ("ws", {"n": 120, "degree": 10, "rewire_prob": 0.01}, None, 5),
        ("ba", {"n": 650, "m_attach": 3}, None, 5),  # shift-invert Lanczos
        ("ba", {"n": 120, "m_attach": 3}, [3, 30, 60, 90], 2),
        ("ba", {"n": 120, "m_attach": 3}, None, 1),
        ("ba", {"n": 120, "m_attach": 3}, [3, 30], 1),
    ],
    ids=["ws120-k5", "ba650-k5", "ba120-batch-k2", "ba120-k1", "ba120-batch-k1"],
)
def test_specstoch_eigensolves_once_per_run(model, params, focus, k, monkeypatch):
    # one eigensolve per run, or per local batch; later rounds carry its pairs by Rayleigh-Ritz steps. With more
    # than one round it carries RITZ_BUFFER pairs beyond the c-1 in use; a single round asks for c-1 pairs
    cutoffs, compute = [], spectral.compute_low_spectrum
    monkeypatch.setattr(spectral, "compute_low_spectrum", lambda graph, c: cutoffs.append(c) or compute(graph, c))
    g = generate(model, params, seed=1)
    if focus is None:
        run_kgrip(g, k, Heuristic.SPEC_STOCH, seed=7)
    else:
        run_klrip(g, focus, k, Heuristic.SPEC_STOCH, seed=7)
    cutoff = GreedyParams().cutoff
    assert cutoffs == [cutoff if k == 1 else cutoff + spectral.RITZ_BUFFER]


# which preprocessing each heuristic rebuilds between rounds
_REFRESHED_BY = {
    Heuristic.ST_GREEDY: set(),
    Heuristic.SIMPL_STOCH: set(),
    Heuristic.COL_STOCH: {"rank_one_diag_step"},
    Heuristic.SIMPL_STOCH_JLT: {"build_sketch"},
    Heuristic.COL_STOCH_JLT: {"rank_one_diag_step", "build_sketch"},
    Heuristic.SPEC_STOCH: {"carry_low_spectrum"},
}


@pytest.mark.parametrize("kind", list(Heuristic))
def test_refresh_skipped_after_last_insertion(kind, monkeypatch):
    # state is brought forward only for a round that reads it: k-1 times per
    # run and per focus node, the dense pseudoinverse included
    from kgrip import jlt, linalg, spectral

    calls = []
    for module, name in (
        (linalg, "rank_one_diag_step"),
        (jlt, "build_sketch"),
        (spectral, "compute_low_spectrum"),
        (spectral, "carry_low_spectrum"),
        (linalg.DenseState, "apply_insertion"),
    ):
        original = getattr(module, name)

        def counted(first, *args, _name=name, _original=original, **kwargs):
            graph = first.graph if isinstance(first, linalg.DenseState) else first
            calls.append((_name, graph.round))
            return _original(first, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    g = generate("ba", {"n": 40, "m_attach": 2, "m0": 2}, seed=3)
    k, focus = 3, [0, 9]
    for runs, run in ((1, lambda: run_kgrip(g, k, kind, seed=5)),
                      (len(focus), lambda: run_klrip(g, focus, k, kind, seed=5))):
        calls.clear()
        run()
        # compute runs on the unmodified graph (round 0); refreshes follow insertions
        for name in _REFRESHED_BY[kind]:
            after_compute = sorted(r for f, r in calls if f == name and r > 0)
            assert after_compute == sorted(list(range(1, k)) * runs), (kind, name)
        refreshed = {f for f, r in calls if r > 0 and f != "apply_insertion"}
        assert refreshed == _REFRESHED_BY[kind]
        dense = kind in (Heuristic.ST_GREEDY, Heuristic.SIMPL_STOCH)
        assert sum(f == "apply_insertion" for f, _ in calls) == ((k - 1) * runs if dense else 0)


def test_quality_on_scale_free_instances():
    # heavy-tailed instances have the flat-topped gain distributions the
    # stochastic sampling math relies on: sampled quality should sit close to
    # the exhaustive greedy there (thresholds hold with margin; the README's
    # acceptance-suite paragraph gives the lower scores on uniform ER)
    import math

    def gmean(vals):
        return math.exp(sum(math.log(v) for v in vals) / len(vals))

    simpl, local = [], []
    for seed in range(5):
        g = generate("ba", {"n": 200, "m_attach": 4, "m0": 4}, seed=700 + seed)
        best = run_kgrip(g, 4, Heuristic.ST_GREEDY, seed=seed)
        sampled = run_kgrip(g, 4, Heuristic.SIMPL_STOCH, seed=seed)
        simpl.append(sum(sampled.per_edge_true_gain) / sum(best.per_edge_true_gain))
        focus = 50 + seed
        best_l = run_klrip(g, [focus], 2, Heuristic.ST_GREEDY, seed=seed)[0]
        sampled_l = run_klrip(g, [focus], 2, Heuristic.COL_STOCH, seed=seed)[0]
        local.append(
            sum(sampled_l.per_edge_true_gain) / sum(best_l.per_edge_true_gain)
        )
    assert gmean(simpl) >= 0.93
    assert gmean(local) >= 0.85


def test_heuristics_rarely_beat_stgreedy():
    # sanity direction over 40 trials, soft-asserted: stochastic totals should
    # not exceed the exhaustive greedy's except in a sliver of runs (greedy is
    # not optimal, so occasional wins are legitimate)
    wins = 0
    trials = 0
    kinds = (
        Heuristic.SIMPL_STOCH,
        Heuristic.COL_STOCH,
        Heuristic.SIMPL_STOCH_JLT,
        Heuristic.SPEC_STOCH,
    )
    for seed in range(10):
        g = generate("er", {"n": 30, "p": 0.2}, seed=40 + seed)
        best = sum(run_kgrip(g, 2, Heuristic.ST_GREEDY, seed=seed).per_edge_true_gain)
        for kind in kinds:
            total = sum(run_kgrip(g, 2, kind, seed=seed).per_edge_true_gain)
            trials += 1
            if total > best * (1 + 1e-9):
                wins += 1
    assert trials == 40
    assert wins / trials <= 0.05  # direction holds in >= 95% of trials


# -- run_klrip ------------------------------------------------------------------


def test_klrip_star_matches_brute_force():
    s5 = star_graph(5)
    sol = run_klrip(s5, [1], 1, Heuristic.ST_GREEDY, seed=4)[0]
    # all three leaf pairs tie by symmetry: the chosen edge must achieve the
    # brute-force maximum gain over the candidates
    (a, b) = sol.inserted_edges[0]
    assert a == 1 or b == 1
    best = max(oracles.gain_brute(s5, 1, b2) for b2 in s5.non_neighbors(1))
    assert sol.per_edge_true_gain[0] == pytest.approx(best, rel=1e-6)


def test_klrip_equals_restricted_naive_greedy():
    g = generate("er", {"n": 30, "p": 0.15}, seed=10)
    sol = run_klrip(g, [4], 3, Heuristic.ST_GREEDY, seed=12)[0]
    assert sol.inserted_edges == oracles.greedy_naive_local(g, 4, 3)


@pytest.mark.parametrize(
    "params,graph_seed,focus",
    [
        ({"n": 76, "degree": 4, "rewire_prob": 0.05}, 508, 17),
        ({"n": 73, "degree": 6, "rewire_prob": 0.05}, 529, 36),
    ],
)
def test_local_stgreedy_equals_naive_oracle_on_ring_lattices(params, graph_seed, focus):
    # gains of the focus row rise after insertions here; a lazy pop of stale exact
    # gains picked (17,69),(17,26) and (11,36),(36,71) on these two graphs
    g = generate("ws", params, seed=graph_seed)
    sol = run_klrip(g, [focus], 3, Heuristic.ST_GREEDY, seed=1)[0]
    assert sol.inserted_edges == oracles.greedy_naive_local(g, focus, 3)


def test_local_stgreedy_takes_a_gain_that_rose():
    # after (5,119) the gain of (5,77) rises from 17.366 to 17.417 and beats that of
    # (5,101), 17.369, which a stale gain taken as an upper bound would pick
    g = generate("ba", {"n": 120, "m_attach": 3, "m0": 3}, seed=1536272198)
    before = linalg.DenseState.compute(g)
    after = g.copy()
    after.insert_edge(5, 119)
    after = linalg.DenseState.compute(after)
    assert linalg.gain_exact(after, 5, 77) > linalg.gain_exact(before, 5, 77)
    assert linalg.gain_exact(after, 5, 77) > linalg.gain_exact(after, 5, 101)
    assert run_klrip(g, [5], 2, Heuristic.ST_GREEDY, seed=1)[0].inserted_edges == [(5, 119), (5, 77)]


@pytest.mark.parametrize("focus", [None, 36])
def test_simplstoch_picks_the_exact_argmax_of_its_round_sample(monkeypatch, focus):
    # round r scores exactly round r's sample, and its pick has the greatest exact gain among that sample's pairs,
    # from the pseudoinverse of that round's graph; the focus run has rounds where gains rise after an insertion
    g = generate("ws", {"n": 73, "degree": 6, "rewire_prob": 0.05}, seed=529)
    samples, candidates = [], greedy._UniformPairs.candidates

    def recorded(self, r):
        samples.append(candidates(self, r))
        return samples[-1].copy()

    monkeypatch.setattr(greedy._UniformPairs, "candidates", recorded)
    scored, dense_gains = [], greedy._DenseP.gains

    def spy(self, pairs):
        scored.append(pairs.copy())
        return dense_gains(self, pairs)

    monkeypatch.setattr(greedy._DenseP, "gains", spy)
    params = GreedyParams(delta=0.5)
    if focus is None:
        picked = run_kgrip(g, 3, Heuristic.SIMPL_STOCH, params, seed=3).inserted_edges
    else:
        picked = run_klrip(g, [focus], 3, Heuristic.SIMPL_STOCH, params, seed=3)[0].inserted_edges
    assert len(scored) == len(samples) == 3
    work = g.copy()
    for r, (a, b) in enumerate(picked):
        assert np.array_equal(scored[r], samples[r])
        p = linalg.pseudoinverse_dense(work)
        gains = {}
        for u, v in samples[r].tolist():
            d = p[:, u] - p[:, v]
            gains[(u, v)] = g.n * float(d @ d) / (1.0 + d[u] - d[v])
        assert (a, b) in gains
        assert gains[(a, b)] >= max(gains.values()) * (1 - 1e-12)
        work.insert_edge(a, b)


def test_klrip_all_edges_incident_to_focus():
    g = generate("er", {"n": 40, "p": 0.12}, seed=13)
    for kind in (Heuristic.SIMPL_STOCH, Heuristic.COL_STOCH, Heuristic.SPEC_STOCH):
        sol = run_klrip(g, [7], 3, kind, seed=5)[0]
        for a, b in sol.inserted_edges:
            assert 7 in (a, b)


@pytest.mark.parametrize(
    "kind",
    [
        Heuristic.ST_GREEDY,
        Heuristic.SIMPL_STOCH,
        Heuristic.COL_STOCH,
        Heuristic.SIMPL_STOCH_JLT,
        Heuristic.COL_STOCH_JLT,
        Heuristic.SPEC_STOCH,
    ],
)
def test_klrip_batch_reproduces_single_focus_runs(kind):
    # above the dense limit the foci share the input's sparse factor, if preprocessing built one, and grow their own
    for g in (generate("er", {"n": 50, "p": 0.12}, seed=9), generate("ba", {"n": 250, "m_attach": 3}, seed=9)):
        focus = [0, 7, 13]
        batch = run_klrip(g, focus, 2, kind, seed=11)
        for v, sol in zip(focus, batch):
            single = run_klrip(g, [v], 2, kind, seed=11)[0]
            assert sol.inserted_edges == single.inserted_edges
            assert sol.per_edge_true_gain == single.per_edge_true_gain
            # the batch solves every focus's columns in one block, one focus its own
            assert sol.r_final == pytest.approx(single.r_final, rel=1e-12)


@pytest.mark.parametrize("kind", list(Heuristic))
def test_r_initial_never_calls_the_dense_oracle(kind, monkeypatch):
    # every run's r_initial is n times the sum of its scorer's exact diagonal, the dense scorers' P's included;
    # linalg.total_resistance is the tests' oracle only
    instances = [generate("ba", {"n": n, "m_attach": 3}, seed=1) for n in (120, 650)]
    expected = [total_resistance(g) for g in instances]
    calls = []

    def spy(obj):
        calls.append(type(obj).__name__)
        return total_resistance(obj)

    for module in [m for name, m in sys.modules.items() if name == "kgrip" or name.startswith("kgrip.")]:
        for name, value in list(vars(module).items()):
            if value is total_resistance:  # wherever the name was imported
                monkeypatch.setattr(module, name, spy)
    for g, r_initial in zip(instances, expected):
        for solutions in ([run_kgrip(g, 2, kind, seed=1)], run_klrip(g, [4, 30, 90], 2, kind, seed=1)):
            assert not calls, (kind, g.n)
            for solution in solutions:
                assert solution.r_initial == pytest.approx(r_initial, rel=1e-9)


@pytest.mark.parametrize("kind", list(Heuristic))
def test_no_dense_factorisation_of_a_grown_graph(kind, monkeypatch):
    # r_final comes from one Woodbury block solve on the input graph, never a dense Cholesky
    calls = []
    inner = linalg._shifted_cholesky

    def spy(graph):
        calls.append((graph.m, sys._getframe(1).f_code.co_name))  # the caller: P or R_tot
        return inner(graph)

    monkeypatch.setattr(linalg, "_shifted_cholesky", spy)
    g = generate("ba", {"n": 90, "m_attach": 2, "m0": 2}, seed=3)
    for run in (lambda: run_kgrip(g, 3, kind, seed=1), lambda: run_klrip(g, [4, 20, 50], 2, kind, seed=1)):
        calls.clear()
        run()
        assert all(m == g.m for m, _ in calls)
        if kind in (Heuristic.ST_GREEDY, Heuristic.SIMPL_STOCH):  # pseudoinverse_dense alone
            assert [caller for _, caller in calls] == ["pseudoinverse_dense"]
        else:
            assert len(calls) <= 1


@pytest.mark.parametrize("kind", list(Heuristic))
def test_small_graphs_factor_each_graph_round_once(kind, factorisations):
    # up to DENSE_SOLVE_MAX_N, P, R_tot and every solve of a run share one factor of L + J/n, which the
    # insertions grow: one factorisation for a global run and for a local batch alike
    def graph_factorisations(n):  # I + B^T X is factored too, at the order of an edge set
        return sum(order >= n - 1 for order in factorisations.dense)

    g = generate("ba", {"n": 120, "m_attach": 3, "m0": 3}, seed=1)
    run_klrip(g, [3, 30, 60, 90], 2, kind, seed=5)
    assert graph_factorisations(g.n) == 1
    factorisations.dense.clear()
    g = generate("ws", {"n": 120, "degree": 10, "rewire_prob": 0.01}, seed=1)
    run_kgrip(g, 4, kind, seed=5)
    assert graph_factorisations(g.n) == 1 and factorisations.sparse == []


_FACTOR_HOLDING = [Heuristic.COL_STOCH, Heuristic.SIMPL_STOCH_JLT, Heuristic.COL_STOCH_JLT, Heuristic.SPEC_STOCH]


def test_graphs_above_the_dense_limit_are_factored_once_per_run(factorisations):
    # a grown graph is never factored again: preprocessing or r_initial factors the preprocessed graph, before the
    # first insertion, every focus of a batch grows a copy of that one factor, and the r_final block solves through it
    for n in (DENSE_SOLVE_MAX_N + 50, 650):
        g = generate("ba", {"n": n, "m_attach": 3}, seed=1)
        for kind in _FACTOR_HOLDING:
            for run in (lambda: run_kgrip(g, 3, kind, seed=7), lambda: run_klrip(g, [5, 40, 100], 2, kind, seed=7)):
                factorisations.sparse.clear()
                run()
                assert len(factorisations.sparse) == 1, (n, kind)


# the three benchmark shapes, a global run and a local batch between the dense solve limit and the eigensolver's
_TRAFFIC_SHAPES = {
    "ba650": ("ba", {"n": 650, "m_attach": 3, "m0": 3}, 1, None),
    "ws120": ("ws", {"n": 120, "degree": 10, "rewire_prob": 0.01}, 4, None),
    "ba120-4foci": ("ba", {"n": 120, "m_attach": 3, "m0": 3}, 2, [3, 30, 60, 90]),
    "ba400": ("ba", {"n": 400, "m_attach": 3}, 3, None),
    "ws300-8foci": ("ws", {"n": 300, "degree": 10, "rewire_prob": 0.01}, 2, list(range(5, 300, 37))),
}


@pytest.mark.parametrize("shape", sorted(_TRAFFIC_SHAPES))
def test_solve_traffic_of_every_heuristic(shape, monkeypatch, cg_calls, factorisations):
    # a solve never factors above DENSE_SOLVE_MAX_N: StGreedy and SimplStoch, which hold the dense P, read their
    # reports off it and make one solve a run, the r_final block, by CG there and with no sparse factor built; every
    # other run factors its graph once, at the caller that needs the factor, and every one of its solves goes
    # through it
    paths = []
    for module in (linalg, jlt):

        def spy(graph, rhs, *args, inner=linalg.solve, **kwargs):
            before = cg_calls[0]
            x = inner(graph, rhs, *args, **kwargs)
            paths.append("cg" if cg_calls[0] > before else "factor")
            return x

        monkeypatch.setattr(module, "solve", spy)
    model, params, k, focus = _TRAFFIC_SHAPES[shape]
    g = generate(model, params, seed=1)
    for kind in Heuristic:
        paths.clear()
        factorisations.dense.clear()
        factorisations.sparse.clear()
        run_kgrip(g, k, kind, seed=7) if focus is None else run_klrip(g, focus, k, kind, seed=7)
        dense_p = kind not in _FACTOR_HOLDING
        assert set(paths) == {"cg" if dense_p and g.n > DENSE_SOLVE_MAX_N else "factor"}, kind
        assert len(paths) == 1 or not dense_p, kind
        built = factorisations.dense.count(g.n) + len(factorisations.sparse)  # L + J/n dense, L[1:,1:] sparse
        assert built == 1 and not (dense_p and factorisations.sparse), kind


def test_specstoch_below_the_eigensolver_limit_solves_through_the_r_initial_factor(factorisations, cg_calls):
    # SpecStoch's dense eigensolve (n <= 600) holds no factor; r_initial builds the sparse one, as for every other
    # factor-holding heuristic, and the reports and the r_final block solve through it, with no CG and no dense
    # Cholesky of L + J/n
    g = generate("ba", {"n": 400, "m_attach": 3}, seed=1)
    expected = total_resistance(g)
    for run in (lambda: [run_kgrip(g, 3, Heuristic.SPEC_STOCH, seed=7)],
                lambda: run_klrip(g, [5, 40, 100], 2, Heuristic.SPEC_STOCH, seed=7)):
        factorisations.sparse.clear()
        factorisations.dense.clear()
        cg_calls[0] = 0
        solutions = run()
        assert cg_calls[0] == 0 and len(factorisations.sparse) == 1
        assert not any(order >= g.n - 1 for order in factorisations.dense)
        for solution in solutions:
            assert solution.r_initial == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n", [DENSE_SOLVE_MAX_N + 50, 650])
def test_r_initial_on_the_sparse_factor_adds_no_factorisation(n, factorisations):
    # r_initial factors the preprocessed graph where the run would factor it later anyway, and at k = 1 the lone
    # report and the r_final columns solve through that factor
    g = generate("ba", {"n": n, "m_attach": 3}, seed=1)
    expected = total_resistance(g)
    for kind in _FACTOR_HOLDING:
        for k in (1, 3):
            factorisations.sparse.clear()
            solution = run_kgrip(g, k, kind, seed=7)
            assert len(factorisations.sparse) == 1
            assert solution.r_initial == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("kind", list(Heuristic), ids=lambda kind: kind.value)
def test_r_initial_on_the_sparse_factor_keeps_the_dense_cap(kind, monkeypatch, factorisations):
    # the dense cap bounds every run, the selected inversion's r_initial too (its scratch Z is still square), and
    # is checked before any work: no factor, sketch or eigensolve is built above it
    monkeypatch.setattr(linalg, "DENSE_CAP_DEFAULT", 300)
    g = generate("ba", {"n": 650, "m_attach": 3}, seed=1)
    for run in (lambda: run_kgrip(g, 1, kind, seed=7), lambda: run_klrip(g, [5, 40], 1, kind, seed=7)):
        with pytest.raises(ConfigError, match="dense budget"):
            run()
    assert factorisations.sparse == [] and factorisations.dense == []


@pytest.mark.parametrize("n", [120, DENSE_SOLVE_MAX_N + 50])
def test_scorers_are_only_asked_for_non_edges(n, monkeypatch):
    # ColumnCache.gains trusts its pairs, so every batch a scorer receives must hold non-edges of the graph as it stands
    batches = []
    for cls in (greedy._Columns, greedy._Sketch, greedy._Spectral):

        def checked(self, pairs, inner=cls.gains):
            a, b = pairs[:, 0], pairs[:, 1]
            assert np.all(a != b) and not np.any(self.graph.has_edges(a, b))
            batches.append(len(pairs))
            return inner(self, pairs)

        monkeypatch.setattr(cls, "gains", checked)
    g = generate("ba", {"n": n, "m_attach": 3, "m0": 3}, seed=4)
    for kind in Heuristic:
        batches.clear()
        run_kgrip(g, 3, kind, seed=2)
        run_klrip(g, [5, 40, 100], 2, kind, seed=2)
        assert batches


def test_validate_names_both_computations():
    g = generate("ba", {"n": 60, "m_attach": 2, "m0": 2}, seed=4)
    sol = run_kgrip(g, 3, Heuristic.SIMPL_STOCH, seed=2)
    sol.per_edge_true_gain[1] *= 1.01
    with pytest.raises(InvariantError) as err:
        sol.validate()
    message = str(err.value)
    assert "Woodbury block update on the input graph" in message
    assert "r_initial minus the sequential per-round exact gains" in message
    sequential = sol.r_initial - sum(sol.per_edge_true_gain)
    for value in (sol.r_final, sequential, 1e-5 * max(1.0, abs(sol.r_initial))):
        assert repr(value) in message


def _assert_runs_repeat_exactly(g: Graph, kind: Heuristic) -> None:
    # a run's solve path follows its input's edges: neither a run's own solves
    # nor the caller's factor request, which leaves a factor on the graph, may carry over
    first = run_kgrip(g, 3, kind, seed=4)
    first_local = run_klrip(g, [5, 60], 2, kind, seed=4)
    g.factor()
    assert g.has_factor
    for _ in range(2):
        again = run_kgrip(g, 3, kind, seed=4)
        assert (again.inserted_edges, again.per_edge_true_gain) == (first.inserted_edges, first.per_edge_true_gain)
        local = run_klrip(g, [5, 60], 2, kind, seed=4)
        assert [s.inserted_edges for s in local] == [s.inserted_edges for s in first_local]
        assert [s.per_edge_true_gain for s in local] == [s.per_edge_true_gain for s in first_local]


@pytest.mark.parametrize("kind", list(Heuristic))
def test_runs_on_one_graph_object_repeat_exactly(kind):
    _assert_runs_repeat_exactly(generate("ws", {"n": 120, "degree": 10, "rewire_prob": 0.01}, seed=2), kind)


_ABOVE_DENSE = DENSE_SOLVE_MAX_N + 50  # the caller's factor request leaves a sparse factor here


@pytest.mark.parametrize("kind", list(Heuristic))
@pytest.mark.parametrize(
    "model, params",
    [("ws", {"n": _ABOVE_DENSE, "degree": 10, "rewire_prob": 0.01}), ("ba", {"n": _ABOVE_DENSE, "m_attach": 3})],
    ids=["ws", "ba"],
)
def test_runs_above_the_dense_limit_repeat_exactly(model, params, kind):
    _assert_runs_repeat_exactly(generate(model, params, seed=2), kind)


@pytest.mark.parametrize("kind", list(Heuristic))
def test_local_batch_builds_one_laplacian_per_grown_round(kind, monkeypatch):
    # at most one per grown round: the caller's graph builds the input's Laplacian once (the connectivity check) and
    # every copy shares it; the rounds judge their residuals by adding the inserted edges to its products and read
    # non-neighbours off the edge keys, so only SpecStoch's Ritz step and degree bound, which read the grown CSR,
    # build one, for each of a focus run's rounds 1 .. k-1
    built, build = [], Graph._build_laplacian
    monkeypatch.setattr(Graph, "_build_laplacian", lambda graph: built.append(graph.round) or build(graph))
    g = generate("ba", {"n": 120, "m_attach": 3, "m0": 3}, seed=1)
    focus, k = [3, 30, 60, 90], 2
    run_klrip(g, focus, k, kind, seed=5)
    grown = len(focus) * (k - 1) if kind is Heuristic.SPEC_STOCH else 0
    assert len(built) == 1 + grown
    assert built == [0] + [1] * grown


def test_klrip_saturated_focus_rejected():
    s4 = star_graph(4)
    with pytest.raises(ConfigError) as err:
        run_klrip(s4, [0], 1, Heuristic.ST_GREEDY)  # center is adjacent to all
    assert "0" in str(err.value)


def test_klrip_focus_out_of_range(p3):
    with pytest.raises(ConfigError):
        run_klrip(p3, [5], 1, Heuristic.ST_GREEDY)
    # a repeated focus would run twice and return two identical solutions
    with pytest.raises(ConfigError, match="focus node 2 is listed more than once"):
        run_klrip(p3, [2, 0, 2], 1, Heuristic.ST_GREEDY)


def test_solution_serialization_roundtrip(p3):
    sol = run_kgrip(p3, 1, Heuristic.ST_GREEDY, seed=1)
    doc = sol.to_dict()
    assert doc["inserted_edges"] == [[0, 2]]
    assert doc["total_gain"] == pytest.approx(2.0, rel=1e-6)
    assert set(doc["timings"]) >= {"compute", "eval", "update", "report", "resistance"}


@pytest.mark.parametrize(
    "model, params, seed",
    [
        ("ba", {"n": 120, "m_attach": 3, "m0": 3}, 1),
        ("ws", {"n": 90, "degree": 6, "rewire_prob": 0.05}, 2),
        ("er", {"n": 70, "p": 0.1}, 3),
    ],
)
@pytest.mark.parametrize("kind", [Heuristic.ST_GREEDY, Heuristic.SIMPL_STOCH])
def test_dense_runs_read_initial_resistance_off_the_pseudoinverse(model, params, seed, kind):
    # n * trace of the state compute builds agrees with the Cholesky route
    g = generate(model, params, seed=seed)
    expected = total_resistance(g)
    assert run_kgrip(g, 2, kind, seed=4).r_initial == pytest.approx(expected, rel=1e-12)
    assert run_klrip(g, [3], 2, kind, seed=4)[0].r_initial == pytest.approx(expected, rel=1e-12)


@pytest.fixture
def tree_diagonal(monkeypatch):
    """``tree_diagonal(epsilon)`` makes diag sources weigh their vertices by the spanning-tree estimate of diag(L+) at
    accuracy epsilon, the paper's, drawn on the plain preprocessing stream, instead of by the exact diagonal; the
    rank-one update brings it forward as before."""

    def use(epsilon: float) -> None:
        def compute(self, scorer):
            rng = derive_rng(self.seed, greedy._PRE_STREAM, self.kind.value)
            _, self.running = ust.approx_diag_lpinv(self.graph, epsilon, rng, self.params.solver_eps)
            self.size_sample()

        monkeypatch.setattr(greedy._DiagVertices, "compute", compute)

    return use


def test_colstochjlt_draws_trees_and_sketch_from_separate_streams(monkeypatch, tree_diagonal):
    # with the tree estimate as the diag source, the trees keep the plain stream and the sketch a token of its own
    states = {"trees": [], "sketch": []}
    approx_diag, build_sketch = ust.approx_diag_lpinv, jlt.build_sketch

    def spy_diag(graph, epsilon, rng, *args):
        states["trees"].append(rng.bit_generator.state)
        return approx_diag(graph, epsilon, rng, *args)

    def spy_sketch(graph, q, rng, *args, **kwargs):
        states["sketch"].append(rng.bit_generator.state)
        return build_sketch(graph, q, rng, *args, **kwargs)

    monkeypatch.setattr(ust, "approx_diag_lpinv", spy_diag)
    monkeypatch.setattr(jlt, "build_sketch", spy_sketch)
    tree_diagonal(0.3)
    g = generate("ba", {"n": 60, "m_attach": 3, "m0": 3}, seed=8)
    run_kgrip(g, 3, Heuristic.COL_STOCH_JLT, seed=2)
    # compute draws the initial trees and builds the first sketch; two refreshes rebuild it
    assert len(states["trees"]) == 1 and len(states["sketch"]) == 3
    assert states["trees"][0] != states["sketch"][0]


def test_colstoch_samples_trees_only_for_the_initial_diagonal(monkeypatch, tree_diagonal):
    # with the tree estimate as the diag source, the initial estimate draws one tree sample; the updates draw none
    events = []
    approx_diag, sample = ust.approx_diag_lpinv, ust.sample_trees

    def spy_diag(*args):
        events.append("approx_diag_lpinv")
        return approx_diag(*args)

    def spy_sample(*args):
        events.append("sample_trees")
        return sample(*args)

    monkeypatch.setattr(ust, "approx_diag_lpinv", spy_diag)
    monkeypatch.setattr(ust, "sample_trees", spy_sample)
    tree_diagonal(0.3)
    g = generate("ba", {"n": 60, "m_attach": 3, "m0": 3}, seed=8)
    run_kgrip(g, 3, Heuristic.COL_STOCH, seed=2)
    assert events == ["approx_diag_lpinv", "sample_trees"]
    events.clear()
    run_klrip(g, [0, 9], 3, Heuristic.COL_STOCH, seed=2)
    assert events == ["approx_diag_lpinv", "sample_trees"]


def test_default_tree_budget_is_pinned(monkeypatch, tree_diagonal):
    # the estimate's accuracy 0.3, the tree-based runs' last default, sets its sample:
    # ceil(ln 650 / 0.3^2) = 72 trees at n = 650
    counts = []
    sample = ust.sample_trees

    def spy(graph, roots, count, rng):
        counts.append(count)
        return sample(graph, roots, count, rng)

    monkeypatch.setattr(ust, "sample_trees", spy)
    tree_diagonal(0.3)
    g = generate("ba", {"n": 650, "m_attach": 3, "m0": 3}, seed=1)
    run_kgrip(g, 1, Heuristic.COL_STOCH, seed=1)
    assert counts == [ust.tree_budget(650, 0.3)] == [72]


def test_default_tree_budget_keeps_col_quality(monkeypatch, tree_diagonal):
    # with the tree estimate as the diag source, the sample at accuracy 0.3 must
    # not cost quality against the larger sample at 0.1 on the same
    # graphs and run seeds; the mean pools colstoch and colstochjlt, whose
    # sketch gains alone spread too widely over six runs for a 0.02 margin
    drawn, sample = [], ust.sample_trees

    def spy(graph, roots, count, rng):
        drawn.append(count)
        return sample(graph, roots, count, rng)

    monkeypatch.setattr(ust, "sample_trees", spy)
    default, fine = [], []
    for graph_seed in (1, 2, 3):
        g = generate("ba", {"n": 650, "m_attach": 3, "m0": 3}, seed=graph_seed)
        best = sum(run_kgrip(g, 2, Heuristic.ST_GREEDY).per_edge_true_gain)
        for kind in (Heuristic.COL_STOCH, Heuristic.COL_STOCH_JLT):
            for seed in (1, 2):
                tree_diagonal(0.3)
                default.append(sum(run_kgrip(g, 2, kind, seed=seed).per_edge_true_gain) / best)
                tree_diagonal(0.1)
                fine.append(sum(run_kgrip(g, 2, kind, seed=seed).per_edge_true_gain) / best)
    assert drawn == [ust.tree_budget(650, 0.3), ust.tree_budget(650, 0.1)] * 12  # every run drew its own sample
    assert np.mean(default) >= np.mean(fine) - 0.02, (default, fine)


_R_INITIAL_KINDS = [Heuristic.COL_STOCH, Heuristic.COL_STOCH_JLT, Heuristic.SIMPL_STOCH_JLT, Heuristic.SPEC_STOCH]


@pytest.mark.parametrize("kind", list(Heuristic), ids=lambda kind: kind.value)
def test_col_runs_read_the_exact_diagonal_and_draw_no_trees(kind, monkeypatch):
    # the diag source weighs its first draw by the exact diag(L+), from the pass that also gives r_initial; no run,
    # global or local, reaches the spanning-tree estimate or draws a tree
    weights, draw = [], greedy.sample_candidates_diag_weighted
    monkeypatch.setattr(
        greedy, "sample_candidates_diag_weighted", lambda d, *args, **kw: weights.append(d) or draw(d, *args, **kw)
    )
    monkeypatch.setattr(ust, "approx_diag_lpinv", lambda *args: pytest.fail("a run reached the tree estimate"))
    monkeypatch.setattr(ust, "sample_trees", lambda *args: pytest.fail("a run drew spanning trees"))
    diag_source = kind in (Heuristic.COL_STOCH, Heuristic.COL_STOCH_JLT)
    for g in (generate("ba", {"n": 120, "m_attach": 3}, seed=1), generate("ba", {"n": 650, "m_attach": 3}, seed=1)):
        expected = np.diagonal(linalg.pseudoinverse_dense(g.copy()))
        for focus in (None, [4, 60]):
            weights.clear()
            run_kgrip(g, 2, kind, seed=3) if focus is None else run_klrip(g, focus, 2, kind, seed=3)
            if diag_source:
                assert (np.abs(weights[0] - expected) / expected).max() <= 1e-12
            else:
                assert weights == []


@pytest.mark.parametrize("n", [120, 650])
@pytest.mark.parametrize("kind", _R_INITIAL_KINDS, ids=lambda kind: kind.value)
def test_r_initial_is_exact_from_one_inversion_pass_per_run_or_batch(kind, n, monkeypatch):
    # the diag source and r_initial share one pass: the dense form's R^(-1) up to DENSE_SOLVE_MAX_N, the selected
    # inversion of the sparse factor above it
    g = generate("ba", {"n": n, "m_attach": 3}, seed=1)
    expected = oracles.total_resistance(g)
    passes, dtrtri, inverse = [], linalg.lapack.dtrtri, graphs.GroundedLU.inverse_diagonal
    monkeypatch.setattr(linalg.lapack, "dtrtri", lambda upper, **kw: passes.append("dense") or dtrtri(upper, **kw))
    monkeypatch.setattr(graphs.GroundedLU, "inverse_diagonal", lambda self: passes.append("selected") or inverse(self))
    for focus in (None, [4, 60, 90]):
        passes.clear()
        solution = run_kgrip(g, 2, kind, seed=7) if focus is None else run_klrip(g, focus, 2, kind, seed=7)[0]
        assert passes == ["dense" if n <= DENSE_SOLVE_MAX_N else "selected"]
        assert solution.r_initial == pytest.approx(expected, rel=1e-12)


# -- seeded outputs ------------------------------------------------------------------

# inserted edges of k=3 runs with seed 5, global and with focus node 7, on
# ER(60, 0.1) seed 21 and BA(80, 3) seed 22; fixed since before batched scoring,
# except col*, re-pinned when the diagonal-weighted draw became one exponential race,
# when the default diag_epsilon went from 0.1 to 0.3 (fewer initial trees), when
# the tree sampler went from lockstep walks to cycle popping (same distribution,
# another random stream) and when the tree estimate gave way to the exact diagonal;
# every sampled heuristic but colstochjlt on BA, re-pinned when each round took the
# argmax of its own batch in place of a lazy queue or SimplStoch's pool; the two
# sketch heuristics, re-pinned when the sketches went from Gaussian to sign projections;
# specstoch, re-pinned when it ranked by the bracket's lower bound at cutoff 30
_SEEDED_EDGES = {
    ("er", "stgreedy"): ([(11, 56), (11, 55), (28, 56)], [(7, 11), (7, 56), (7, 28)]),
    ("er", "simplstoch"): ([(5, 11), (10, 56), (17, 28)], [(7, 50), (7, 11), (7, 48)]),
    ("er", "simplstochjlt"): ([(5, 11), (9, 56), (11, 52)], [(7, 50), (7, 45), (7, 55)]),
    ("er", "specstoch"): ([(11, 16), (11, 50), (15, 56)], [(7, 22), (1, 7), (7, 55)]),
    ("er", "colstoch"): ([(11, 56), (11, 21), (28, 56)], [(7, 11), (7, 50), (7, 55)]),
    ("er", "colstochjlt"): ([(11, 43), (24, 56), (28, 29)], [(7, 16), (7, 14), (7, 11)]),
    ("ba", "stgreedy"): ([(73, 76), (59, 65), (68, 69)], [(7, 73), (7, 76), (7, 65)]),
    ("ba", "simplstoch"): ([(48, 65), (68, 71), (70, 75)], [(7, 67), (7, 53), (7, 57)]),
    ("ba", "simplstochjlt"): ([(40, 70), (73, 78), (69, 77)], [(7, 68), (7, 61), (7, 75)]),
    ("ba", "specstoch"): ([(65, 68), (71, 78), (59, 70)], [(7, 30), (7, 14), (7, 76)]),
    ("ba", "colstoch"): ([(59, 76), (65, 73), (48, 57)], [(7, 73), (7, 75), (7, 70)]),
    ("ba", "colstochjlt"): ([(57, 68), (30, 68), (73, 75)], [(7, 71), (7, 59), (7, 18)]),
}


@pytest.mark.parametrize("family,name", sorted(_SEEDED_EDGES))
def test_seeded_inserted_edges_unchanged(family, name):
    if family == "er":
        g = generate("er", {"n": 60, "p": 0.1}, seed=21)
    else:
        g = generate("ba", {"n": 80, "m_attach": 3, "m0": 3}, seed=22)
    kind = Heuristic.parse(name)
    global_edges, focus_edges = _SEEDED_EDGES[(family, name)]
    assert run_kgrip(g, 3, kind, seed=5).inserted_edges == global_edges
    assert run_klrip(g, [7], 3, kind, seed=5)[0].inserted_edges == focus_edges
