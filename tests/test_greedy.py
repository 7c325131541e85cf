"""Candidate sizing/sampling, the lazy queue, and both greedy runners."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from kgrip import jlt, oracles, ust
from kgrip.errors import ConfigError
from kgrip.graphs import generate
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


# -- lazy queue ---------------------------------------------------------------------


def test_queue_returns_max_when_current():
    q = LazyQueue()
    q.push(0, 1, 5.0, stamp=0)
    q.push(0, 2, 7.0, stamp=0)
    a, b, gain = q.lazy_next(lambda *_: 0.0, current_round=0)
    assert (a, b, gain) == (0, 2, 7.0)


def test_queue_revalidates_stale_entry():
    q = LazyQueue()
    q.push(0, 1, 100.0, stamp=0)
    a, b, gain = q.lazy_next(lambda a, b: 3.5, current_round=2)
    assert (a, b, gain) == (0, 1, 3.5)


def test_queue_tie_break_canonical_order():
    q = LazyQueue()
    q.push(1, 3, 2.0, stamp=0)
    q.push(0, 9, 2.0, stamp=0)
    a, b, _ = q.lazy_next(lambda *_: 0.0, current_round=0)
    assert (a, b) == (0, 9)


def test_queue_exhaustion_raises():
    with pytest.raises(ConfigError):
        LazyQueue().lazy_next(lambda *_: 0.0, current_round=0)


def test_queue_discards_inserted_edges(p3):
    q = LazyQueue()
    q.push(0, 1, 9.0, stamp=0)  # already an edge in the path 0-1-2
    q.push(0, 2, 1.0, stamp=0)
    a, b, _ = q.lazy_next(lambda *_: 0.0, current_round=0, graph=p3)
    assert (a, b) == (0, 2)


def test_queue_matches_full_rescan_argmax():
    # lazy selection equals a naive full re-evaluation argmax round by round
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(8, 20))
        values = {(a, b): float(rng.random()) for a in range(n) for b in range(a + 1, n)}
        q = LazyQueue()
        for (a, b), v in values.items():
            q.push(a, b, v + 1.0, stamp=0)  # stale, inflated cache
        best = q.lazy_next(lambda a, b: values[(a, b)], current_round=1)
        expect = max(values.items(), key=lambda kv: (kv[1], (-kv[0][0], -kv[0][1])))
        assert best[:2] == expect[0]


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


def test_colstoch_cached_columns_stay_consistent_over_long_runs():
    # after many rounds of on-demand refreshes, every cached column must still
    # match a fresh solve on the final graph
    import numpy as np

    from kgrip.greedy import _computed_parts, _run_rounds
    from kgrip.linalg import solve_lpinv_column

    g = generate("er", {"n": 50, "p": 0.15}, seed=15)
    work = g.copy()
    params = GreedyParams()
    parts = _computed_parts(work, 8, Heuristic.COL_STOCH, params, seed=2)

    timings = {"compute": 0.0, "eval": 0.0, "update": 0.0, "report": 0.0}
    _run_rounds(work, parts, 8, params, timings)
    cache = parts[1].cache
    for v in list(cache._cols):
        refreshed = cache.column(v)
        fresh = solve_lpinv_column(work, v)
        assert np.max(np.abs(refreshed - fresh)) <= 10 * params.solver.residual_tol


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
    # above the dense eigensolver limit every round after the first re-solves the
    # low spectrum of the grown graph at default parameters
    g = generate(model, params, seed=1)
    sol = run_kgrip(g, k, Heuristic.SPEC_STOCH, seed=7)
    assert len(sol.inserted_edges) == k
    assert all(gain > 0 for gain in sol.per_edge_true_gain)


# which preprocessing each heuristic rebuilds between rounds
_REFRESHED_BY = {
    Heuristic.ST_GREEDY: set(),
    Heuristic.SIMPL_STOCH: set(),
    Heuristic.COL_STOCH: {"approx_update_diag"},
    Heuristic.SIMPL_STOCH_JLT: {"build_sketch"},
    Heuristic.COL_STOCH_JLT: {"approx_update_diag", "build_sketch"},
    Heuristic.SPEC_STOCH: {"compute_low_spectrum"},
}


@pytest.mark.parametrize("kind", list(Heuristic))
def test_refresh_skipped_after_last_insertion(kind, monkeypatch):
    # state is rebuilt only for a round that reads it: k-1 times per run and
    # per focus node; the pseudoinverse bookkeeping still follows every insertion
    from kgrip import jlt, linalg, spectral, ust

    calls = []
    for module, name in (
        (ust, "approx_update_diag"),
        (jlt, "build_sketch"),
        (spectral, "compute_low_spectrum"),
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
        assert sum(f == "apply_insertion" for f, _ in calls) == (k * runs if dense else 0)


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
    g = generate("er", {"n": 50, "p": 0.12}, seed=9)
    focus = [0, 7, 13]
    batch = run_klrip(g, focus, 2, kind, seed=11)
    for v, sol in zip(focus, batch):
        single = run_klrip(g, [v], 2, kind, seed=11)[0]
        assert sol.inserted_edges == single.inserted_edges
        assert sol.per_edge_true_gain == single.per_edge_true_gain


def test_klrip_saturated_focus_rejected():
    s4 = star_graph(4)
    with pytest.raises(ConfigError) as err:
        run_klrip(s4, [0], 1, Heuristic.ST_GREEDY)  # center is adjacent to all
    assert "0" in str(err.value)


def test_klrip_focus_out_of_range(p3):
    with pytest.raises(ConfigError):
        run_klrip(p3, [5], 1, Heuristic.ST_GREEDY)


def test_solution_serialization_roundtrip(p3):
    sol = run_kgrip(p3, 1, Heuristic.ST_GREEDY, seed=1)
    doc = sol.to_dict()
    assert doc["inserted_edges"] == [[0, 2]]
    assert doc["total_gain"] == pytest.approx(2.0, rel=1e-6)
    assert set(doc["timings"]) >= {"compute", "eval", "update"}


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


def test_colstochjlt_refresh_draws_trees_and_sketch_from_separate_streams(monkeypatch):
    states = {"trees": [], "sketch": []}
    update_diag, build_sketch = ust.approx_update_diag, jlt.build_sketch

    def spy_update(graph, repo, diag, rng, *args):
        states["trees"].append(rng.bit_generator.state)
        return update_diag(graph, repo, diag, rng, *args)

    def spy_sketch(graph, q, rng, *args, **kwargs):
        states["sketch"].append(rng.bit_generator.state)
        return build_sketch(graph, q, rng, *args, **kwargs)

    monkeypatch.setattr(ust, "approx_update_diag", spy_update)
    monkeypatch.setattr(jlt, "build_sketch", spy_sketch)
    g = generate("ba", {"n": 60, "m_attach": 3, "m0": 3}, seed=8)
    run_kgrip(g, 3, Heuristic.COL_STOCH_JLT, seed=2)
    # compute builds the first sketch; each of the two refreshes draws one of each
    assert len(states["trees"]) == 2 and len(states["sketch"]) == 3
    for trees, sketch in zip(states["trees"], states["sketch"][1:]):
        assert trees != sketch


# -- seeded outputs ------------------------------------------------------------------

# inserted edges of k=3 runs with seed 5, global and with focus node 7, on
# ER(60, 0.1) seed 21 and BA(80, 3) seed 22; fixed since before batched scoring
_SEEDED_EDGES = {
    ("er", "stgreedy"): ([(11, 56), (11, 55), (28, 56)], [(7, 11), (7, 56), (7, 28)]),
    ("er", "simplstoch"): ([(5, 11), (55, 56), (6, 56)], [(7, 50), (7, 11), (7, 48)]),
    ("er", "simplstochjlt"): ([(11, 41), (9, 56), (28, 29)], [(7, 50), (7, 29), (7, 55)]),
    ("er", "specstoch"): ([(11, 16), (53, 56), (28, 55)], [(7, 22), (7, 9), (7, 55)]),
    ("er", "colstoch"): ([(16, 28), (11, 56), (11, 55)], [(7, 58), (7, 28), (7, 11)]),
    ("er", "colstochjlt"): ([(55, 56), (9, 43), (11, 47)], [(6, 7), (7, 20), (7, 21)]),
    ("ba", "stgreedy"): ([(73, 76), (59, 65), (68, 69)], [(7, 73), (7, 76), (7, 65)]),
    ("ba", "simplstoch"): ([(48, 65), (70, 73), (66, 69)], [(7, 67), (7, 56), (7, 57)]),
    ("ba", "simplstochjlt"): ([(28, 59), (26, 71), (40, 65)], [(7, 68), (7, 35), (7, 75)]),
    ("ba", "specstoch"): ([(65, 68), (66, 73), (71, 76)], [(7, 30), (7, 64), (7, 76)]),
    ("ba", "colstoch"): ([(59, 73), (68, 76), (69, 74)], [(7, 59), (7, 79), (7, 68)]),
    ("ba", "colstochjlt"): ([(44, 77), (57, 70), (73, 78)], [(7, 68), (7, 35), (7, 77)]),
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
