"""Acceptance suite: ten criteria, one test each, at their stated tolerances.

Each test prints one `[criterion N] PASS/FAIL` line (visible with -rA or on
failure) and asserts the criterion exactly as specified; run with

    pytest tests/test_acceptance.py -v

Criteria 8 and 9 check the sampled heuristics' quality against StGreedy.
Their 0.90 and 0.80 levels are empirical figures from complex networks with
heavy-tailed degrees, not a guarantee of the sampling rule at delta = 0.9, so
the quality protocols run on Barabasi-Albert BA(300, 3) graphs. On uniform
Erdos-Renyi ER(300, 0.05) graphs the same protocols score below both levels
(see the README).
"""

from __future__ import annotations

import math
import time

import numpy as np

from kgrip import oracles
from kgrip.errors import InvariantError
from kgrip.graphs import Graph, generate
from kgrip.greedy import GreedyParams, Heuristic, run_kgrip, run_klrip
from kgrip.jlt import build_sketch
from kgrip.linalg import DenseState, gain_exact, pseudoinverse_dense, sherman_morrison_update
from kgrip.seeds import derive_rng
from kgrip.spectral import compute_low_spectrum, gain_bounds
from kgrip.ust import approx_diag_lpinv, approx_update_diag

from conftest import complete_graph, cycle_graph, edge_frequencies, path_graph, sampled_edge_sets


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def test_criterion_01_gain_exactness():
    """gain_exact equals brute-force resistance differences on every non-edge."""
    started = time.time()
    worst = 0.0
    checked = 0
    for i in range(30):
        n = 20 + (i * 9) % 41  # 20..60
        g = generate("er", {"n": n, "p": 0.18}, seed=300 + i)
        state = DenseState.compute(g)
        base = oracles.total_resistance(g)
        for a, b in oracles.all_non_edges(g):
            after = g.copy()
            after.insert_edge(a, b)
            brute = base - oracles.total_resistance(after)
            err = abs(gain_exact(state, a, b) - brute) / abs(brute)
            worst = max(worst, err)
            checked += 1
    elapsed = time.time() - started
    ok = worst <= 1e-6 and elapsed < 60
    report(1, ok, f"{checked} non-edges, worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 60


def test_criterion_02_sherman_morrison_chain():
    """100 chained rank-one updates track fresh pseudoinverses within 1e-6."""
    started = time.time()
    g = generate("er", {"n": 50, "p": 0.2}, seed=42)
    lpinv = pseudoinverse_dense(g)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        non_edges = oracles.all_non_edges(g)
        a, b = non_edges[rng.integers(len(non_edges))]
        lpinv = sherman_morrison_update(lpinv, a, b)
        g.insert_edge(a, b)
        worst = max(worst, float(np.max(np.abs(lpinv - pseudoinverse_dense(g)))))
    elapsed = time.time() - started
    ok = worst <= 1e-6 and elapsed < 60
    report(2, ok, f"100 updates, worst max-abs drift {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 60


def test_criterion_03_lazy_greedy_exactness():
    """StGreedy reproduces the naive full re-evaluation sequence exactly."""
    started = time.time()
    checked = 0
    for i in range(20):
        n = 20 + (i * 7) % 21  # 20..40
        k = 1 + i % 5
        g = generate("er", {"n": n, "p": 0.2}, seed=100 + i)
        if g.non_edge_count() < k:
            continue
        sol = run_kgrip(g, k, Heuristic.ST_GREEDY, seed=1)
        assert sol.inserted_edges == oracles.greedy_naive(g, k), f"instance {i} diverged"
        checked += 1
    elapsed = time.time() - started
    ok = checked == 20 and elapsed < 120
    report(3, ok, f"{checked}/20 instances identical to the naive oracle, {elapsed:.1f}s")
    assert checked == 20
    assert elapsed < 120


def test_criterion_04_ust_distributions():
    """Tree sampling is uniform; fixed-edge sampling is uniform over qualifying
    trees; edge membership frequency matches effective resistance."""
    started = time.time()
    worst_uniform = 0.0
    for g, samples, seed in [
        (complete_graph(3), 30000, 11),
        (cycle_graph(4), 30000, 12),
        (complete_graph(4), 30000, 13),
    ]:
        trees = oracles.spanning_trees(g)
        assert len(trees) <= 16
        counts = sampled_edge_sets(g, (0,), samples, seed)
        assert set(counts) <= set(trees)
        for t in trees:
            dev = abs(counts[t] / samples - 1 / len(trees))
            worst_uniform = max(worst_uniform, dev)

    worst_fixed = 0.0
    for g, edge, samples, seed in [
        (complete_graph(3), (0, 1), 20000, 14),
        (complete_graph(4), (0, 1), 80000, 15),
    ]:
        qualifying = [t for t in oracles.spanning_trees(g) if edge in t]
        counts = sampled_edge_sets(g, edge, samples, seed)
        assert set(counts) <= set(qualifying)
        for t in qualifying:
            dev = abs(counts[t] / samples - 1 / len(qualifying))
            worst_fixed = max(worst_fixed, dev)

    worst_membership = 0.0
    for g, samples, seed in [
        (Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]), 30000, 16),
        (complete_graph(4), 30000, 17),
    ]:
        p = pseudoinverse_dense(g)
        member = edge_frequencies(sampled_edge_sets(g, (0,), samples, seed))
        for a, b in g.edges():
            resistance = p[a, a] + p[b, b] - 2 * p[a, b]
            dev = abs(member[(a, b)] / samples - resistance)
            worst_membership = max(worst_membership, dev)

    elapsed = time.time() - started
    ok = max(worst_uniform, worst_fixed, worst_membership) <= 0.02 and elapsed < 180
    report(
        4,
        ok,
        f"deviations: uniform {worst_uniform:.4f}, fixed-edge {worst_fixed:.4f}, "
        f"membership {worst_membership:.4f} (all vs 0.02), {elapsed:.1f}s",
    )
    assert worst_uniform <= 0.02
    assert worst_fixed <= 0.02
    assert worst_membership <= 0.02
    assert elapsed < 180


def test_criterion_05_dynamic_diag_updates():
    """After each of 5 insertions the repository diag stays within 3*eps."""
    started = time.time()
    eps = 0.1
    g = generate("er", {"n": 200, "p": 0.05}, seed=42)
    diag, repo = approx_diag_lpinv(g, eps, derive_rng(42, "diag"))
    picker = derive_rng(42, "edges")
    worst = 0.0
    for step in range(5):
        non_edges = oracles.all_non_edges(g)
        a, b = non_edges[picker.integers(len(non_edges))]
        g.insert_edge(a, b)
        diag = approx_update_diag(g, repo)
        exact = np.diag(oracles.pinv_eig(g))
        worst = max(worst, float(np.max(np.abs(diag - exact))))
    elapsed = time.time() - started
    ok = worst <= 3 * eps and elapsed < 180
    report(5, ok, f"worst max-abs diag error {worst:.4f} vs {3 * eps}, {elapsed:.1f}s")
    assert worst <= 3 * eps
    assert elapsed < 180


def test_criterion_06_spectral_bracket():
    """Bracket collapses at c=n and contains the exact gain when lambda_c >= 1."""
    started = time.time()
    worst_width = 0.0
    for seed in (9, 10, 23):
        g = generate("er", {"n": 45, "p": 0.18}, seed=seed)
        st = compute_low_spectrum(g, g.n)
        state = DenseState.compute(g)
        for a, b in oracles.all_non_edges(g):
            lower, upper = gain_bounds(st, a, b)
            exact = gain_exact(state, a, b)
            worst_width = max(worst_width, (upper - lower) / max(abs(exact), 1e-30))
            assert lower - 1e-8 * abs(exact) <= exact <= upper + 1e-8 * abs(exact)

    violations = 0
    pairs = 0
    for seed, cutoff in [(3, 15), (8, 20), (31, 12)]:
        g = generate("er", {"n": 50, "p": 0.18}, seed=seed)
        st = compute_low_spectrum(g, cutoff)
        assert st.eigenvalues[-1] >= 1.0, "instance must satisfy the lambda_c >= 1 premise"
        state = DenseState.compute(g)
        for a, b in oracles.all_non_edges(g):
            lower, upper = gain_bounds(st, a, b)
            exact = gain_exact(state, a, b)
            pairs += 1
            if not (lower - 1e-9 <= exact <= upper + 1e-9):
                violations += 1
    elapsed = time.time() - started
    ok = worst_width <= 1e-8 and violations == 0 and elapsed < 120
    report(
        6,
        ok,
        f"collapse width {worst_width:.2e} (vs 1e-8), {violations}/{pairs} bracket "
        f"violations, {elapsed:.1f}s",
    )
    assert worst_width <= 1e-8
    assert violations == 0
    assert elapsed < 120


def test_criterion_07_jlt_fidelity():
    """Lemma-level distortion bounds at the 24 ln(n)/eta^2 width; identity hook exact."""
    started = time.time()
    eta = 0.55
    fractions = []
    for n, p_edge, seed in [(60, 0.1, 2), (100, 0.08, 3)]:
        g = generate("er", {"n": n, "p": p_edge}, seed=seed)
        q = math.ceil(24 * math.log(g.n) / eta**2)
        sk = build_sketch(g, q, np.random.default_rng(20 + seed))
        pinv = pseudoinverse_dense(g)
        ok_pairs = total = 0
        for a in range(g.n):
            for b in range(a + 1, g.n):
                exact = float((pinv[:, a] - pinv[:, b]) @ (pinv[:, a] - pinv[:, b]))
                total += 1
                if (1 - eta) * exact <= sk.biharmonic_sq(a, b) <= (1 + eta) * exact:
                    ok_pairs += 1
        fractions.append((ok_pairs / total, 1 - 1 / g.n))

    hook_err = 0.0
    for g in (path_graph(3), complete_graph(3), generate("er", {"n": 24, "p": 0.2}, seed=4)):
        sk = build_sketch(g, 1, np.random.default_rng(0), projection="identity")
        pinv = pseudoinverse_dense(g)
        d = np.diag(pinv)
        for a in range(g.n):
            for b in range(a + 1, g.n):
                exact_r = d[a] + d[b] - 2 * pinv[a, b]
                exact_b2 = float((pinv[:, a] - pinv[:, b]) @ (pinv[:, a] - pinv[:, b]))
                hook_err = max(hook_err, abs(sk.resistance_sq(a, b) - exact_r))
                hook_err = max(hook_err, abs(sk.biharmonic_sq(a, b) - exact_b2))

    elapsed = time.time() - started
    ok = all(f >= need for f, need in fractions) and hook_err <= 1e-6 and elapsed < 120
    report(
        7,
        ok,
        f"distortion fractions {[f'{f:.4f}>={need:.4f}' for f, need in fractions]}, "
        f"identity hook max err {hook_err:.2e}, {elapsed:.1f}s",
    )
    for f, need in fractions:
        assert f >= need
    assert hook_err <= 1e-6
    assert elapsed < 120


def test_criterion_08_quality_trend():
    """SimplStoch(delta=0.9) vs StGreedy on 10 BA(300, 3) instances."""
    started = time.time()
    params = GreedyParams(delta=0.9)
    ratios: dict[int, list[float]] = {2: [], 5: [], 20: []}
    for seed in range(10):
        g = generate("ba", {"n": 300, "m_attach": 3, "m0": 3}, seed=1000 + seed)
        for k in (2, 5, 20):
            best = run_kgrip(g, k, Heuristic.ST_GREEDY, params, seed=seed)
            sampled = run_kgrip(g, k, Heuristic.SIMPL_STOCH, params, seed=seed)
            ratios[k].append(
                sum(sampled.per_edge_true_gain) / sum(best.per_edge_true_gain)
            )
    means = {k: geomean(v) for k, v in ratios.items()}
    elapsed = time.time() - started
    trend_ok = means[20] >= means[2] - 0.03
    level_ok = all(means[k] >= 0.90 for k in (2, 5, 20))
    report(
        8,
        level_ok and trend_ok and elapsed < 600,
        f"gmean ratios k=2: {means[2]:.4f}, k=5: {means[5]:.4f}, k=20: {means[20]:.4f} "
        f"(threshold 0.90 each; trend k20 >= k2 - 0.03), {elapsed:.1f}s",
    )
    assert elapsed < 600
    assert means[20] >= means[2] - 0.03
    for k in (2, 5, 20):
        assert means[k] >= 0.90, (
            f"k={k} SimplStoch geometric-mean quality {means[k]:.4f} on BA(300, 3) "
            "is below the 0.90 threshold"
        )


def test_criterion_09_klrip_consistency_and_quality():
    """Batch multi-focus runs on ER(150, 0.07) reproduce single-focus runs;
    focus-node ColStoch quality vs StGreedy on 10 BA(300, 3) instances per k."""
    started = time.time()
    g = generate("er", {"n": 150, "p": 0.07}, seed=77)
    focus = [3, 31, 59, 88, 120]
    batch = run_klrip(g, focus, 2, Heuristic.COL_STOCH, seed=5)
    identical = True
    for v, sol in zip(focus, batch):
        single = run_klrip(g, [v], 2, Heuristic.COL_STOCH, seed=5)[0]
        if (
            sol.inserted_edges != single.inserted_edges
            or sol.per_edge_true_gain != single.per_edge_true_gain
        ):
            identical = False

    ratios: dict[int, list[float]] = {2: [], 5: []}
    for k in (2, 5):
        for seed in range(10):
            big = generate("ba", {"n": 300, "m_attach": 3, "m0": 3}, seed=4000 + seed)
            pick = int(derive_rng(seed, "focus-pick").integers(big.n))
            best = run_klrip(big, [pick], k, Heuristic.ST_GREEDY, seed=seed)[0]
            sampled = run_klrip(big, [pick], k, Heuristic.COL_STOCH, seed=seed)[0]
            ratios[k].append(
                sum(sampled.per_edge_true_gain) / sum(best.per_edge_true_gain)
            )
    means = {k: geomean(v) for k, v in ratios.items()}
    elapsed = time.time() - started
    ok = identical and all(m >= 0.80 for m in means.values()) and elapsed < 600
    report(
        9,
        ok,
        f"batch==singles: {identical}; ColStoch gmean ratios k=2: {means[2]:.4f}, "
        f"k=5: {means[5]:.4f} (threshold 0.80), {elapsed:.1f}s",
    )
    assert identical
    assert elapsed < 600
    for k in (2, 5):
        assert means[k] >= 0.80, (
            f"k={k} ColStoch focus-node geometric-mean quality {means[k]:.4f} on "
            "BA(300, 3) is below the 0.80 threshold"
        )


def test_criterion_10_monotonicity_audit():
    """Every accepted insertion across heuristics strictly decreased resistance."""
    started = time.time()
    g = generate("er", {"n": 40, "p": 0.15}, seed=606)
    solutions, violations = [], 0
    for kind in Heuristic:
        for run in (lambda: [run_kgrip(g, 3, kind, seed=1)], lambda: run_klrip(g, [2], 2, kind, seed=1)):
            try:
                solutions += run()
            except InvariantError:  # raised by the strict-decrease guard, among other checks
                violations += 1
    elapsed = time.time() - started
    accepted = sum(len(sol.inserted_edges) for sol in solutions)
    decreased = all(gain > 0 for sol in solutions for gain in sol.per_edge_true_gain)
    ok = violations == 0 and accepted >= 30 and decreased
    report(
        10,
        ok,
        f"{accepted} accepted insertions in {len(solutions)} runs, {violations} monotonicity "
        f"violations, {elapsed:.1f}s",
    )
    assert decreased
    assert violations == 0
    assert accepted >= 30
