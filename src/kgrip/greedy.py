"""Greedy edge-insertion framework: lazy queue, samplers, and six heuristics.

Every heuristic runs the same loop: preprocess (Compute), then per round
pick candidates, score them (Eval), insert the best-scoring non-edge, and
bring the preprocessed state forward (Update; after the last insertion only
the cheap bookkeeping runs, since no round reads the rebuilt state). A
heuristic is one candidate source paired with one gain scorer
(``HEURISTIC_PARTS``):

  candidate sources  - the universe of non-edges, queued once (StGreedy);
                       uniform non-edge samples; or vertex samples weighted
                       by the UST estimate of the pseudoinverse diagonal;
  gain scorers       - the dense pseudoinverse, cached pseudoinverse
                       columns, random-projection sketches, or the spectral
                       bracket midpoint.

All heuristics share one persistent max-queue whose entries carry the round
in which their gain was computed: the universe source seeds it with every
non-edge up front, the sampling sources push a fresh sample each round, and
the lazy pop revalidates stale tops until the best entry is current. A
round's sample is scored in one batched call; a stale top is re-scored on
its own. Regardless of the scorer, the reported per-edge gain of every
accepted edge is recomputed exactly from two linear solves, and total
resistance must strictly decrease on every insertion.

The local variant (one focus node v) restricts candidates to non-neighbors of
v and inserts edges (v, b). A multi-focus run preprocesses once and gives
each focus node a deep copy of the source and scorer, bound to its own copy
of the graph, so it reproduces independent single-focus runs bit for bit.
"""

from __future__ import annotations

import copy
import heapq
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from . import jlt, spectral, ust
from .errors import ConfigError, InvariantError
from .graphs import Edge, Graph, assert_connected
from .linalg import (
    DENSE_CAP_DEFAULT,
    ColumnCache,
    DenseState,
    SolverConfig,
    gain_exact,
    gains_exact,
    total_resistance,
    true_gain,
)
from .seeds import derive_rng


class Heuristic(Enum):
    ST_GREEDY = "stgreedy"
    SIMPL_STOCH = "simplstoch"
    COL_STOCH = "colstoch"
    SIMPL_STOCH_JLT = "simplstochjlt"
    COL_STOCH_JLT = "colstochjlt"
    SPEC_STOCH = "specstoch"

    @classmethod
    def parse(cls, name: str) -> "Heuristic":
        try:
            return cls(name.lower())
        except ValueError:
            options = ", ".join(h.value for h in cls)
            raise ConfigError(f"unknown heuristic {name!r} (expected one of: {options})") from None


@dataclass
class GreedyParams:
    """Knobs shared by all heuristics; defaults follow the CLI defaults."""

    delta: float = 0.9
    cutoff: int = 50
    solver: SolverConfig = field(default_factory=SolverConfig)
    diag_epsilon: float = 0.1
    eig_tol: float = 1e-7
    c_ust: float = 1.0
    c_jlt: float = 4.0
    dense_cap: int = DENSE_CAP_DEFAULT

    def validate(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta must lie strictly inside (0,1), got {self.delta}")
        if self.cutoff < 2:
            raise ConfigError(f"cutoff must be >= 2, got {self.cutoff}")
        for name, value in (
            ("diag epsilon", self.diag_epsilon),
            ("c_ust", self.c_ust),
            ("c_jlt", self.c_jlt),
        ):
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, got {value}")

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "cutoff": self.cutoff,
            "solver_eps": self.solver.residual_tol,
            "diag_eps": self.diag_epsilon,
            "eig_tol": self.eig_tol,
            "c_ust": self.c_ust,
            "c_jlt": self.c_jlt,
        }


# -- candidate sizing and sampling ---------------------------------------------


def candidate_size(mode: str, n: int, m_or_deg: int, k: int, delta: float) -> int:
    """Per-round sample size, ceil of the mode's formula, clamped to the universe.

    grip-simpl: (n(n-1)/2 - m) / k * ln(1/delta)   vertex pairs
    grip-col:   n * sqrt(ln(1/delta) / k)          vertices
    lrip:       (n - 1 - deg(v)) / k * ln(1/delta) non-neighbors of the focus
    """
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"delta must lie strictly inside (0,1), got {delta}")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    log_term = math.log(1.0 / delta)
    if mode == "grip-simpl":
        universe = n * (n - 1) // 2 - m_or_deg
        raw = universe / k * log_term
    elif mode == "grip-col":
        universe = n
        raw = n * math.sqrt(log_term / k)
    elif mode == "lrip":
        universe = n - 1 - m_or_deg
        raw = universe / k * log_term
    else:
        raise ConfigError(f"unknown candidate-size mode {mode!r}")
    if universe <= 0:
        raise ConfigError(f"candidate universe for mode {mode} is empty")
    return max(1, min(universe, math.ceil(raw)))


def sample_candidates_uniform(universe: Sequence, s: int, rng: np.random.Generator) -> list:
    """s distinct elements of an explicit universe, uniform without replacement."""
    if s >= len(universe):
        return list(universe)
    idx = rng.choice(len(universe), size=s, replace=False)
    return [universe[i] for i in idx]


def sample_nonedge_pairs(graph: Graph, s: int, rng: np.random.Generator) -> np.ndarray:
    """s distinct non-edges, uniform, as an (s, 2) array of pairs a < b.

    Rejection sampling: successive ``rng.integers(n)`` draws form the pairs
    (a, b), and a pair is kept unless a == b, {a,b} is an edge, or it was
    drawn before. The draws are taken in blocks, so the result equals that
    of drawing one pair at a time; only the number of surplus draws differs.
    """
    universe = graph.non_edge_count()
    if s >= universe:
        return graph.non_edges()
    n = graph.n
    # share of uniform vertex-pair draws that land on a non-edge
    hit_rate = universe / (n * n / 2)
    keys = np.empty(0, dtype=np.int64)  # kept pairs a*n + b, in draw order
    while len(keys) < s:
        fresh_share = 1.0 - len(keys) / universe
        block = math.ceil(1.2 * (s - len(keys)) / (hit_rate * fresh_share)) + 16
        draws = rng.integers(n, size=2 * block).reshape(block, 2)
        a, b = draws.min(axis=1), draws.max(axis=1)
        ok = (a != b) & ~graph.has_edges(a, b)
        keys = np.concatenate([keys, a[ok] * n + b[ok]])
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
    keys = keys[:s]
    return np.column_stack([keys // n, keys % n])


def sample_candidates_diag_weighted(
    diag_values: np.ndarray,
    s: int,
    rng: np.random.Generator,
    allowed: Sequence[int] | None = None,
) -> list[int]:
    """s distinct vertices, probability proportional to clamped diagonal values.

    Draws successively without replacement, renormalizing after each pick.
    Negative estimates clamp to zero; if the positive mass runs out the rest
    is filled uniformly from the remaining allowed vertices.
    """
    n = len(diag_values)
    weights = np.maximum(np.asarray(diag_values, dtype=float), 0.0)
    if allowed is not None:
        mask = np.zeros(n, dtype=bool)
        mask[list(allowed)] = True
        weights = np.where(mask, weights, 0.0)
        pool = list(allowed)
    else:
        pool = list(range(n))
    s = min(s, len(pool))
    out: list[int] = []
    chosen = np.zeros(n, dtype=bool)
    for _ in range(s):
        total = float(weights.sum())
        if total <= 0.0:
            rest = [v for v in pool if not chosen[v]]
            fill = rng.choice(len(rest), size=s - len(out), replace=False)
            out.extend(rest[i] for i in fill)
            break
        r = rng.random() * total
        j = int(np.searchsorted(np.cumsum(weights), r, side="right"))
        j = min(j, n - 1)
        out.append(j)
        chosen[j] = True
        weights[j] = 0.0
    return out


def _pairs_from_vertices(graph: Graph, vertices: list[int]) -> np.ndarray:
    """Non-edges among the vertices, as pairs a < b in sorted order."""
    ordered = np.unique(np.asarray(vertices, dtype=np.int64))
    i, j = np.triu_indices(len(ordered), 1)
    a, b = ordered[i], ordered[j]
    keep = ~graph.has_edges(a, b)
    return np.column_stack([a[keep], b[keep]])


# -- lazy priority queue ------------------------------------------------------------


class LazyQueue:
    """Max-queue of (edge, cached gain, round stamp) with lazy revalidation.

    Ties in gain break toward the lexicographically smallest canonical edge.
    """

    def __init__(self):
        self._heap: list[tuple[float, int, int, int]] = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, a: int, b: int, gain: float, stamp: int) -> None:
        heapq.heappush(self._heap, (-gain, a, b, stamp))

    def push_many(self, entries: list[tuple[int, int, float]], stamp: int) -> None:
        self._heap.extend((-gain, a, b, stamp) for a, b, gain in entries)
        heapq.heapify(self._heap)

    def lazy_next(
        self,
        revalidate: Callable[[int, int], float],
        current_round: int,
        graph: Graph | None = None,
    ) -> tuple[int, int, float]:
        """Pop entries until the top carries a current-round stamp; return it.

        Stale tops are re-scored with ``revalidate`` and reinserted. Entries
        whose edge meanwhile exists in the graph (duplicates of an accepted
        edge) are discarded.
        """
        while self._heap:
            neg_gain, a, b, stamp = heapq.heappop(self._heap)
            if graph is not None and graph.has_edge(a, b):
                continue
            if stamp == current_round:
                return a, b, -neg_gain
            heapq.heappush(self._heap, (-revalidate(a, b), a, b, current_round))
        raise ConfigError("candidate queue exhausted: no non-edges left to insert")


_NO_PAIRS = np.empty((0, 2), dtype=np.int64)


# -- candidate sources and gain scorers -------------------------------------------

_PRE_STREAM = "pre"
_CAND_STREAM = "cand"
_UPDATE_STREAM = "upd"

# process-wide audit of the Rayleigh monotonicity guard: every accepted
# insertion must strictly decrease exact total resistance
MONOTONICITY_AUDIT = {"accepted": 0, "violations": 0}


class _Part:
    """A candidate source or a gain scorer bound to a working graph.

    ``compute`` builds the preprocessing state. The Update step is split in
    two: ``note_insertion`` keeps the state in step with the graph after
    every insertion, and ``refresh`` rebuilds what the next round reads, so
    the loop skips it after the last insertion. ``focus`` is None in a
    global run.
    """

    def __init__(self, graph: Graph, k: int, params: GreedyParams, seed: int, kind: Heuristic):
        self.graph = graph
        self.k = k
        self.params = params
        self.seed = seed
        self.kind = kind
        self.focus: int | None = None

    def _rng(self, stream: str, round_idx: int, *tokens) -> np.random.Generator:
        scope = "global" if self.focus is None else self.focus
        return derive_rng(self.seed, stream, self.kind.value, scope, round_idx, *tokens)

    def note_insertion(self, a: int, b: int) -> None:
        pass

    def refresh(self, round_idx: int) -> None:
        pass


class _Source(_Part):
    """Picks a round's candidate non-edges: a sample drawn from the whole graph
    in a global run, or non-neighbors of the focus paired with it."""

    global_mode = "grip-simpl"  # candidate_size mode of the global form

    def compute(self) -> None:
        self.size_sample()

    def size_sample(self) -> None:
        """Per-round sample size of the global form, or of the focus form once ``focus`` is set."""
        g, delta = self.graph, self.params.delta
        if self.focus is None:
            self.sample_size = candidate_size(self.global_mode, g.n, g.m, self.k, delta)
        else:
            self.sample_size = candidate_size("lrip", g.n, g.degree(self.focus), self.k, delta)

    def initial_entries(self, scorer: _Scorer) -> list[tuple[int, int, float]]:
        """Queue entries scored before the first round; sampling sources have none."""
        return []

    def candidates(self, round_idx: int) -> np.ndarray:
        """This round's candidate non-edges as an (s, 2) array of pairs a < b."""
        raise NotImplementedError

    def _focus_pairs(self, vertices: Sequence[int]) -> np.ndarray:
        b = np.asarray(vertices, dtype=np.int64)
        return np.column_stack([np.minimum(b, self.focus), np.maximum(b, self.focus)])


class _StGreedy(_Source):
    """The universe source: every candidate enters the queue at round 0, none later."""

    def size_sample(self) -> None:
        pass

    def initial_entries(self, scorer: _DenseP) -> list[tuple[int, int, float]]:
        """Gains of every candidate, vectorized from the scorer's dense pseudoinverse."""
        g = self.graph
        p = scorer.state.matrix
        d = np.diag(p)
        sq = np.sum(p * p, axis=0)
        n = g.n
        entries: list[tuple[int, int, float]] = []
        if self.focus is not None:
            a = self.focus
            b2 = sq[a] + sq - 2.0 * (p[:, a] @ p)
            res = d[a] + d - 2.0 * p[a]
            gains = n * b2 / (1.0 + res)
            return [
                (min(a, b), max(a, b), float(gains[b])) for b in g.non_neighbors(a)
            ]
        gram = p.T @ p
        for a in range(n):
            nbrs = set(g.neighbors(a))
            b2 = sq[a] + sq - 2.0 * gram[a]
            res = d[a] + d - 2.0 * p[a]
            gains = n * b2 / (1.0 + res)
            for b in range(a + 1, n):
                if b not in nbrs:
                    entries.append((a, b, float(gains[b])))
        return entries

    def candidates(self, round_idx: int) -> np.ndarray:
        return _NO_PAIRS


class _UniformPairs(_Source):
    """Uniform non-edges, or uniform non-neighbors of the focus."""

    def candidates(self, round_idx: int) -> np.ndarray:
        rng = self._rng(_CAND_STREAM, round_idx)
        if self.focus is None:
            return sample_nonedge_pairs(self.graph, self.sample_size, rng)
        pool = self.graph.non_neighbors(self.focus)
        return self._focus_pairs(sample_candidates_uniform(pool, self.sample_size, rng))


class _DiagVertices(_Source):
    """Vertices drawn with probability proportional to the UST estimate of
    diag(L+): the non-edges among them, or each paired with the focus."""

    global_mode = "grip-col"

    def compute(self) -> None:
        rng = derive_rng(self.seed, _PRE_STREAM, self.kind.value)
        self.diag, self.repo = ust.approx_diag_lpinv(
            self.graph, self.params.diag_epsilon, rng, self.params.solver, self.params.c_ust
        )
        self.size_sample()

    def candidates(self, round_idx: int) -> np.ndarray:
        rng = self._rng(_CAND_STREAM, round_idx)
        if self.focus is None:
            vertices = sample_candidates_diag_weighted(self.diag.values, self.sample_size, rng)
            return _pairs_from_vertices(self.graph, vertices)
        pool = self.graph.non_neighbors(self.focus)
        vertices = sample_candidates_diag_weighted(self.diag.values, self.sample_size, rng, allowed=pool)
        return self._focus_pairs(vertices)

    def refresh(self, round_idx: int) -> None:
        self.diag, self.repo = ust.approx_update_diag(
            self.graph, self.repo, self.diag, self._rng(_UPDATE_STREAM, round_idx), self.params.solver
        )


class _Scorer(_Part):
    """Estimates gains: ``gains`` scores a round's whole (s, 2) pair sample,
    ``gain`` re-scores one stale queue entry."""

    def compute(self, source: _Source) -> None:
        raise NotImplementedError

    def total_resistance(self) -> float:
        """Exact total resistance of the graph as :meth:`compute` left it."""
        return total_resistance(self.graph, self.params.dense_cap)

    def gains(self, pairs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gain(self, a: int, b: int) -> float:
        raise NotImplementedError


class _DenseP(_Scorer):
    """Exact gains from the full pseudoinverse, kept current by Sherman-Morrison."""

    def compute(self, source: _Source) -> None:
        self.state = DenseState.compute(self.graph, self.params.dense_cap)

    def total_resistance(self) -> float:
        return total_resistance(self.state)  # n * trace, no second factorisation

    def gains(self, pairs: np.ndarray) -> np.ndarray:
        return gains_exact(self.state, pairs)

    def gain(self, a: int, b: int) -> float:
        return gain_exact(self.state, a, b)

    def note_insertion(self, a: int, b: int) -> None:
        self.state.apply_insertion(a, b)


class _Columns(_Scorer):
    """Exact gains from pseudoinverse columns, solved on demand and brought forward."""

    def compute(self, source: _Source) -> None:
        self.cache = ColumnCache(self.graph, self.params.solver)

    def gains(self, pairs: np.ndarray) -> np.ndarray:
        return gains_exact(self.cache, pairs)

    def gain(self, a: int, b: int) -> float:
        return gain_exact(self.cache, a, b)

    def note_insertion(self, a: int, b: int) -> None:
        self.cache.note_insertion(a, b)


class _Sketch(_Scorer):
    """Gains from random-projection sketches, rebuilt with fresh projections every round."""

    def compute(self, source: _Source) -> None:
        # Beside the diag source, whose trees draw from the plain streams, the
        # sketch takes a stream token of its own and is sized by the vertex
        # sample instead of by n.
        beside_diag = isinstance(source, _DiagVertices)
        self.tokens = ("sketch",) if beside_diag else ()
        universe = source.sample_size if beside_diag else self.graph.n
        self.width = jlt.default_sketch_width(universe, self.params.c_jlt)
        self._build(derive_rng(self.seed, _PRE_STREAM, self.kind.value, *self.tokens))

    def _build(self, rng: np.random.Generator) -> None:
        self.sketch = jlt.build_sketch(self.graph, self.width, rng, self.params.solver)

    def gains(self, pairs: np.ndarray) -> np.ndarray:
        return jlt.gains_jlt(self.sketch, pairs, current_round=self.graph.round)

    def gain(self, a: int, b: int) -> float:
        return jlt.gain_jlt(self.sketch, a, b, current_round=self.graph.round)

    def refresh(self, round_idx: int) -> None:
        self._build(self._rng(_UPDATE_STREAM, round_idx, *self.tokens))


class _Spectral(_Scorer):
    """Midpoints of the spectral gain bracket over the low Laplacian spectrum."""

    def compute(self, source: _Source) -> None:
        self._solve()

    def _solve(self) -> None:
        cutoff = max(2, min(self.params.cutoff, self.graph.n - 1))
        self.state = spectral.compute_low_spectrum(self.graph, cutoff, self.params.eig_tol)

    def gains(self, pairs: np.ndarray) -> np.ndarray:
        return spectral.gains_spectral(self.state, pairs)

    def gain(self, a: int, b: int) -> float:
        return spectral.gain_spectral(self.state, a, b)

    def refresh(self, round_idx: int) -> None:
        self._solve()


# Each heuristic is one candidate source paired with one gain scorer.
HEURISTIC_PARTS: dict[Heuristic, tuple[type[_Source], type[_Scorer]]] = {
    Heuristic.ST_GREEDY: (_StGreedy, _DenseP),
    Heuristic.SIMPL_STOCH: (_UniformPairs, _DenseP),
    Heuristic.COL_STOCH: (_DiagVertices, _Columns),
    Heuristic.SIMPL_STOCH_JLT: (_UniformPairs, _Sketch),
    Heuristic.COL_STOCH_JLT: (_DiagVertices, _Sketch),
    Heuristic.SPEC_STOCH: (_UniformPairs, _Spectral),
}


def _computed_parts(
    graph: Graph, k: int, kind: Heuristic, params: GreedyParams, seed: int
) -> tuple[_Source, _Scorer]:
    """The heuristic's source and scorer on ``graph``, preprocessed for a global run."""
    source_cls, scorer_cls = HEURISTIC_PARTS[kind]
    source = source_cls(graph, k, params, seed, kind)
    scorer = scorer_cls(graph, k, params, seed, kind)
    source.compute()
    scorer.compute(source)
    return source, scorer


# -- solutions and runners ---------------------------------------------------------


@dataclass
class Solution:
    """One finished run: the chosen edges, their exact gains, and phase timings."""

    heuristic: str
    seed: int
    k: int
    n: int
    m_initial: int
    focus: int | None
    inserted_edges: list[Edge]
    per_edge_true_gain: list[float]
    r_initial: float
    r_final: float
    timings: dict[str, float]
    params: dict

    def validate(self) -> None:
        if len(self.inserted_edges) != self.k:
            raise InvariantError(
                f"expected {self.k} insertions, recorded {len(self.inserted_edges)}"
            )
        drop = sum(self.per_edge_true_gain)
        if abs(self.r_final - (self.r_initial - drop)) > 1e-5 * max(1.0, abs(self.r_initial)):
            raise InvariantError(
                "bookkeeping mismatch: final resistance does not equal initial minus gains"
            )

    def to_dict(self) -> dict:
        return {
            "heuristic": self.heuristic,
            "seed": self.seed,
            "k": self.k,
            "n": self.n,
            "m_initial": self.m_initial,
            "focus": self.focus,
            "inserted_edges": [list(e) for e in self.inserted_edges],
            "per_edge_true_gain": self.per_edge_true_gain,
            "r_initial": self.r_initial,
            "r_final": self.r_final,
            "total_gain": sum(self.per_edge_true_gain),
            "timings": self.timings,
            "params": self.params,
        }


def _run_rounds(
    graph: Graph,
    parts: tuple[_Source, _Scorer],
    k: int,
    params: GreedyParams,
    timings: dict[str, float],
) -> tuple[list[Edge], list[float]]:
    """The main loop shared by the global and focus-node runs.

    One queue persists across rounds; entries pushed in earlier rounds stay
    available and are lazily re-scored when they surface as the stale top.
    """
    source, scorer = parts
    picked: list[Edge] = []
    gains: list[float] = []
    queue = LazyQueue()

    t0 = time.perf_counter()
    queue.push_many(source.initial_entries(scorer), stamp=0)
    timings["eval"] += time.perf_counter() - t0

    for r in range(k):
        t0 = time.perf_counter()
        pairs = source.candidates(r)
        timings["compute"] += time.perf_counter() - t0
        if len(pairs):
            t0 = time.perf_counter()
            scores = scorer.gains(pairs).tolist()
            queue.push_many(list(zip(pairs[:, 0].tolist(), pairs[:, 1].tolist(), scores)), stamp=r)
            timings["eval"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        a, b, _ = queue.lazy_next(scorer.gain, r, graph)
        timings["eval"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        exact_gain = true_gain(graph, a, b, params.solver)
        timings["report"] += time.perf_counter() - t0
        if exact_gain <= 0:
            MONOTONICITY_AUDIT["violations"] += 1
            raise InvariantError(
                f"insertion ({a},{b}) would not decrease total resistance (gain {exact_gain})"
            )
        MONOTONICITY_AUDIT["accepted"] += 1

        graph.insert_edge(a, b)
        t0 = time.perf_counter()
        for part in parts:
            part.note_insertion(a, b)
        if r + 1 < k:  # nothing reads the refreshed state after the last insertion
            # the source first: a sketch's block solve would leave a factor on
            # the graph that the tree update's solve would then pick up
            source.refresh(r)
            scorer.refresh(r)
        timings["update"] += time.perf_counter() - t0

        picked.append((a, b))
        gains.append(exact_gain)
    return picked, gains


def run_kgrip(
    graph: Graph, k: int, kind: Heuristic, params: GreedyParams | None = None, seed: int = 0
) -> Solution:
    """Insert k edges anywhere in the graph, chosen by the given heuristic."""
    params = params or GreedyParams()
    params.validate()
    assert_connected(graph)
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if k > graph.non_edge_count():
        raise ConfigError(
            f"k={k} exceeds the {graph.non_edge_count()} available non-edges"
        )

    work = graph.copy()
    timings = {"compute": 0.0, "eval": 0.0, "update": 0.0, "report": 0.0}

    t0 = time.perf_counter()
    parts = _computed_parts(work, k, kind, params, seed)
    timings["compute"] += time.perf_counter() - t0
    r_initial = parts[1].total_resistance()

    picked, gains = _run_rounds(work, parts, k, params, timings)
    r_final = total_resistance(work, params.dense_cap)

    solution = Solution(
        heuristic=kind.value,
        seed=seed,
        k=k,
        n=graph.n,
        m_initial=graph.m,
        focus=None,
        inserted_edges=picked,
        per_edge_true_gain=gains,
        r_initial=r_initial,
        r_final=r_final,
        timings=timings,
        params=params.to_dict(),
    )
    solution.validate()
    return solution


def check_focus_feasible(graph: Graph, focus: int, k: int) -> None:
    if not 0 <= focus < graph.n:
        raise ConfigError(f"focus node {focus} outside 0..{graph.n - 1}")
    free = graph.n - 1 - graph.degree(focus)
    if free < k:
        raise ConfigError(
            f"focus node {focus} is saturated: {free} non-neighbors available, k={k} requested"
        )


def run_klrip(
    graph: Graph,
    focus_nodes: Sequence[int],
    k: int,
    kind: Heuristic,
    params: GreedyParams | None = None,
    seed: int = 0,
) -> list[Solution]:
    """Solve the focus-node variant for every node in ``focus_nodes``.

    Preprocessing runs once on a copy of the input graph; each focus node
    then starts from a deep copy of the source and scorer bound to a fresh
    copy of the graph, so the results equal independent single-focus runs
    with the same seed.
    """
    params = params or GreedyParams()
    params.validate()
    assert_connected(graph)
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if not focus_nodes:
        raise ConfigError("focus node list is empty")
    for v in focus_nodes:
        check_focus_feasible(graph, v, k)

    pre_graph = graph.copy()
    t0 = time.perf_counter()
    pre_parts = _computed_parts(pre_graph, k, kind, params, seed)
    pre_seconds = time.perf_counter() - t0
    r_initial = pre_parts[1].total_resistance()

    solutions: list[Solution] = []
    for v in focus_nodes:
        work = graph.copy()
        timings = {"compute": 0.0, "eval": 0.0, "update": 0.0, "report": 0.0}
        t0 = time.perf_counter()
        # the memo swaps the pre-graph for this run's graph; all state is copied
        parts = copy.deepcopy(pre_parts, {id(pre_graph): work})
        for part in parts:
            part.focus = v
        parts[0].size_sample()
        timings["compute"] += time.perf_counter() - t0

        picked, gains = _run_rounds(work, parts, k, params, timings)
        r_final = total_resistance(work, params.dense_cap)
        timings["preprocess_shared"] = pre_seconds
        timings["preprocess_amortized"] = pre_seconds / len(focus_nodes)

        solution = Solution(
            heuristic=kind.value,
            seed=seed,
            k=k,
            n=graph.n,
            m_initial=graph.m,
            focus=v,
            inserted_edges=picked,
            per_edge_true_gain=gains,
            r_initial=r_initial,
            r_final=r_final,
            timings=timings,
            params=params.to_dict(),
        )
        solution.validate()
        solutions.append(solution)
    return solutions
