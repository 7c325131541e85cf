"""Greedy edge-insertion framework: lazy queue, samplers, and six heuristics.

Every heuristic runs the same loop: preprocess (Compute), then per round
pick candidates, score them (Eval), insert the best-scoring non-edge, and
bring the preprocessed state forward (Update, skipped after the last
insertion, since no round reads it). A
heuristic is one candidate source paired with one gain scorer
(``HEURISTIC_PARTS``):

  candidate sources  - the universe of non-edges, queued once (StGreedy);
                       uniform non-edge samples; or vertex samples weighted
                       by the UST estimate of the pseudoinverse diagonal;
  gain scorers       - the dense pseudoinverse, cached pseudoinverse
                       columns, random-projection sketches, or the spectral
                       bracket midpoint.

All heuristics share one persistent max-queue whose entries carry the round
in which their gain was computed. Each round the source yields a batch of
pairs (the universe source: every non-edge in round 0, none later; the
sampling sources: a fresh sample), the scorer scores it in one call, and the
queue keeps both arrays, turning only the best of them into heap tuples.
The lazy pop re-scores stale tops one at a time until the best entry is
current; with the exact dense scorer, past a measured share of the live
entries per round, one batch call re-scores them all instead (StGreedy on a
ring lattice, where almost every stale gain beats the top). Regardless of
the scorer, the reported per-edge gain of every accepted edge is recomputed
exactly from one linear solve, and total resistance must strictly decrease
on every insertion.

The local variant (one focus node v) restricts candidates to non-neighbors of
v and inserts edges (v, b). One runner serves both variants: it preprocesses
once, then runs the global problem on those parts, or gives each focus node
a deep copy of them bound to its own copy of the graph, so a multi-focus run
reproduces independent single-focus runs bit for bit.
"""

from __future__ import annotations

import copy
import heapq
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from itertools import count, repeat
from typing import Callable, Sequence

import numpy as np

from . import jlt, spectral, ust
from .errors import ConfigError, InvariantError
from .graphs import Edge, Graph, assert_connected
from .linalg import (
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
    """Knobs shared by all heuristics; the CLI flags take their defaults from here."""

    delta: float = 0.9
    cutoff: int = 50
    solver: SolverConfig = field(default_factory=SolverConfig)
    diag_epsilon: float = 0.1
    c_jlt: float = 4.0

    def validate(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta must lie strictly inside (0,1), got {self.delta}")
        if not isinstance(self.cutoff, (int, np.integer)) or self.cutoff < 2:
            raise ConfigError(f"cutoff must be an integer >= 2, got {self.cutoff!r}")
        for name, value in (
            ("diag epsilon", self.diag_epsilon),
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

    Successive sampling without replacement, each pick weighted among the
    vertices not yet picked, drawn as one exponential race (Efraimidis and
    Spirakis): every pool vertex v (every vertex, or ``allowed``) gets the key
    E_v / w_v with E_v ~ Exp(1), and the s smallest keys win, in key order.
    Negative estimates clamp to zero; a zero-weight vertex keys at infinity,
    after every positive-weight one, and a second uniform key orders those
    ties uniformly.
    """
    pool = np.arange(len(diag_values)) if allowed is None else np.asarray(allowed, dtype=np.int64)
    weights = np.maximum(np.asarray(diag_values, dtype=float)[pool], 0.0)
    with np.errstate(divide="ignore"):
        keys = rng.standard_exponential(len(pool)) / weights
    return pool[np.lexsort((rng.random(len(pool)), keys))[:s]].tolist()


def _pairs_from_vertices(graph: Graph, vertices: list[int]) -> np.ndarray:
    """Non-edges among the vertices, as pairs a < b in sorted order."""
    ordered = np.unique(np.asarray(vertices, dtype=np.int64))
    i, j = np.triu_indices(len(ordered), 1)
    a, b = ordered[i], ordered[j]
    keep = ~graph.has_edges(a, b)
    return np.column_stack([a[keep], b[keep]])


# -- lazy priority queue ------------------------------------------------------------


_CHUNK = 2048  # best entries a batch moves into the heap at once, with those tied to the last
# A whole-queue rescan costs about _RESCAN_FIXED + live / _RESCAN_RATIO single lazy
# re-scores (pop, scalar gain, push). Measured on WS(n, 10, 0.01) StGreedy queues, one
# BLAS thread, two-core x86-64 VM: a rescan of 30-100 entries costs 30-46 singles at
# n = 120 and 650; of the round-1 queue, 570 singles at n = 120 (6.5k entries, where
# moving a chunk into the heap still dominates), 4974 at 650 (208k), 36607 at 2000 (2M).
_RESCAN_FIXED = 40
_RESCAN_RATIO = 40


class LazyQueue:
    """Max-queue of (edge, cached gain, round stamp) with lazy revalidation.

    Ties in gain break toward the lexicographically smallest canonical edge,
    then the older stamp. Each ``push_many`` batch stays as arrays, kept in a
    heap by its floor (its best negated gain); a small heap of (-gain, a, b,
    stamp) tuples holds the entries that could come out next. While that heap
    is empty or its top does not beat the lowest floor strictly, the batch
    holding it moves its best ``_CHUNK`` entries and all ties of the last one
    into the heap, so entries pop as from one heap of every tuple. A batch's
    first move is one partition; the remainder it leaves is sorted once, on
    its next move, and then handed out as slices.
    """

    def __init__(self):
        self._heap: list[tuple[float, int, int, int]] = []
        # heap of batches (floor, push order, negated gains, pairs, stamp, moves so far)
        self._batches: list[tuple[float, int, np.ndarray, np.ndarray, int, int]] = []
        self._order = count()

    def push_many(self, pairs: np.ndarray, gains: np.ndarray, stamp: int) -> None:
        """Push an (s, 2) array of pairs a < b with their s gains, all stamped ``stamp``."""
        if not np.all(np.isfinite(gains)):
            raise InvariantError("queued gains must be finite")
        if len(gains):
            heapq.heappush(self._batches, (-float(gains.max()), next(self._order), -gains, pairs, stamp, 0))

    def _pop(self) -> tuple[float, int, int, int]:
        heap, batches = self._heap, self._batches
        while batches and (not heap or heap[0][0] >= batches[0][0]):
            _, order, neg, pairs, stamp, moves = heapq.heappop(batches)
            if len(neg) > _CHUNK:
                if moves == 0:
                    take = neg <= np.partition(neg, _CHUNK - 1)[_CHUNK - 1]
                    rest = ~take
                    neg, pairs, rest_neg, rest_pairs = neg[take], pairs[take], neg[rest], pairs[rest]
                else:
                    if moves == 1:
                        by_gain = np.argsort(neg)  # ties move together, so any order of them will do
                        neg, pairs = neg[by_gain], pairs[by_gain]
                    end = int(np.searchsorted(neg, neg[_CHUNK - 1], side="right"))
                    neg, pairs, rest_neg, rest_pairs = neg[:end], pairs[:end], neg[end:], pairs[end:]
                if len(rest_neg):
                    floor = rest_neg[0] if moves else rest_neg.min()  # a sorted remainder starts at its floor
                    heapq.heappush(batches, (float(floor), order, rest_neg, rest_pairs, stamp, moves + 1))
            heap.extend(zip(neg.tolist(), pairs[:, 0].tolist(), pairs[:, 1].tolist(), repeat(stamp)))
            heapq.heapify(heap)
        return heapq.heappop(heap)

    def lazy_next(
        self,
        revalidate: Callable[[int, int], float],
        current_round: int,
        graph: Graph | None = None,
        rescan: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> tuple[int, int, float]:
        """Pop entries until the top carries a current-round stamp; return it.

        Stale tops are re-scored with ``revalidate`` and reinserted; once
        they cost as much as a rescan, the batch scorer ``rescan`` (if given,
        with ``graph``) re-scores every live entry at once instead. Entries
        whose edge meanwhile exists in the graph (duplicates of an accepted
        edge) are discarded.
        """
        live = len(self._heap) + sum(len(batch[2]) for batch in self._batches)
        budget = _RESCAN_FIXED + live / _RESCAN_RATIO
        while self._heap or self._batches:
            neg_gain, a, b, stamp = self._pop()
            if graph is not None and graph.has_edge(a, b):
                continue
            if stamp == current_round:
                return a, b, -neg_gain
            if rescan is not None and budget < 0:
                self._rescan(rescan, current_round, graph, (a, b))
                continue
            budget -= 1
            heapq.heappush(self._heap, (-revalidate(a, b), a, b, current_round))
        raise ConfigError("candidate queue exhausted: no non-edges left to insert")

    def _rescan(self, rescan, stamp: int, graph: Graph, held: tuple[int, int]) -> None:
        """Replace the queue by one batch: every live non-edge (and ``held``), scored by ``rescan``."""
        heap_pairs = np.array([held, *((a, b) for _, a, b, _ in self._heap)], dtype=np.int64)
        pairs = np.concatenate([heap_pairs, *(batch[3] for batch in self._batches)])
        # in pair order, the edge lookups and the scorer's gathers run along rows
        keys = np.sort(pairs[:, 0] * graph.n + pairs[:, 1])
        pairs = np.column_stack([keys // graph.n, keys % graph.n])
        pairs = pairs[~graph.has_edges(pairs[:, 0], pairs[:, 1])]
        self._heap, self._batches = [], []
        self.push_many(pairs, rescan(pairs), stamp)


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

    ``compute`` builds the preprocessing state and ``update`` brings it
    across an insertion for the next round, so the loop skips it after the
    last insertion. ``focus`` is None in a global run.
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

    def update(self, a: int, b: int, round_idx: int) -> None:
        """Bring the state across the insertion of {a,b} in round ``round_idx``."""


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

    def candidates(self, round_idx: int) -> np.ndarray:
        """This round's candidate non-edges as an (s, 2) array of pairs a < b."""
        raise NotImplementedError

    def _focus_pairs(self, vertices: Sequence[int]) -> np.ndarray:
        b = np.asarray(vertices, dtype=np.int64)
        return np.column_stack([np.minimum(b, self.focus), np.maximum(b, self.focus)])


class _StGreedy(_Source):
    """The universe source: every candidate is in the round-0 batch, none later."""

    def size_sample(self) -> None:
        pass

    def initial_entries(self) -> np.ndarray:
        """Every non-edge, or every non-neighbor of the focus paired with it."""
        if self.focus is None:
            return self.graph.non_edges()
        return self._focus_pairs(self.graph.non_neighbors(self.focus))

    def candidates(self, round_idx: int) -> np.ndarray:
        return self.initial_entries() if round_idx == 0 else _NO_PAIRS


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
        _, self.repo = ust.approx_diag_lpinv(
            self.graph, self.params.diag_epsilon, rng, self.params.solver
        )
        self.size_sample()

    def candidates(self, round_idx: int) -> np.ndarray:
        rng = self._rng(_CAND_STREAM, round_idx)
        if self.focus is None:
            vertices = sample_candidates_diag_weighted(self.repo.diag, self.sample_size, rng)
            pairs = _pairs_from_vertices(self.graph, vertices)
            # on a dense graph the sampled vertices may span no non-edge at all
            return pairs if len(pairs) else sample_nonedge_pairs(self.graph, len(vertices), rng)
        pool = self.graph.non_neighbors(self.focus)
        vertices = sample_candidates_diag_weighted(self.repo.diag, self.sample_size, rng, allowed=pool)
        return self._focus_pairs(vertices)

    def update(self, a: int, b: int, round_idx: int) -> None:
        ust.approx_update_diag(self.graph, self.repo, self.params.solver)


class _Scorer(_Part):
    """Estimates gains: ``gains`` scores a round's whole (s, 2) pair sample,
    ``gain`` re-scores one stale queue entry."""

    rescan = None  # or a batch scorer that re-scores the whole queue once single re-scores stop paying

    def compute(self, source: _Source) -> None:
        raise NotImplementedError

    def total_resistance(self) -> float:
        """Exact total resistance of the graph as :meth:`compute` left it."""
        return total_resistance(self.graph)

    def gains(self, pairs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gain(self, a: int, b: int) -> float:
        raise NotImplementedError


class _Columns(_Scorer):
    """Exact gains from pseudoinverse columns, solved on demand and brought forward."""

    def compute(self, source: _Source) -> None:
        self.cache = ColumnCache(self.graph, self.params.solver)

    def gains(self, pairs: np.ndarray) -> np.ndarray:
        return gains_exact(self.cache, pairs)

    def gain(self, a: int, b: int) -> float:
        return gain_exact(self.cache, a, b)

    def update(self, a: int, b: int, round_idx: int) -> None:
        self.cache.note_insertion(a, b)


class _DenseP(_Columns):
    """Exact gains from the full pseudoinverse, kept current by Sherman-Morrison."""

    def compute(self, source: _Source) -> None:
        self.cache = DenseState.compute(self.graph)

    def total_resistance(self) -> float:
        return total_resistance(self.cache)  # n * trace, no second factorisation

    def rescan(self, pairs: np.ndarray) -> np.ndarray:
        """The queue's gains: one formula with :meth:`gain`, so a rescan moves no pick;
        the queue has dropped every edge already."""
        return self.cache.gains(pairs[:, 0], pairs[:, 1])

    def update(self, a: int, b: int, round_idx: int) -> None:
        self.cache.apply_insertion(a, b)


class _Sketch(_Scorer):
    """Gains from random-projection sketches, rebuilt with fresh projections every round."""

    def compute(self, source: _Source) -> None:
        # Beside the diag source, whose trees draw from the plain stream, the
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

    def update(self, a: int, b: int, round_idx: int) -> None:
        self._build(self._rng(_UPDATE_STREAM, round_idx, *self.tokens))


class _Spectral(_Scorer):
    """Midpoints of the spectral gain bracket over the low Laplacian spectrum."""

    def compute(self, source: _Source) -> None:
        self._solve()

    def _solve(self) -> None:
        cutoff = max(2, min(self.params.cutoff, self.graph.n - 1))
        self.state = spectral.compute_low_spectrum(self.graph, cutoff)

    def gains(self, pairs: np.ndarray) -> np.ndarray:
        return spectral.gains_spectral(self.state, pairs)

    def gain(self, a: int, b: int) -> float:
        return spectral.gain_spectral(self.state, a, b)

    def update(self, a: int, b: int, round_idx: int) -> None:
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

    for r in range(k):
        t0 = time.perf_counter()
        pairs = source.candidates(r)
        timings["compute"] += time.perf_counter() - t0
        if len(pairs):
            t0 = time.perf_counter()
            queue.push_many(pairs, scorer.gains(pairs), r)
            timings["eval"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        a, b, _ = queue.lazy_next(scorer.gain, r, graph, scorer.rescan)
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
        if r + 1 < k:  # nothing reads the updated state after the last insertion
            t0 = time.perf_counter()
            # the source first: a sketch's block solve would leave a factor on
            # the graph that the diagonal update's solve would then pick up
            source.update(a, b, r)
            scorer.update(a, b, r)
            timings["update"] += time.perf_counter() - t0

        picked.append((a, b))
        gains.append(exact_gain)
    return picked, gains


def _runs(
    graph: Graph,
    focus_nodes: Sequence[int] | None,
    k: int,
    kind: Heuristic,
    params: GreedyParams,
    seed: int,
) -> list[Solution]:
    """Preprocess once, then solve the global problem (``focus_nodes`` None) or each focus node."""
    pre_graph = graph.copy()
    t0 = time.perf_counter()
    pre_parts = _computed_parts(pre_graph, k, kind, params, seed)
    pre_seconds = time.perf_counter() - t0
    r_initial = pre_parts[1].total_resistance()

    solutions: list[Solution] = []
    for v in [None] if focus_nodes is None else focus_nodes:
        timings = {"compute": 0.0, "eval": 0.0, "update": 0.0, "report": 0.0}
        if v is None:
            work, parts = pre_graph, pre_parts
            timings["compute"] += pre_seconds
        else:
            work = graph.copy()
            t0 = time.perf_counter()
            # the memo swaps the pre-graph for this run's graph; the rest is copied
            parts = copy.deepcopy(pre_parts, {id(pre_graph): work})
            for part in parts:
                part.focus = v
            parts[0].size_sample()
            timings["compute"] += time.perf_counter() - t0
            timings["preprocess_shared"] = pre_seconds
            timings["preprocess_amortized"] = pre_seconds / len(focus_nodes)

        picked, gains = _run_rounds(work, parts, k, params, timings)
        r_final = total_resistance(work)

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
    return _runs(graph, None, k, kind, params, seed)[0]


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

    Preprocessing runs once; the results equal independent single-focus runs
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
    return _runs(graph, focus_nodes, k, kind, params, seed)
