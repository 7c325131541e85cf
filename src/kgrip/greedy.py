"""Greedy edge-insertion framework: lazy queue, samplers, and six heuristics.

Every heuristic follows the same loop: preprocess (Compute), then per round
pick candidates, score them (Eval), insert the best-scoring non-edge, and
bring the preprocessed state forward (Update; after the last insertion only
the cheap bookkeeping runs, since no round reads the rebuilt state). They
differ along two axes:

  candidate choice   - full universe (StGreedy), uniform pair samples
                       (SimplStoch, SimplStochJLT, SpecStoch), or vertex
                       samples weighted by the estimated pseudoinverse
                       diagonal (ColStoch, ColStochJLT);
  gain scoring       - exact pseudoinverse columns, random-projection
                       sketches, or the spectral bracket midpoint.

All heuristics share one persistent max-queue whose entries carry the round
in which their gain was computed: StGreedy seeds it with every non-edge up
front, the stochastic heuristics push a fresh sample each round, and the
lazy pop revalidates stale tops until the best entry is current. A round's
sample is scored in one batched call; a stale top is re-scored on its own.
Regardless of the scoring path, the reported per-edge gain of every accepted
edge is recomputed exactly from two linear solves, and total resistance must
strictly decrease on every insertion.

The local variant (one focus node v) restricts candidates to non-neighbors of
v and inserts edges (v, b); preprocessing artifacts are computed once,
snapshotted, and rehydrated per focus node so a multi-focus run reproduces
independent single-focus runs bit for bit.
"""

from __future__ import annotations

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


STOCHASTIC = {
    Heuristic.SIMPL_STOCH,
    Heuristic.COL_STOCH,
    Heuristic.SIMPL_STOCH_JLT,
    Heuristic.COL_STOCH_JLT,
    Heuristic.SPEC_STOCH,
}


@dataclass
class GreedyParams:
    """Knobs shared by all heuristics; defaults follow the CLI defaults."""

    delta: float = 0.9
    eta: float = 0.55  # recorded with results; sketch width is driven by c_jlt
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
        if self.eta <= 0:
            raise ConfigError(f"eta must be positive, got {self.eta}")
        if self.cutoff < 2:
            raise ConfigError(f"cutoff must be >= 2, got {self.cutoff}")
        if self.diag_epsilon <= 0:
            raise ConfigError(f"diag epsilon must be positive, got {self.diag_epsilon}")

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "eta": self.eta,
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


# -- heuristic strategies -------------------------------------------------------------

_PRE_STREAM = "pre"
_CAND_STREAM = "cand"
_UPDATE_STREAM = "upd"

# process-wide audit of the Rayleigh monotonicity guard: every accepted
# insertion must strictly decrease exact total resistance
MONOTONICITY_AUDIT = {"accepted": 0, "violations": 0}


class _Strategy:
    """One Compute/Candidates/Eval/Update bundle bound to a working graph."""

    kind: Heuristic

    def __init__(self, graph: Graph, k: int, params: GreedyParams, seed: int, focus: int | None):
        self.graph = graph
        self.k = k
        self.params = params
        self.seed = seed
        self.focus = focus
        self.scope = "global" if focus is None else focus

    def _rng(self, stream: str, round_idx: int, *tokens) -> np.random.Generator:
        return derive_rng(self.seed, stream, self.kind.value, self.scope, round_idx, *tokens)

    # Compute step: build preprocessing state.
    def compute(self) -> None:
        raise NotImplementedError

    def total_resistance(self) -> float:
        """Exact total resistance of the graph as :meth:`compute` left it."""
        return total_resistance(self.graph, self.params.dense_cap)

    # Snapshot/hydrate support the amortized multi-focus runs.
    def snapshot(self):
        raise NotImplementedError

    def hydrate(self, snap) -> None:
        raise NotImplementedError

    def round_candidates(self, round_idx: int) -> np.ndarray:
        """This round's candidate non-edges as an (s, 2) array of pairs a < b."""
        if self.focus is None:
            return self._global_candidates(round_idx)
        return self._focus_candidates(round_idx)

    def _global_candidates(self, round_idx: int) -> np.ndarray:
        raise NotImplementedError

    def _focus_candidates(self, round_idx: int) -> np.ndarray:
        raise NotImplementedError

    # Eval step: ``estimate_gains`` scores a round's whole (s, 2) pair sample;
    # ``estimate_gain`` re-scores one stale queue entry.
    def estimate_gains(self, pairs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def estimate_gain(self, a: int, b: int) -> float:
        raise NotImplementedError

    # Update step, split in two. ``note_insertion`` keeps the state in step
    # with the graph after every insertion; ``refresh`` rebuilds what the next
    # round reads, so the loop skips it after the last insertion.
    def note_insertion(self, a: int, b: int) -> None:
        pass

    def refresh(self, round_idx: int) -> None:
        pass

    # helpers shared by the uniform-pair heuristics
    def _uniform_sample_size(self) -> int:
        g = self.graph
        if self.focus is None:
            return candidate_size("grip-simpl", g.n, g.m, self.k, self.params.delta)
        return self._lrip_sample_size()

    def _lrip_sample_size(self) -> int:
        g = self.graph
        return candidate_size("lrip", g.n, g.degree(self.focus), self.k, self.params.delta)

    def _focus_pairs(self, vertices: Sequence[int]) -> np.ndarray:
        b = np.asarray(vertices, dtype=np.int64)
        return np.column_stack([np.minimum(b, self.focus), np.maximum(b, self.focus)])


class _DensePinvMixin:
    """Shared Compute/Update for the heuristics holding the full pseudoinverse."""

    def compute(self) -> None:
        self.state = DenseState.compute(self.graph, self.params.dense_cap)

    def total_resistance(self) -> float:
        return total_resistance(self.state)  # n * trace, no second factorisation

    def snapshot(self):
        return self.state.matrix.copy()

    def hydrate(self, snap) -> None:
        self.state = DenseState(self.graph, snap.copy(), self.graph.round)

    def estimate_gains(self, pairs: np.ndarray) -> np.ndarray:
        return gains_exact(self.state, pairs)

    def estimate_gain(self, a: int, b: int) -> float:
        return gain_exact(self.state, a, b)

    def note_insertion(self, a: int, b: int) -> None:
        self.state.apply_insertion(a, b)


class _StGreedy(_DensePinvMixin, _Strategy):
    """Exhaustive lazy greedy: the whole universe enters the queue at round 0."""

    kind = Heuristic.ST_GREEDY

    def initial_entries(self) -> list[tuple[int, int, float]]:
        """Gains of every candidate, vectorized from the dense pseudoinverse."""
        g = self.graph
        p = self.state.matrix
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

    def _global_candidates(self, round_idx: int) -> np.ndarray:
        return _NO_PAIRS  # queue was seeded with the whole universe at round 0

    def _focus_candidates(self, round_idx: int) -> np.ndarray:
        return _NO_PAIRS


class _SimplStoch(_DensePinvMixin, _Strategy):
    kind = Heuristic.SIMPL_STOCH

    def compute(self) -> None:
        super().compute()
        self.sample_size = self._uniform_sample_size()

    def hydrate(self, snap) -> None:
        super().hydrate(snap)
        self.sample_size = self._uniform_sample_size()

    def _global_candidates(self, round_idx: int) -> np.ndarray:
        return sample_nonedge_pairs(self.graph, self.sample_size, self._rng(_CAND_STREAM, round_idx))

    def _focus_candidates(self, round_idx: int) -> np.ndarray:
        pool = self.graph.non_neighbors(self.focus)
        picked = sample_candidates_uniform(pool, self.sample_size, self._rng(_CAND_STREAM, round_idx))
        return self._focus_pairs(picked)


class _DiagSampledMixin:
    """Shared Compute/Update for the column-sampling heuristics (UST diagonal)."""

    def _compute_diag(self) -> None:
        rng = derive_rng(self.seed, _PRE_STREAM, self.kind.value)
        self.diag, self.repo = ust.approx_diag_lpinv(
            self.graph, self.params.diag_epsilon, rng, self.params.solver, self.params.c_ust
        )

    def _diag_snapshot(self):
        import copy

        return (self.diag.values.copy(), copy.deepcopy(self.repo))

    def _diag_hydrate(self, snap) -> None:
        import copy

        values, repo = snap
        self.diag = ust.DiagEstimate(values.copy(), self.params.diag_epsilon)
        self.repo = copy.deepcopy(repo)
        self.repo.base_round = self.graph.round - self.repo.update_count

    def _update_diag(self, round_idx: int) -> None:
        self.diag, self.repo = ust.approx_update_diag(
            self.graph, self.repo, self.diag, self._rng(_UPDATE_STREAM, round_idx), self.params.solver
        )

    def _sampled_vertices(self, round_idx: int) -> list[int]:
        return sample_candidates_diag_weighted(
            self.diag.values, self.vertex_sample_size, self._rng(_CAND_STREAM, round_idx)
        )

    def _sampled_focus_vertices(self, round_idx: int) -> list[int]:
        pool = self.graph.non_neighbors(self.focus)
        return sample_candidates_diag_weighted(
            self.diag.values, self.vertex_sample_size, self._rng(_CAND_STREAM, round_idx), allowed=pool
        )

    def _init_sample_size(self) -> None:
        if self.focus is None:
            self.vertex_sample_size = candidate_size(
                "grip-col", self.graph.n, self.graph.n, self.k, self.params.delta
            )
        else:
            self.vertex_sample_size = self._lrip_sample_size()

    @staticmethod
    def _pairs_from_vertices(graph: Graph, vertices: list[int]) -> np.ndarray:
        """Non-edges among the vertices, as pairs a < b in sorted order."""
        ordered = np.unique(np.asarray(vertices, dtype=np.int64))
        i, j = np.triu_indices(len(ordered), 1)
        a, b = ordered[i], ordered[j]
        keep = ~graph.has_edges(a, b)
        return np.column_stack([a[keep], b[keep]])


class _ColStoch(_DiagSampledMixin, _Strategy):
    kind = Heuristic.COL_STOCH

    def compute(self) -> None:
        self._compute_diag()
        self.cache = ColumnCache(self.graph, self.params.solver)
        self._init_sample_size()

    def snapshot(self):
        return self._diag_snapshot()

    def hydrate(self, snap) -> None:
        self._diag_hydrate(snap)
        self.cache = ColumnCache(self.graph, self.params.solver)
        self._init_sample_size()

    def _global_candidates(self, round_idx: int) -> np.ndarray:
        return self._pairs_from_vertices(self.graph, self._sampled_vertices(round_idx))

    def _focus_candidates(self, round_idx: int) -> np.ndarray:
        return self._focus_pairs(self._sampled_focus_vertices(round_idx))

    def estimate_gains(self, pairs: np.ndarray) -> np.ndarray:
        return gains_exact(self.cache, pairs)

    def estimate_gain(self, a: int, b: int) -> float:
        return gain_exact(self.cache, a, b)

    def note_insertion(self, a: int, b: int) -> None:
        self.cache.note_insertion(a, b)

    def refresh(self, round_idx: int) -> None:
        self._update_diag(round_idx)


class _JltMixin:
    """Sketch construction shared by the two projection-based heuristics."""

    def _build_sketch(self, rng: np.random.Generator) -> None:
        self.sketch = jlt.build_sketch(self.graph, self.sketch_width, rng, self.params.solver)

    def estimate_gains(self, pairs: np.ndarray) -> np.ndarray:
        return jlt.gains_jlt(self.sketch, pairs, current_round=self.graph.round)

    def estimate_gain(self, a: int, b: int) -> float:
        return jlt.gain_jlt(self.sketch, a, b, current_round=self.graph.round)

    @staticmethod
    def _copied_sketch(sketch: jlt.JltSketch, round_: int) -> jlt.JltSketch:
        return jlt.JltSketch(sketch.q, sketch.biharm.copy(), sketch.resist.copy(), round_)

    def _sketch_snapshot(self):
        return self._copied_sketch(self.sketch, self.sketch.round)


class _SimplStochJLT(_JltMixin, _Strategy):
    kind = Heuristic.SIMPL_STOCH_JLT

    def compute(self) -> None:
        self.sample_size = self._uniform_sample_size()
        self.sketch_width = jlt.default_sketch_width(self.graph.n, self.params.c_jlt)
        self._build_sketch(derive_rng(self.seed, _PRE_STREAM, self.kind.value))

    def snapshot(self):
        return (self.sketch_width, self._sketch_snapshot())

    def hydrate(self, snap) -> None:
        self.sample_size = self._uniform_sample_size()
        self.sketch_width, sketch = snap
        self.sketch = self._copied_sketch(sketch, self.graph.round)

    def _global_candidates(self, round_idx: int) -> np.ndarray:
        return sample_nonedge_pairs(self.graph, self.sample_size, self._rng(_CAND_STREAM, round_idx))

    def _focus_candidates(self, round_idx: int) -> np.ndarray:
        pool = self.graph.non_neighbors(self.focus)
        picked = sample_candidates_uniform(pool, self.sample_size, self._rng(_CAND_STREAM, round_idx))
        return self._focus_pairs(picked)

    def refresh(self, round_idx: int) -> None:
        self._build_sketch(self._rng(_UPDATE_STREAM, round_idx))


class _ColStochJLT(_JltMixin, _DiagSampledMixin, _Strategy):
    kind = Heuristic.COL_STOCH_JLT

    def compute(self) -> None:
        self._compute_diag()
        self._init_sample_size()
        self.sketch_width = jlt.default_sketch_width(self.vertex_sample_size, self.params.c_jlt)
        self._build_sketch(derive_rng(self.seed, _PRE_STREAM, self.kind.value, "sketch"))

    def snapshot(self):
        return (self._diag_snapshot(), self.sketch_width, self._sketch_snapshot())

    def hydrate(self, snap) -> None:
        diag_snap, width, sketch = snap
        self._diag_hydrate(diag_snap)
        self._init_sample_size()
        self.sketch_width = width
        self.sketch = self._copied_sketch(sketch, self.graph.round)

    def _global_candidates(self, round_idx: int) -> np.ndarray:
        vertices = self._sampled_vertices(round_idx)
        return self._pairs_from_vertices(self.graph, vertices)

    def _focus_candidates(self, round_idx: int) -> np.ndarray:
        return self._focus_pairs(self._sampled_focus_vertices(round_idx))

    def refresh(self, round_idx: int) -> None:
        self._update_diag(round_idx)
        self._build_sketch(self._rng(_UPDATE_STREAM, round_idx, "sketch"))


class _SpecStoch(_Strategy):
    kind = Heuristic.SPEC_STOCH

    def _cutoff(self) -> int:
        return max(2, min(self.params.cutoff, self.graph.n - 1))

    def compute(self) -> None:
        self.sample_size = self._uniform_sample_size()
        self.state = spectral.compute_low_spectrum(
            self.graph, self._cutoff(), self.params.eig_tol
        )

    def snapshot(self):
        return self.state

    def hydrate(self, snap) -> None:
        self.sample_size = self._uniform_sample_size()
        self.state = spectral.SpectralState(
            cutoff=snap.cutoff,
            eigenvalues=snap.eigenvalues.copy(),
            vectors=snap.vectors.copy(),
            lambda_max=snap.lambda_max,
            round=self.graph.round,
        )

    def _global_candidates(self, round_idx: int) -> np.ndarray:
        return sample_nonedge_pairs(self.graph, self.sample_size, self._rng(_CAND_STREAM, round_idx))

    def _focus_candidates(self, round_idx: int) -> np.ndarray:
        pool = self.graph.non_neighbors(self.focus)
        picked = sample_candidates_uniform(pool, self.sample_size, self._rng(_CAND_STREAM, round_idx))
        return self._focus_pairs(picked)

    def estimate_gains(self, pairs: np.ndarray) -> np.ndarray:
        return spectral.gains_spectral(self.state, pairs)

    def estimate_gain(self, a: int, b: int) -> float:
        return spectral.gain_spectral(self.state, a, b)

    def refresh(self, round_idx: int) -> None:
        self.state = spectral.compute_low_spectrum(self.graph, self._cutoff(), self.params.eig_tol)


_STRATEGIES = {
    Heuristic.ST_GREEDY: _StGreedy,
    Heuristic.SIMPL_STOCH: _SimplStoch,
    Heuristic.COL_STOCH: _ColStoch,
    Heuristic.SIMPL_STOCH_JLT: _SimplStochJLT,
    Heuristic.COL_STOCH_JLT: _ColStochJLT,
    Heuristic.SPEC_STOCH: _SpecStoch,
}


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
    strategy: _Strategy,
    k: int,
    params: GreedyParams,
    timings: dict[str, float],
) -> tuple[list[Edge], list[float]]:
    """The main loop shared by the global and focus-node runs.

    One queue persists across rounds; entries pushed in earlier rounds stay
    available and are lazily re-scored when they surface as the stale top.
    """
    picked: list[Edge] = []
    gains: list[float] = []
    queue = LazyQueue()

    if strategy.kind is Heuristic.ST_GREEDY:
        t0 = time.perf_counter()
        queue.push_many(strategy.initial_entries(), stamp=0)
        timings["eval"] += time.perf_counter() - t0

    for r in range(k):
        t0 = time.perf_counter()
        pairs = strategy.round_candidates(r)
        timings["compute"] += time.perf_counter() - t0
        if len(pairs):
            t0 = time.perf_counter()
            scores = strategy.estimate_gains(pairs).tolist()
            queue.push_many(list(zip(pairs[:, 0].tolist(), pairs[:, 1].tolist(), scores)), stamp=r)
            timings["eval"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        a, b, _ = queue.lazy_next(strategy.estimate_gain, r, graph)
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
        strategy.note_insertion(a, b)
        if r + 1 < k:  # nothing reads the refreshed state after the last insertion
            strategy.refresh(r)
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
    strategy = _STRATEGIES[kind](work, k, params, seed, focus=None)
    timings = {"compute": 0.0, "eval": 0.0, "update": 0.0, "report": 0.0}

    t0 = time.perf_counter()
    strategy.compute()
    timings["compute"] += time.perf_counter() - t0
    r_initial = strategy.total_resistance()

    picked, gains = _run_rounds(work, strategy, k, params, timings)
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

    Preprocessing runs once on the input graph and is snapshotted; each focus
    node then starts from a rehydrated copy with the graph reset, so the
    results equal independent single-focus runs with the same seed.
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
    pre_strategy = _STRATEGIES[kind](pre_graph, k, params, seed, focus=None)
    t0 = time.perf_counter()
    pre_strategy.compute()
    snap = pre_strategy.snapshot()
    pre_seconds = time.perf_counter() - t0
    r_initial = pre_strategy.total_resistance()

    solutions: list[Solution] = []
    for v in focus_nodes:
        work = graph.copy()
        strategy = _STRATEGIES[kind](work, k, params, seed, focus=v)
        timings = {"compute": 0.0, "eval": 0.0, "update": 0.0, "report": 0.0}
        t0 = time.perf_counter()
        strategy.hydrate(snap)
        timings["compute"] += time.perf_counter() - t0

        picked, gains = _run_rounds(work, strategy, k, params, timings)
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
