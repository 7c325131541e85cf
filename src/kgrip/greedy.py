"""Greedy edge-insertion framework: one selection rule, samplers, and six heuristics.

Every heuristic runs the same loop: preprocess (Compute), then per round
pick candidates, score them (Eval), insert the best-scoring non-edge, and
bring the preprocessed state forward (Update, skipped after the last
insertion, since no round reads it). A
heuristic is one candidate source paired with one gain scorer
(``HEURISTIC_PARTS``):

  candidate sources  - the universe of non-edges (StGreedy);
                       uniform non-edge samples; or vertex samples weighted
                       by the exact pseudoinverse diagonal;
  gain scorers       - the dense pseudoinverse, cached pseudoinverse
                       columns, random-projection sketches, or the spectral
                       bracket midpoint.

Each round the source yields a batch of pairs: the universe source every
non-edge of the graph as it stands, or every non-neighbor of a focus; the
sampling sources a fresh sample. Every heuristic takes the same pick: the
pair of greatest gain in that round's batch, ties to the lexicographically
smallest pair, scored by one ``gains`` call. For every non-edge the dense
scorer gets it from one streamed pass over its state instead, so StGreedy is
the exact greedy; the sampled heuristics are stochastic greedy
(Mirzasoleiman et al., 2015). No gain is carried from one round to the next.
Regardless of the scorer, the
reported per-edge gain of every accepted edge is recomputed exactly from one
linear solve, and total resistance must strictly decrease on every insertion.

The local variant (one focus node v) restricts candidates to non-neighbors of
v and inserts edges (v, b). One runner serves both variants: it preprocesses
once, then runs the global problem on those parts, or gives each focus node
a deep copy of them bound to its own copy of the graph, so a multi-focus run
reproduces independent single-focus runs bit for bit.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from . import jlt, linalg, spectral, ust
from .errors import ConfigError, InvariantError
from .graphs import Edge, Graph, assert_connected
from .linalg import (
    ColumnCache,
    DenseState,
    SolverConfig,
    gains_exact,
    total_resistance,
    total_resistance_after,
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
    c_jlt: float = 4.0

    def validate(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta must lie strictly inside (0,1), got {self.delta}")
        if not isinstance(self.cutoff, (int, np.integer)) or self.cutoff < 2:
            raise ConfigError(f"cutoff must be an integer >= 2, got {self.cutoff!r}")
        if not (math.isfinite(self.c_jlt) and self.c_jlt > 0):
            raise ConfigError(f"c_jlt must be finite and positive, got {self.c_jlt}")

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "cutoff": self.cutoff,
            "solver_eps": self.solver.residual_tol,
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

    Rejection sampling: successive ``rng.integers(n)`` draws form the pairs (a, b), and a pair is kept unless
    a == b, {a,b} is an edge, or it was drawn before. The draws are taken in blocks, so the result equals that of
    drawing one pair at a time; only the number of surplus draws differs. A block costs one sort: each candidate
    (the pairs kept so far, then the block's) packs its key a*n + b and its place in draw order into one int64,
    so the sorted run gives each key's first draw, ascending for the edge lookups.
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
        draws = rng.integers(n, size=2 * block)
        cand = np.concatenate([keys, np.minimum(draws[0::2], draws[1::2]) * n])
        cand[len(keys) :] += np.maximum(draws[0::2], draws[1::2])
        del draws
        # block <= 1.2 (s - kept) n^2 / 2 (universe - kept) + 17 < 0.6 n^2 + 17 as s < universe < n^2 / 2, so packed
        # keys stay below n^2 (1.1 n^2 + 17) < 2^63 up to n = 53000, past the dense cap that stops runs at r_initial
        size = len(cand)
        if n * n * size >= 2**63:
            raise InvariantError(f"n={n}: packed pair keys overflow int64")
        packed = cand * size + np.arange(size)
        packed.sort()
        ascending = packed // size
        # a key's first draw is kept unless the Laplacian stores its entry: a == b, or an edge
        first = np.r_[True, ascending[1:] != ascending[:-1]] & ~graph.stores_entries(ascending)
        keep = np.zeros(size, dtype=bool)
        keep[packed[first] % size] = True
        keys = cand[keep]
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


# -- selection -------------------------------------------------------------------------


class LazyQueue:
    """One round's selection: the pair of greatest gain in the round's scored batch, ties to the lexicographically
    smallest pair.

    Every round scores a fresh batch and takes its best pair, as stochastic greedy does (Mirzasoleiman et al.,
    2015); no gain outlives its round, so none goes stale. The class keeps the name of the lazy queue it replaced,
    and ``lazy_next`` its ``revalidate`` parameter, because ``perfbench/tracer.py`` patches both methods by name
    and its hook wraps that argument; ROADMAP item 1 retires those patches, and then the name.
    """

    def __init__(self):
        self._batch: tuple[np.ndarray, np.ndarray, int] | None = None

    def push_many(self, pairs: np.ndarray, gains: np.ndarray, stamp: int) -> None:
        """Hold the (s, 2) array of pairs a < b and their s gains, scored in round ``stamp``."""
        if not np.all(np.isfinite(gains)):
            raise InvariantError("batch gains must be finite")
        self._batch = pairs, gains, stamp

    def lazy_next(self, revalidate: None, current_round: int) -> tuple[int, int, float]:
        """The best pair of the batch pushed for ``current_round``, with its gain; ``revalidate`` is unused."""
        batch, self._batch = self._batch, None
        if batch is None or batch[2] != current_round:
            raise ConfigError(f"no candidate non-edges were scored in round {current_round}")
        pairs, gains, _ = batch
        top = gains.max()
        ties = pairs[gains == top]
        a, b = ties[np.lexsort((ties[:, 1], ties[:, 0]))[0]].tolist()
        return a, b, float(top)


# -- candidate sources and gain scorers -------------------------------------------

_PRE_STREAM = "pre"
_CAND_STREAM = "cand"
_UPDATE_STREAM = "upd"

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

    def compute(self, scorer: "_Scorer") -> None:
        self.size_sample()

    def size_sample(self) -> None:
        """Per-round sample size of the global form, or of the focus form once ``focus`` is set."""
        g, delta = self.graph, self.params.delta
        if self.focus is None:
            self.sample_size = candidate_size(self.global_mode, g.n, g.m, self.k, delta)
        else:
            self.sample_size = candidate_size("lrip", g.n, g.degree(self.focus), self.k, delta)

    def candidates(self, round_idx: int) -> np.ndarray | None:
        """This round's candidate non-edges as an (s, 2) array of pairs a < b; None stands for every non-edge."""
        raise NotImplementedError

    def _focus_pairs(self, vertices: Sequence[int]) -> np.ndarray:
        b = np.asarray(vertices, dtype=np.int64)
        return np.column_stack([np.minimum(b, self.focus), np.maximum(b, self.focus)])


class _StGreedy(_Source):
    """The universe source: every non-edge (None, read off the graph), or every non-neighbor of the focus, each round."""

    def size_sample(self) -> None:
        pass

    def initial_entries(self) -> np.ndarray | None:
        """Every current non-neighbor of the focus paired with it, or None for every non-edge."""
        return None if self.focus is None else self._focus_pairs(self.graph.non_neighbors(self.focus))

    def candidates(self, round_idx: int) -> np.ndarray | None:
        return self.initial_entries()


class _UniformPairs(_Source):
    """Uniform non-edges, or uniform non-neighbors of the focus."""

    def candidates(self, round_idx: int) -> np.ndarray:
        rng = self._rng(_CAND_STREAM, round_idx)
        if self.focus is None:
            return sample_nonedge_pairs(self.graph, self.sample_size, rng)
        pool = self.graph.non_neighbors(self.focus)
        return self._focus_pairs(sample_candidates_uniform(pool, self.sample_size, rng))


class _DiagVertices(_Source):
    """Vertices drawn with probability proportional to the exact diag(L+), which the paper estimates from spanning trees
    (``ust.approx_diag_lpinv``, kept as a test hook): the non-edges among them, or each paired with the focus."""

    global_mode = "grip-col"

    def compute(self, scorer: "_Scorer") -> None:
        self.repo = ust.UstRepository(diag=scorer.initial_diagonal, round=self.graph.round)
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
    """Estimates gains: ``gains`` scores a round's candidates, an (s, 2) array of pairs, in one call."""

    def compute(self, source: _Source) -> None:
        raise NotImplementedError

    @cached_property
    def initial_diagonal(self) -> np.ndarray:
        """Exact diag(L+) of the input graph, from one inversion pass (:func:`linalg.lpinv_diagonal`)."""
        return linalg.lpinv_diagonal(self.graph)

    def total_resistance(self) -> float:
        """Exact total resistance of the input graph: n times the sum of :attr:`initial_diagonal`."""
        return self.graph.n * float(self.initial_diagonal.sum())

    def gains(self, pairs: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class _Columns(_Scorer):
    """Exact gains from pseudoinverse columns, solved on demand and brought forward."""

    def compute(self, source: _Source) -> None:
        self.cache = ColumnCache(self.graph, self.params.solver)

    def gains(self, pairs: np.ndarray) -> np.ndarray:
        return gains_exact(self.cache, pairs)

    def update(self, a: int, b: int, round_idx: int) -> None:
        self.cache.note_insertion(a, b)


class _DenseP(_Columns):
    """Exact gains from the full pseudoinverse, kept current by Sherman-Morrison."""

    def compute(self, source: _Source) -> None:
        self.cache = DenseState.compute(self.graph)

    def total_resistance(self) -> float:
        return total_resistance(self.cache)  # n * trace, no second factorisation

    def update(self, a: int, b: int, round_idx: int) -> None:
        self.cache.apply_insertion(a, b)


class _Sketch(_Scorer):
    """Gains from random-projection sketches, rebuilt with fresh projections every round."""

    def compute(self, source: _Source) -> None:
        # beside the diag source the sketch draws from a stream token of its own and is sized by the sample, not n
        beside_diag = isinstance(source, _DiagVertices)
        self.tokens = ("sketch",) if beside_diag else ()
        universe = source.sample_size if beside_diag else self.graph.n
        self.width = jlt.default_sketch_width(universe, self.params.c_jlt)
        self._build(derive_rng(self.seed, _PRE_STREAM, self.kind.value, *self.tokens))

    def _build(self, rng: np.random.Generator) -> None:
        self.sketch = jlt.build_sketch(self.graph, self.width, rng, self.params.solver)

    def gains(self, pairs: np.ndarray) -> np.ndarray:
        return jlt.gains_jlt(self.sketch, pairs, current_round=self.graph.round)

    def update(self, a: int, b: int, round_idx: int) -> None:
        self._build(self._rng(_UPDATE_STREAM, round_idx, *self.tokens))


class _Spectral(_Scorer):
    """Midpoints of the spectral gain bracket over the low Laplacian spectrum."""

    def compute(self, source: _Source) -> None:
        self._solve()

    def total_resistance(self) -> float:  # a dense eigensolve holds no factor, and r_initial builds none for it
        return super().total_resistance() if self.graph.has_factor else total_resistance(self.graph)

    def _solve(self) -> None:
        cutoff = max(2, min(self.params.cutoff, self.graph.n - 1))
        self.state = spectral.compute_low_spectrum(self.graph, cutoff)

    def gains(self, pairs: np.ndarray) -> np.ndarray:
        return spectral.gains_spectral(self.state, pairs)

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
    source.compute(scorer)
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
        sequential, tol = self.r_initial - sum(self.per_edge_true_gain), 1e-5 * max(1.0, abs(self.r_initial))
        if abs(self.r_final - sequential) > tol:
            raise InvariantError(
                f"bookkeeping mismatch: r_final from the Woodbury block update on the input graph ({self.r_final!r}) "
                f"and r_initial minus the sequential per-round exact gains ({sequential!r}) differ by more than {tol!r}"
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
    inputs: list[Graph] | None = None,
) -> tuple[list[Edge], list[float]]:
    """The main loop shared by the global and focus-node runs: each round inserts the best-scoring pair of that
    round's candidates. ``inputs``, if given, gets a copy of the graph as the first insertion finds it, with any
    factor built by then."""
    source, scorer = parts
    picked: list[Edge] = []
    gains: list[float] = []
    selection = LazyQueue()

    for r in range(k):
        t0 = time.perf_counter()
        pairs = source.candidates(r)
        timings["compute"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        if pairs is None:  # every non-edge: one pass over the dense state, by the same rule
            a, b = scorer.cache.best_non_edge()
        else:
            selection.push_many(pairs, scorer.gains(pairs), r)
            a, b, _ = selection.lazy_next(None, r)
        timings["eval"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        exact_gain = true_gain(graph, a, b, params.solver)
        timings["report"] += time.perf_counter() - t0
        if exact_gain <= 0:  # Rayleigh monotonicity: every insertion strictly decreases R_tot
            raise InvariantError(
                f"insertion ({a},{b}) would not decrease total resistance (gain {exact_gain})"
            )

        if r == 0 and inputs is not None:
            inputs.append(graph.copy())
        graph.insert_edge(a, b)
        if r + 1 < k:  # nothing reads the updated state after the last insertion
            t0 = time.perf_counter()
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
    pre_graph.clear_solve_record()  # the solve path follows the input's edges, not the caller's solves
    t0 = time.perf_counter()
    pre_parts = _computed_parts(pre_graph, k, kind, params, seed)
    pre_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    r_initial = pre_parts[1].total_resistance()
    r_initial_share = (time.perf_counter() - t0) / len(focus_nodes or [None])  # split over a batch
    # r_final is solved on the first run's input as its first insertion found it: a factor built by then factors
    # the input; later runs' factors are not shared, so that each focus factors as a lone focus would
    solutions: list[Solution] = []
    inputs: list[Graph] = []
    for v in [None] if focus_nodes is None else focus_nodes:
        timings = {"compute": 0.0, "eval": 0.0, "update": 0.0, "report": 0.0}
        if v is None:
            work, parts = pre_graph, pre_parts
            timings["compute"] += pre_seconds
        else:
            work = pre_graph.copy()  # shares the caches that preprocessing left
            t0 = time.perf_counter()
            # the memo swaps the pre-graph for this run's graph; the rest is copied
            parts = copy.deepcopy(pre_parts, {id(pre_graph): work})
            for part in parts:
                part.focus = v
            parts[0].size_sample()
            timings["compute"] += time.perf_counter() - t0
            timings["preprocess_shared"] = pre_seconds
            timings["preprocess_amortized"] = pre_seconds / len(focus_nodes)

        picked, gains = _run_rounds(work, parts, k, params, timings, None if solutions else inputs)
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
            r_final=math.nan,  # set below, by one block solve for every run
            timings=timings,
            params=params.to_dict(),
        )
        solutions.append(solution)

    t0 = time.perf_counter()
    r_finals = total_resistance_after(inputs[0], r_initial, [s.inserted_edges for s in solutions], params.solver)
    r_final_share = (time.perf_counter() - t0) / len(solutions)
    for solution, r_final in zip(solutions, r_finals):
        solution.r_final = r_final
        solution.timings["resistance"] = r_initial_share + r_final_share
        solution.validate()
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
    seen: set[int] = set()
    for v in focus_nodes:
        check_focus_feasible(graph, v, k)
        if v in seen:
            raise ConfigError(f"focus node {v} is listed more than once")
        seen.add(v)
    return _runs(graph, focus_nodes, k, kind, params, seed)
