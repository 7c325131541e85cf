"""Sampling, failure accounting, the correctness gate and the metrics.

A repetition runs every heuristic through the public API on one of the
workload's generated graphs; each call gets its own seed, derived from the
workload seed, the repetition and the call index.
A call that raises ``KgripError`` is one failed operation: its error class,
message, residual and warnings are kept, and for the metrics it stands for
what a user who tried it gets, namely the failed attempt followed by
StGreedy, so a failure never reads as a fast or as a missing run.

The traced run pairs a plain call with a traced call of the same heuristic
and seed; per-layer numbers come from the traced call, phase times from the
plain ones, and the difference of the pair's wall times is the tracing
overhead.
"""

from __future__ import annotations

import contextlib
import math
import os
import statistics
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

import hostspeed
from tracer import Tracer

HEURISTICS = ("stgreedy", "simplstoch", "colstoch", "simplstochjlt", "colstochjlt", "specstoch")
STOCHASTIC = HEURISTICS[1:]
MIN_REPS = 2  # plain repetitions in a run, however short --seconds is
TRACED_REP_COST = 2.0  # a traced repetition takes about twice a plain one
PHASES = ("compute", "eval", "update", "report")

END_TO_END = (
    [("setup_s", "s")]
    + [(f"norm_wall_s.{h}", "s") for h in HEURISTICS]
    + [(f"quality.{h}", "ratio") for h in STOCHASTIC]
    + [("peak_rss_mb", "MB")]
)

# per-layer metrics kept for every heuristic, then the ones for its own layers
_LAYER_COMMON = (
    "phase.compute_s",
    "phase.eval_s",
    "phase.update_s",
    "phase.report_s",
    "phase.other_s",
    "trace_overhead_s",
    "failed",
    "linalg.cg.calls",
    "linalg.cg.iters",
    "graphs.Graph.laplacian.calls",
    "graphs.Graph.laplacian.self_s",
    "linalg.solve_lpinv_column.calls",
    "linalg.solve_lpinv_column.self_s",
    "linalg.total_resistance.s",
)
_UST = (
    "ust.approx_diag_lpinv.s",
    "ust.approx_update_diag.s",
    "ust.sample_ust.calls",
    "ust.sample_ust_with_edge.calls",
    "ust.aggregate_tree.self_s",
)
_LAYER_OWN = {
    "stgreedy": (
        "linalg.pseudoinverse_dense.self_s",
        "greedy._StGreedy.initial_entries.self_s",
        "greedy.LazyQueue.push_many.self_s",
        "greedy.LazyQueue.lazy_next.self_s",
        "greedy.revalidations",
        "greedy.candidates_scored",
    ),
    "simplstoch": (
        "linalg.pseudoinverse_dense.self_s",
        "linalg.gain_exact.calls",
        "linalg.gain_exact.self_s",
        "greedy.sample_nonedge_pairs.self_s",
        "greedy.sample_candidates_uniform.self_s",
    ),
    "colstoch": _UST
    + (
        "ust.sample_ust.self_s",
        "ust.sample_ust_with_edge.self_s",
        "ust.SpanningTree.rooted_at.self_s",
        "linalg.ColumnCache.column.calls",
        "greedy.sample_candidates_diag_weighted.self_s",
    ),
    "simplstochjlt": (
        "jlt.build_sketch.calls",
        "jlt.build_sketch.s",
        "jlt.gain_jlt.calls",
        "greedy.sample_nonedge_pairs.self_s",
    ),
    "colstochjlt": _UST + ("jlt.build_sketch.calls", "jlt.build_sketch.s", "jlt.gain_jlt.calls"),
    "specstoch": (
        "spectral.compute_low_spectrum.calls",
        "spectral.compute_low_spectrum.s",
        "spectral.compute_low_spectrum.failed",
        "spectral.gain_spectral.calls",
        "warnings",
        "greedy.sample_nonedge_pairs.self_s",
    ),
}


def _layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") or name.endswith(".s") else "count"


PER_LAYER = [
    (f"{h}.{name}", _layer_unit(name)) for h in HEURISTICS for name in _LAYER_COMMON + _LAYER_OWN[h]
]


@dataclass
class Outcome:
    """One library call: its wall time and either its solutions or its error."""

    heuristic: str
    seed: int
    wall: float
    solutions: list | None
    inst: int = 0  # index of the input instance
    norm_wall: float | None = None  # wall at the reference host speed, see hostspeed.py
    tick_s: float | None = None  # mean host probe during the call
    error: str | None = None
    message: str | None = None
    residual: float | None = None
    warnings: int = 0
    warning_kinds: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.solutions is not None

    @property
    def total_gain(self) -> float:
        return sum(sum(s.per_edge_true_gain) for s in self.solutions)

    def edges(self) -> list:
        return [list(s.inserted_edges) for s in self.solutions]


def call_seed(seed: int, rep: int, index: int) -> int:
    """Heuristic seed of the index-th call in a repetition, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, 2, rep, index]).generate_state(1)[0])


def call(
    kgrip, wl, instances, inst: int, heuristic: str, seed: int, tracer: Tracer | None = None
) -> Outcome:
    """Time one public-API call on ``instances[inst]``; only ``KgripError`` from the call is caught.

    A plain call runs under a :class:`hostspeed.Meter`: its wall time leaves
    out the meter's ticks and ``norm_wall`` is that time at the reference
    host speed. A traced call is timed by the clock alone.
    """
    graph, focus = instances[inst].graph, instances[inst].focus
    kind = kgrip.Heuristic(heuristic)
    params = kgrip.GreedyParams()  # defaults: threads=1, no pool
    error = None
    meter = hostspeed.Meter() if tracer is None else None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.install()
        try:
            with meter or contextlib.nullcontext():
                start = time.perf_counter()
                try:
                    if wl.local:
                        solutions = kgrip.run_klrip(graph, focus, wl.k, kind, params, seed)
                    else:
                        solutions = [kgrip.run_kgrip(graph, wl.k, kind, params, seed)]
                except kgrip.KgripError as exc:
                    solutions, error = None, exc
                wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.restore()
    kinds = sorted({f"{w.category.__name__} from {os.path.basename(w.filename)}" for w in caught})
    out = Outcome(heuristic, seed, wall, solutions, inst, warnings=len(caught), warning_kinds=kinds)
    if meter is not None:
        out.wall, out.norm_wall, out.tick_s = meter.own_s, meter.scaled_s, meter.tick_s
    if error is not None:
        out.error = type(error).__name__
        out.message = str(error)
        out.residual = getattr(error, "achieved_residual", None)
    if tracer is not None:
        out.layers = tracer.take()
    return out


@dataclass
class Samples:
    """Every call of one invocation, per heuristic, in call order."""

    plain: dict[str, list[Outcome]] = field(default_factory=lambda: {h: [] for h in HEURISTICS})
    # traced call paired with the plain call of the same seed
    traced: dict[str, list[tuple[Outcome, Outcome]]] = field(
        default_factory=lambda: {h: [] for h in HEURISTICS}
    )
    reps: int = 0

    def outcomes(self, h: str) -> list[Outcome]:
        return self.plain[h] + [t for _, t in self.traced[h]]


def rep_order(wl) -> list[str]:
    """The calls of one repetition, each heuristic's calls spread evenly through it.

    Interleaving puts every heuristic's samples across the whole run, so a
    stretch of a slower host does not land on one heuristic alone.
    """
    slots = [
        ((j + 0.5) / wl.calls.get(h, 1), i, h)
        for i, h in enumerate(HEURISTICS)
        for j in range(wl.calls.get(h, 1))
    ]
    return [h for _, _, h in sorted(slots)]


def planned_reps(wl, seconds: float, traced: bool) -> int:
    """Repetitions that fill about ``seconds`` at the workload's nominal pace.

    The count depends only on the workload and ``seconds``, never on the
    clock, so every run of a workload makes the same calls with the same
    seeds: ``attempted`` and ``failed`` repeat exactly across runs and hosts.
    A plain run gives every instance the same number of repetitions.
    """
    if traced:
        return max(1, round(seconds / (wl.rep_s * TRACED_REP_COST)))
    rounds = max(1, round(seconds / (wl.rep_s * wl.instances)))
    return max(MIN_REPS, rounds * wl.instances)


def measure(kgrip, wl, instances, seed: int, reps: int, traced: bool) -> Samples:
    """Run ``reps`` repetitions of the workload's calls (see :func:`rep_order`).

    Repetition ``r`` runs on instance ``r % len(instances)``. In a traced run
    the first call of each heuristic in a repetition is repeated right away
    under the tracer with the same seed.
    """
    tracer = Tracer() if traced else None
    samples = Samples()
    order = rep_order(wl)
    for rep in range(reps):
        inst = rep % len(instances)
        for index, h in enumerate(order):
            out = call(kgrip, wl, instances, inst, h, call_seed(seed, rep, index))
            samples.plain[h].append(out)
            if traced and len(samples.traced[h]) == rep:  # first call of h in this repetition
                samples.traced[h].append((out, call(kgrip, wl, instances, inst, h, out.seed, tracer)))
        samples.reps += 1
    return samples


# -- correctness gate -----------------------------------------------------------------


def _check_solutions(wl, instances, out: Outcome) -> list[str]:
    graph, focus = instances[out.inst].graph, instances[out.inst].focus
    where = f"{out.heuristic} seed {out.seed} instance {out.inst}"
    problems = []
    if wl.local and [s.focus for s in out.solutions] != focus:
        problems.append(f"{where}: focus nodes {[s.focus for s in out.solutions]} != {focus}")
    for sol in out.solutions:
        edges = [tuple(e) for e in sol.inserted_edges]
        if len(edges) != wl.k or len(set(edges)) != wl.k:
            problems.append(f"{where}: expected {wl.k} distinct edges, got {edges}")
        for a, b in edges:
            if not (0 <= a < b < graph.n) or graph.has_edge(a, b):
                problems.append(f"{where}: ({a},{b}) is not a non-edge of the input graph")
            if wl.local and sol.focus not in (a, b):
                problems.append(f"{where}: ({a},{b}) does not touch focus node {sol.focus}")
        gains = sol.per_edge_true_gain
        if len(gains) != wl.k or not all(math.isfinite(g) and g > 0 for g in gains):
            problems.append(f"{where}: per-edge gains {gains} are not all positive")
    return problems


def gate(kgrip, wl, instances, seed: int, samples: Samples) -> list[str]:
    """Every check of the benchmark's outputs; runs outside the timed region."""
    from kgrip import oracles

    problems = []
    for h in HEURISTICS:
        for out in samples.outcomes(h):
            if out.ok:
                problems += _check_solutions(wl, instances, out)
    for inst, greedy in _by_instance(samples.outcomes("stgreedy")).items():
        if not all(o.ok for o in greedy):
            problems.append(f"stgreedy failed on instance {inst}; quality has no reference")
        elif any(o.edges() != greedy[0].edges() for o in greedy):
            problems.append(f"stgreedy edges differ across calls on instance {inst}")

    # same seed, same edges: a traced run compares every plain/traced pair; a plain
    # run re-runs one stochastic heuristic, rotating with the workload seed
    pairs = [pair for h in HEURISTICS for pair in samples.traced[h]]
    if not pairs:
        h = STOCHASTIC[seed % len(STOCHASTIC)]
        first = samples.plain[h][0]
        pairs = [(first, call(kgrip, wl, instances, first.inst, h, first.seed))]
    for first, again in pairs:
        if (first.error, first.ok and first.edges()) != (again.error, again.ok and again.edges()):
            problems.append(f"{first.heuristic} seed {first.seed} did not reproduce its edges")

    for h in HEURISTICS:
        out = samples.plain[h][0]
        if not out.ok:
            continue
        for sol in out.solutions:
            grown = instances[out.inst].graph.copy()
            for a, b in sol.inserted_edges:
                grown.insert_edge(a, b)
            ref = oracles.total_resistance(grown)
            if abs(sol.r_final - ref) > 1e-6 * ref:
                problems.append(f"{h}: r_final {sol.r_final} != oracle {ref}")
    return problems


# -- metrics ----------------------------------------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values))


def _by_instance(outs: list[Outcome]) -> dict[int, list[Outcome]]:
    groups: dict[int, list[Outcome]] = {}
    for o in outs:
        groups.setdefault(o.inst, []).append(o)
    return groups


def end_to_end(samples: Samples, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    """The user-visible metrics: per instance the median over plain calls, then the mean.

    Times are wall times at the reference host speed. A failed call counts as
    itself followed by StGreedy on the same instance: its time is its own plus
    StGreedy's median there, its quality StGreedy's (1.0).
    """
    greedy = _by_instance(samples.plain["stgreedy"])
    greedy_wall = {i: _median(o.norm_wall for o in outs) for i, outs in greedy.items()}
    greedy_gain = {i: next((o.total_gain for o in outs if o.ok), math.nan) for i, outs in greedy.items()}
    metrics = {"setup_s": setup_s}
    for h in HEURISTICS:
        groups = _by_instance(samples.plain[h]).items()
        metrics[f"norm_wall_s.{h}"] = statistics.fmean(
            _median(o.norm_wall + (0 if o.ok else greedy_wall[i]) for o in outs) for i, outs in groups
        )
        if h != "stgreedy":
            metrics[f"quality.{h}"] = statistics.fmean(
                _median(o.total_gain / greedy_gain[i] if o.ok else 1.0 for o in outs) for i, outs in groups
            )
    metrics["peak_rss_mb"] = peak_rss_mb
    return metrics


def _phases(out: Outcome) -> dict[str, float]:
    """Phase times from ``Solution.timings``; ``other`` is the untimed rest of the call."""
    sums = dict.fromkeys(PHASES, 0.0)
    if out.ok:
        sums = {p: sum(s.timings[p] for s in out.solutions) for p in PHASES}
        sums["compute"] += out.solutions[0].timings.get("preprocess_shared", 0.0)
    phases = {f"phase.{p}_s": v for p, v in sums.items()}
    phases["phase.other_s"] = out.wall - sum(sums.values())
    return phases


def phase_table(samples: Samples) -> dict[str, dict[str, float]]:
    """Per heuristic, median phase times of the plain calls."""
    table = {}
    for h in HEURISTICS:
        rows = [_phases(o) for o in samples.plain[h]]
        table[h] = {n: _median(r[n] for r in rows) for n in rows[0]}
    return table


def layer_table(samples: Samples) -> dict[str, dict[str, float]]:
    """Per heuristic: every traced value, phase time and overhead, median over calls."""
    phases = phase_table(samples)
    table = {}
    for h in HEURISTICS:
        traced = [t for _, t in samples.traced[h]]
        names = sorted({name for o in traced for name in o.layers})
        row = {n: _median(o.layers.get(n, 0) for o in traced) for n in names}
        row.update(phases[h])
        row["trace_overhead_s"] = _median(t.wall - p.wall for p, t in samples.traced[h])
        row["failed"] = sum(not o.ok for o in samples.outcomes(h))
        row["warnings"] = _median(o.warnings for o in samples.plain[h])
        table[h] = row
    return table


def per_layer(table: dict[str, dict[str, float]]) -> dict[str, float]:
    metrics = {}
    for name, _ in PER_LAYER:
        h, rest = name.split(".", 1)
        metrics[name] = table[h].get(rest, 0)
    return metrics


def failures(samples: Samples) -> dict[str, dict]:
    """Attempted and failed calls per heuristic, with each distinct error seen."""
    summary = {}
    for h in HEURISTICS:
        outs = samples.outcomes(h)
        errors = {}
        for o in outs:
            if not o.ok:
                errors.setdefault(o.error, {"count": 0, "residual": o.residual, "message": o.message})
                errors[o.error]["count"] += 1
        summary[h] = {
            "attempted": len(outs),
            "failed": sum(not o.ok for o in outs),
            "warnings": sum(o.warnings for o in outs),
            "warning_kinds": sorted({k for o in outs for k in o.warning_kinds}),
            "errors": errors,
        }
    return summary
