"""The benchmark's named workloads: seeded generated graphs and the call to time.

Every workload runs all six heuristics through the public API with default
``GreedyParams``. Sizes are chosen so that one run (at least two repetitions
of all six heuristics) fits in well under a minute on two cores; see
README.md for why each workload exists and which layers it loads.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    params: dict
    k: int
    # 0 runs run_kgrip; a positive count runs run_klrip over that many focus nodes
    focus_count: int
    why: str
    # calls of each heuristic in one repetition (1 if absent): fast heuristics get
    # more, so every heuristic has a comparable share of the run's time
    calls: dict = field(default_factory=dict)
    # nominal seconds of one repetition on a two-core x86-64 VM with one BLAS thread;
    # sets how many repetitions fill --seconds
    rep_s: float = 1.0
    # graphs drawn from one workload seed; repetition r runs on graph r % instances, so
    # the metrics average over several draws of the generator, not over one
    instances: int = 1

    @property
    def local(self) -> bool:
        return self.focus_count > 0


@dataclass(frozen=True)
class Instance:
    """One generated input: the graph and, for a local workload, its focus nodes."""

    graph: object
    focus: list | None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grip-ba650",
            "ba",
            {"n": 650, "m_attach": 3, "m0": 3},
            k=1,
            focus_count=0,
            why="scale-free, n above the dense eigensolver limit: set-up and scoring dominate;"
            " specstoch takes the LOBPCG path and fails at default parameters",
            calls={"stgreedy": 2, "simplstoch": 2, "simplstochjlt": 2},
            rep_s=13.0,
            instances=3,
        ),
        Workload(
            "grip-ws120",
            "ws",
            {"n": 120, "degree": 10, "rewire_prob": 0.01},
            k=4,
            focus_count=0,
            why="ill-conditioned, high-diameter ring lattice: long CG solves, long Wilson walks"
            " and deep aggregation, so the per-round update path dominates",
            calls={"stgreedy": 4, "simplstoch": 4, "simplstochjlt": 2, "specstoch": 4},
            rep_s=4.8,
            instances=6,
        ),
        Workload(
            "lrip-ba120",
            "ba",
            {"n": 120, "m_attach": 3, "m0": 3},
            k=2,
            focus_count=4,
            why="the local problem: shared preprocessing once, then per-focus hydrate,"
            " candidate sampling, UST update and exact report solves",
            calls={"stgreedy": 4, "simplstoch": 4, "specstoch": 4},
            rep_s=6.0,
            instances=5,
        ),
    )
}


def setup(kgrip, wl: Workload, seed: int) -> list[Instance]:
    """Generate the workload's graphs and, for local workloads, their focus nodes."""
    import numpy as np  # already loaded by kgrip; kept out of the module's import

    instances = []
    for i in range(wl.instances):
        graph_seed = int(np.random.SeedSequence([seed, 3, i]).generate_state(1)[0])
        graph = kgrip.generate(wl.model, wl.params, seed=graph_seed)
        focus = None
        if wl.local:
            free = [v for v in range(graph.n) if graph.n - 1 - graph.degree(v) >= wl.k]
            rng = np.random.default_rng([seed, 1, i])
            focus = sorted(int(v) for v in rng.choice(free, size=wl.focus_count, replace=False))
        instances.append(Instance(graph, focus))
    return instances


# tiny shapes of the three workloads for the harness self-test
SMOKE = {
    "grip-ba": Workload(
        "smoke-grip-ba", "ba", {"n": 40, "m_attach": 3, "m0": 3}, 2, 0, "self-test", instances=2
    ),
    "grip-ws": Workload(
        "smoke-grip-ws", "ws", {"n": 30, "degree": 4, "rewire_prob": 0.01}, 3, 0, "self-test",
        calls={"stgreedy": 2}, instances=2,
    ),
    "lrip-ba": Workload(
        "smoke-lrip-ba", "ba", {"n": 30, "m_attach": 3, "m0": 3}, 2, 3, "self-test", instances=2
    ),
}
