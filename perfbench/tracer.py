"""Outside-in tracing of the kgrip layers for the benchmark's traced run.

The library is not instrumented. Instead, :class:`Tracer` swaps each listed
function for a wrapper that records a span (name, parent span, start, end,
whether it raised) and puts the original back afterwards. A name is replaced
everywhere it is looked up: in its defining module and in every ``kgrip``
module that imported it by name (``greedy`` imports ``gain_exact``,
``true_gain`` and ``total_resistance``; ``ust`` imports
``solve_lpinv_column``; the package re-exports the runners). Methods are
replaced on their class.

Three counters need more than a span. ``LazyQueue.lazy_next`` gets its
``revalidate`` callable wrapped so each lazy re-score is counted,
``LazyQueue.push_many`` counts the entries it receives (every scored
candidate enters the queue through it), and scipy's ``cg``, which the column
and sketch solvers reach through the ``scipy.sparse.linalg`` module, gets a
counting ``callback`` and nothing else.

Self time is a span's duration minus the durations of its direct children.
Spans are kept in memory for one library call and reduced right after it.
"""

from __future__ import annotations

import functools
import sys
import time

# module -> public functions (and "Class.method") wrapped in the traced run
TRACED = {
    "graphs": [
        "Graph.laplacian",
        "Graph.laplacian_dense",
        "Graph.copy",
        "Graph.non_neighbors",
        "bfs_parents",
        "assert_connected",
    ],
    "linalg": [
        "pseudoinverse_dense",
        "solve_lpinv_column",
        "total_resistance",
        "gain_exact",
        "true_gain",
        "sherman_morrison_update",
        "refresh_column",
        "ColumnCache.column",
        "ColumnCache.note_insertion",
        "DenseState.compute",
        "DenseState.apply_insertion",
    ],
    "ust": [
        "sample_ust",
        "sample_ust_with_edge",
        "aggregate_tree",
        "SpanningTree.rooted_at",
        "approx_diag_lpinv",
        "approx_update_diag",
    ],
    "jlt": ["build_sketch", "gain_jlt"],
    "spectral": ["compute_low_spectrum", "gain_spectral", "gain_bounds"],
    "greedy": [
        "run_kgrip",
        "run_klrip",
        "sample_nonedge_pairs",
        "sample_candidates_uniform",
        "sample_candidates_diag_weighted",
        "LazyQueue.push_many",
        "LazyQueue.lazy_next",
        "_StGreedy.initial_entries",
    ],
}

CG_ITERS = "linalg.cg.iters"
CG_CALLS = "linalg.cg.calls"
REVALIDATIONS = "greedy.revalidations"
CANDIDATES_SCORED = "greedy.candidates_scored"
COUNTERS = (CG_ITERS, CG_CALLS, REVALIDATIONS, CANDIDATES_SCORED)


class Tracer:
    """Span recorder plus the patch/restore of every traced name."""

    def __init__(self):
        self.spans: list[tuple[str, int, float, float, bool] | None] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, parent, start, end, failed)

        return traced

    def _push_many_hook(self, args, kwargs):
        entries = args[1] if len(args) > 1 else kwargs["entries"]
        self.counts[CANDIDATES_SCORED] += len(entries)
        return args, kwargs

    def _lazy_next_hook(self, args, kwargs):
        counts = self.counts
        if len(args) > 1:
            revalidate = args[1]
        else:
            revalidate = kwargs["revalidate"]

        def counted(a, b):
            counts[REVALIDATIONS] += 1
            return revalidate(a, b)

        if len(args) > 1:
            return (args[0], counted, *args[2:]), kwargs
        return args, {**kwargs, "revalidate": counted}

    def _counting_cg(self, cg):
        counts = self.counts

        @functools.wraps(cg)
        def counted_cg(*args, callback=None, **kwargs):
            def tick(xk):
                counts[CG_ITERS] += 1
                if callback is not None:
                    callback(xk)

            counts[CG_CALLS] += 1
            return cg(*args, callback=tick, **kwargs)

        return counted_cg

    # -- patching -----------------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        import scipy.sparse.linalg as spla

        kgrip_modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "kgrip" or name.startswith("kgrip."))
        ]
        hooks = {
            "LazyQueue.push_many": self._push_many_hook,
            "LazyQueue.lazy_next": self._lazy_next_hook,
        }
        try:
            for module_name, names in TRACED.items():
                module = sys.modules[f"kgrip.{module_name}"]
                for name in names:
                    label = f"{module_name}.{name}"
                    if "." in name:
                        cls_name, meth = name.split(".")
                        cls = getattr(module, cls_name)
                        raw = vars(cls)[meth]
                        if isinstance(raw, classmethod):
                            new = classmethod(self._wrap(label, raw.__func__))
                        else:
                            new = self._wrap(label, raw, hooks.get(name))
                        self._replace(cls, meth, new)
                        continue
                    original = getattr(module, name)
                    wrapped = self._wrap(label, original)
                    for mod in kgrip_modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._replace(mod, attr, wrapped)
            self._replace(spla, "cg", self._counting_cg(spla.cg))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reduction ------------------------------------------------------------------

    def take(self) -> dict[str, float]:
        """Reduce the spans and counters to flat per-layer values, then clear them.

        Keys are ``<label>.calls``, ``<label>.s`` (inclusive), ``<label>.self_s``
        and ``<label>.failed`` per traced function, plus the counters.
        """
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        values: dict[str, float] = {}
        for i, (name, _, start, end, failed) in enumerate(self.spans):
            for stat, v in (("calls", 1), ("s", end - start), ("self_s", end - start - child[i]),
                            ("failed", int(failed))):
                key = f"{name}.{stat}"
                values[key] = values.get(key, 0) + v
        values.update(self.counts)
        self.spans.clear()
        self.counts = dict.fromkeys(COUNTERS, 0)
        return values


def originals() -> dict[str, object]:
    """Identity snapshot of every traceable attribute, to prove a full restore."""
    import scipy.sparse.linalg as spla

    snap = {"scipy.sparse.linalg.cg": vars(spla)["cg"]}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "kgrip" or name.startswith("kgrip.")):
            continue
        for attr, value in vars(mod).items():
            snap[f"{name}.{attr}"] = value
            if isinstance(value, type) and value.__module__.startswith("kgrip"):
                for meth, raw in vars(value).items():
                    snap[f"{name}.{attr}.{meth}"] = raw
    return snap
