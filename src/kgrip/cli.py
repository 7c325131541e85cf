"""Command-line surface: optimize, lrip, generate, and bench subcommands.

Exit codes: 0 success, 2 configuration error, 3 input/parse error,
4 solver non-convergence. Results are written as JSON (default) or CSV with
identical numbers; every stochastic run echoes the seed it ran with so the
document can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import os
import signal
import sys
import time
from contextlib import contextmanager

from .errors import ConfigError, InvariantError, KgripError, ParseError, SolverError
from .graphs import Graph, dump_edge_list, generate, load_edge_list
from .greedy import (
    GreedyParams,
    Heuristic,
    Solution,
    check_focus_feasible,
    run_kgrip,
    run_klrip,
)
from .seeds import derive_int_seed, derive_rng

_GENERATOR_KEYS = {
    "er": {"n": int, "p": float},
    "ba": {"n": int, "m_attach": int, "m0": int},
    "ws": {"n": int, "degree": int, "rewire_prob": float},
}
_KEY_ALIASES = {"m": "m_attach", "beta": "rewire_prob", "deg": "degree"}
_DEFAULTS = GreedyParams()  # the single source of every parameter flag's default
_LOG = logging.getLogger("kgrip")


def _number(cast, token: str, what: str):
    """``cast(token)``, or a :class:`ConfigError` naming the token and what it was for."""
    try:
        return cast(token)
    except ValueError:
        raise ConfigError(f"{what}: {token.strip()!r} is not a number") from None


def parse_generator_spec(spec: str) -> tuple[str, dict, int | None]:
    """Parse compact generator specs like "er:n=300,p=0.05,seed=1"."""
    model, _, rest = spec.partition(":")
    model = model.strip().lower()
    if model not in _GENERATOR_KEYS:
        raise ConfigError(f"unknown generator model {model!r} in spec {spec!r}")
    params: dict = {}
    for item in filter(None, (s.strip() for s in rest.split(","))):
        key, _, value = item.partition("=")
        if not value:
            raise ConfigError(f"malformed generator parameter {item!r} in spec {spec!r}")
        key = _KEY_ALIASES.get(key.strip(), key.strip())
        caster = {**_GENERATOR_KEYS[model], "seed": int}.get(key)
        if caster is None:
            raise ConfigError(f"parameter {key!r} not valid for model {model!r}")
        params[key] = _number(caster, value, f"generator parameter {key!r} in spec {spec!r}")
    seed = params.pop("seed", None)
    missing = set(_GENERATOR_KEYS[model]) - set(params) - {"m0"}
    if missing:
        raise ConfigError(f"generator spec {spec!r} missing parameters: {sorted(missing)}")
    return model, params, seed


def _read_edge_list(path: str) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load_edge_list(fh)
    except OSError as exc:
        raise _IoFailure(f"cannot read {path}: {exc}") from exc


def _load_graph(args, master_seed: int) -> tuple[Graph, dict]:
    if getattr(args, "input", None):
        return _read_edge_list(args.input), {"input": args.input}
    if getattr(args, "generate", None):
        model, params, spec_seed = parse_generator_spec(args.generate)
        seed = spec_seed if spec_seed is not None else derive_int_seed(master_seed, "generate")
        return generate(model, params, seed), {"generate": args.generate, "generator_seed": seed}
    raise ConfigError("no graph given: pass --input FILE or --generate SPEC")


class _IoFailure(KgripError, OSError):
    pass


class _CellTimeout(Exception):
    pass


@contextmanager
def _alarm(seconds: float | None):
    """Soft per-cell timeout via SIGALRM (long native calls finish first)."""
    if not seconds or seconds <= 0:
        yield
        return

    def handler(signum, frame):
        raise _CellTimeout()

    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _IoFailure(f"cannot write {path}: {exc}") from exc


def _params_from_args(args) -> GreedyParams:
    return GreedyParams(
        delta=args.delta,
        cutoff=args.cutoff,
        solver_eps=args.solver_eps,
        c_jlt=args.c_jlt,
    )


def _solution_csv_rows(sol: Solution) -> list[dict]:
    rows = []
    for i, ((a, b), gain) in enumerate(zip(sol.inserted_edges, sol.per_edge_true_gain), start=1):
        rows.append(
            {
                "heuristic": sol.heuristic,
                "seed": sol.seed,
                "k": sol.k,
                "focus": "" if sol.focus is None else sol.focus,
                "round": i,
                "a": a,
                "b": b,
                "true_gain": repr(gain),
                "r_initial": repr(sol.r_initial),
                "r_final": repr(sol.r_final),
            }
        )
    return rows


def _render_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


# -- subcommands ------------------------------------------------------------------


def cmd_optimize(args) -> int:
    params = _params_from_args(args)
    graph, source = _load_graph(args, args.seed)
    kind = Heuristic.parse(args.heuristic)
    solution = run_kgrip(graph, args.k, kind, params, seed=args.seed)
    if args.format == "json":
        doc = {"command": "optimize", "source": source, **solution.to_dict()}
        _write_output(json.dumps(doc, indent=2), args.output)
    else:
        _write_output(_render_csv(_solution_csv_rows(solution)), args.output)
    return 0


def _resolve_focus(args, graph: Graph, k: int) -> tuple[list[int], list[dict]]:
    if args.focus is not None:
        what = f"--focus list {args.focus!r}"
        wanted = [_number(int, tok, what) for tok in args.focus.split(",") if tok.strip()]
        if not wanted:
            raise ConfigError("--focus list is empty")
        for v in wanted:
            if not 0 <= v < graph.n:
                raise ConfigError(f"focus node {v} outside 0..{graph.n - 1}")
    elif args.random_focus is not None:
        if args.random_focus < 1:
            raise ConfigError("--random-focus must be positive")
        rng = derive_rng(args.seed, "focus-selection")
        count = min(args.random_focus, graph.n)
        wanted = sorted(int(v) for v in rng.choice(graph.n, size=count, replace=False))
    else:
        raise ConfigError("lrip needs --focus IDS or --random-focus COUNT")

    usable: list[int] = []
    skipped: list[dict] = []
    for v in wanted:
        try:
            check_focus_feasible(graph, v, k)
        except ConfigError as exc:
            _LOG.warning("skipping focus node %d: %s", v, exc)
            skipped.append({"focus": v, "reason": str(exc)})
            continue
        usable.append(v)
    if not usable:
        raise ConfigError("no usable focus nodes remain after saturation checks")
    return usable, skipped


def cmd_lrip(args) -> int:
    params = _params_from_args(args)
    graph, source = _load_graph(args, args.seed)
    kind = Heuristic.parse(args.heuristic)
    focus_nodes, skipped = _resolve_focus(args, graph, args.k)
    solutions = run_klrip(graph, focus_nodes, args.k, kind, params, seed=args.seed)

    shared = solutions[0].timings.get("preprocess_shared", 0.0)
    if args.format == "json":
        doc = {
            "command": "lrip",
            "source": source,
            "heuristic": kind.value,
            "seed": args.seed,
            "k": args.k,
            "preprocess_seconds": shared,
            "preprocess_amortized_seconds": shared / len(focus_nodes),
            "skipped_focus": skipped,
            "focus_results": [sol.to_dict() for sol in solutions],
        }
        _write_output(json.dumps(doc, indent=2), args.output)
    else:
        rows: list[dict] = []
        for sol in solutions:
            rows.extend(_solution_csv_rows(sol))
        _write_output(_render_csv(rows), args.output)
    return 0


def cmd_generate(args) -> int:
    model, params, spec_seed = parse_generator_spec(args.model_spec)
    seed = spec_seed if spec_seed is not None else args.seed
    graph = generate(model, params, seed)
    requested = params.get("n")
    buf = io.StringIO()
    dump_edge_list(graph, buf)
    _write_output(buf.getvalue(), args.output)
    note = f" (reduced to largest component from n={requested})" if graph.n != requested else ""
    print(f"generated {model} graph: n={graph.n} m={graph.m} seed={seed}{note}", file=sys.stderr)
    return 0


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def cmd_bench(args) -> int:
    params = _params_from_args(args)
    heuristics = [Heuristic.parse(tok) for tok in args.heuristics.split(",") if tok.strip()]
    if not heuristics:
        raise ConfigError("--heuristics list is empty")
    what = f"--k list {args.k_list!r}"
    ks = [_number(int, tok, what) for tok in args.k_list.split(",") if tok.strip()]
    if not ks or any(k < 1 for k in ks):
        raise ConfigError(f"invalid k list {args.k_list!r}")
    if not args.instances:
        raise ConfigError("bench needs at least one --instance")

    instances: list[tuple[str, Graph]] = []
    for spec in args.instances:
        if os.path.exists(spec):
            instances.append((spec, _read_edge_list(spec)))
        else:
            model, gparams, spec_seed = parse_generator_spec(spec)
            seed = spec_seed if spec_seed is not None else derive_int_seed(args.seed, "bench", spec)
            instances.append((spec, generate(model, gparams, seed)))

    def run_cell(graph: Graph, k: int, kind: Heuristic):
        cell_seed = args.seed
        started = time.perf_counter()
        try:
            with _alarm(args.time_budget):
                sol = run_kgrip(graph, k, kind, params, seed=cell_seed)
            return sum(sol.per_edge_true_gain), time.perf_counter() - started, "ok"
        except _CellTimeout:
            return None, time.perf_counter() - started, "timeout"

    rows: list[dict] = []
    ratios: dict[tuple[Heuristic, int], list[float]] = {}
    speedups: dict[tuple[Heuristic, int], list[float]] = {}

    for name, graph in instances:
        for k in ks:
            ref_gain, ref_time, ref_status = run_cell(graph, k, Heuristic.ST_GREEDY)
            if ref_status == "timeout":
                _LOG.warning("stgreedy timed out on %s k=%d", name, k)
            for kind in heuristics:
                if kind is Heuristic.ST_GREEDY:
                    gain, seconds, status = ref_gain, ref_time, ref_status
                else:
                    gain, seconds, status = run_cell(graph, k, kind)
                quality = ""
                speedup = ""
                if status == "ok" and ref_gain is not None:
                    quality = repr(gain / ref_gain)
                    speedup = repr(ref_time / seconds)
                    if kind is not Heuristic.ST_GREEDY:
                        ratios.setdefault((kind, k), []).append(gain / ref_gain)
                        speedups.setdefault((kind, k), []).append(ref_time / seconds)
                rows.append(
                    {
                        "instance": name,
                        "heuristic": kind.value,
                        "k": k,
                        "total_gain": "" if gain is None else repr(gain),
                        "quality_vs_stgreedy": quality,
                        "seconds": repr(seconds),
                        "speedup_vs_stgreedy": speedup,
                        "status": status,
                    }
                )

    for (kind, k), values in sorted(ratios.items(), key=lambda kv: (kv[0][0].value, kv[0][1])):
        rows.append(
            {
                "instance": "geomean",
                "heuristic": kind.value,
                "k": k,
                "total_gain": "",
                "quality_vs_stgreedy": repr(_geomean(values)),
                "seconds": "",
                "speedup_vs_stgreedy": repr(_geomean(speedups[(kind, k)])),
                "status": f"aggregated over {len(values)} instances",
            }
        )

    _write_output(_render_csv(rows), args.output)
    return 0


# -- argument parsing ---------------------------------------------------------------


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--delta", type=float, default=_DEFAULTS.delta, help="stochastic sampling accuracy (0,1)")
    parser.add_argument("--cutoff", type=int, default=_DEFAULTS.cutoff, help="eigenpair cutoff for specstoch")
    parser.add_argument("--solver-eps", type=float, default=_DEFAULTS.solver_eps,
                        help="linear solver residual tolerance")
    parser.add_argument("--c-jlt", type=float, default=_DEFAULTS.c_jlt, help="sketch width multiplier")


def _add_common_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="edge-list file ('u v' per line)")
    parser.add_argument("--generate", help="generator spec, e.g. er:n=300,p=0.05")
    parser.add_argument("--k", type=int, required=True, help="number of edges to insert")
    parser.add_argument("--heuristic", default="stgreedy", help="|".join(h.value for h in Heuristic))
    _add_param_flags(parser)
    parser.add_argument("--seed", type=int, default=0, help="master seed (echoed in results)")
    parser.add_argument("--output", "-o", help="output path (default stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgrip",
        description="Greedy edge insertions minimizing total effective resistance",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="insert k edges anywhere in the graph")
    _add_common_run_flags(p_opt)
    p_opt.set_defaults(func=cmd_optimize)

    p_lrip = sub.add_parser("lrip", help="insert k edges incident to focus nodes")
    _add_common_run_flags(p_lrip)
    p_lrip.add_argument("--focus", help="comma-separated focus node ids")
    p_lrip.add_argument("--random-focus", type=int, help="pick this many focus nodes at random")
    p_lrip.set_defaults(func=cmd_lrip)

    p_gen = sub.add_parser("generate", help="write a generated graph as an edge list")
    p_gen.add_argument("model_spec", help="generator spec, e.g. ws:n=50,degree=4,rewire_prob=0.01")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", "-o")
    p_gen.set_defaults(func=cmd_generate)

    p_bench = sub.add_parser("bench", help="compare heuristics across instances")
    p_bench.add_argument("--instance", dest="instances", action="append", default=[],
                         help="edge-list path or generator spec (repeatable)")
    p_bench.add_argument("--heuristics", default="stgreedy,simplstoch",
                         help="comma-separated heuristic names")
    p_bench.add_argument("--k", dest="k_list", default="2", help="comma-separated k values")
    p_bench.add_argument("--time-budget", type=float, default=None,
                         help="soft per-cell budget in seconds")
    _add_param_flags(p_bench)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--output", "-o")
    p_bench.set_defaults(func=cmd_bench)

    return parser


class _LevelPrefix(logging.Formatter):
    def format(self, record: logging.LogRecord) -> str:
        return f"{record.levelname.lower()}: {record.getMessage()}"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # bound per call to the current sys.stderr, so a replaced stream gets the lines
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_LevelPrefix())
    _LOG.addHandler(handler)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _IoFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, InvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    finally:
        _LOG.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
