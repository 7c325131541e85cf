"""kgrip benchmark: per-heuristic time-to-solution and quality, plus per-layer timings.

Run from the root of a checkout:

  python3 perfbench/run.py --workload grip-ba650 --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --smoke

It prints a readable report, one ``{"record": ...}`` JSON line (machine,
versions, failures and, when traced, the full per-layer table) and, as the
last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the end-to-end
ones, with ``--trace 1`` the per-layer ones. Exit status: 0 on success, 1 if
the correctness gate fails, 2 on bad usage or when the checkout holds no
kgrip sources under ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import hostspeed
from workloads import SMOKE, WORKLOADS, setup

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
ALL_WORKLOADS = WORKLOADS | {w.name: w for w in SMOKE.values()}


def _single_thread_blas() -> None:
    """One BLAS thread, set before numpy loads.

    On a small shared machine, threaded BLAS on the eigensolver's n x 49
    blocks runs three to four times slower and far less steadily than one
    thread, which would bury every other effect in the measurement.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _git_commit() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def _run_record(seed: int) -> dict:
    import networkx
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"vendor": blas.get("name"), "version": blas.get("version"),
                 "threads": int(os.environ["OPENBLAS_NUM_THREADS"])},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "commit": _git_commit(),
        "workload_seed": seed,
        "processes": 1,
        "greedy_threads": 1,
    }


def _setup_probe(wl, seed: int) -> int:
    """Child side of the set-up measurement: import kgrip, build the inputs.

    Prints the seconds at the reference host speed (see hostspeed.py).
    """
    with hostspeed.Meter() as meter:
        import kgrip

        setup(kgrip, wl, seed)
    print(meter.scaled_s)
    return 0


def _measure_setup(wl, seed: int) -> float:
    """Set-up time of one fresh process, as timed inside the child."""
    done = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", wl.name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_workload(
    wl, seed: int, seconds: float, trace: bool, setup_repeats: int = SETUP_REPEATS
) -> tuple[dict, list[str]]:
    """One benchmark invocation; returns the result object and the gate's problems."""
    setup_s = statistics.median(_measure_setup(wl, seed) for _ in range(setup_repeats))

    import kgrip

    import bench

    instances = setup(kgrip, wl, seed)
    samples = bench.measure(kgrip, wl, instances, seed, bench.planned_reps(wl, seconds, trace), trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = bench.gate(kgrip, wl, instances, seed, samples)
    fails = bench.failures(samples)

    record = _run_record(seed)
    record.update(workload=wl.name, n=[i.graph.n for i in instances], m=[i.graph.m for i in instances],
                  k=wl.k, focus=[i.focus for i in instances], reps=samples.reps,
                  trace=int(trace), failures=fails, problems=problems)
    record["walls"] = {h: [o.wall for o in calls] for h, calls in samples.plain.items()}
    record["norm_walls"] = {h: [o.norm_wall for o in calls] for h, calls in samples.plain.items()}
    record["tick_s"] = {h: [o.tick_s for o in calls] for h, calls in samples.plain.items()}
    if trace:
        table = bench.layer_table(samples)
        record["layers"] = table
        metrics, units = bench.per_layer(table), dict(bench.PER_LAYER)
    else:
        record["phases"] = bench.phase_table(samples)
        metrics = bench.end_to_end(samples, setup_s, peak_rss_mb)
        units = dict(bench.END_TO_END)

    print(f"kgrip benchmark  workload={wl.name} seed={seed} trace={int(trace)}"
          f"  n={instances[0].graph.n} k={wl.k} instances={len(instances)} reps={samples.reps}"
          f" setup_s={setup_s:.3f}")
    for h, f in fails.items():
        line = f"  {h:<14} attempted={f['attempted']:<3} failed={f['failed']:<3}"
        if trace:
            line += f" trace_overhead_s={metrics[f'{h}.trace_overhead_s']:.4f}"
        else:
            line += f" norm_wall_s={metrics[f'norm_wall_s.{h}']:.4f}"
            if h != "stgreedy":
                line += f" quality={metrics[f'quality.{h}']:.4f}"
        for err, info in f["errors"].items():
            line += f"  {err} x{info['count']} residual={info['residual']}"
        print(line)
    for problem in problems:
        print(f"  gate: {problem}")
    print(json.dumps({"record": record}))
    result = {
        "correct": not problems,
        "attempted": sum(f["attempted"] for f in fails.values()),
        "failed": sum(f["failed"] for f in fails.values()),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, problems


def smoke() -> int:
    """Self-test: tiny graphs of all three shapes, plain and traced, full restore."""
    import kgrip  # noqa: F401  (loads every module the tracer patches)

    import tracer

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    before = tracer.originals()
    errors = []
    for shape, wl in SMOKE.items():
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result, problems = run_workload(wl, 1, 0.0, trace, setup_repeats=1)
            print(json.dumps(result))
            errors += [f"{shape}: gate: {p}" for p in problems]
            got = result["metrics"]
            want = {m["name"]: m["unit"] for m in declared[section]}
            if set(got) != set(want):
                errors.append(f"{shape} {section}: extra {sorted(set(got) - set(want))},"
                              f" missing {sorted(set(want) - set(got))}")
            for name, unit in want.items():
                entry = got.get(name)
                if entry and (entry["unit"] != unit or not math.isfinite(entry["value"])):
                    errors.append(f"{shape} {section}: {name} = {entry}, want unit {unit}")
    after = tracer.originals()
    errors += [f"not restored: {name}" for name, obj in before.items() if after.get(name) is not obj]
    for error in errors:
        print(f"smoke: {error}", file=sys.stderr)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} problems")
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(ALL_WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the harness self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.smoke or args.workload):
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "kgrip" / "__init__.py").is_file():
        print(f"perfbench: no kgrip sources under {SRC}", file=sys.stderr)
        return 2
    _single_thread_blas()
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return _setup_probe(ALL_WORKLOADS[args.workload], args.seed)
    if args.smoke:
        return smoke()

    import kgrip

    if not Path(kgrip.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: kgrip imported from {kgrip.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result, problems = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
