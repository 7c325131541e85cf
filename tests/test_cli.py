"""CLI behavior: exit codes, document shapes, reproducibility, cross-format equality."""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys

import pytest

from kgrip.cli import _params_from_args, build_parser, main, parse_generator_spec
from kgrip.errors import ConfigError
from kgrip.greedy import GreedyParams

from conftest import env_with_src

P3_EDGES = "0 1\n1 2\n"


def write_graph(tmp_path, text, name="graph.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- optimize ------------------------------------------------------------------


def test_optimize_p3_json(tmp_path, capsys):
    path = write_graph(tmp_path, P3_EDGES)
    code, out, _ = run_cli(capsys, ["optimize", "--input", path, "--k", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["inserted_edges"] == [[0, 2]]
    assert doc["per_edge_true_gain"][0] == pytest.approx(2.0, rel=1e-6)
    assert doc["r_initial"] == pytest.approx(4.0)
    assert doc["r_final"] == pytest.approx(2.0, rel=1e-6)
    assert {"compute", "eval", "update", "report", "resistance"} <= set(doc["timings"])
    assert list(doc["params"].items()) == [("delta", 0.9), ("cutoff", 30), ("solver_eps", 1e-06), ("c_jlt", 4.0)]


def test_optimize_invalid_delta_exit2(tmp_path, capsys):
    path = write_graph(tmp_path, P3_EDGES)
    code, _, err = run_cli(capsys, ["optimize", "--input", path, "--k", "1", "--delta", "1.5"])
    assert code == 2
    assert "delta" in err


@pytest.mark.parametrize(
    "tail, name",
    [
        (["--c-jlt", "nan"], "c_jlt"),
        (["--c-jlt", "inf"], "c_jlt"),
        (["--c-jlt", "0"], "c_jlt"),
        (["--solver-eps", "nan"], "solver_eps"),
        (["--solver-eps", "inf"], "solver_eps"),
        (["--solver-eps", "0"], "solver_eps"),
        (["--solver-eps", "-0.000001"], "solver_eps"),  # argparse reads "-1e-6" as a flag
        (["--solver-eps=-1e-6"], "solver_eps"),  # unless it is joined to its flag
    ],
    ids=lambda v: "-".join(v) if isinstance(v, list) else v,
)
def test_optimize_non_finite_or_non_positive_knob_exit2(tmp_path, capsys, tail, name):
    path = write_graph(tmp_path, P3_EDGES)
    argv = ["optimize", "--input", path, "--k", "1", "--heuristic", "colstochjlt", *tail]
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert name in err


def test_optimize_k_too_large_exit2(tmp_path, capsys):
    path = write_graph(tmp_path, "0 1\n1 2\n0 2\n")  # K3: no non-edges
    code, _, err = run_cli(capsys, ["optimize", "--input", path, "--k", "1"])
    assert code == 2
    assert "non-edges" in err


def test_optimize_missing_input_exit3(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["optimize", "--input", str(tmp_path / "nope.txt"), "--k", "1"])
    assert code == 3


def test_optimize_malformed_input_exit3(tmp_path, capsys):
    path = write_graph(tmp_path, "a b\n")
    code, _, err = run_cli(capsys, ["optimize", "--input", path, "--k", "1"])
    assert code == 3
    assert "line 1" in err


def test_optimize_unknown_heuristic_exit2(tmp_path, capsys):
    path = write_graph(tmp_path, P3_EDGES)
    code, _, _ = run_cli(capsys, ["optimize", "--input", path, "--k", "1", "--heuristic", "magic"])
    assert code == 2


def test_optimize_disconnected_input_exit2(tmp_path, capsys):
    path = write_graph(tmp_path, "0 1\n2 3\n")
    code, _, err = run_cli(capsys, ["optimize", "--input", path, "--k", "1"])
    assert code == 2
    assert "disconnected" in err


def test_optimize_eigensolver_stop_exit4(monkeypatch, capsys):
    # an ARPACK stop inside specstoch surfaces as SolverError: exit 4 with its residual
    from kgrip import spectral

    monkeypatch.setattr(spectral, "_DENSE_EIG_LIMIT", 0)
    monkeypatch.setattr(spectral, "MAXITER", 1)
    code, _, err = run_cli(capsys, ["optimize", "--generate", "ba:n=200,m=3,seed=1", "--k", "1",
                                    "--heuristic", "specstoch"])
    assert code == 4
    assert "achieved residual" in err


def test_optimize_csv_json_same_numbers(tmp_path, capsys):
    args = ["optimize", "--generate", "er:n=30,p=0.2,seed=4", "--k", "3",
            "--heuristic", "simplstoch", "--seed", "9"]
    code, out_json, _ = run_cli(capsys, args + ["--format", "json"])
    assert code == 0
    doc = json.loads(out_json)
    code, out_csv, _ = run_cli(capsys, args + ["--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out_csv)))
    assert len(rows) == 3
    for i, row in enumerate(rows):
        assert [int(row["a"]), int(row["b"])] == doc["inserted_edges"][i]
        assert abs(float(row["true_gain"]) - doc["per_edge_true_gain"][i]) <= 1e-12
        assert abs(float(row["r_initial"]) - doc["r_initial"]) <= 1e-12
        assert abs(float(row["r_final"]) - doc["r_final"]) <= 1e-12


def test_optimize_rerun_with_embedded_seed_reproduces(tmp_path, capsys):
    args = ["optimize", "--generate", "er:n=40,p=0.15,seed=2", "--k", "2",
            "--heuristic", "colstoch", "--seed", "21"]
    code, out1, _ = run_cli(capsys, args)
    doc1 = json.loads(out1)
    rerun = ["optimize", "--generate", "er:n=40,p=0.15,seed=2", "--k", str(doc1["k"]),
             "--heuristic", doc1["heuristic"], "--seed", str(doc1["seed"])]
    code, out2, _ = run_cli(capsys, rerun)
    doc2 = json.loads(out2)
    assert doc1["inserted_edges"] == doc2["inserted_edges"]
    assert doc1["per_edge_true_gain"] == doc2["per_edge_true_gain"]


def test_optimize_output_file(tmp_path, capsys):
    path = write_graph(tmp_path, P3_EDGES)
    out_path = tmp_path / "result.json"
    code, _, _ = run_cli(capsys, ["optimize", "--input", path, "--k", "1", "-o", str(out_path)])
    assert code == 0
    assert json.loads(out_path.read_text())["inserted_edges"] == [[0, 2]]


# -- lrip -----------------------------------------------------------------------


def test_lrip_star_leaf(tmp_path, capsys):
    star = "0 1\n0 2\n0 3\n0 4\n"
    path = write_graph(tmp_path, star)
    code, out, _ = run_cli(capsys, ["lrip", "--input", path, "--k", "1", "--focus", "1"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["focus_results"]) == 1
    (a, b), = [tuple(e) for e in doc["focus_results"][0]["inserted_edges"]]
    assert 1 in (a, b)
    assert doc["preprocess_amortized_seconds"] == pytest.approx(doc["preprocess_seconds"])


def test_lrip_random_focus_deterministic(capsys):
    args = ["lrip", "--generate", "er:n=50,p=0.15,seed=6", "--k", "1",
            "--random-focus", "5", "--seed", "7"]
    _, out1, _ = run_cli(capsys, args)
    _, out2, _ = run_cli(capsys, args)
    focus1 = [r["focus"] for r in json.loads(out1)["focus_results"]]
    focus2 = [r["focus"] for r in json.loads(out2)["focus_results"]]
    assert focus1 == focus2 and len(focus1) == 5


def test_lrip_focus_out_of_range_exit2(tmp_path, capsys):
    path = write_graph(tmp_path, P3_EDGES)
    code, _, _ = run_cli(capsys, ["lrip", "--input", path, "--k", "1", "--focus", "9"])
    assert code == 2


@pytest.mark.parametrize(
    "choice, message",
    [
        (["--random-focus", "0"], "--random-focus must be positive"),
        (["--focus", ""], "--focus list is empty"),
        (["--focus", "2,0,2"], "focus node 2 is listed more than once"),
    ],
    ids=["random-focus-zero", "empty-focus", "repeated-focus"],
)
def test_lrip_bad_focus_choice_exit2(capsys, choice, message):
    code, _, err = run_cli(capsys, ["lrip", "--generate", "er:n=30,p=0.2,seed=4", "--k", "1", *choice])
    assert code == 2
    assert err == f"error: {message}\n"


def test_lrip_saturated_focus_skipped_with_warning(tmp_path, capsys):
    star = "0 1\n0 2\n0 3\n"
    path = write_graph(tmp_path, star)
    code, out, err = run_cli(
        capsys, ["lrip", "--input", path, "--k", "1", "--focus", "0,1"]
    )
    assert code == 0
    doc = json.loads(out)
    assert [r["focus"] for r in doc["skipped_focus"]] == [0]  # center saturated
    assert [r["focus"] for r in doc["focus_results"]] == [1]
    assert "skipping focus node 0" in err


def test_lrip_all_saturated_exit2(tmp_path, capsys):
    path = write_graph(tmp_path, "0 1\n1 2\n0 2\n")
    code, _, _ = run_cli(capsys, ["lrip", "--input", path, "--k", "1", "--focus", "0,1,2"])
    assert code == 2


def test_lrip_shared_preprocessing_amortization(capsys):
    args = ["lrip", "--generate", "er:n=40,p=0.15,seed=8", "--k", "1",
            "--focus", "0,1,2,3", "--seed", "3"]
    _, out, _ = run_cli(capsys, args)
    doc = json.loads(out)
    assert doc["preprocess_amortized_seconds"] == pytest.approx(doc["preprocess_seconds"] / 4)


# -- generate -------------------------------------------------------------------


def test_generate_writes_sorted_edge_list(tmp_path, capsys):
    out_path = tmp_path / "g.txt"
    code, _, err = run_cli(
        capsys, ["generate", "ws:n=12,degree=4,rewire_prob=0.0", "-o", str(out_path)]
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 24  # ring lattice keeps n*degree/2 edges
    assert "n=12 m=24" in err


def test_generate_deterministic(capsys):
    _, out1, _ = run_cli(capsys, ["generate", "er:n=20,p=0.3", "--seed", "5"])
    _, out2, _ = run_cli(capsys, ["generate", "er:n=20,p=0.3", "--seed", "5"])
    assert out1 == out2


def test_generate_infeasible_exit2(capsys):
    code, _, _ = run_cli(capsys, ["generate", "er:n=10,p=1.5"])
    assert code == 2


def test_generate_ba_without_an_initial_edge_exit2(capsys):
    code, _, err = run_cli(capsys, ["generate", "ba:n=10,m=1"])
    assert code == 2
    assert "initial m0-clique" in err


def test_optimize_runs_with_networkx_unimportable():
    code = (
        "import sys\n"
        "sys.modules['networkx'] = None\n"  # any import of networkx now raises ImportError
        "from kgrip import cli\n"
        "sys.exit(cli.main(['optimize', '--generate', 'ba:n=60,m=3,seed=1', '--k', '2', '--heuristic', 'colstoch']))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env_with_src(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert len(json.loads(done.stdout)["inserted_edges"]) == 2


def test_generator_spec_parsing():
    model, params, seed = parse_generator_spec("ba:n=100,m=4,m0=6,seed=9")
    assert model == "ba" and params == {"n": 100, "m_attach": 4, "m0": 6} and seed == 9
    with pytest.raises(ConfigError):
        parse_generator_spec("zzz:n=5")
    with pytest.raises(ConfigError):
        parse_generator_spec("er:n=5")  # p missing


@pytest.mark.parametrize(
    "argv, token",
    [
        (["optimize", "--generate", "er:n=abc,p=0.1", "--k", "1"], "'abc'"),
        (["optimize", "--generate", "er:n=30,p=0.2,seed=x", "--k", "1"], "'x'"),
        (["bench", "--instance", "er:n=30,p=0.2", "--heuristics", "stgreedy", "--k", "2,x"], "'x'"),
    ],
    ids=["generator-parameter", "generator-seed", "bench-k-list"],
)
def test_malformed_number_exit2(capsys, argv, token):
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert err.startswith("error: ") and token in err
    assert "Traceback" not in err


# -- bench ----------------------------------------------------------------------


def test_bench_row_shape(capsys):
    code, out, _ = run_cli(
        capsys,
        ["bench", "--instance", "er:n=25,p=0.2,seed=1", "--instance", "er:n=25,p=0.2,seed=2",
         "--heuristics", "stgreedy,simplstoch", "--k", "2", "--seed", "5"],
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    data = [r for r in rows if r["instance"] != "geomean"]
    agg = [r for r in rows if r["instance"] == "geomean"]
    assert len(data) == 4 and len(agg) == 1
    for row in data:
        if row["heuristic"] == "stgreedy":
            assert float(row["quality_vs_stgreedy"]) == 1.0
    assert agg[0]["heuristic"] == "simplstoch"
    assert 0.0 < float(agg[0]["quality_vs_stgreedy"]) <= 1.5


def test_bench_timeout_cell_marked(capsys):
    code, out, err = run_cli(
        capsys,
        ["bench", "--instance", "er:n=120,p=0.1,seed=3", "--heuristics", "stgreedy",
         "--k", "2", "--time-budget", "1e-4", "--seed", "1"],
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["status"] == "timeout"
    assert rows[0]["total_gain"] == "" and rows[0]["quality_vs_stgreedy"] == ""


def test_bench_accepts_edge_list_files(tmp_path, capsys):
    path = write_graph(tmp_path, "0 1\n1 2\n2 3\n3 0\n0 2\n", name="c4plus.txt")
    code, out, _ = run_cli(
        capsys,
        ["bench", "--instance", path, "--heuristics", "stgreedy", "--k", "1", "--seed", "2"],
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["instance"] == path and rows[0]["status"] == "ok"


def test_bench_unreadable_instance_exit3(tmp_path, capsys):
    # an existing path is read as an edge list, with the exit code of optimize --input
    code, _, err = run_cli(capsys, ["bench", "--instance", str(tmp_path), "--heuristics", "stgreedy", "--k", "1"])
    assert code == 3
    assert "cannot read" in err


def test_bench_sets_the_sketch_width(monkeypatch, capsys):
    # bench runs the sketch heuristics, so it takes --c-jlt like optimize and lrip
    from kgrip import jlt

    factors, width = [], jlt.default_sketch_width
    monkeypatch.setattr(jlt, "default_sketch_width", lambda universe, c: factors.append(c) or width(universe, c))
    argv = ["bench", "--instance", "er:n=25,p=0.2,seed=1", "--heuristics", "simplstochjlt", "--k", "1"]
    code, _, _ = run_cli(capsys, argv + ["--c-jlt", "8"])
    assert code == 0 and factors == [8.0]
    code, _, err = run_cli(capsys, argv + ["--c-jlt", "0"])
    assert code == 2 and "c_jlt" in err


def test_bench_needs_instances(capsys):
    code, _, _ = run_cli(capsys, ["bench", "--heuristics", "stgreedy", "--k", "2"])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [["optimize", "--k", "1"], ["lrip", "--k", "1"], ["bench"]],
    ids=["optimize", "lrip", "bench"],
)
def test_parameter_flag_defaults_are_greedy_params_defaults(argv):
    args = build_parser().parse_args(argv)
    assert _params_from_args(args).to_dict() == GreedyParams().to_dict()


@pytest.mark.parametrize("command", ["optimize", "lrip", "bench"])
def test_diag_eps_flag_is_refused(capsys, command):
    # runs read the exact diagonal, so there is no tree-estimate accuracy to set
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--k", "1", "--diag-eps", "0.3"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --diag-eps" in capsys.readouterr().err
