import csv
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rbmd import bench_cli as bc
from rbmd import market_models as mm
from rbmd import mirror_descent as md
from rbmd import rb_solver as rb

from conftest import BENCH_WEIGHTS, make_bench_model


def bench_model_dict():
    return make_bench_model().to_dict()


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_config(tmp_path):
    return {
        "model": {"inline": bench_model_dict()},
        "budget": "uniform",
        "measure": {"kind": "es", "alpha": 0.95},
        "optimizer": {
            "algorithm": "smd",
            "m_cap": 100.0,
            "schedule": {"kind": "power", "gamma0": 1.0, "beta": 0.75},
            "epochs": 2,
            "record_every": 1000,
        },
        "samples": 4000,
        "seed": 7,
    }


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def set_path(doc, path, value):
    """Put ``value`` at the key path ``path`` of ``doc``, adding missing sections."""
    *parents, key = path
    for name in parents:
        doc = doc.setdefault(name, {})
    doc[key] = value


def test_unknown_keys_rejected():
    with pytest.raises(bc.ConfigError, match="bogus"):
        bc.ExperimentConfig.parse({"bogus": 1})
    with pytest.raises(bc.ConfigError, match="optimizer.schedule"):
        bc.ExperimentConfig.parse({"optimizer": {"schedule": {"kind": "power", "rate": 2}}})


def test_budget_validation_names_key(tmp_path):
    doc = run_config(tmp_path)
    doc["budget"] = [0.5, -0.2, 0.7]
    code = bc.main(["run", "--config", write_config(tmp_path, doc),
                    "--out", str(tmp_path / "out")])
    assert code == 1


def test_budget_message_names_budget(capsys, tmp_path):
    doc = run_config(tmp_path)
    doc["budget"] = [0.5, -0.2, 0.7]
    code = bc.main(["run", "--config", write_config(tmp_path, doc),
                    "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert "budget" in captured.err


def test_missing_model_file(tmp_path):
    doc = run_config(tmp_path)
    doc["model"] = {"file": str(tmp_path / "nope.json")}
    code = bc.main(["reference", "--config", write_config(tmp_path, doc),
                    "--out", str(tmp_path / "out")])
    assert code == 1


def test_bad_json_config(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert bc.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("path,value", [
    (("samples",), None),
    (("seed",), None),
    (("replications",), [2]),
    (("epsilons",), 5),
    (("optimizer", "epochs"), None),
    (("model", "inline"), 5),
    (("model", "inline", "weight"), None),
    (("model", "inline", "nu1"), [3.0]),
    (("model", "inline", "gaussian1"), "false"),
    (("samples",), 2.7),
    (("optimizer", "epochs"), 1.5),
    (("optimizer", "record_every"), 99.9),
    (("seed",), True),
    (("measure", "alpha"), True),
    (("model", "inline", "mu1"), [None, 0.0002, -0.0003]),
    (("model", "inline", "mu1"), "abc"),
    (("model", "inline", "lambda1"), [9e-5, 3e-5, 5e-5]),
    (("input",), 5),
    (("optimizer", "y0"), [[1.0, 1.0, 1.0]]),
    (("optimizer", "m_cap"), math.inf),
    (("optimizer", "xi0"), math.nan),
    (("model", "inline", "nu1"), math.inf),
], ids=["samples-null", "seed-null", "replications-list", "epsilons-number", "epochs-null",
        "inline-number", "weight-null", "nu1-list", "gaussian1-string", "samples-fraction",
        "epochs-fraction", "record-every-fraction", "seed-bool", "alpha-bool",
        "mu1-null-entry", "mu1-string", "lambda1-flat", "input-number", "y0-nested",
        "m-cap-infinity", "xi0-nan", "nu1-infinity"])
def test_wrong_value_type_is_a_config_error(capsys, tmp_path, path, value):
    doc = run_config(tmp_path)
    set_path(doc, path, value)
    code = bc.main(["run", "--config", write_config(tmp_path, doc),
                    "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ".".join(path) in err


def assert_one_error_line(err):
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["model-file-is-directory", "model-file-root-number",
                                  "model-file-nul-byte", "config-is-directory",
                                  "config-nul-byte", "out-below-file"])
def test_file_and_io_failures_are_one_line(capsys, tmp_path, case):
    doc = run_config(tmp_path)
    if case == "model-file-is-directory":
        doc["model"] = {"file": str(tmp_path)}
    elif case == "model-file-root-number":
        (tmp_path / "model.json").write_text("5")
        doc["model"] = {"file": str(tmp_path / "model.json")}
    elif case == "model-file-nul-byte":
        doc["model"] = {"file": "a\u0000b"}
    config = write_config(tmp_path, doc)
    if case == "config-is-directory":
        config = str(tmp_path)
    elif case == "config-nul-byte":
        config = "a\u0000b"
    out = tmp_path / "out"
    if case == "out-below-file":
        out.write_text("")
        out = out / "sub"
    code = bc.main(["reference", "--config", config, "--out", str(out)])
    assert code == 1
    assert_one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("argv", [["run", "--config", "c.json"],
                                  ["run", "--config", "c.json", "--out", "o", "--seed", "abc"],
                                  ["plot", "--config", "c.json", "--out", "o"]],
                         ids=["missing-out", "seed-not-int", "unknown-command"])
def test_usage_errors_are_one_line(capsys, argv):
    assert bc.main(argv) == 1
    assert_one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("command,path,value", [
    ("reference", ("tolerance",), -1),
    ("reference", ("optimizer", "algorithm"), "bogus"),
    ("compare", ("optimizer", "algorithm"), "bogus"),
    ("compare", ("model", "synthetic", "d"), 1001),
    ("compare", ("dimensions",), [10, 1001]),
    ("reference", ("tolerance",), math.inf),
    ("compare", ("dimensions",), []),
    ("compare", ("dimensions",), [10, 10]),
    ("compare", ("optimizers",), ["smd", "smd"]),
], ids=["tolerance-negative", "reference-algorithm", "compare-algorithm", "synthetic-d-too-large",
        "dimensions-too-large", "tolerance-infinity", "dimensions-empty", "dimensions-repeated",
        "optimizers-repeated"])
def test_out_of_range_values_rejected_at_parse(capsys, tmp_path, command, path, value):
    doc = run_config(tmp_path) if command == "reference" else compare_config()
    set_path(doc, path, value)
    code = bc.main([command, "--config", write_config(tmp_path, doc),
                    "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert_one_error_line(err)
    assert ".".join(path) in err


@pytest.mark.parametrize("command", ["compare", "figure-data"])
def test_inline_model_checked_by_commands_that_build_none(capsys, tmp_path, command):
    """``compare`` generates its models and ``figure-data`` builds none, yet
    both check an inline model's keys when they read the config."""
    traces = tmp_path / "traces"
    traces.mkdir()
    traces.joinpath("trace.csv").write_text("iter,gamma,gap,xi,y_1\n1,1,0.5,0,1\n")
    doc = dict(compare_config(), optimizers=["smd"], samples=200, replications=1,
               input=str(traces), model={"inline": dict(bench_model_dict(), weight=math.nan)})
    code = bc.main([command, "--config", write_config(tmp_path, doc),
                    "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert_one_error_line(err)
    assert "model.inline.weight" in err


@pytest.mark.parametrize("error", [ValueError("boom"), KeyError("boom")],
                         ids=["ValueError", "KeyError"])
def test_internal_errors_exit_3(capsys, tmp_path, monkeypatch, error):
    def explode(ctx, tol, max_iterations=100):
        raise error

    monkeypatch.setattr(bc.rb, "reference_portfolio", explode)
    code = bc.main(["reference", "--config", write_config(tmp_path, run_config(tmp_path)),
                    "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3
    assert_one_error_line(err)
    assert err.startswith(f"error: internal: {type(error).__name__}: ")


def schema_paths(table, prefix=()):
    for key, (kind, _) in table.items():
        yield prefix + (key,)
        if isinstance(kind, dict):
            yield from schema_paths(kind, prefix + (key,))


CONFIG_PATHS = (list(schema_paths(bc._SCHEMA))
                + [("measure", key) for key in ["kind"] + sorted(
                    {k for _, keys in bc._MEASURES.values() for k in keys})])

# Any value a JSON document can hold, as Python's json module reads it.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=4),
    max_leaves=8)


@pytest.mark.parametrize("path", CONFIG_PATHS, ids=".".join)
@settings(max_examples=40)
@given(value=JSON_VALUES)
@example(value="a\u0000b")  # a NUL byte cannot be in a file name
def test_only_config_errors_escape_the_config_layer(path, value):
    doc = run_config(None)
    if path[:2] == ("model", "file"):
        doc["model"] = {}
    elif path[:2] == ("model", "synthetic"):
        doc["model"] = {"synthetic": {"d": 3}}
    set_path(doc, path, value)
    try:
        config = bc.ExperimentConfig.parse(doc)
        # generate_model allocates d x 2d arrays: keep a synthetic model small
        assume(config.model_spec.get("synthetic", {}).get("d", 0) <= 40)
        model = config.build_model(config.seed)
        config.build_budget(model.d)
        config.build_optimizer_config(model)
    except bc.ConfigError:
        pass


def test_readme_schema_lists_every_config_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("```jsonc", 1)[1].split("```", 1)[0]
    documented = set(re.findall(r'"(\w+)"\s*:', block))
    keys = {path[-1] for path in schema_paths(bc._SCHEMA)}
    keys |= {"kind"} | {k for _, table in bc._MEASURES.values() for k in table}
    assert documented == keys | set(bench_model_dict())


def test_unread_keys_rejected():
    with pytest.raises(bc.ConfigError, match="out"):
        bc.ExperimentConfig.parse({"out": "runs"})
    with pytest.raises(bc.ConfigError, match="record_weights"):
        bc.ExperimentConfig.parse({"optimizer": {"record_weights": True}})


def test_measure_parsing():
    cfg = bc.ExperimentConfig.parse({"measure": {"kind": "deviation", "a": 2.0, "b": 1.0, "p": 1}})
    assert cfg.measure.a_plus == 2.0 and cfg.measure.p_power == 1
    cfg = bc.ExperimentConfig.parse({"measure": {"kind": "variantile", "alpha": 0.75}})
    assert cfg.measure.a_plus == pytest.approx(math.sqrt(0.75))
    with pytest.raises(bc.ConfigError, match="measure"):
        bc.ExperimentConfig.parse({"measure": {"kind": "cvar"}})


def test_synthetic_generator_properties():
    model = bc.generate_model(12, seed=5)
    assert model.d == 12
    np.linalg.cholesky(model.lambda1)
    np.linalg.cholesky(model.lambda2)
    vols = np.sqrt(np.diag(model.lambda1))
    assert np.all(vols >= 0.005) and np.all(vols <= 0.05)
    again = bc.generate_model(12, seed=5)
    np.testing.assert_array_equal(model.lambda1, again.lambda1)


@pytest.mark.parametrize("d,seed", [(2, 0), (12, 5), (10, -1), (3, 2 ** 70 + 3)])
def test_synthetic_generator_draws_from_the_philox_stream(monkeypatch, d, seed):
    """``generate_model`` draws from ``market_models._rng``: the model is bit
    for bit the one from a Philox generator keyed by the seed's low 64 bits."""
    got = bc.generate_model(d, seed)
    monkeypatch.setattr(mm, "_rng", lambda s: np.random.Generator(
        np.random.Philox(key=s & (2 ** 64 - 1))))
    want = bc.generate_model(d, seed)
    for name in ("weight", "mu1", "mu2", "lambda1", "lambda2", "nu1", "nu2"):
        assert np.asarray(getattr(got, name)).tobytes() == \
            np.asarray(getattr(want, name)).tobytes(), name


# ---------------------------------------------------------------------------
# reference command
# ---------------------------------------------------------------------------

def test_cmd_reference_benchmark(tmp_path):
    doc = {
        "model": {"inline": bench_model_dict()},
        "measure": {"kind": "es", "alpha": 0.95},
        "tolerance": 1e-10,
        "seed": 1,
    }
    out = tmp_path / "ref"
    assert bc.main(["reference", "--config", write_config(tmp_path, doc),
                    "--out", str(out)]) == 0
    report = json.loads((out / "reference.json").read_text())
    np.testing.assert_allclose(report["weights"], BENCH_WEIGHTS, atol=5e-4)
    assert report["var"] == pytest.approx(0.0193, abs=5e-4)
    assert report["risk"] == pytest.approx(0.0329, abs=1e-3)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 1
    assert "config_hash" in manifest


def test_cmd_reference_two_asset_inverse_vol(tmp_path):
    model = mm.MixtureModel.single_gaussian(np.zeros(2), np.array([[1.0, 0.5], [0.5, 4.0]]))
    doc = {
        "model": {"inline": model.to_dict()},
        "measure": {"kind": "volatility"},
        "tolerance": 1e-11,
    }
    out = tmp_path / "ref2"
    assert bc.main(["reference", "--config", write_config(tmp_path, doc),
                    "--out", str(out)]) == 0
    report = json.loads((out / "reference.json").read_text())
    np.testing.assert_allclose(report["weights"], [2.0 / 3.0, 1.0 / 3.0], atol=1e-6)


def test_cmd_reference_convergence_exit_code(tmp_path, monkeypatch):
    def explode(ctx, tol, max_iterations=100):
        raise rb.ConvergenceError("stalled", grad_norm=1.0)

    monkeypatch.setattr(bc.rb, "reference_portfolio", explode)
    doc = {"model": {"inline": bench_model_dict()}, "measure": {"kind": "es", "alpha": 0.95}}
    code = bc.main(["reference", "--config", write_config(tmp_path, doc),
                    "--out", str(tmp_path / "o")])
    assert code == 2


def test_numerics_error_exit_code(capsys, tmp_path):
    # the variantile's second partial moment does not exist for nu2 <= 2
    model = bench_model_dict()
    model["nu2"] = 1.8
    doc = {"model": {"inline": model}, "measure": {"kind": "variantile", "alpha": 0.75}}
    code = bc.main(["reference", "--config", write_config(tmp_path, doc),
                    "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# run command
# ---------------------------------------------------------------------------

def test_cmd_run_produces_trace_and_summary(tmp_path):
    out = tmp_path / "run"
    assert bc.main(["run", "--config", write_config(tmp_path, run_config(tmp_path)),
                    "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["algorithm"] == "smd"
    assert not summary["diverged"]
    assert summary["iterations"] == 8000
    assert "mde_final" in summary and summary["mde_final"] < 0.2
    with open(out / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0].keys() == {"iter", "gamma", "gap", "xi", "y_1", "y_2", "y_3"}
    assert int(rows[-1]["iter"]) == 8000
    # cross-command consistency: recompute the deviation error from the files
    u = rb.normalize(np.array([float(rows[-1][f"y_{i}"]) for i in (1, 2, 3)]))
    ref = np.array(summary["reference_weights"])
    assert abs(rb.mde(u, ref) - summary["mde_final"]) <= 1e-15


def test_cmd_run_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg_path = write_config(tmp_path, run_config(tmp_path))
    assert bc.main(["run", "--config", cfg_path, "--out", str(out1)]) == 0
    assert bc.main(["run", "--config", cfg_path, "--out", str(out2)]) == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_cmd_run_reports_run_counters(tmp_path, monkeypatch):
    runs = []
    execute = bc._execute_run

    def spy(*args):
        runs.append(execute(*args))
        return runs[-1]

    monkeypatch.setattr(bc, "_execute_run", spy)
    doc = run_config(tmp_path)
    doc["optimizer"]["m_cap"] = 60.0  # small enough for the cap to fire
    out = tmp_path / "run"
    assert bc.main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert len(runs) == 1
    assert summary["n_projections"] == runs[0].n_projections > 0
    assert summary["gamma_sum"] == runs[0].gamma_sum > 0.0


def test_cmd_run_without_reference(tmp_path):
    # the variantile reference needs nu2 > 2; the stochastic run does not
    model = bench_model_dict()
    model["nu2"] = 1.8
    doc = run_config(tmp_path)
    doc["model"] = {"inline": model}
    doc["measure"] = {"kind": "variantile", "alpha": 0.75}
    doc["samples"] = 2000
    doc["optimizer"]["epochs"] = 1
    out = tmp_path / "run"
    assert bc.main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["iterations"] == 2000
    assert "mde_final" not in summary and "reference_weights" not in summary
    # the objective cannot be evaluated, which is not a blowup: gaps are nan
    assert not summary["diverged"]
    with open(out / "trace.csv", newline="") as fh:
        gaps = [float(row["gap"]) for row in csv.DictReader(fh)]
    assert gaps and all(math.isnan(g) for g in gaps)
    fig_cfg = write_config(tmp_path, {"input": str(out)}, name="fig.json")
    assert bc.main(["figure-data", "--config", fig_cfg, "--out", str(tmp_path / "fig")]) == 0
    with open(tmp_path / "fig" / "figure_data.csv", newline="") as fh:
        series = {row["series"] for row in csv.DictReader(fh)}
    assert "trace.gap" not in series and "trace.xi" in series


def test_constant_schedule_ignores_beta(tmp_path):
    """A "constant" schedule is beta = 0: a given beta, even one that a
    "power" schedule rejects, is accepted and changes nothing."""
    traces = []
    for schedule in ({"kind": "constant", "gamma0": 0.5},
                     {"kind": "constant", "gamma0": 0.5, "beta": 5}):
        doc = run_config(tmp_path)
        doc["optimizer"].update(schedule=schedule, epochs=1, record_every=100)
        doc["samples"] = 600
        out = tmp_path / f"run{len(traces)}"
        assert bc.main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        traces.append((out / "trace.csv").read_bytes())
    assert traces[0] == traces[1]
    with open(out / "trace.csv", newline="") as fh:
        assert {row["gamma"] for row in csv.DictReader(fh)} == {bc._fmt(0.5)}


def test_cmd_run_dmd(tmp_path):
    doc = run_config(tmp_path)
    doc["optimizer"] = {
        "algorithm": "dmd",
        "m_cap": 300.0,
        "schedule": {"kind": "constant", "gamma0": 1.0},
        "iterations": 1000,
        "record_every": 100,
    }
    out = tmp_path / "dmd"
    assert bc.main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mde_final"] <= 1e-6


# grad_tol stops the run off the record_every = 100 grid: at step 431, or
# before the first step, where the trace row has no step size
@pytest.mark.parametrize("grad_tol,iterations", [(1e-6, 431), (10.0, 0)])
def test_cmd_run_dmd_trace_ends_at_the_returned_iterate(tmp_path, grad_tol, iterations):
    doc = {"model": {"synthetic": {"d": 3, "seed": 7}}, "measure": {"kind": "es", "alpha": 0.95},
           "optimizer": {"algorithm": "dmd", "schedule": {"kind": "constant", "gamma0": 1.0},
                         "iterations": 1000, "record_every": 100, "grad_tol": grad_tol},
           "seed": 7}
    out = tmp_path / "dmd"
    assert bc.main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    with open(out / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert summary["iterations"] == iterations
    assert int(rows[-1]["iter"]) == iterations
    assert summary["gap_final"] == float(rows[-1]["gap"])
    assert (rows[-1]["gamma"] == "nan") == (iterations == 0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cmd_run_diverged_dmd(tmp_path):
    # b / y overflows in the tamed gradient at step 21: the run stops there,
    # silently, with a diverged summary
    doc = {"model": {"synthetic": {"d": 10, "seed": 50}},
           "measure": {"kind": "variantile", "alpha": 0.75},
           "optimizer": {"algorithm": "dmd", "m_cap": 1e7, "iterations": 40, "record_every": 7,
                         "schedule": {"kind": "constant", "gamma0": 30.0}},
           "seed": 7}
    out = tmp_path / "dmd"
    assert bc.main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["diverged"] and summary["iterations"] == 20
    assert summary["weights_final"] is None and summary["gap_final"] is None


@pytest.mark.parametrize("algorithm,iterations", [("dmd", 20), ("smd", 53)])
def test_cmd_run_diverged_trace_ends_at_the_blowup(tmp_path, algorithm, iterations):
    # dmd: b / y overflows at step 21; smd: xi runs off to inf, and the draw
    # of step 54 meets a non-finite loss.  Both stop between two records.
    if algorithm == "dmd":
        doc = {"model": {"synthetic": {"d": 10, "seed": 50}},
               "optimizer": {"m_cap": 1e7, "iterations": 40}, "seed": 7}
    else:
        doc = {"model": {"synthetic": {"d": 3, "seed": 43}},
               "optimizer": {"m_cap": 100.0, "epochs": 2}, "samples": 60, "seed": 43}
    doc["measure"] = {"kind": "variantile", "alpha": 0.75}
    doc["optimizer"].update(algorithm=algorithm, record_every=7, schedule={
        "kind": "constant", "gamma0": 30.0 if algorithm == "dmd" else 1e6})
    out = tmp_path / "run"
    assert bc.main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["diverged"] and summary["iterations"] == iterations
    with open(out / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    records = iterations // 7
    assert [int(row["iter"]) for row in rows] == [7 * (j + 1) for j in range(records)] + [
        iterations]
    assert all(math.isfinite(float(row["y_1"])) for row in rows[:-1])
    last = rows[-1]
    assert float(last["gap"]) == math.inf
    assert all(math.isnan(float(last[key])) for key in last if key not in ("iter", "gamma", "gap"))
    fig_cfg = write_config(tmp_path, {"input": str(out)}, name="fig.json")
    assert bc.main(["figure-data", "--config", fig_cfg, "--out", str(tmp_path / "fig")]) == 0
    with open(tmp_path / "fig" / "figure_data.csv", newline="") as fh:
        last_rows = [row for row in csv.DictReader(fh) if int(row["iter"]) == iterations]
    assert [(row["series"], row["value"]) for row in last_rows] == [("trace.gap", "inf")]


def test_write_trace_csv_streams_its_rows(tmp_path):
    """Each trace row is written as soon as it is formatted: 20,000 rows at
    d = 3 take about 10 MB when held as lists of strings, and the writer's
    traced peak stays under 1 MiB."""
    n, y = 20_000, np.array([1.5, 2.5, 3.5])
    result = md.RunResult(
        y_final=y, xi_final=0.5, y_weighted_avg=y, y_tail_avg=y, xi_tail_avg=0.5,
        gap_trace=[(100 * (i + 1), 1.0 / (i + 1)) for i in range(n)], min_underbar_y=1.0,
        diverged=False, iterations=100 * n, grad_norm=math.nan, gamma_sum=1.0, n_projections=0,
        y_trace=[(100 * (i + 1), y) for i in range(n)], avg_trace=[],
        xi_trace=[(100 * (i + 1), 0.5) for i in range(n)], projection_iters=[])
    tracemalloc.start()
    try:
        bc.write_trace_csv(tmp_path / "trace.csv", result, md.StepSchedule.power(1.0, 0.75))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    with open(tmp_path / "trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == n + 1
    assert rows[-1][0] == str(100 * n) and float(rows[-1][2]) == 1.0 / n


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cmd_run_overflowed_sgd_is_diverged(tmp_path):
    # gamma0 = 1e300 leaves finite iterates whose loss law overflows: the last
    # record's gap is inf, so the run is diverged and reports no weights
    doc = {"model": {"synthetic": {"d": 10, "seed": 2025}},
           "measure": {"kind": "es", "alpha": 0.95},
           "optimizer": {"algorithm": "sgd-classical",
                         "schedule": {"kind": "power", "gamma0": 1e300, "beta": 0.65}},
           "samples": 20_000, "seed": 2025}
    out = tmp_path / "overflow"
    assert bc.main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["diverged"]
    assert summary["iterations"] == 20_000
    for key in ("weights_final", "weights_weighted_avg", "weights_tail_avg"):
        assert summary[key] is None
    assert "mde_final" not in summary and "var_estimate" not in summary
    with open(out / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert int(rows[-1]["iter"]) == 20_000 and float(rows[-1]["gap"]) == math.inf


# ---------------------------------------------------------------------------
# compare command
# ---------------------------------------------------------------------------

def compare_config():
    return {
        "model": {"synthetic": {"d": 5}},
        "measure": {"kind": "es", "alpha": 0.95},
        "optimizers": ["smd", "sgd-tamed", "sgd-classical"],
        "optimizer": {"epochs": 1, "tamed_gamma0": 1.0},
        "samples": 3000,
        "replications": 2,
        "dimensions": [5],
        "seed": 42,
    }


def test_cmd_compare_outputs(tmp_path):
    out = tmp_path / "cmp"
    assert bc.main(["compare", "--config", write_config(tmp_path, compare_config()),
                    "--out", str(out)]) == 0
    with open(out / "replications.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6  # 2 replications x 3 optimizers
    assert {r["optimizer"] for r in rows} == {"smd", "sgd-tamed", "sgd-classical"}
    with open(out / "aggregate.csv", newline="") as fh:
        agg = list(csv.DictReader(fh))
    assert len(agg) == 3
    for row in agg:
        assert int(row["replications"]) == 2
        assert float(row["gap_k90_median"]) >= 0 or math.isinf(float(row["gap_k90_median"]))


def test_cmd_compare_runs_dmd_for_samples_times_epochs_iterations(tmp_path, monkeypatch):
    """``compare`` takes "dmd" as an optimizer; its run reads the
    replication's step count, samples * epochs, from ``iterations``."""
    doc = dict(compare_config(), optimizers=["dmd", "smd"], samples=300, replications=1)
    seen, dmd_run = [], md.dmd_run

    def counted(ctx, cfg, **kwargs):
        seen.append(cfg.iterations)
        return dmd_run(ctx, cfg, **kwargs)
    monkeypatch.setattr(md, "dmd_run", counted)
    out = tmp_path / "cmp"
    assert bc.main(["compare", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    with open(out / "replications.csv", newline="") as fh:
        assert [r["optimizer"] for r in csv.DictReader(fh)] == ["dmd", "smd"]
    assert seen == [300]


@pytest.mark.parametrize("measure", [{"kind": "es", "alpha": 0.95}, {"kind": "mad"},
                                     {"kind": "variantile"}], ids=["es", "mad", "variantile"])
def test_cmd_compare_deterministic_and_threaded(tmp_path, measure):
    doc = compare_config()
    doc["measure"] = measure
    cfg_path = write_config(tmp_path, doc)
    out1, out2, out3 = tmp_path / "c1", tmp_path / "c2", tmp_path / "c3"
    assert bc.main(["compare", "--config", cfg_path, "--out", str(out1)]) == 0
    assert bc.main(["compare", "--config", cfg_path, "--out", str(out2)]) == 0
    assert bc.main(["compare", "--config", cfg_path, "--out", str(out3),
                    "--threads", "2"]) == 0
    for name in ("aggregate.csv", "replications.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert (out1 / name).read_bytes() == (out3 / name).read_bytes()


def test_cmd_compare_asks_for_at_most_one_worker_per_task(tmp_path, monkeypatch):
    """A process pool forks all its workers on the first submit, so
    ``--threads`` above the replication count asks for one worker per
    replication, and a single replication runs serially.  A stub pool records
    the worker count and maps in this process: the test starts no process."""
    import concurrent.futures

    asked = []

    class StubPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubPool)
    from concurrent.futures import ProcessPoolExecutor
    assert ProcessPoolExecutor is StubPool  # no real pool can start below
    doc = dict(compare_config(), optimizers=["smd"], samples=500)
    for replications, threads, want in ((1, 64, []), (2, 64, [2]), (3, 2, [2])):
        doc["replications"] = replications
        out = tmp_path / f"c{replications}"
        assert bc.main(["compare", "--config", write_config(tmp_path, doc), "--out", str(out),
                        "--threads", str(threads)]) == 0
        assert asked == want
        assert len(out.joinpath("replications.csv").read_text().splitlines()) == 1 + replications
        asked.clear()


def test_cli_import_leaves_multiprocessing_out():
    """Only ``compare --threads`` above 1 needs the process pool, so importing
    the CLI module does not load multiprocessing."""
    env = dict(os.environ, PYTHONPATH=str(Path(bc.__file__).parents[1]))
    probe = "import sys, rbmd.bench_cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_numpy_random_out():
    """numpy.random loads on the first draw, not when the CLI module is
    imported."""
    env = dict(os.environ, PYTHONPATH=str(Path(bc.__file__).parents[1]))
    probe = "import sys, rbmd.bench_cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_cli_runs_on_numpy_alone(tmp_path):
    """The package needs scipy only for its tests: neither importing the CLI nor
    solving the README three-asset ES reference loads a scipy module."""
    cfg = write_config(tmp_path, {"model": {"inline": bench_model_dict()},
                                  "measure": {"kind": "es", "alpha": 0.95},
                                  "tolerance": 1e-10, "seed": 1})
    argv = ["reference", "--config", cfg, "--out", str(tmp_path / "ref")]
    env = dict(os.environ, PYTHONPATH=str(Path(bc.__file__).parents[1]))
    probe = ("import sys, rbmd.bench_cli as bc; "
             f"code = bc.main({argv!r}); "
             "print(code, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip().splitlines()[-1] == "0 []"
    assert (tmp_path / "ref" / "reference.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cmd_compare_overflowed_sgd_reads_blown_up(tmp_path):
    # gamma0 = 1e300 overflows the classical SGD iterate; its loss law then has
    # an infinite scale, and the gap must read inf ("blew up"), not nan
    doc = {"measure": {"kind": "es", "alpha": 0.95}, "optimizers": ["sgd-classical"],
           "optimizer": {"classical_gamma0": 1e300}, "samples": 20_000, "replications": 3,
           "dimensions": [10], "seed": 2024}
    out = tmp_path / "overflow"
    assert bc.main(["compare", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    with open(out / "replications.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert all(float(row["gap_final"]) == math.inf for row in rows)


def test_cmd_compare_single_replication_degenerate(tmp_path):
    doc = compare_config()
    doc["replications"] = 1
    doc["optimizers"] = ["smd"]
    out = tmp_path / "single"
    assert bc.main(["compare", "--config", write_config(tmp_path, doc),
                    "--out", str(out)]) == 0
    with open(out / "replications.csv", newline="") as fh:
        row = list(csv.DictReader(fh))[0]
    with open(out / "aggregate.csv", newline="") as fh:
        agg = list(csv.DictReader(fh))[0]
    assert float(agg["gap_k90_median"]) == pytest.approx(float(row["gap_k90"]))
    assert float(agg["mde_median"]) == pytest.approx(float(row["mde"]))
    assert float(agg["mde_mad"]) == 0.0


def test_checkpoint_gaps_take_last_record_at_or_before():
    # records every 1234 steps of 12345; checkpoints at 3704, 7407 and 11110
    trace = [(k, float(k)) for k in range(1234, 12345, 1234)] + [(12345, 0.5)]
    assert bc._checkpoint_gaps(trace, 12345) == [3702.0, 7404.0, 11106.0]
    # a divergence entry closes the trace and covers every later checkpoint
    assert bc._checkpoint_gaps([(10, 1.0), (20, 2.0), (25, math.inf)], 40) == [
        1.0, 2.0, math.inf]


def test_cmd_compare_checkpoints_off_the_record_grid(tmp_path):
    # samples x epochs = 12345 is not a multiple of 10, so no record falls
    # exactly on a checkpoint step
    doc = compare_config()
    doc.update(samples=12345, replications=1, optimizers=["smd"])
    out = tmp_path / "grid"
    assert bc.main(["compare", "--config", write_config(tmp_path, doc),
                    "--out", str(out)]) == 0
    with open(out / "replications.csv", newline="") as fh:
        row = list(csv.DictReader(fh))[0]
    for key in ("gap_k30", "gap_k60", "gap_k90"):
        assert math.isfinite(float(row[key]))


# ---------------------------------------------------------------------------
# figure-data command
# ---------------------------------------------------------------------------

def test_cmd_figure_data(tmp_path):
    run_out = tmp_path / "run"
    cfg_path = write_config(tmp_path, run_config(tmp_path))
    assert bc.main(["run", "--config", cfg_path, "--out", str(run_out)]) == 0
    fig_cfg = write_config(tmp_path, {"input": str(run_out)}, name="fig.json")
    fig_out = tmp_path / "fig"
    assert bc.main(["figure-data", "--config", fig_cfg, "--out", str(fig_out)]) == 0
    with open(fig_out / "figure_data.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    series = {r["series"] for r in rows}
    assert "trace.u_1" in series and "trace.gap" in series and "trace.xi" in series
    assert all(r["value"] != "" for r in rows)


def test_output_schemas_are_stable(tmp_path):
    # golden headers for every emitted CSV
    run_out = tmp_path / "run"
    assert bc.main(["run", "--config", write_config(tmp_path, run_config(tmp_path)),
                    "--out", str(run_out)]) == 0
    with open(run_out / "trace.csv", newline="") as fh:
        assert next(csv.reader(fh)) == ["iter", "gamma", "gap", "xi", "y_1", "y_2", "y_3"]
    cmp_out = tmp_path / "cmp"
    assert bc.main(["compare", "--config", write_config(tmp_path, compare_config(), "c.json"),
                    "--out", str(cmp_out)]) == 0
    with open(cmp_out / "replications.csv", newline="") as fh:
        assert next(csv.reader(fh)) == [
            "optimizer", "d", "seed", "gap_k30", "gap_k60", "gap_k90", "gap_final",
            "mde", "diverged_eps1", "diverged_eps2", "diverged_eps3", "diverged_eps4"]
    with open(cmp_out / "aggregate.csv", newline="") as fh:
        assert next(csv.reader(fh)) == [
            "optimizer", "d", "replications",
            "divergences_eps1", "divergences_eps2", "divergences_eps3", "divergences_eps4",
            "gap_k30_median", "gap_k30_mad", "gap_k60_median", "gap_k60_mad",
            "gap_k90_median", "gap_k90_mad", "mde_median", "mde_mad"]
    fig_out = tmp_path / "fig"
    fig_cfg = write_config(tmp_path, {"input": str(run_out)}, name="f.json")
    assert bc.main(["figure-data", "--config", fig_cfg, "--out", str(fig_out)]) == 0
    with open(fig_out / "figure_data.csv", newline="") as fh:
        assert next(csv.reader(fh)) == ["series", "iter", "value"]


def test_cmd_figure_data_missing_dir(tmp_path):
    fig_cfg = write_config(tmp_path, {"input": str(tmp_path / "missing")})
    assert bc.main(["figure-data", "--config", fig_cfg, "--out", str(tmp_path / "f")]) == 1


def test_cmd_figure_data_empty_trace(tmp_path):
    src = tmp_path / "empty"
    src.mkdir()
    (src / "trace.csv").write_text("iter,gamma,gap,xi,y_1\n")
    fig_cfg = write_config(tmp_path, {"input": str(src)})
    assert bc.main(["figure-data", "--config", fig_cfg, "--out", str(tmp_path / "f")]) == 1


@pytest.mark.parametrize("text", ["iter,gamma,gap,xi,y_1\n1,1.0,0.5,0.0,abc\n",
                                  "iter,gamma,gap,xi,y_1\n1,1.0\n"],
                         ids=["bad-number", "short-row"])
def test_cmd_figure_data_bad_trace_row(capsys, tmp_path, text):
    src = tmp_path / "bad"
    src.mkdir()
    (src / "trace.csv").write_text(text)
    fig_cfg = write_config(tmp_path, {"input": str(src)})
    assert bc.main(["figure-data", "--config", fig_cfg, "--out", str(tmp_path / "f")]) == 1
    assert_one_error_line(capsys.readouterr().err)
