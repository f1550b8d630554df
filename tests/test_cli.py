import csv
import importlib.metadata
import json
import os
import pathlib
import subprocess
import sys
import warnings
from dataclasses import asdict

import numpy as np
import pytest

import sparcreg
from sparcreg.cli import main
from sparcreg.data import ClassificationSpec, DataError, Dataset, \
    generate_grouped_classification, load_csv, write_csv
from sparcreg.solver import SolverConfig


SRC = pathlib.Path(sparcreg.__file__).resolve().parents[1]


def _declared_entry_point():
    """The ``module:attr`` that pyproject.toml declares for ``sparcreg``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["sparcreg"]


def _installed_distribution():
    try:
        return importlib.metadata.distribution("sparcreg")
    except importlib.metadata.PackageNotFoundError:
        return None


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestProx:
    def test_sparc_worked_example(self, capsys):
        code, out, _ = run(capsys, "prox", "--sparc", "--lambda", "1",
                           "--k", "2", "--vec", "5,1,-3")
        assert code == 0
        assert out.splitlines() == ["4 0 -3", "objective 5"]

    def test_zero_penalty_identity(self, capsys):
        code, out, _ = run(capsys, "prox", "--lasso", "--lambda1", "0",
                           "--vec", "7")
        assert code == 0
        assert out.splitlines() == ["7", "objective 0"]

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "prox", "--sparc", "--lambda", "1",
                           "--k", "2", "--vec", "5 1 -3", "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["x"] == [4.0, 0.0, -3.0]
        assert blob["objective"] == 5.0

    @pytest.mark.parametrize("json_flag", [(), ("--json",)],
                             ids=["text", "json"])
    def test_overflowing_objective(self, capsys, json_flag):
        # 0.5 * ||x - v||^2 overflows at v_1 = 1e308: the objective is inf,
        # printed as such in text and as null in strict JSON, without a
        # warning on stderr
        code, out, err = run(capsys, "prox", "--oscar", "--lambda1", "1",
                             "--lambda2", "1e308", "--vec", "1e308 2",
                             *json_flag)
        assert (code, err) == (0, "")
        if json_flag:
            blob = json.loads(out, parse_constant=pytest.fail)
            assert blob == {"objective": None, "x": [0.5, 0.5]}
        else:
            assert out.splitlines() == ["0.5 0.5", "objective inf"]

    def test_malformed_vector_names_token(self, capsys):
        code, _, err = run(capsys, "prox", "--lasso", "--lambda1", "1",
                           "--vec", "1,abc")
        assert code == 2
        assert "abc" in err

    def test_empty_vector(self, capsys):
        code, out, err = run(capsys, "prox", "--lasso", "--lambda1", "1",
                             "--vec", " , ")
        assert (code, out, err) == (2, "", "error: empty vector\n")

    def test_missing_parameter(self, capsys):
        code, _, err = run(capsys, "prox", "--lasso", "--vec", "1")
        assert code == 2
        assert "--lambda1" in err

    def test_extraneous_parameter(self, capsys):
        code, _, err = run(capsys, "prox", "--lasso", "--lambda1", "1",
                           "--k", "2", "--vec", "1")
        assert code == 2
        assert "--k" in err

    def test_negative_penalty_rejected(self, capsys):
        code, _, _ = run(capsys, "prox", "--lasso", "--lambda1", "-1",
                         "--vec", "1")
        assert code == 2

    def test_mutually_exclusive_methods(self, capsys):
        code, _, _ = run(capsys, "prox", "--lasso", "--enet",
                         "--lambda1", "1", "--vec", "1")
        assert code == 2

    def test_vector_from_file(self, capsys, tmp_path):
        f = tmp_path / "v.txt"
        f.write_text("3 -2 0.5\n")
        code, out, _ = run(capsys, "prox", "--lasso", "--lambda1", "1",
                           "--vec-file", str(f))
        assert code == 0
        assert out.splitlines()[0] == "2 -1 0"

    def test_missing_vector_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "prox", "--lasso", "--lambda1", "1",
                         "--vec-file", str(tmp_path / "nope.txt"))
        assert code == 1


class TestSynth:
    def test_small_run_writes_artifacts(self, capsys, tmp_path):
        code, out, _ = run(capsys, "synth", "--reps", "2",
                           "--methods", "lasso",
                           "--lambda-grid", "0.1,1",
                           "--outdir", str(tmp_path))
        assert code == 0
        for name in ("report.csv", "report.json", "profile.csv"):
            assert (tmp_path / name).exists()
        lines = out.splitlines()
        assert any(l.startswith("# seed=0") for l in lines)
        assert "metric,lasso" in lines
        table = (tmp_path / "report.csv").read_text().splitlines()
        assert table[0] == "metric,lasso"
        assert [l.split(",")[0] for l in table[1:]] == \
            ["MAE", "MSE", "DoF", "SER"]

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            code, _, _ = run(capsys, "synth", "--reps", "2",
                             "--methods", "lasso,sparc",
                             "--lambda-grid", "0.05,0.5",
                             "--k-grid", "10,15",
                             "--outdir", str(d))
            assert code == 0
        for name in ("report.csv", "report.json", "profile.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("k_grid", ["0,-3", "-1", "5,0"])
    def test_k_below_one_rejected(self, capsys, tmp_path, k_grid):
        code, out, err = run(capsys, "synth", "--reps", "1",
                             "--methods", "sparc", "--k-grid", k_grid,
                             "--lambda-grid", "1", "--json",
                             "--outdir", str(tmp_path))
        bad = next(k for k in k_grid.split(",") if int(k) < 1)
        assert (code, out) == (2, "")
        assert err == f"error: k must be a positive integer, got {bad}\n"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("grid_args, message", [
        (["--methods", "lasso", "--k-grid", "3", "--lambda-grid", "1"],
         "--k-grid feeds no searched --lasso axis"),
        (["--methods", "lasso,oscar", "--k-grid", "3"],
         "--k-grid feeds no searched --lasso or --oscar axis"),
        (["--methods", "lasso", "--lambda-grid", "1,0.5,1"],
         "penalty grid repeats 1.0"),
        (["--methods", "sparc", "--k-grid", "50,3,50"],
         "sparsity grid repeats 50"),
    ], ids=["lasso-k-grid", "two-methods-k-grid", "repeated-lambda",
            "repeated-k"])
    def test_grid_rule_matches_fit(self, capsys, tmp_path, grid_args,
                                   message):
        code, out, err = run(capsys, "synth", "--reps", "1", *grid_args,
                             "--outdir", str(tmp_path))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not (tmp_path / "report.csv").exists()

    def test_metric_mean_refused(self, capsys, tmp_path):
        # MAE and MSE are always sums over the test rows
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("metric_mean=false\n")
        for given, message in (
                (["--metric-mean"], "unrecognized arguments: --metric-mean\n"),
                (["--config", str(cfg)],
                 f"error: {cfg} line 1: unknown key 'metric_mean': sparcreg "
                 f"synth has no --metric-mean flag\n")):
            code, out, err = run(capsys, "synth", "--reps", "1",
                                 "--methods", "lasso", "--lambda-grid", "1",
                                 "--outdir", str(tmp_path), *given)
            assert (code, out) == (2, "")
            assert err.endswith(message)
        assert not (tmp_path / "report.csv").exists()

    def test_json_mode(self, capsys, tmp_path):
        code, out, _ = run(capsys, "synth", "--reps", "1",
                           "--methods", "lasso", "--lambda-grid", "1",
                           "--outdir", str(tmp_path), "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["repetitions"] == 1
        assert "lasso" in blob["summary"]

    def test_unknown_method(self, capsys, tmp_path):
        code, _, err = run(capsys, "synth", "--methods", "ridge",
                           "--outdir", str(tmp_path))
        assert code == 2
        assert "ridge" in err

    def test_repeated_method_rejected(self, capsys, tmp_path):
        code, out, err = run(capsys, "synth", "--reps", "1",
                             "--methods", "lasso,lasso", "--lambda-grid", "1",
                             "--outdir", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == "error: method 'lasso' given twice\n"
        assert not (tmp_path / "report.csv").exists()

    def test_bad_reps(self, capsys, tmp_path):
        code, _, _ = run(capsys, "synth", "--reps", "0",
                         "--outdir", str(tmp_path))
        assert code == 2

    def test_outdir_env_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SPARCREG_OUTDIR", str(tmp_path))
        code, _, _ = run(capsys, "synth", "--reps", "1",
                         "--methods", "lasso", "--lambda-grid", "1")
        assert code == 0
        assert (tmp_path / "report.json").exists()


@pytest.fixture
def planted_csv(tmp_path):
    rng = np.random.default_rng(14)
    A = rng.normal(size=(60, 6))
    x_true = np.array([2.0, 0.0, 3.0, 0.0, 0.0, 0.0])
    ds = Dataset(A, A @ x_true, "regression",
                 feature_names=tuple(f"c{j}" for j in range(6)))
    path = tmp_path / "planted.csv"
    write_csv(ds, path)
    return path


class TestFit:
    def test_noiseless_regression_recovers_predictions(self, capsys,
                                                       planted_csv,
                                                       tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "fit", str(planted_csv),
                           "--label", "label", "--task", "regression",
                           "--method", "lasso",
                           "--lambda-grid", "1e-8,1e-2",
                           "--tol", "1e-12", "--outdir", str(out_dir),
                           "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["prediction"]["test_mse"] <= 1e-6
        assert payload["selected"]["type"] == "lasso"
        coef = (out_dir / "coefficients.csv").read_text().splitlines()
        assert coef[0] == "feature,coefficient,coefficient_raw"
        assert len(coef) == 7
        assert coef[1].startswith("c0,")
        assert (out_dir / "metrics.json").exists()

    def test_every_solver_flag_reaches_the_config(self, capsys, planted_csv,
                                                  tmp_path):
        given = {"max_outer": 500, "tol": 1e-8}
        defaults = asdict(SolverConfig())
        assert given.keys() == defaults.keys()
        assert all(given[k] != v for k, v in defaults.items())
        flags = ["--max-outer", "500", "--tol", "1e-8"]
        for extra, expected in ((flags, given), ([], defaults)):
            out_dir = tmp_path / f"out{len(extra)}"
            code, _, err = run(capsys, "fit", str(planted_csv),
                               "--label", "label", "--task", "regression",
                               "--method", "lasso", "--lambda-grid", "0.1",
                               "--outdir", str(out_dir), *extra)
            assert (code, err) == (0, "")
            solver = json.loads((out_dir / "metrics.json").read_text())[
                "config"]["solver"]
            assert solver == expected
            assert {k: type(v) for k, v in solver.items()} == \
                {k: type(v) for k, v in expected.items()}

    def test_step_rule_constants_have_no_flag(self, capsys, planted_csv,
                                              tmp_path):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("eta=3\n")
        for extra, message in (
                (["--eta", "3"], "unrecognized arguments: --eta 3\n"),
                (["--config", str(cfg)], f"error: {cfg} line 1: unknown key "
                                         f"'eta': sparcreg fit has no --eta "
                                         f"flag\n")):
            code, out, err = run(capsys, "fit", str(planted_csv),
                                 "--label", "label", "--task", "regression",
                                 "--method", "lasso",
                                 "--outdir", str(tmp_path / "out"), *extra)
            assert (code, out) == (2, "")
            assert err.endswith(message)
        assert not (tmp_path / "out").exists()

    def test_lambda_grid_feeds_the_unpinned_enet_penalty(
            self, capsys, planted_csv, tmp_path):
        code, out, err = run(capsys, "fit", str(planted_csv),
                             "--label", "label", "--task", "regression",
                             "--method", "enet", "--lambda1", "0.5",
                             "--lambda-grid", "0.1,1", "--json",
                             "--outdir", str(tmp_path))
        assert (code, err) == (0, "")
        selected = json.loads(out)["selected"]
        assert selected["lam1"] == 0.5 and selected["lam2"] in (0.1, 1.0)

    def test_coefficient_names_are_quoted(self, capsys, tmp_path):
        rng = np.random.default_rng(15)
        A = rng.normal(size=(40, 3))
        names = ("a,b", 'q"x', "plain")
        path = tmp_path / "odd.csv"
        write_csv(Dataset(A, A @ np.array([1.0, -2.0, 0.5]), "regression",
                          feature_names=names), path)
        out_dir = tmp_path / "q"
        code, _, _ = run(capsys, "fit", str(path),
                         "--label", "label", "--task", "regression",
                         "--method", "lasso", "--lambda1", "0.01",
                         "--outdir", str(out_dir))
        assert code == 0
        with open(out_dir / "coefficients.csv", newline="",
                  encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["feature"] for r in rows] == list(names)
        assert all(None not in r and len(r) == 3 for r in rows)
        assert all(np.isfinite(float(r[c])) for r in rows
                   for c in ("coefficient", "coefficient_raw"))
        lines = (out_dir / "coefficients.csv").read_text().splitlines()
        assert lines[3].startswith("plain,")

    def test_human_readable_output(self, capsys, planted_csv, tmp_path):
        code, out, _ = run(capsys, "fit", str(planted_csv),
                           "--label", "label", "--task", "regression",
                           "--method", "lasso", "--lambda1", "0.01",
                           "--outdir", str(tmp_path / "h"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("selected lasso (lam1=0.01")
        assert any(l.startswith("test_mse ") for l in lines)

    def test_sparc_pinned_sparsity(self, capsys, planted_csv, tmp_path):
        code, out, _ = run(capsys, "fit", str(planted_csv),
                           "--label", "label", "--task", "regression",
                           "--method", "sparc", "--k", "2",
                           "--lambda-grid", "1e-6,1e-3",
                           "--tol", "1e-10",
                           "--outdir", str(tmp_path / "s"), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["selected"]["k"] == 2
        assert payload["metrics"]["NNZ"] <= 2

    def test_screen_keeps_informative_columns(self, capsys, planted_csv,
                                              tmp_path):
        code, out, _ = run(capsys, "fit", str(planted_csv),
                           "--label", "label", "--task", "regression",
                           "--method", "lasso", "--lambda-grid", "1e-6",
                           "--screen", "3",
                           "--outdir", str(tmp_path / "sc"), "--json")
        assert code == 0
        payload = json.loads(out)
        kept = payload["screen_kept"]
        assert len(kept) == 3
        assert {0, 2} <= set(kept)

    def test_classification_metrics(self, capsys, tmp_path):
        ds = generate_grouped_classification(ClassificationSpec(
            n_train=30, n_validation=10, n_test=10, n_irrelevant=5,
            margin_noise_sd=0.5, seed=8))
        flat = Dataset(ds.A, ds.y, "classification",
                       feature_names=ds.feature_names)
        path = tmp_path / "cls.csv"
        write_csv(flat, path)
        code, out, _ = run(capsys, "fit", str(path),
                           "--label", "label", "--task", "classification",
                           "--method", "lasso", "--lambda-grid", "0.01,0.1",
                           "--outdir", str(tmp_path / "c"), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["metrics"]["CLA"] is not None
        assert payload["metrics"]["MAE"] is None
        assert "test_cla" in payload["prediction"]

    @pytest.mark.parametrize("extra, key", [
        (["--normalization", "none"], "normalization=none"),
        (["--normalization", "l2"], "normalization=l2"),
        (["--metric-mean"], "metric_mean=true"),
    ], ids=["normalization-none", "normalization-l2", "metric-mean"])
    def test_removed_scaling_options_refused(self, capsys, planted_csv,
                                             tmp_path, extra, key):
        # columns are always scaled to unit norm and errors always summed
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(key + "\n")
        name = key.partition("=")[0]
        for given, message in (
                (extra, f"unrecognized arguments: {' '.join(extra)}\n"),
                (["--config", str(cfg)],
                 f"error: {cfg} line 1: unknown key {name!r}: sparcreg fit "
                 f"has no {extra[0]} flag\n")):
            code, out, err = run(capsys, "fit", str(planted_csv),
                                 "--label", "label", "--task", "regression",
                                 "--method", "lasso",
                                 "--outdir", str(tmp_path / "out"), *given)
            assert (code, out) == (2, "")
            assert err.endswith(message)
        assert not (tmp_path / "out").exists()

    def test_column_zero_on_train_rows_named(self, capsys, tmp_path):
        # the column is nonzero only on a test row
        path = tmp_path / "z.csv"
        path.write_text("a,b,y,split\n1,0,1,train\n2,0,2,train\n"
                        "3,0,3,validation\n4,5,4,test\n")
        code, out, err = run(capsys, "fit", str(path), "--label", "y",
                             "--task", "regression", "--method", "lasso",
                             "--lambda1", "0.1",
                             "--outdir", str(tmp_path / "out"))
        assert (code, out) == (1, "")
        assert err == ("error: column 'b' is zero on the training rows; "
                       "cannot normalize\n")
        assert not (tmp_path / "out").exists()

    def test_degenerate_split_rejected(self, capsys, planted_csv, tmp_path):
        code, _, _ = run(capsys, "fit", str(planted_csv),
                         "--label", "label", "--task", "regression",
                         "--method", "lasso", "--split", "1,0,0",
                         "--outdir", str(tmp_path))
        assert code == 2
        code, _, _ = run(capsys, "fit", str(planted_csv),
                         "--label", "label", "--task", "regression",
                         "--method", "lasso", "--split", "0.5,0.3,0.3",
                         "--outdir", str(tmp_path))
        assert code == 2

    def test_bad_screen(self, capsys, planted_csv, tmp_path):
        code, _, _ = run(capsys, "fit", str(planted_csv),
                         "--label", "label", "--task", "regression",
                         "--method", "lasso", "--screen", "0",
                         "--outdir", str(tmp_path))
        assert code == 2

    def test_missing_csv(self, capsys, tmp_path):
        code, _, _ = run(capsys, "fit", str(tmp_path / "nope.csv"),
                         "--label", "label", "--task", "regression",
                         "--method", "lasso", "--outdir", str(tmp_path))
        assert code == 1

    def test_overflowing_start_objective(self, capsys, tmp_path):
        # ||y||^2 overflows for labels near 1e200: the solver's own error,
        # without numpy's overflow warning ahead of it
        path = tmp_path / "huge.csv"
        path.write_text("a,b,label\n" + "".join(
            f"{i % 7 - 3.0!r},{i % 5 - 2.0!r},{1e200 * (1 + i)!r}\n"
            for i in range(60)))
        code, out, err = run(capsys, "fit", str(path), "--label", "label",
                             "--task", "regression", "--method", "lasso",
                             "--outdir", str(tmp_path / "out"))
        assert (code, out, err) == (1, "", "error: objective at start is inf\n")

    @pytest.mark.parametrize("bad, message", [
        (["--lambda-grid", ","], "empty penalty grid"),
        (["--lambda-grid=-1"], "lam1 must be finite and non-negative, "
                               "got -1.0"),
        (["--screen", "0"], "--screen must be a positive integer, got 0"),
        (["--method", "sparc", "--k-grid", "0,-3"],
         "k must be a positive integer, got 0"),
        (["--method", "sparc", "--k", "0"],
         "k must be a positive integer, got 0"),
        (["--method", "sparc", "--k-grid", ","], "empty sparsity grid"),
        (["--split", "0.5,0.5"],
         "--split: fractions must be (train, validation, test), got 2"),
        (["--split", "0.5,0.3,0.3"],
         "--split: fractions must sum to 1, got 1.1"),
        (["--split", "0.5,x,0.2"],
         "--split: could not convert string to float: 'x'"),
        (["--tol", "inf"], "tol must lie in (0, inf), got inf"),
        (["--k-grid", "3"], "--k-grid feeds no searched --lasso axis"),
        (["--method", "sparc", "--k", "5", "--k-grid", "3"],
         "--k-grid feeds no searched --sparc axis"),
        (["--lambda1", "0.5", "--lambda-grid", "0.1,1"],
         "--lambda-grid feeds no searched --lasso axis"),
        (["--method", "enet", "--lambda1", "0.5", "--lambda2", "0.5",
          "--lambda-grid", "0.1,1"],
         "--lambda-grid feeds no searched --enet axis"),
        (["--lambda-grid", "1,1"], "penalty grid repeats 1.0"),
        (["--method", "sparc", "--k-grid", "5,5"], "sparsity grid repeats 5"),
    ], ids=["empty-lambda-grid", "negative-lambda", "screen-0", "k-grid-0",
            "k-0", "empty-k-grid", "split-two", "split-sum", "split-token",
            "tol-inf", "lasso-k-grid", "pinned-k-grid", "pinned-lambda-grid",
            "pinned-enet-lambda-grid", "repeated-lambda", "repeated-k"])
    def test_arguments_checked_before_reading_csv(self, capsys, tmp_path,
                                                  bad, message):
        code, out, err = run(capsys, "fit", str(tmp_path / "nope.csv"),
                             "--label", "label", "--task", "regression",
                             "--method", "lasso", *bad,
                             "--outdir", str(tmp_path))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("fit_args, other, message", [
        (["--method", "lasso", "--lambda2", "0.5", "--k", "3"],
         ["prox", "--lasso", "--lambda1", "1", "--lambda2", "0.5", "--k", "3",
          "--vec", "1"],
         "--lambda2 is not a --lasso parameter"),
        (["--method", "lasso", "--k", "3"],
         ["prox", "--lasso", "--lambda1", "1", "--k", "3", "--vec", "1"],
         "--k is not a --lasso parameter"),
        (["--method", "sparc", "--lambda1", "0.1"],
         ["prox", "--sparc", "--lambda", "1", "--k", "1", "--lambda1", "0.1",
          "--vec", "1"],
         "--lambda1 is not a --sparc parameter"),
        (["--method", "enet", "--lambda", "0.1"],
         ["prox", "--enet", "--lambda1", "1", "--lambda2", "1",
          "--lambda", "0.1", "--vec", "1"],
         "--lambda is not a --enet parameter"),
        (["--method", "lasso", "--lambda-grid", ","],
         ["synth", "--methods", "lasso", "--lambda-grid", ","],
         "empty penalty grid"),
        (["--method", "sparc", "--k-grid", ","],
         ["synth", "--methods", "sparc", "--k-grid", ",", "--lambda-grid",
          "1"],
         "empty sparsity grid"),
        (["--method", "sparc", "--lambda", "0.01", "--k", "50"], None, None),
    ], ids=["lasso-lambda2-k", "lasso-k", "sparc-lambda1", "enet-lambda",
            "empty-lambda-grid", "empty-k-grid", "k-above-p-clamped"])
    def test_flags_agree_with_prox_and_synth(self, capsys, planted_csv,
                                            tmp_path, fit_args, other,
                                            message):
        code, out, err = run(capsys, "fit", str(planted_csv),
                             "--label", "label", "--task", "regression",
                             "--outdir", str(tmp_path / "fit"), "--json",
                             *fit_args)
        if message is None:
            # a given k above p = 6 is clamped to p
            assert code == 0
            assert json.loads(out)["selected"] == {
                "type": "sparc", "lam": 0.01, "k": 6}
            return
        assert (code, out, err) == (2, "", f"error: {message}\n")
        if other[0] == "synth":
            other = other + ["--outdir", str(tmp_path / "synth")]
        assert run(capsys, *other) == (code, out, err)


class TestDescribe:
    def test_regression_summary(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,label\n1,2,0.5\n3,4,1.5\n5,6,2.5\n")
        code, out, _ = run(capsys, "describe", str(path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n=3 p=2"
        assert lines[1] == "label column: label"
        assert lines[2] == "task=regression (inferred)"
        assert any(l.startswith("label range") for l in lines)

    def test_classification_counts_and_splits(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "a,label,split\n1,1,train\n2,0,train\n3,1,validation\n4,0,test\n"
        )
        code, out, _ = run(capsys, "describe", str(path))
        assert code == 0
        assert "task=classification (inferred)" in out
        assert "class 0: 2 rows" in out
        assert "class 1: 2 rows" in out
        assert "split train: 2 rows" in out

    @pytest.mark.parametrize("text, expected", [
        ("a,b,label,split\n1,1.5e308,1,train\n2,1.5e308,0,train\n"
         "3,0,1,validation\n4,0,0,test\n",
         {"n": 4, "p": 2, "label": "label", "task": "classification",
          "classes": [{"value": 0.0, "rows": 2}, {"value": 1.0, "rows": 2}],
          "label_range": None, "norm_range": [30 ** 0.5, None],
          "split": {"train": 2, "validation": 1, "test": 1}}),
        ("a,label\n3,0.5\n4,1.5\n0,-2.5\n",
         {"n": 3, "p": 1, "label": "label", "task": "regression",
          "classes": None, "label_range": [-2.5, 1.5],
          "norm_range": [5.0, 5.0], "split": None}),
    ], ids=["classification-infinite-norm", "regression"])
    def test_json_summary(self, capsys, tmp_path, text, expected):
        path = tmp_path / "d.csv"
        path.write_text(text)
        code, out, err = run(capsys, "describe", str(path), "--json")
        assert (code, err) == (0, "")

        def refuse(token):
            raise ValueError(f"not strict JSON: {token}")

        assert json.loads(out, parse_constant=refuse) == expected
        assert out == json.dumps(expected, sort_keys=True) + "\n"

    @pytest.mark.parametrize("scale, norms", [
        ("e200", "[3.16228, 2.23607e+200]"),
        ("e-200", "[2.23607e-200, 3.16228]"),
    ], ids=["huge", "tiny"])
    def test_column_norms_stay_finite(self, capsys, tmp_path, scale, norms):
        path = tmp_path / "d.csv"
        path.write_text(f"a,b,label\n1{scale},1,0.5\n2{scale},3,1.5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, "describe", str(path))
        assert code == 0
        assert f"column norms in {norms}\n" in out

    @pytest.mark.parametrize("text, message", [
        ("a,b,label\n1,2,0.5\n3,inf,1.5\n",
         "line 3, column 'b': non-finite value 'inf'"),
        ("a,b,label\n1,2,nan\n3,4,1.5\n",
         "line 2, column 'label': non-finite value 'nan'"),
    ], ids=["feature", "label"])
    def test_non_finite_cell_rejected(self, capsys, tmp_path, text, message):
        path = tmp_path / "d.csv"
        path.write_text(text)
        code, out, err = run(capsys, "describe", str(path))
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("row, message", [
        ("1,2", "line 4: expected 3 fields, found 2"),
        ("1,oops,3", "line 4, column 'b': could not parse 'oops' as a number"),
        ("1,nan,3", "line 4, column 'b': non-finite value 'nan'"),
    ], ids=["field-count", "unparseable", "non-finite"])
    def test_line_numbers_count_blank_lines(self, capsys, tmp_path, row,
                                            message):
        path = tmp_path / "d.csv"
        path.write_text(f"a,b,label\n1,2,3\n\n{row}\n")
        code, out, err = run(capsys, "describe", str(path))
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("text, message", [
        ("a,label,split\n1,0.5,train\n2,1.5,trian\n3,2.5,test\n",
         "line 3: split label must be one of "
         "('train', 'validation', 'test'), got 'trian'"),
        ("a,label,a\n1,0.5,2\n", "line 1: duplicate column 'a'"),
    ], ids=["bad-split", "duplicate-column"])
    def test_rejects_what_load_csv_rejects(self, capsys, tmp_path, text,
                                           message):
        path = tmp_path / "d.csv"
        path.write_text(text)
        code, out, err = run(capsys, "describe", str(path))
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"
        with pytest.raises(DataError) as exc:
            load_csv(path, "label", "regression")
        assert str(exc.value) == message

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "describe", str(tmp_path / "nope.csv"))
        assert code == 1

    def test_header_only(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n")
        code, _, _ = run(capsys, "describe", str(path))
        assert code == 1

    def test_byte_order_mark_skipped(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("\ufefflabel,a\n0.5,1\n1.5,2\n", encoding="utf-8")
        code, out, _ = run(capsys, "describe", str(path))
        assert code == 0
        assert out.splitlines()[:2] == ["n=2 p=1", "label column: label"]

    def test_split_column_only(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("split\ntrain\n")
        code, out, err = run(capsys, "describe", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: no feature columns left after label/split\n"


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "prox.cfg"
        cfg.write_text("lambda1=1\n")
        code, out, _ = run(capsys, "prox", "--lasso", "--vec", "3 0",
                           "--config", str(cfg))
        assert code == 0
        assert out.splitlines()[0] == "2 0"

    def test_explicit_flag_wins(self, capsys, tmp_path):
        cfg = tmp_path / "prox.cfg"
        cfg.write_text("lambda1=1\n")
        code, out, _ = run(capsys, "prox", "--lasso", "--lambda1", "2",
                           "--vec", "3 0", "--config", str(cfg))
        assert code == 0
        assert out.splitlines()[0] == "1 0"

    def test_boolean_value_becomes_bare_flag(self, capsys, tmp_path):
        cfg = tmp_path / "prox.cfg"
        cfg.write_text("json=true\nlambda1=1\n")
        code, out, _ = run(capsys, "prox", "--lasso", "--vec", "3",
                           "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["x"] == [2.0]

    def test_comments_and_blanks_ignored(self, capsys, tmp_path):
        cfg = tmp_path / "prox.cfg"
        cfg.write_text("# comment\n\nlambda1=0.5\n")
        code, out, _ = run(capsys, "prox", "--lasso", "--vec", "1",
                           "--config", str(cfg))
        assert code == 0
        assert out.splitlines()[0] == "0.5"

    def test_bad_line_reports_location(self, capsys, tmp_path):
        cfg = tmp_path / "prox.cfg"
        cfg.write_text("lambda1\n")
        code, _, err = run(capsys, "prox", "--lasso", "--vec", "1",
                           "--config", str(cfg))
        assert code == 2
        assert "line 1" in err

    @pytest.mark.parametrize("argv", [
        ["prox", "--lasso", "--vec", "1"],
        ["synth", "--reps", "1", "--methods", "lasso", "--lambda-grid", "1"],
        ["describe", "nope.csv"],
    ], ids=["prox", "synth", "describe"])
    def test_unknown_key_reports_location(self, capsys, tmp_path,
                                          monkeypatch, argv):
        # a key of another subcommand is refused before argparse or the
        # subcommand runs
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "a.cfg"
        cfg.write_text("# defaults\njson=true\nscreen=5\n")
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == (f"error: {cfg} line 3: unknown key 'screen': "
                       f"sparcreg {argv[0]} has no --screen flag\n")
        assert not (tmp_path / "report.csv").exists()

    def test_nested_config_rejected(self, capsys, tmp_path):
        # a config key named another file, which was never read
        inner, outer = tmp_path / "inner.cfg", tmp_path / "outer.cfg"
        inner.write_text("lambda1=2\n")
        outer.write_text(f"# nested\nconfig={inner}\n")
        code, out, err = run(capsys, "prox", "--lasso", "--vec", "3 0",
                             "--config", str(outer))
        assert (code, out) == (2, "")
        assert err == (f"error: {outer} line 2: a config file cannot "
                       f"name another\n")

    def test_repeated_config_rejected(self, capsys, tmp_path):
        a, b = tmp_path / "a.cfg", tmp_path / "b.cfg"
        a.write_text("seed=3\n")
        b.write_text("seed=5\n")
        for given in (["--config", str(a), "--config", str(b)],
                      ["--config=" + str(a), "--config", str(b)]):
            code, out, err = run(capsys, "synth", "--reps", "1",
                                 "--methods", "lasso", "--lambda-grid", "1",
                                 "--outdir", str(tmp_path), *given)
            assert (code, out) == (2, "")
            assert err == "error: --config given more than once\n"
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("flag", ["--conf", "--confi"])
    def test_option_prefix_rejected(self, capsys, tmp_path, flag):
        # a prefix of --config used to parse as --config, and the file
        # was never read
        cfg = tmp_path / "prox.cfg"
        cfg.write_text("lambda1=1\n")
        code, out, err = run(capsys, "prox", "--lasso", "--vec", "3 0",
                             flag, str(cfg))
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {flag} " in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "prox", "--lasso", "--vec", "1",
                         "--config", str(tmp_path / "nope.cfg"))
        assert code == 1

    def test_undecodable_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_bytes(b"seed=\xff\xfe\n")
        code, out, err = run(capsys, "synth", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestTopLevel:
    def test_no_subcommand(self, capsys):
        assert run(capsys, )[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_console_script_is_installed(self, tmp_path):
        # Build the wrapper an installer generates for the declared
        # entry point and run it, so the check needs no installation.
        module, _, attr = _declared_entry_point().partition(":")
        script = tmp_path / "sparcreg"
        script.write_text(f"import sys\nfrom {module} import {attr}\n"
                          f"sys.exit({attr}())\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        cmd = [sys.executable, str(script)]
        shown = subprocess.run(cmd + ["--help"], env=env,
                               capture_output=True, text=True)
        assert shown.returncode == 0, shown.stderr
        assert shown.stdout.startswith("usage: sparcreg")
        bare = subprocess.run(cmd, env=env, capture_output=True, text=True)
        assert bare.returncode == 2, bare.stderr

    @pytest.mark.skipif(_installed_distribution() is None,
                        reason="the sparcreg distribution is not installed")
    def test_installed_console_script_runs(self):
        dist = _installed_distribution()
        entry = {ep.name: ep.value for ep in dist.entry_points
                 if ep.group == "console_scripts"}
        assert entry.get("sparcreg") == _declared_entry_point()
        scripts = [dist.locate_file(f) for f in dist.files or ()
                   if f.stem == "sparcreg"
                   and f.parent.name in ("bin", "Scripts")]
        assert scripts, "no sparcreg script in the distribution's record"
        done = subprocess.run([str(scripts[0]), "--help"],
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
