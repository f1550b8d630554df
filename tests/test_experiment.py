import json
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import sparcreg.experiment as experiment
from sparcreg.data import ClassificationSpec, Dataset, SyntheticSpec, \
    generate_grouped_classification
from sparcreg.experiment import (
    GridSpec,
    default_grids,
    emit_table,
    format_table,
    grid_search,
    load_report,
    run_repetitions,
)
from sparcreg.regularizers import ElasticNet, Lasso, Oscar, Sparc
from sparcreg.solver import SolverConfig, SolverDivergenceError


def _tiny_spec(seed=0):
    return SyntheticSpec(n_train=12, n_validation=8, n_test=8,
                         n_groups=2, group_size=2, n_irrelevant=3, seed=seed)


def _tiny_grids():
    return GridSpec(
        lasso=(Lasso(1.0), Lasso(0.1)),
        enet=(ElasticNet(1.0, 0.1), ElasticNet(0.1, 0.1)),
        oscar=(Oscar(1.0, 0.1), Oscar(0.1, 0.1)),
        sparc=(Sparc(1.0, 4), Sparc(0.1, 4)),
    )


class TestDefaultGrids:
    def test_sizes(self):
        g = default_grids(40)
        assert len(g.lasso) == 10
        assert len(g.enet) == 100
        assert len(g.oscar) == 100
        assert len(g.sparc) == 50

    def test_penalties_sweep_strong_to_weak(self):
        g = default_grids(40)
        lams = [r.lam1 for r in g.lasso]
        assert lams == sorted(lams, reverse=True)
        assert lams[0] == pytest.approx(10.0)
        assert lams[-1] == pytest.approx(1e-3)

    def test_sparc_is_penalty_major_with_k_descending(self):
        g = default_grids(40)
        first = g.sparc[:5]
        assert len({r.lam for r in first}) == 1
        assert [r.k for r in first] == [25, 20, 15, 10, 5]

    def test_sparsity_levels_filtered_to_p(self):
        g = default_grids(12)
        assert sorted({r.k for r in g.sparc}) == [5, 10]
        g_small = default_grids(3)
        assert {r.k for r in g_small.sparc} == {3}

    def test_custom_axes_are_sorted_descending(self):
        g = default_grids(10, lam_grid=[0.1, 1.0, 0.5], k_grid=[2, 8, 4])
        assert [r.lam1 for r in g.lasso] == [1.0, 0.5, 0.1]
        assert [r.k for r in g.sparc[:3]] == [8, 4, 2]

    def test_empty_penalty_grid_rejected(self):
        with pytest.raises(ValueError):
            default_grids(10, lam_grid=[])

    def test_empty_sparsity_grid_rejected(self):
        with pytest.raises(ValueError, match="empty sparsity grid"):
            default_grids(10, k_grid=[])

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError,
                           match="k must be a positive integer, got 0"):
            default_grids(10, k_grid=[0, -3])
        with pytest.raises(ValueError, match="got -3"):
            default_grids(10, k_grid=[4, -3])

    @pytest.mark.parametrize("axes, message", [
        ({"lam_grid": [1.0, 0.5, 1]}, "penalty grid repeats 1.0"),
        ({"k_grid": [4, 2, 4]}, "sparsity grid repeats 4"),
        # refused before the levels above p are dropped
        ({"k_grid": [50, 50]}, "sparsity grid repeats 50"),
    ], ids=["lambda", "k", "k-above-p"])
    def test_repeated_value_rejected(self, axes, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            default_grids(10, **axes)

    def test_k_above_p_still_falls_back_to_p(self):
        assert {r.k for r in default_grids(10, k_grid=[12, 40]).sparc} \
            == {10}
        assert [r.k for r in default_grids(10, k_grid=[4, 12]).sparc[:1]] \
            == [4]


class TestGridSpec:
    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            GridSpec(lasso=(ElasticNet(1.0, 1.0),))

    def test_grid_for_unknown_method(self):
        with pytest.raises(ValueError):
            GridSpec().grid_for("ridge")

    def test_repeated_point_rejected(self):
        with pytest.raises(ValueError,
                           match=r"^sparc grid repeats Sparc\(lam=1.0, k=4\)$"):
            GridSpec(sparc=(Sparc(1.0, 4), Sparc(0.5, 4), Sparc(1, 4.0)))


class TestGridSearch:
    def test_single_point_grid(self):
        from sparcreg.data import generate_synthetic
        ds = generate_synthetic(_tiny_spec())
        reg, e = grid_search(ds, (Lasso(0.5),))
        assert reg == Lasso(0.5)
        assert e.shape == (ds.p,)

    def test_selection_is_always_a_grid_point(self):
        from sparcreg.data import generate_synthetic
        ds = generate_synthetic(_tiny_spec(1))
        grid = _tiny_grids().oscar
        reg, _ = grid_search(ds, grid)
        assert reg in grid

    def test_exact_tie_keeps_earlier_point(self):
        # both penalties exceed ||A^T y||_inf, so both solutions are exactly
        # zero and the validation scores tie; the earlier point must win
        from sparcreg.data import generate_synthetic
        ds = generate_synthetic(_tiny_spec(2))
        bound = float(np.abs(ds.A.T @ ds.y).max())
        grid = (Lasso(2.0 * bound), Lasso(3.0 * bound))
        reg, e = grid_search(ds, grid)
        assert reg == grid[0]
        npt.assert_array_equal(e, np.zeros(ds.p))

    def test_classification_prefers_higher_accuracy(self):
        ds = generate_grouped_classification(ClassificationSpec(
            n_train=40, n_validation=30, n_test=10, n_irrelevant=5,
            margin_noise_sd=0.1, seed=3))
        from sparcreg.metrics import cla
        A_val, y_val = ds.part("validation")
        strong, weak = Lasso(50.0), Lasso(0.05)
        reg, e = grid_search(ds, (strong, weak))
        assert reg == weak
        assert cla(A_val, y_val, e) > 50.0

    def test_empty_grid_rejected(self):
        from sparcreg.data import generate_synthetic
        ds = generate_synthetic(_tiny_spec())
        with pytest.raises(ValueError):
            grid_search(ds, ())

    @pytest.mark.parametrize("grid, error, message", [
        ((Lasso(1.0), Oscar(1.0, 0.1), Lasso(1.0)), ValueError,
         r"^the grid repeats Lasso\(lam1=1.0\)$"),
        ((Lasso(1.0), 0.5), TypeError,
         "^the grid holds float, expected Regularizer$"),
    ], ids=["repeated-point", "not-a-regularizer"])
    def test_bad_grid_rejected_before_any_solve(self, monkeypatch, grid,
                                                error, message):
        from sparcreg.data import generate_synthetic
        solved = []
        monkeypatch.setattr(experiment, "sparsa_solve",
                            lambda obj, **kwargs: solved.append(obj))
        ds = generate_synthetic(_tiny_spec())
        with pytest.raises(error, match=message):
            grid_search(ds, grid)
        assert solved == []

    def test_design_checked_once_per_search(self, monkeypatch):
        # every grid point's Objective shares the train one's checked arrays
        from sparcreg.data import generate_synthetic
        from sparcreg.solver import Objective
        checked = []
        check = Objective.__post_init__

        def counting_check(obj):
            checked.append(obj.reg)
            check(obj)

        solved = []
        solve = experiment.sparsa_solve

        def recording_solve(obj, **kwargs):
            solved.append(obj)
            return solve(obj, **kwargs)

        monkeypatch.setattr(Objective, "__post_init__", counting_check)
        monkeypatch.setattr(experiment, "sparsa_solve", recording_solve)
        ds = generate_synthetic(_tiny_spec())
        grid = _tiny_grids().oscar + _tiny_grids().sparc
        grid_search(ds, grid)
        assert checked == [grid[0]]
        assert [obj.reg for obj in solved] == list(grid)
        assert all(obj.A is solved[0].A and obj.y is solved[0].y
                   for obj in solved)


class TestRunRepetitions:
    def test_single_repetition_has_zero_std(self):
        rep = run_repetitions(_tiny_spec(), _tiny_grids(), repetitions=1,
                              master_seed=5)
        for m in rep.methods:
            s = rep.summary[m]
            assert s["failures"] == 0
            for v in s["std"].values():
                assert v == 0.0

    def test_deterministic_report(self):
        a = run_repetitions(_tiny_spec(), _tiny_grids(), repetitions=2,
                            master_seed=9)
        b = run_repetitions(_tiny_spec(), _tiny_grids(), repetitions=2,
                            master_seed=9)
        assert a.to_json_dict() == b.to_json_dict()

    def test_mean_lies_between_extremes(self):
        rep = run_repetitions(_tiny_spec(), _tiny_grids(), repetitions=4,
                              master_seed=1, methods=("lasso",))
        vals = [r["MSE"] for r in rep.per_repetition["lasso"]]
        mean = rep.summary["lasso"]["mean"]["MSE"]
        assert min(vals) <= mean <= max(vals)
        assert mean == pytest.approx(np.mean(vals))

    def test_solver_failure_is_recorded_not_raised(self, monkeypatch):
        def explode(*args, **kwargs):
            raise SolverDivergenceError("synthetic failure")

        monkeypatch.setattr(experiment, "sparsa_solve", explode)
        rep = run_repetitions(_tiny_spec(), _tiny_grids(), repetitions=2,
                              methods=("lasso",))
        s = rep.summary["lasso"]
        assert s["failures"] == 2
        assert s["mean"] == {}
        assert all(e and "synthetic failure" in e
                   for e in rep.errors["lasso"])
        assert rep.per_repetition["lasso"] == [None, None]

    def test_dataset_source_rejected(self):
        # a Dataset is fitted by grid_search or `sparcreg fit`; repetitions
        # regenerate their data from a spec
        rng = np.random.default_rng(12)
        base = Dataset(rng.normal(size=(40, 5)), rng.normal(size=40),
                       "regression")
        with pytest.raises(TypeError, match="unsupported source Dataset"):
            run_repetitions(base, _tiny_grids(), repetitions=2,
                            master_seed=3, methods=("lasso",))

    def test_argument_validation(self):
        for reps in (0, 2.5, float("nan")):
            with pytest.raises(ValueError, match="repetitions must be a "
                                                 "positive integer"):
                run_repetitions(_tiny_spec(), _tiny_grids(),
                                repetitions=reps)
        with pytest.raises(ValueError):
            run_repetitions(_tiny_spec(), _tiny_grids(), methods=("ridge",))
        with pytest.raises(ValueError):
            run_repetitions(_tiny_spec(), GridSpec(), methods=("lasso",))

    @pytest.mark.parametrize("seed", [-1, 2.5, True],
                             ids=["negative", "fractional", "boolean"])
    def test_master_seed_refused_before_solving(self, monkeypatch, seed):
        def solve(*args, **kwargs):
            raise AssertionError("solved before the seed was checked")

        monkeypatch.setattr(experiment, "sparsa_solve", solve)
        with pytest.raises(ValueError, match="seed must be a non-negative "
                                             "integer"):
            run_repetitions(_tiny_spec(), _tiny_grids(), repetitions=2,
                            master_seed=seed, methods=("lasso",))

    @pytest.mark.parametrize("methods, message", [
        (("lasso", "sparc", "lasso"), "method 'lasso' given twice"),
        ((), "no methods given"),
    ], ids=["repeated", "empty"])
    def test_method_list_checked(self, methods, message):
        with pytest.raises(ValueError, match=message):
            run_repetitions(_tiny_spec(), _tiny_grids(), methods=methods)


@pytest.fixture(scope="module")
def report():
    return run_repetitions(_tiny_spec(), _tiny_grids(), repetitions=2,
                           master_seed=4)


class TestReportArtifacts:
    def test_table_layout(self, report):
        lines = format_table(report).splitlines()
        assert lines[0] == "metric,lasso,enet,oscar,sparc"
        assert len(lines) == 1 + len(report.metric_names)
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 5
            assert all("±" in c for c in cells[1:])

    def test_emit_and_load_round_trip(self, report, tmp_path):
        csv_path, json_path, profile_path = emit_table(report, tmp_path)
        back = load_report(json_path)
        assert back == report

    def test_profile_rows_cover_every_coefficient(self, report, tmp_path):
        _, _, profile_path = emit_table(report, tmp_path)
        lines = Path(profile_path).read_text().splitlines()
        p = report.profile["index"][-1]
        assert len(lines) == 1 + p
        assert lines[0] == "index,true,lasso,enet,oscar,sparc"
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == report.profile["true"][0]

    def test_double_emit_is_byte_identical(self, report, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        paths1 = emit_table(report, d1)
        paths2 = emit_table(report, d2)
        for p1, p2 in zip(paths1, paths2):
            assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_unsupported_schema_rejected(self, report, tmp_path):
        _, json_path, _ = emit_table(report, tmp_path)
        blob = json.loads(Path(json_path).read_text())
        blob["schema_version"] = 99
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(blob))
        with pytest.raises(ValueError):
            load_report(bad)

    @pytest.mark.parametrize("blob, message", [
        ([1, 2], "report is not a JSON object"),
        ({"schema_version": 1}, "report has no field 'task'"),
    ], ids=["array", "missing-field"])
    def test_malformed_report_rejected(self, tmp_path, blob, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match=message):
            load_report(bad)
