import numpy as np
import numpy.testing as npt
import pytest

from sparcreg.data import ClassificationSpec, SyntheticSpec, \
    generate_grouped_classification, generate_synthetic
from sparcreg.metrics import (
    MetricsReport,
    MetricUnavailableError,
    cla,
    compute_report,
    dof,
    mae,
    mse,
    nnz,
    ser,
)

from oracles import dof_union_find


class TestMae:
    def test_identity_design(self):
        # per-row differences (1, -1): |1| + |-1| = 2
        assert mae(np.eye(2), np.array([1.0, 0.0]),
                   np.array([0.0, 1.0])) == pytest.approx(2.0)

    def test_sum_not_mean(self):
        A = np.ones((4, 1))
        assert mae(A, np.array([1.0]), np.array([0.0])) == pytest.approx(4.0)

    def test_requires_truth(self):
        with pytest.raises(MetricUnavailableError):
            mae(np.eye(2), None, np.zeros(2))


class TestMse:
    def test_identity_design(self):
        assert mse(np.eye(2), np.array([1.0, 0.0]),
                   np.array([0.0, 1.0])) == pytest.approx(2.0)

    def test_scales_quadratically(self):
        A = np.ones((3, 1))
        assert mse(A, np.array([2.0]), np.array([0.0])) == pytest.approx(12.0)


class TestSer:
    def test_worked_example(self):
        # | |3|-|2| | + | |0|-|1| | = 2, over p=2 -> 1 -> 100%
        assert ser(np.array([3.0, 0.0]),
                   np.array([2.0, 1.0])) == pytest.approx(100.0)

    def test_sign_blind(self):
        x = np.array([1.5, -2.0, 0.0])
        assert ser(x, -x) == pytest.approx(0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ser(np.array([1.0]), np.array([1.0, 2.0]))


class TestDof:
    def test_merges_close_magnitudes(self):
        assert dof(np.array([1.00004, 1.0, 5.0])) == 2

    def test_counts_distinct_classes(self):
        assert dof(np.array([3.0, -3.0, 1.0, 0.0])) == 2

    def test_zero_vector(self):
        assert dof(np.zeros(4)) == 0

    def test_sign_ignored(self):
        assert dof(np.array([2.0, -2.0])) == 1

    def test_zero_tolerance_filters_tiny_entries(self):
        assert dof(np.array([1e-9, 5.0])) == 1

    def test_matches_union_find_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            p = int(rng.integers(1, 15))
            e = rng.normal(0, 1, size=p)
            # sprinkle exact duplicates, near-duplicates and zeros
            if p >= 3:
                e[1] = e[0] * (1 + 1e-5 * rng.normal())
                e[2] = 0.0
            assert dof(e) == dof_union_find(e)


class TestCla:
    def test_zero_estimate_predicts_plus_one(self):
        A = np.eye(4)
        y = np.array([1.0, -1.0, 1.0, -1.0])
        assert cla(A, y, np.zeros(4)) == pytest.approx(50.0)

    def test_perfect_and_inverted(self):
        A = np.array([[1.0], [-1.0]])
        y = np.array([1.0, -1.0])
        assert cla(A, y, np.array([2.0])) == pytest.approx(100.0)
        assert cla(A, y, np.array([-2.0])) == pytest.approx(0.0)

    def test_empty_test_rows_rejected(self):
        with pytest.raises(ValueError):
            cla(np.empty((0, 2)), np.empty(0), np.zeros(2))


class TestNnz:
    def test_threshold(self):
        assert nnz(np.array([0.0, 1e-9, 1e-7, -2.0])) == 2

    def test_all_zero(self):
        assert nnz(np.zeros(3)) == 0


class TestMetricsReport:
    def test_dof_cannot_exceed_nnz(self):
        with pytest.raises(ValueError):
            MetricsReport(DoF=3, NNZ=2)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            MetricsReport(SER=-1.0)
        with pytest.raises(ValueError):
            MetricsReport(CLA=101.0)


class TestComputeReport:
    def test_regression_with_truth(self):
        ds = generate_synthetic(SyntheticSpec(
            n_train=6, n_validation=3, n_test=4, n_irrelevant=2, seed=5))
        rep = compute_report(ds, ds.x_true)
        assert rep.MAE == pytest.approx(0.0)
        assert rep.MSE == pytest.approx(0.0)
        assert rep.SER == pytest.approx(0.0)
        assert rep.DoF == 1            # all nonzeros share one magnitude
        assert rep.NNZ == 15
        assert rep.CLA is None

    def test_regression_without_truth_keeps_sparsity_metrics(self):
        ds = generate_synthetic(SyntheticSpec(
            n_train=6, n_validation=3, n_test=4, n_irrelevant=2, seed=5))
        from sparcreg.data import Dataset
        blind = Dataset(ds.A, ds.y, "regression", split=ds.split)
        rep = compute_report(blind, ds.x_true)
        assert rep.MAE is None and rep.MSE is None and rep.SER is None
        assert rep.DoF == 1 and rep.NNZ == 15

    def test_classification(self):
        ds = generate_grouped_classification(ClassificationSpec(
            n_train=10, n_validation=5, n_test=8, n_irrelevant=3, seed=6))
        rep = compute_report(ds, ds.x_true)
        assert rep.CLA is not None and 0 <= rep.CLA <= 100
        assert rep.MAE is None
        assert rep.NNZ == 15

    def test_row_order_invariance(self):
        ds = generate_synthetic(SyntheticSpec(
            n_train=6, n_validation=3, n_test=5, n_irrelevant=2, seed=8))
        rng = np.random.default_rng(0)
        perm = rng.permutation(ds.n)
        from sparcreg.data import Dataset
        shuffled = Dataset(ds.A[perm], ds.y[perm], "regression",
                           ds.x_true, ds.split[perm], ds.feature_names)
        e = rng.normal(size=ds.p)
        a = compute_report(ds, e)
        b = compute_report(shuffled, e)
        assert a.MAE == pytest.approx(b.MAE)
        assert a.MSE == pytest.approx(b.MSE)
        assert a == b or (a.MAE == pytest.approx(b.MAE)
                          and a.DoF == b.DoF and a.NNZ == b.NNZ)
