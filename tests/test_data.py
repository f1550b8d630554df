import numpy as np
import numpy.testing as npt
import pytest

from sparcreg.data import (
    ClassificationSpec,
    DataError,
    Dataset,
    SyntheticSpec,
    generate_grouped_classification,
    generate_synthetic,
    load_csv,
    normalize_columns,
    normalize_dataset,
    split_dataset,
    standardize_columns,
    top_correlation_screen,
    write_csv,
)


class TestSyntheticRegression:
    def test_default_shapes_and_truth(self):
        ds = generate_synthetic()
        assert ds.A.shape == (260, 40)
        assert ds.task == "regression"
        npt.assert_array_equal(ds.x_true[:15], np.full(15, 3.0))
        npt.assert_array_equal(ds.x_true[15:], np.zeros(25))
        assert ds.feature_names[0] == "f1" and ds.feature_names[-1] == "f40"

    def test_split_sizes_and_order(self):
        ds = generate_synthetic()
        assert int(ds.mask("train").sum()) == 20
        assert int(ds.mask("validation").sum()) == 40
        assert int(ds.mask("test").sum()) == 200
        # contiguous layout: train rows first, then validation, then test
        assert set(ds.split[:20]) == {"train"}
        assert set(ds.split[60:]) == {"test"}

    def test_train_columns_have_unit_norm(self):
        ds = generate_synthetic()
        At, _ = ds.part("train")
        npt.assert_allclose(np.linalg.norm(At, axis=0), np.ones(40),
                            atol=1e-12)

    def test_response_uses_normalized_matrix(self):
        # y - A x_true must be pure observation noise, tiny by construction
        ds = generate_synthetic()
        w = ds.y - ds.A @ ds.x_true
        assert float(np.abs(w).max()) < 5 * np.sqrt(0.01) * 4

    def test_deterministic_in_seed(self):
        a = generate_synthetic(SyntheticSpec(seed=7))
        b = generate_synthetic(SyntheticSpec(seed=7))
        c = generate_synthetic(SyntheticSpec(seed=8))
        npt.assert_array_equal(a.A, b.A)
        npt.assert_array_equal(a.y, b.y)
        assert not np.array_equal(a.A, c.A)

    def test_within_group_correlation_level(self):
        # var ratio 1/(1+0.16) ~= 0.86 between columns sharing a factor
        spec = SyntheticSpec(n_train=4000, n_validation=3000, n_test=3000,
                             seed=123)
        ds = generate_synthetic(spec)
        same = np.corrcoef(ds.A[:, 0], ds.A[:, 1])[0, 1]
        across = np.corrcoef(ds.A[:, 0], ds.A[:, 5])[0, 1]
        noise = np.corrcoef(ds.A[:, 0], ds.A[:, 20])[0, 1]
        assert 0.80 <= same <= 0.92
        assert abs(across) < 0.1
        assert abs(noise) < 0.1

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_groups=0)
        with pytest.raises(ValueError):
            SyntheticSpec(within_noise_var=-0.1)
        with pytest.raises(ValueError):
            SyntheticSpec(n_train=0)


class TestSyntheticClassification:
    def test_shapes_labels_and_splits(self):
        ds = generate_grouped_classification()
        assert ds.A.shape == (300, 100)
        assert ds.task == "classification"
        assert set(np.unique(ds.y)) == {-1.0, 1.0}
        assert int(ds.mask("train").sum()) == 150
        assert int(ds.mask("validation").sum()) == 90
        assert int(ds.mask("test").sum()) == 60
        assert np.count_nonzero(ds.x_true) == 15

    def test_labels_not_perfectly_separable(self):
        # the planted margin noise must actually flip some labels
        ds = generate_grouped_classification(ClassificationSpec(seed=3))
        clean = np.where(ds.A @ ds.x_true >= 0, 1.0, -1.0)
        assert 0 < int((clean != ds.y).sum()) < ds.n

    def test_deterministic_in_seed(self):
        a = generate_grouped_classification(ClassificationSpec(seed=5))
        b = generate_grouped_classification(ClassificationSpec(seed=5))
        npt.assert_array_equal(a.A, b.A)
        npt.assert_array_equal(a.y, b.y)


class TestDatasetContainer:
    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((2, 2)), np.ones(3), "regression")
        with pytest.raises(ValueError):
            Dataset(np.ones((2, 2)), np.ones(2), "ranking")
        with pytest.raises(ValueError):
            Dataset(np.ones((2, 2)), np.array([1.0, 2.0]), "classification")
        with pytest.raises(ValueError):
            Dataset(np.ones((2, 2)), np.ones(2), "regression",
                    split=np.array(["train", "holdout"]))

    def test_part_requires_split(self):
        ds = Dataset(np.ones((2, 2)), np.ones(2), "regression")
        with pytest.raises(ValueError):
            ds.part("train")


class TestCsvRoundTrip:
    def test_regression_exact(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(
            n_train=5, n_validation=4, n_test=3, n_irrelevant=2, seed=1))
        path = tmp_path / "reg.csv"
        write_csv(ds, path)
        back = load_csv(path, "label", "regression")
        npt.assert_array_equal(back.A, ds.A)
        npt.assert_array_equal(back.y, ds.y)
        npt.assert_array_equal(back.split, ds.split)
        assert back.feature_names == ds.feature_names

    def test_classification_exact(self, tmp_path):
        ds = generate_grouped_classification(ClassificationSpec(
            n_train=8, n_validation=4, n_test=4, n_irrelevant=3, seed=2))
        path = tmp_path / "cls.csv"
        write_csv(ds, path)
        back = load_csv(path, "label", "classification")
        npt.assert_array_equal(back.A, ds.A)
        npt.assert_array_equal(back.y, ds.y)
        npt.assert_array_equal(back.split, ds.split)


class TestLoadCsvContract:
    def _write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return path

    def test_zero_one_labels_map_zero_to_minus_one(self, tmp_path):
        path = self._write(tmp_path, "a,b,label\n1,2,0\n3,4,1\n5,6,0\n")
        ds = load_csv(path, "label", "classification")
        npt.assert_array_equal(ds.y, [-1.0, 1.0, -1.0])
        assert ds.feature_names == ("a", "b")

    def test_ragged_row_reports_line(self, tmp_path):
        path = self._write(tmp_path, "a,b,label\n1,2,3\n1,2\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(path, "label", "regression")

    def test_bad_cell_reports_line_and_column(self, tmp_path):
        path = self._write(tmp_path, "a,b,label\n1,2,3\n1,oops,3\n")
        with pytest.raises(DataError, match="line 3.*'b'"):
            load_csv(path, "label", "regression")

    @pytest.mark.parametrize("text, task, message", [
        ("a,b,label\n1,2,3\n1, nan ,3\n", "regression",
         "line 3, column 'b': non-finite value 'nan'"),
        ("a,b,label\n1,2,0\n3,4,1\n5,6,-inf\n", "classification",
         "line 4, column 'label': non-finite value '-inf'"),
    ], ids=["feature", "label"])
    def test_non_finite_cell_reports_line_and_column(self, tmp_path, text,
                                                     task, message):
        path = self._write(tmp_path, text)
        with pytest.raises(DataError) as exc:
            load_csv(path, "label", task)
        assert str(exc.value) == message

    @pytest.mark.parametrize("row, message", [
        ("1,2", "line 4: expected 3 fields, found 2"),
        ("1,oops,3", "line 4, column 'b': could not parse 'oops'"),
        ("1,nan,3", "line 4, column 'b': non-finite value 'nan'"),
    ], ids=["field-count", "unparseable", "non-finite"])
    def test_line_numbers_count_blank_lines(self, tmp_path, row, message):
        path = self._write(tmp_path, f"a,b,label\n1,2,3\n\n{row}\n")
        with pytest.raises(DataError) as exc:
            load_csv(path, "label", "regression")
        assert str(exc.value).startswith(message)

    def test_bad_split_label_reports_line(self, tmp_path):
        path = self._write(tmp_path,
                           "a,label,split\n1,2,train\n3,4,dev\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(path, "label", "regression")

    def test_three_classes_rejected_with_line(self, tmp_path):
        path = self._write(tmp_path, "a,label\n1,0\n2,1\n3,2\n")
        with pytest.raises(DataError, match="line 4"):
            load_csv(path, "label", "classification")

    def test_single_class_rejected(self, tmp_path):
        path = self._write(tmp_path, "a,label\n1,1\n2,1\n")
        with pytest.raises(DataError, match="two distinct"):
            load_csv(path, "label", "classification")

    def test_missing_label_column(self, tmp_path):
        path = self._write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(DataError, match="'y' not found"):
            load_csv(path, "y", "regression")

    def test_empty_and_headers_only(self, tmp_path):
        with pytest.raises(DataError, match="empty"):
            load_csv(self._write(tmp_path, ""), "label", "regression")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(self._write(tmp_path, "a,label\n"), "label",
                     "regression")

    def test_split_column_opt_out_keeps_it_as_feature(self, tmp_path):
        path = self._write(tmp_path, "a,split,label\n1,4,2\n")
        ds = load_csv(path, "label", "regression", split_column=None)
        assert ds.feature_names == ("a", "split")
        assert ds.split is None


class TestSplitDataset:
    def _ds(self, n, seed=0):
        rng = np.random.default_rng(seed)
        return Dataset(rng.normal(size=(n, 3)), rng.normal(size=n),
                       "regression")

    def test_floor_rule_sizes(self):
        ds = split_dataset(self._ds(295), (0.5, 0.3, 0.2), seed=1)
        assert int(ds.mask("train").sum()) == 147
        assert int(ds.mask("validation").sum()) == 88
        assert int(ds.mask("test").sum()) == 60

    def test_exact_fractions_round_trip(self):
        ds = split_dataset(self._ds(10), (0.5, 0.3, 0.2), seed=1)
        assert int(ds.mask("train").sum()) == 5
        assert int(ds.mask("validation").sum()) == 3
        assert int(ds.mask("test").sum()) == 2

    def test_rows_stay_in_place(self):
        base = self._ds(20)
        ds = split_dataset(base, (0.5, 0.25, 0.25), seed=3)
        npt.assert_array_equal(ds.A, base.A)
        npt.assert_array_equal(ds.y, base.y)

    def test_deterministic(self):
        base = self._ds(50)
        a = split_dataset(base, (0.6, 0.2, 0.2), seed=9)
        b = split_dataset(base, (0.6, 0.2, 0.2), seed=9)
        c = split_dataset(base, (0.6, 0.2, 0.2), seed=10)
        npt.assert_array_equal(a.split, b.split)
        assert not np.array_equal(a.split, c.split)

    def test_degenerate_fractions_rejected(self):
        with pytest.raises(ValueError):
            split_dataset(self._ds(10), (1.0, 0.0, 0.0), seed=0)
        with pytest.raises(ValueError):
            split_dataset(self._ds(10), (0.5, 0.4, 0.2), seed=0)


class TestColumnScaling:
    def test_unit_norm_example(self):
        A = np.array([[3.0], [4.0]])
        scaled, scales = normalize_columns(A)
        npt.assert_allclose(scaled[:, 0], [0.6, 0.8])
        npt.assert_allclose(scales, [5.0])

    def test_train_rows_set_the_scale(self):
        A = np.array([[3.0], [4.0], [100.0]])
        scaled, scales = normalize_columns(A, train_rows=np.array([0, 1]))
        npt.assert_allclose(scales, [5.0])
        npt.assert_allclose(scaled[2, 0], 20.0)

    def test_zero_column_error_names_column(self):
        A = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="'x2'"):
            normalize_columns(A, feature_names=("x1", "x2"))

    def test_standardize(self):
        A = np.array([[1.0, 10.0], [3.0, 30.0], [5.0, 20.0]])
        Z, means, stds = standardize_columns(A)
        npt.assert_allclose(Z.mean(axis=0), [0.0, 0.0], atol=1e-12)
        npt.assert_allclose(Z.std(axis=0), [1.0, 1.0])
        npt.assert_allclose(means, [3.0, 20.0])

    def test_standardize_constant_column_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            standardize_columns(np.array([[1.0, 2.0], [1.0, 3.0]]),
                                feature_names=("c", "d"))

    def test_normalize_dataset_modes(self):
        base = generate_synthetic(SyntheticSpec(
            n_train=6, n_validation=3, n_test=3, n_irrelevant=1, seed=4))
        raw = Dataset(base.A * 7.0, base.y, "regression", base.x_true,
                      base.split, base.feature_names)
        l2, scales = normalize_dataset(raw, "l2")
        At, _ = l2.part("train")
        npt.assert_allclose(np.linalg.norm(At, axis=0), 1.0)
        npt.assert_allclose(scales, np.full(raw.p, 7.0))
        z, none_scales = normalize_dataset(raw, "zscore")
        assert none_scales is None
        At, _ = z.part("train")
        npt.assert_allclose(At.mean(axis=0), 0.0, atol=1e-12)
        same, _ = normalize_dataset(raw, "none")
        assert same is raw
        with pytest.raises(ValueError):
            normalize_dataset(raw, "minmax")


class TestCorrelationScreen:
    def _ds(self):
        # col 0 equals y on train rows; col 2 is constant on train rows but
        # tracks y elsewhere, so a leaky screen would keep it
        rng = np.random.default_rng(6)
        n = 12
        y = rng.normal(size=n)
        A = rng.normal(size=(n, 3)) * 0.1
        split = np.asarray(["train"] * 6 + ["validation"] * 3 + ["test"] * 3)
        A[:6, 0] = y[:6]
        A[:6, 2] = 1.0
        A[6:, 2] = y[6:]
        return Dataset(A, y, "regression", split=split,
                       feature_names=("s", "n", "leak"))

    def test_screens_on_training_rows_only(self):
        ds, keep = top_correlation_screen(self._ds(), 1)
        npt.assert_array_equal(keep, [0])
        assert ds.feature_names == ("s",)
        assert ds.p == 1

    def test_kept_indices_sorted_and_m_capped(self):
        base = self._ds()
        ds, keep = top_correlation_screen(base, 2)
        assert list(keep) == sorted(keep)
        all_ds, all_keep = top_correlation_screen(base, 10)
        npt.assert_array_equal(all_keep, [0, 1, 2])
        assert all_ds is base

    def test_truth_subsets_with_columns(self):
        base = generate_synthetic(SyntheticSpec(
            n_train=30, n_validation=5, n_test=5, seed=11))
        ds, keep = top_correlation_screen(base, 10)
        npt.assert_array_equal(ds.x_true, base.x_true[keep])

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            top_correlation_screen(self._ds(), 0)
