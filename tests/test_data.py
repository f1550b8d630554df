import csv
import io
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from sparcreg import data
from sparcreg.cli import main
from sparcreg.data import (
    SPLIT_NAMES,
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
    top_correlation_screen,
    write_csv,
)
from sparcreg.experiment import grid_search
from sparcreg.metrics import compute_report
from sparcreg.regularizers import Lasso
from sparcreg.solver import Objective, sparsa_solve
import oracles
from oracles import generate_hstack, load_csv_percell, write_csv_rowwise


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

    @pytest.mark.parametrize("spec", [SyntheticSpec, ClassificationSpec])
    @pytest.mark.parametrize("seed", [-1, 2.5, True, None],
                             ids=["negative", "fractional", "boolean", "none"])
    def test_seed_refused_at_construction(self, spec, seed):
        # numpy refused the first three only when the data was generated,
        # and drew fresh entropy for None
        with pytest.raises(ValueError, match=f"seed must be a non-negative "
                                             f"integer, got {seed}"):
            spec(seed=seed)

    def test_integral_seed_stored_as_int(self):
        spec = SyntheticSpec(seed=np.int64(7))
        assert type(spec.seed) is int
        npt.assert_array_equal(generate_synthetic(spec).A,
                               generate_synthetic(SyntheticSpec(seed=7)).A)


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


# (seed, spec fields): default sizes, a single train row, a single
# feature, no tail columns, and p = 200 and 10 000
_GENERATOR_CASES = [
    (seed, fields) for seed in (0, 1, 7919) for fields in (
        {},
        {"n_train": 1},
        {"n_groups": 1, "group_size": 1, "n_irrelevant": 0},
        {"n_irrelevant": 0},
        {"n_irrelevant": 185},
    )
] + [(seed, {"n_irrelevant": 9985, "n_train": 200, "n_validation": 100,
             "n_test": 100}) for seed in (0, 7919)]


class TestGeneratorMatchesOracle:
    """The in-place generators give the bytes of the hstack-and-copy
    generator they replaced (``tests/oracles.py``)."""

    @pytest.mark.parametrize("seed,fields", _GENERATOR_CASES)
    def test_regression(self, seed, fields):
        spec = SyntheticSpec(seed=seed, **fields)
        ds = generate_synthetic(spec)
        A, y = generate_hstack(spec)
        assert ds.A.tobytes() == A.tobytes()
        assert ds.y.tobytes() == y.tobytes()

    @pytest.mark.parametrize("seed,fields", _GENERATOR_CASES)
    def test_classification(self, seed, fields):
        spec = ClassificationSpec(seed=seed, **fields)
        ds = generate_grouped_classification(spec)
        A, y = generate_hstack(spec, classify=True)
        assert ds.A.tobytes() == A.tobytes()
        assert ds.y.tobytes() == y.tobytes()


def _traced_peak(fn):
    """(result of fn(), bytes allocated at fn's peak above its start)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


class TestLargeDesignMemory:
    """A large design exists once, plus the solver's column-major copy of
    the train rows.  The hstack generator peaked at 2.55 A.nbytes, and
    ``grid_search`` at 2.01 times the train bytes."""

    SPEC = SyntheticSpec(n_irrelevant=9985, n_train=200, n_validation=100,
                         n_test=100, seed=0)

    def test_generation_peak(self):
        ds, peak = _traced_peak(lambda: generate_synthetic(self.SPEC))
        assert peak <= 1.6 * ds.A.nbytes

    def test_grid_search_makes_one_copy(self):
        ds = generate_synthetic(self.SPEC)
        _, peak = _traced_peak(lambda: grid_search(ds, [Lasso(4.0)]))
        assert peak <= 1.25 * ds.part("train")[0].nbytes

    def test_grid_search_over_a_resplit_makes_one_copy(self):
        # scattered train rows go straight into the column-major copy; a
        # row-major copy on the way peaked at 2.01 times the train bytes,
        # 1.34 times the train and validation bytes.  The scattered
        # validation rows are copied (0.5 times the train bytes here)
        ds = split_dataset(generate_synthetic(self.SPEC), (0.5, 0.25, 0.25),
                           seed=3)
        row_bytes = ds.p * 8
        train_bytes = np.count_nonzero(ds.mask("train")) * row_bytes
        val_bytes = np.count_nonzero(ds.mask("validation")) * row_bytes
        (_, e), peak = _traced_peak(lambda: grid_search(ds, [Lasso(4.0)]))
        assert peak <= 1.25 * (train_bytes + val_bytes)
        # the bytes of a solve on a row-major copy of the train rows
        A, y = ds.part("train")
        x = sparsa_solve(Objective(A, y, Lasso(4.0))).x
        assert e.tobytes() == x.tobytes()


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

    @pytest.mark.parametrize("entry", [np.nan, np.inf],
                             ids=["nan", "inf"])
    def test_non_finite_truth_rejected(self, entry):
        # at the boundary, not first in compute_report
        with pytest.raises(ValueError,
                           match="^x_true contains non-finite entries$"):
            Dataset(np.ones((2, 2)), np.ones(2), "regression",
                    x_true=[entry, 1.0])

    def test_part_requires_split(self):
        ds = Dataset(np.ones((2, 2)), np.ones(2), "regression")
        with pytest.raises(ValueError):
            ds.part("train")


def _check_part(ds, name, contiguous):
    m = ds.mask(name)
    for got, full in zip(ds.part(name), (ds.A, ds.y)):
        assert got.tobytes() == full[m].tobytes()
        assert got.shape == full[m].shape
        assert got.flags.c_contiguous and not got.flags.writeable
        assert np.shares_memory(got, full) == contiguous
        with pytest.raises(ValueError):
            got[...] = 0.0


def _is_block(mask):
    idx = np.flatnonzero(mask)
    return idx.size > 0 and idx[-1] - idx[0] + 1 == idx.size


class TestDatasetPart:
    """``part`` holds the bytes of mask indexing, read-only, as a view
    exactly when the rows are one contiguous block."""

    @pytest.mark.parametrize("labels", [
        "TTVVEE", "EETTTV", "VTTTTE", "TVTVEE", "TEETVV", "ETVTVE"])
    def test_contract(self, labels):
        names = {"T": "train", "V": "validation", "E": "test"}
        split = [names[c] for c in labels]
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(6, 3)), rng.normal(size=6),
                     "regression", split=split)
        for name in SPLIT_NAMES:
            _check_part(ds, name, _is_block(ds.mask(name)))
        assert ds.A.flags.writeable and ds.y.flags.writeable

    def test_generated_parts_are_views(self):
        ds = generate_synthetic()
        for name in SPLIT_NAMES:
            _check_part(ds, name, True)

    def test_csv_parts_are_views(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(generate_synthetic(SyntheticSpec(
            n_train=5, n_validation=4, n_test=3, n_irrelevant=2)), path)
        ds = load_csv(path, "label", "regression")
        for name in SPLIT_NAMES:
            _check_part(ds, name, True)

    def test_scattered_split_is_copied(self):
        ds = split_dataset(generate_synthetic(), (0.5, 0.25, 0.25), seed=0)
        for name in SPLIT_NAMES:
            assert not _is_block(ds.mask(name))
            _check_part(ds, name, False)

    def test_column_major_rows_are_copied(self):
        base = generate_synthetic(SyntheticSpec(
            n_train=5, n_validation=4, n_test=3, n_irrelevant=2))
        ds = Dataset(np.asfortranarray(base.A), base.y, base.task,
                     split=base.split)
        A, y = ds.part("train")
        assert A.tobytes() == ds.A[ds.mask("train")].tobytes()
        assert A.flags.c_contiguous and not np.shares_memory(A, ds.A)
        assert np.shares_memory(y, ds.y)


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

    @pytest.mark.parametrize("features, label_column, split, clash", [
        (("label", "b"), "label", False, "label"),
        (("a", "split"), "label", True, "split"),
        (("a", " y "), "y", False, "y"),
        (("a", "b"), "split", True, "split"),
        (("a", "a"), "label", False, "a"),
        (("split", "b"), "label", False, "split"),
    ], ids=["label", "split", "stripped", "label-is-split", "features",
            "split-not-written"])
    def test_clashing_column_names_rejected(self, tmp_path, features,
                                            label_column, split, clash):
        ds = Dataset(np.ones((3, 2)), [1.0, 2.0, 3.0], "regression",
                     split=["train", "validation", "test"] if split else None,
                     feature_names=features)
        path = tmp_path / "d.csv"
        with pytest.raises(ValueError, match=f"column '{clash}'"):
            write_csv(ds, path, label_column=label_column)
        assert not path.exists()


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

    def test_default_label_may_not_be_the_split_column(self, tmp_path):
        path = self._write(tmp_path, "a,label\n1,train\n2,test\n")
        with pytest.raises(DataError) as exc:
            load_csv(path, None, "regression", split_column="label")
        assert str(exc.value) == "label and split columns must differ"

    def test_single_feature_column(self, tmp_path):
        path = self._write(tmp_path, "x,label\n12,1\n345,2\n")
        ds = load_csv(path, "label", "regression")
        npt.assert_array_equal(ds.A, [[12.0], [345.0]])

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

    @pytest.mark.parametrize("cell", ["1_0", "\u0661"],
                             ids=["underscore", "arabic-indic-digit"])
    def test_cell_only_float_reads_is_refused(self, tmp_path, cell):
        # Python's float takes these; numpy's reader and load_csv do not
        path = self._write(tmp_path, f"a,label\n{cell},2\n")
        with pytest.raises(DataError) as exc:
            load_csv(path, "label", "regression")
        assert str(exc.value) == (
            f"line 2, column 'a': could not parse {cell!r} as a number")

    def test_no_fault_found_names_file_and_reason(self, tmp_path,
                                                  monkeypatch):
        path = self._write(tmp_path, "a,label\n1,2\n3,4\n")

        def refuse(*args, **kwargs):
            raise ValueError("refused by the reader")

        monkeypatch.setattr(np, "loadtxt", refuse)
        with pytest.raises(DataError) as exc:
            load_csv(path, "label", "regression")
        assert str(exc.value) == f"{path}: refused by the reader"

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

    @pytest.mark.parametrize("text, message", [
        ("a,a,label\n1,2,3\n", "line 1: duplicate column 'a'"),
        ("\nlabel,b, label\n1,2,3\n", "line 2: duplicate column 'label'"),
    ], ids=["feature", "label-after-blank-line"])
    def test_duplicate_column_rejected(self, tmp_path, text, message):
        path = self._write(tmp_path, text)
        with pytest.raises(DataError) as exc:
            load_csv(path, "label", "regression")
        assert str(exc.value) == message

    @pytest.mark.parametrize("label, names", [
        ("y", ("a", "b")), ("b", ("y", "a")),
    ], ids=["label-first", "feature-first"])
    def test_byte_order_mark_skipped(self, tmp_path, label, names):
        # Excel's "CSV UTF-8" export starts the file with one
        path = tmp_path / "data.csv"
        path.write_text("\ufeffy,a,b\n1,2,3\n4,5,6\n", encoding="utf-8")
        ds = load_csv(path, label, "regression")
        assert ds.feature_names == names

    def test_split_column_opt_out_keeps_it_as_feature(self, tmp_path):
        path = self._write(tmp_path, "a,split,label\n1,4,2\n")
        ds = load_csv(path, "label", "regression", split_column=None)
        assert ds.feature_names == ("a", "split")
        assert ds.split is None


def _random_dataset(rng, split, names):
    n, p = int(rng.integers(1, 12)), len(names)
    A = rng.standard_normal((n, p)) * 10.0 ** rng.integers(-30, 30, (n, p))
    special = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, 0.1])
    mask = rng.random((n, p)) < 0.3
    A[mask] = rng.choice(special, int(mask.sum()))
    y = (rng.choice(special, n) if rng.random() < 0.5
         else rng.standard_normal(n))
    return Dataset(A, y, "regression",
                   split=rng.choice(SPLIT_NAMES, n) if split else None,
                   feature_names=names)


def _random_cell(rng):
    v = float(rng.standard_normal() * 10.0 ** rng.integers(-5, 5))
    text = str(rng.choice([repr(v), f"{v:.3g}", f"{v:e}", "+.5e-3",
                           "-0", "7", "12", "1e300", "5e-324"]))
    pad = ["", "", " ", "\t", "\xa0", "\x1c"]
    return str(rng.choice(pad)) + text + str(rng.choice(pad))


class TestCsvMatchesOracles:
    """The streaming writer and the one-loop reader against the literal
    per-cell code they replaced (``tests/oracles.py``)."""

    @pytest.mark.parametrize("seed", range(30))
    def test_write_csv_bytes(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        names = [["a,b", 'q"x', "f 3"], ["x"], [], ["f1", "f2", "c\nd"]]
        ds = _random_dataset(rng, split=seed % 2 == 0,
                             names=names[seed % len(names)])
        label = ["label", "y", "target,1"][seed % 3]
        write_csv(ds, tmp_path / "new.csv", label_column=label)
        write_csv_rowwise(ds, tmp_path / "old.csv", label_column=label)
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "old.csv").read_bytes())

    @pytest.mark.parametrize("seed", range(30))
    def test_load_csv_arrays(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(2, 10)), int(rng.integers(1, 6))
        task = ("regression", "classification")[seed % 2]
        header = [f"c{j}" for j in range(p)] + ["label", "split"]
        order = rng.permutation(len(header))
        lines = [",".join(header[j] for j in order)]
        for i in range(n):
            cells = [_random_cell(rng) for _ in range(p)]
            if task == "classification":
                cells.append(str(rng.choice([" 0", "1 ", "+1", "1.0"]))
                             if i > 1 else str(i))
            else:
                cells.append(_random_cell(rng))
            cells.append(" " + str(rng.choice(SPLIT_NAMES)) + " ")
            lines.append(",".join(cells[j] for j in order))
            if rng.random() < 0.2:
                lines.append("")
        path = tmp_path / "d.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        new = load_csv(path, "label", task)
        old = load_csv_percell(path, "label", task)
        assert new.A.tobytes() == old.A.tobytes()
        assert new.y.tobytes() == old.y.tobytes()
        assert new.split.tolist() == old.split.tolist()
        assert new.feature_names == old.feature_names

    @pytest.mark.parametrize("text, label, task, split_column", [
        ("", "label", "regression", "split"),
        ("a,label\n", "label", "regression", "split"),
        ("a,b\n1,2\n", "y", "regression", "split"),
        ("label\n1\n", "label", "regression", "split"),
        ("a,label,split\n1,2,train\n", "label", "regression", "label"),
        ("a,label,split\n1,2,train\n", "label", "ranking", "split"),
        ("a,b,label\n1,2,3\n1,2\n", "label", "regression", "split"),
        ("a,b,label\n1,2,3\n\n1,2,3,4\n", "label", "regression", "split"),
        ("a,b,label\n1,2,3\n1,oops,3\n", "label", "regression", "split"),
        ("a,b,label\n1,2,3\n\n1, ,3\n", "label", "regression", "split"),
        ("a,b,label\n1,2,3\n1,2,x\n", "label", "regression", "split"),
        ("a,b,label\n1,2,3\n1, nan ,3\n", "label", "regression", "split"),
        ("a,b,label\n1,inf,3\n1,nan,3\n", "label", "regression", "split"),
        ("a,b,label\n1,2,nan\n1,nan,3\n", "label", "regression", "split"),
        ("a,b,label\n1,2,0\n3,4,1\n5,6,-inf\n", "label",
         "classification", "split"),
        ("a,label,split\n1,2,train\n3,4,dev\n", "label", "regression",
         "split"),
        ("a,label,split\n1,x,train\n3,4,dev\n", "label", "regression",
         "split"),
        ("a,label,split\nx,2,dev\n", "label", "regression", "split"),
        ("a,label\n1,0\n2,1\n3,2\n", "label", "classification", "split"),
        ("a,label\n1,0\n2,x\n3,2\n", "label", "classification", "split"),
        ("a,label\n1,1\n2,1\n", "label", "classification", "split"),
    ])
    def test_load_csv_errors(self, tmp_path, text, label, task,
                             split_column):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(DataError) as old:
            load_csv_percell(path, label, task, split_column)
        with pytest.raises(DataError) as new:
            load_csv(path, label, task, split_column)
        assert str(new.value) == str(old.value)


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text, task", [
        ("a,label\r\n1,2\r\n3,4\r\n", "regression"),
        ("a,label\r1,2\r\r3,4\r", "regression"),
        ("a,label\n1,2,3\n4,5,6\n", "regression"),
        ("a,label\n1,2,\n3,4,\n", "regression"),
        ("a,label\n1,2\n  \n3,4\n", "regression"),
        ("a,label\n1,2\n\f\n3,4\n", "regression"),
        ('a,label\n"1",2\n3,4\n', "regression"),
        ('a,label\n"1,5",2\n3,4\n', "regression"),
        ('a,label,split\n1,2,"train"\n3,4,test\n', "regression"),
        ("a,label\n1,2\n#3,4\n", "regression"),
        ("\n\n a , label\n1,2\n3,4\n", "regression"),
        ('"a\nb",label\n1,2\n3,4\n', "regression"),
        ("a,label\n\n\n", "regression"),
        ("a,label\n1_0,2\n3,4\n", "regression"),
        ("a,label\n\u0661,2\n3,4\n", "regression"),
        ("a,label\n1e400,2\n3,4\n", "regression"),
        ("a,label\n\xa01\xa0,2\n3,\xa04\n", "regression"),
        ("a,label\n1,0\n2,1\n3,2\n", "classification"),
    ], ids=["crlf", "cr", "narrow-header", "trailing-comma",
            "whitespace-line", "form-feed-line", "quoted-number",
            "quoted-comma", "quoted-split", "hash", "blank-before-header",
            "two-line-header", "header-and-blank-lines", "underscore",
            "arabic-indic-digit", "overflow", "nbsp", "three-classes"])
    def test_load_csv_fallback_rules(self, tmp_path, text, task):
        """Inputs at the edges of numpy's reader (odd line ends, quotes,
        blank or ragged lines, padding, odd cells) read or fail as the
        per-cell oracle reads them, warning-free."""
        path = tmp_path / "d.csv"
        path.write_text(text, encoding="utf-8", newline="")
        try:
            old = load_csv_percell(path, "label", task)
        except DataError as exc:
            with pytest.raises(DataError) as new:
                load_csv(path, "label", task)
            assert str(new.value) == str(exc)
            return
        new = load_csv(path, "label", task)
        assert new.A.tobytes() == old.A.tobytes()
        assert new.y.tobytes() == old.y.tobytes()
        assert (new.split is None) == (old.split is None)
        if old.split is not None:
            assert new.split.tolist() == old.split.tolist()
        assert new.feature_names == old.feature_names


_GRAMMAR_CELLS = [
    "1", " 1 ", "\t1", "\f1", "\v1", "\xa01\xa0", "\x1c1\x1f", "\u30001",
    "1\x85", "1_0", "_1", "\u0661", "\uff11", "1\u200b", "\ufeff1",
    "+.5e-3", "-0", "1.", ".", "1e", "e1", "1e400", "5e-324", "0x10",
    "0b1", "1d3", "1j", "nAn", "+nan", "nan(1)", "Infinity", "-iNf", "in f",
    "1 2", "--1", "", " ", "\x001",
]


@pytest.mark.parametrize("cell", _GRAMMAR_CELLS)
def test_cell_grammar_is_numpys(cell):
    """numpy's reader takes a cell exactly when the fault locator and the
    per-cell oracle do, and reads the same double."""
    try:
        M = np.loadtxt(io.StringIO(cell + ",2\n"), delimiter=",",
                       comments=None, quotechar='"', ndmin=2)
    except ValueError:
        M = None
    try:
        v = data._parse_cell(cell, 2, "a")
    except DataError:
        v = None
    try:
        w = oracles._parse_cell(cell.strip(), 2, "a")
    except DataError:
        w = None
    assert (M is None) == (v is None) == (w is None)
    if M is not None:
        assert M[0, 0].tobytes() == np.float64(v).tobytes()
        assert np.float64(w).tobytes() == np.float64(v).tobytes()


def _refuse(*args):
    raise AssertionError("the exact CSV path ran")


class TestCsvFastPath:
    """A file ``write_csv`` wrote never needs the csv-module body parser."""

    @pytest.mark.parametrize("seed", range(30))
    def test_regression(self, tmp_path, monkeypatch, capsys, seed):
        rng = np.random.default_rng(seed)
        names = [["a,b", 'q"x', "f 3"], ["x"], ["f1", "f2", "c\nd"]]
        ds = _random_dataset(rng, split=seed % 2 == 0,
                             names=names[seed % len(names)])
        path = tmp_path / "d.csv"
        write_csv(ds, path)
        monkeypatch.setattr(data, "_read_table", _refuse)
        back = load_csv(path, "label", "regression")
        assert back.A.tobytes() == ds.A.tobytes()
        assert back.y.tobytes() == ds.y.tobytes()
        assert back.feature_names == ds.feature_names
        if ds.split is None:
            assert back.split is None
        else:
            assert back.split.tolist() == ds.split.tolist()
        assert main(["describe", str(path)]) == 0
        assert capsys.readouterr().out.startswith(f"n={ds.n} p={ds.p}\n")

    @pytest.mark.parametrize("seed", range(3))
    def test_quoted_file(self, tmp_path, monkeypatch, capsys, seed):
        """A ``csv.QUOTE_ALL`` copy of a ``write_csv`` file, its header
        spanning two lines, reads as the file itself."""
        ds = _random_dataset(np.random.default_rng(seed), split=seed != 1,
                             names=["a,b", 'q"x', "c\nd"])
        path, quoted = tmp_path / "d.csv", tmp_path / "q.csv"
        write_csv(ds, path)
        with open(path, newline="", encoding="utf-8") as src, \
                open(quoted, "w", newline="", encoding="utf-8") as dst:
            csv.writer(dst, quoting=csv.QUOTE_ALL,
                       lineterminator="\n").writerows(csv.reader(src))
        assert quoted.read_text().startswith('"a,b","q""x","c\nd",')
        monkeypatch.setattr(data, "_read_table", _refuse)
        back = load_csv(quoted, "label", "regression")
        assert back.A.tobytes() == ds.A.tobytes()
        assert back.y.tobytes() == ds.y.tobytes()
        assert back.feature_names == ds.feature_names
        if ds.split is None:
            assert back.split is None
        else:
            assert back.split.tolist() == ds.split.tolist()
        shown = []
        for f in (path, quoted):
            assert main(["describe", str(f)]) == 0
            shown.append(capsys.readouterr().out)
        assert shown[0] == shown[1]

    def test_classification(self, tmp_path, monkeypatch, capsys):
        ds = generate_grouped_classification(ClassificationSpec(
            n_train=30, n_validation=20, n_test=10, n_irrelevant=5, seed=3))
        path = tmp_path / "d.csv"
        write_csv(ds, path, label_column="y")
        monkeypatch.setattr(data, "_read_table", _refuse)
        back = load_csv(path, "y", "classification")
        assert back.A.tobytes() == ds.A.tobytes()
        assert back.y.tobytes() == ds.y.tobytes()
        assert back.split.tolist() == ds.split.tolist()
        assert main(["describe", str(path)]) == 0
        assert "task=classification (inferred)" in capsys.readouterr().out


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

    @pytest.mark.parametrize("seed", [-1, 2.5, True],
                             ids=["negative", "fractional", "boolean"])
    def test_seed_refused(self, seed):
        with pytest.raises(ValueError, match=f"seed must be a non-negative "
                                             f"integer, got {seed}"):
            split_dataset(self._ds(10), (0.5, 0.3, 0.2), seed=seed)


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

    @pytest.mark.parametrize("tiny", [False, True])
    def test_norms_neither_overflow_nor_underflow(self, tiny):
        e = 1e-200 if tiny else 1e200
        A = np.array([[1.0 * e, 1.0], [2.0 * e, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled, scales = normalize_columns(A)
        npt.assert_allclose(scales, [np.sqrt(5.0) * e, np.sqrt(10.0)],
                            rtol=1e-15)
        npt.assert_allclose(scaled[:, 0], [1 / np.sqrt(5), 2 / np.sqrt(5)],
                            rtol=1e-15)
        # a column whose squares stay in range keeps the plain expression
        assert scales[1] == np.sqrt(1.0 + 9.0)

    def test_norm_beyond_float_range_rejected(self):
        A = np.array([[1.5e308, 1.0], [1.5e308, 2.0]])
        with pytest.raises(ValueError, match="'big' has a norm beyond"):
            normalize_columns(A, feature_names=("big", "ok"))

    def test_row_selection_errors_kept(self):
        A = np.ones((3, 2))
        with pytest.raises(IndexError):
            normalize_columns(A, train_rows=np.array([True, True]))
        with pytest.raises(IndexError):
            normalize_columns(A, train_rows=np.array([1, 2, 3]))

    @pytest.mark.parametrize("rows", [[1, 2], [2, 1], [-2, -1], [0, 2],
                                      [True, False, True],
                                      [False, True, True]])
    def test_row_selections_match_indexing(self, rows):
        A = np.array([[3.0, 1.0], [4.0, 2.0], [12.0, 2.0]])
        T = A[np.asarray(rows)]
        scaled, scales = normalize_columns(A, train_rows=rows)
        assert scales.tobytes() == np.sqrt((T * T).sum(axis=0)).tobytes()
        assert scaled.tobytes() == (A / scales).tobytes()

    def test_normalize_dataset_modes(self):
        base = generate_synthetic(SyntheticSpec(
            n_train=6, n_validation=3, n_test=3, n_irrelevant=1, seed=4))
        raw = Dataset(base.A * 7.0, base.y, "regression", base.x_true,
                      base.split, base.feature_names)
        l2, scales = normalize_dataset(raw)
        At, _ = l2.part("train")
        npt.assert_allclose(np.linalg.norm(At, axis=0), 1.0)
        npt.assert_allclose(scales, np.full(raw.p, 7.0))
        with pytest.raises(TypeError):
            normalize_dataset(raw, "l2")

    def test_normalized_truth_still_reproduces_the_response(self):
        # y = A x* + w must hold in the scaled units: the truth is
        # multiplied by the scales that divide the columns
        base = generate_synthetic(SyntheticSpec(
            n_train=6, n_validation=3, n_test=3, n_irrelevant=1,
            observation_noise_var=0.0, seed=4))
        raw = Dataset(base.A * 7.0, base.y, "regression", base.x_true / 7.0,
                      base.split, base.feature_names)
        npt.assert_allclose(raw.A @ raw.x_true, raw.y, rtol=1e-12)
        scaled, scales = normalize_dataset(raw)
        exact = raw.x_true * scales
        npt.assert_allclose(scaled.A @ exact, raw.y, rtol=1e-12)
        assert scaled.x_true.tobytes() == exact.tobytes()
        rep = compute_report(scaled, exact)
        assert rep.MSE == pytest.approx(0.0, abs=1e-20)
        assert rep.SER == 0.0


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

    def test_huge_column_keeps_its_rank(self):
        # squares of cells near 1e200 overflow; the norm must not
        rng = np.random.default_rng(3)
        y = rng.normal(size=60)
        A = rng.normal(size=(60, 4))
        A[:, 0] = y + 0.1 * A[:, 0]
        A[:, 0] *= 1e200
        split = np.asarray(["train"] * 40 + ["validation"] * 10
                           + ["test"] * 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds, keep = top_correlation_screen(
                Dataset(A, y, "regression", split=split), 1)
        npt.assert_array_equal(keep, [0])

    def test_invalid_m(self):
        for m in (0, 2.5, float("inf")):
            with pytest.raises(ValueError,
                               match="m must be a positive integer"):
                top_correlation_screen(self._ds(), m)
