"""Dataset container, synthetic benchmark generators, and CSV ingestion.

The synthetic regression generator builds the grouped-covariates design:
three blocks of five columns share a per-sample latent factor, the rest
are independent noise columns, and the response comes from a 15-nonzero
coefficient vector.  A classification variant plants a linear separator
on the same block structure.

All randomness flows through ``numpy.random.default_rng(seed)``; every
function here is a pure function of its inputs and the seed.

``load_csv`` (and the CLI's ``describe``) read a CSV in ``_load_table``:
the ``csv`` module reads the header, numpy's C reader the body, quoted
or not.  Only where that reader refuses the body (an odd cell, a ragged
row, a non-finite value, a third class) does the ``csv`` module read it
again, to name the line and cell of the error.
"""

from __future__ import annotations

import csv
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .prox import _as_vector, _check_count

__all__ = [
    "SPLIT_NAMES",
    "DataError",
    "Dataset",
    "SyntheticSpec",
    "ClassificationSpec",
    "generate_synthetic",
    "generate_grouped_classification",
    "load_csv",
    "write_csv",
    "split_dataset",
    "normalize_columns",
    "normalize_dataset",
    "top_correlation_screen",
]

SPLIT_NAMES = ("train", "validation", "test")


class DataError(ValueError):
    """A dataset file or schema violated its contract."""


def _as_design(A):
    """A as a float array; ValueError unless it is 2-D."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"A must be 2-D, got shape {A.shape}")
    return A


@dataclass(frozen=True, eq=False)
class Dataset:
    """Design matrix with response, task tag, and optional extras.

    Parameters
    ----------
    A : ndarray, shape (n, p)
        Design matrix, rows are samples.
    y : ndarray, shape (n,)
        Response; for classification every entry is -1.0 or +1.0.
    task : {"regression", "classification"}
    x_true : ndarray or None
        Ground-truth coefficients when known (synthetic data).
    split : ndarray of str or None
        Per-row label in {"train", "validation", "test"}.
    feature_names : tuple of str or None
        Column names, length p.
    """

    A: np.ndarray
    y: np.ndarray
    task: str
    x_true: np.ndarray | None = None
    split: np.ndarray | None = None
    feature_names: tuple | None = None

    def __post_init__(self):
        A = _as_design(self.A)
        n, p = A.shape
        y = _as_vector(self.y, "y", n)
        if not np.isfinite(A).all():
            raise ValueError("A must be finite")
        if self.task not in ("regression", "classification"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.task == "classification" and not np.isin(y, (-1.0, 1.0)).all():
            raise ValueError("classification responses must be -1 or +1")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "y", y)
        if self.x_true is not None:
            object.__setattr__(self, "x_true",
                               _as_vector(self.x_true, "x_true", p))
        if self.split is not None:
            sp = np.asarray(self.split, dtype=str)
            if sp.shape != (n,):
                raise ValueError("split labels must cover every row exactly")
            bad = set(sp.tolist()) - set(SPLIT_NAMES)
            if bad:
                raise ValueError(f"unknown split labels {sorted(bad)}")
            object.__setattr__(self, "split", sp)
        if self.feature_names is not None:
            names = tuple(str(c) for c in self.feature_names)
            if len(names) != p:
                raise ValueError(f"{len(names)} feature names for {p} columns")
            object.__setattr__(self, "feature_names", names)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def p(self):
        return self.A.shape[1]

    def mask(self, part):
        """Boolean row mask for one split part."""
        if self.split is None:
            raise ValueError("dataset has no split labels")
        if part not in SPLIT_NAMES:
            raise ValueError(f"unknown split part {part!r}")
        return self.split == part

    def part(self, name):
        """(A_rows, y_rows) for one split part, as read-only arrays.

        When the part's rows form one contiguous block, as in every
        generated dataset and every CSV that ``write_csv`` wrote with a
        split column, these are views of A and y and copy nothing;
        otherwise they are copies.  Either way they hold the bytes of
        ``A[mask]`` and ``y[mask]``.
        """
        rows = _row_index(self.mask(name), self.n)
        return _select_rows(self.A, rows), _select_rows(self.y, rows)


class _BlockDesign:
    """The block design both synthetic specs describe: ``n_groups`` groups
    of ``group_size`` columns, then ``n_irrelevant`` independent columns,
    over ``n_train`` + ``n_validation`` + ``n_test`` rows.  A plain class,
    so the dataclass fields stay those of each spec."""

    def _check(self, noise, what):
        """Raise ValueError unless the design is non-trivial, the noise
        parameters (``what``, ``within_noise_var`` and ``noise``) are
        non-negative and every split has a sample."""
        if min(self.n_groups, self.group_size) < 1 or self.n_irrelevant < 0:
            raise ValueError("group structure must be non-trivial")
        if self.within_noise_var < 0 or noise < 0:
            raise ValueError(f"{what} must be >= 0")
        if min(self.n_train, self.n_validation, self.n_test) < 1:
            raise ValueError("every split needs at least one sample")

    @property
    def p(self):
        return self.n_groups * self.group_size + self.n_irrelevant

    @property
    def n(self):
        return self.n_train + self.n_validation + self.n_test


@dataclass(frozen=True)
class SyntheticSpec(_BlockDesign):
    """Grouped-covariates regression benchmark configuration.

    Defaults give p = 40 features: 3 groups of 5 columns built from shared
    latent factors plus within-group noise, then 25 independent columns.
    The true coefficients put ``signal`` on all 15 grouped columns and 0
    elsewhere.  Sample counts are (20, 40, 200) for train / validation /
    test.  Variances are variances, not standard deviations.
    """

    n_groups: int = 3
    group_size: int = 5
    n_irrelevant: int = 25
    signal: float = 3.0
    within_noise_var: float = 0.16
    observation_noise_var: float = 0.01
    n_train: int = 20
    n_validation: int = 40
    n_test: int = 200
    seed: int = 0

    def __post_init__(self):
        self._check(self.observation_noise_var, "variances")


@dataclass(frozen=True)
class ClassificationSpec(_BlockDesign):
    """Planted-linear-separator classification benchmark configuration.

    Same block design as SyntheticSpec (grouped columns carry the signal),
    but labels are the sign of the noisy margin A x* + noise.  Defaults:
    n = 300 split (150, 90, 60), p = 100 with 85 irrelevant columns.
    """

    n_groups: int = 3
    group_size: int = 5
    n_irrelevant: int = 85
    signal: float = 3.0
    within_noise_var: float = 0.16
    margin_noise_sd: float = 2.0
    n_train: int = 150
    n_validation: int = 90
    n_test: int = 60
    seed: int = 0

    def __post_init__(self):
        self._check(self.margin_noise_sd, "noise parameters")


def _split_labels(n_train, n_validation, n_test):
    return np.asarray(
        ["train"] * n_train
        + ["validation"] * n_validation
        + ["test"] * n_test
    )


def _grouped_design(rng, spec):
    """Raw (unnormalized) block design: grouped columns, then noise columns.

    Draw order is fixed (factors, within-group noise, tail columns) so the
    same seed always yields the same matrix.  The (n, p) matrix is the
    only allocation of its size: the tail is drawn row by row into it,
    which consumes the stream exactly as one (n, p - k) draw would.
    """
    n = spec.n
    k = spec.n_groups * spec.group_size
    A = np.empty((n, spec.p))
    z = rng.standard_normal((n, spec.n_groups))
    eps = rng.standard_normal((n, k)) * np.sqrt(spec.within_noise_var)
    np.add(np.repeat(z, spec.group_size, axis=1), eps, out=A[:, :k])
    for row in A[:, k:]:
        rng.standard_normal(out=row)
    return A


def _generate(spec, noise_sd):
    """(A, A x* + noise, x*, split, names) for either generator.

    The design is scaled in place.  The noise, with standard deviation
    ``noise_sd``, is drawn last.
    """
    rng = np.random.default_rng(spec.seed)
    A = _grouped_design(rng, spec)
    split = _split_labels(spec.n_train, spec.n_validation, spec.n_test)
    names = tuple(f"f{j}" for j in range(1, spec.p + 1))
    A /= _train_scales(A, split == "train", names)
    x_true = np.concatenate([
        np.full(spec.n_groups * spec.group_size, spec.signal),
        np.zeros(spec.n_irrelevant),
    ])
    noise = rng.standard_normal(spec.n) * noise_sd
    return A, A @ x_true + noise, x_true, split, names


def generate_synthetic(spec=None):
    """Generate the grouped-covariates regression benchmark.

    Columns of the combined (train + validation + test) matrix are scaled
    to unit Euclidean norm on the training rows before the response is
    formed, so y = A x* + w holds for the returned matrix.
    """
    spec = spec if spec is not None else SyntheticSpec()
    A, y, x_true, split, names = _generate(
        spec, np.sqrt(spec.observation_noise_var))
    return Dataset(A, y, "regression", x_true, split, names)


def generate_grouped_classification(spec=None):
    """Generate the planted-separator classification benchmark.

    Labels are sign(A x* + noise) with sign(0) = +1; the margin noise
    controls how far the task sits from perfect separability.
    """
    spec = spec if spec is not None else ClassificationSpec()
    A, margin, x_true, split, names = _generate(spec, spec.margin_noise_sd)
    y = np.where(margin >= 0, 1.0, -1.0)
    return Dataset(A, y, "classification", x_true, split, names)


def _number(text):
    """``float`` of a cell's ``str.strip()``-ped text, by the grammar of
    numpy's C reader: ValueError unless that text is ASCII and holds no
    ``_``, which Python's ``float`` alone allows (``1_0``, non-ASCII
    digits)."""
    text = text.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(f"could not convert {text!r} to float")
    return float(text)


def _parse_cell(tok, line_no, col_name):
    try:
        return _number(tok)
    except ValueError:
        raise DataError(
            f"line {line_no}, column {col_name!r}: "
            f"could not parse {tok.strip()!r} as a number"
        ) from None


def _read_header(reader, path):
    """The stripped first non-empty row of a ``csv.reader``.

    The reader's ``line_num`` is then the header's physical line.  Raises
    DataError for an empty file or a header that names a column twice.
    """
    for row in reader:
        if row:
            header = [c.strip() for c in row]
            dup = [c for c, k in Counter(header).items() if k > 1]
            if dup:
                raise DataError(
                    f"line {reader.line_num}: duplicate column {dup[0]!r}")
            return header
    raise DataError(f"{path}: empty file")


def _read_table(reader):
    """The remaining non-blank rows of a ``csv.reader``, each with its
    physical (1-based) line in the file, which counts blank lines."""
    return [(row, reader.line_num) for row in reader if row]


def _locate_fault(path, why, reader, header, label_idx, split_idx,
                  classify):
    """Raise the DataError that names the first fault of a body numpy's
    reader refused for reason ``why``; the rest of ``reader`` is the body.

    Faults rank as follows: a ragged row, an unparsable feature cell or
    a bad split label, in line order; then an unparsable label; then the
    first non-finite cell, by line and then by column; then (with
    ``classify``) the line of a third class.  A body with none of them
    raises with the file's name and ``why``.
    """
    lines = _read_table(reader)
    if not lines:
        raise DataError(f"{path}: no data rows")
    for row, line_no in lines:
        if len(row) != len(header):
            raise DataError(
                f"line {line_no}: expected {len(header)} fields, "
                f"found {len(row)}"
            )
        for j in range(len(header)):
            if j not in (label_idx, split_idx):
                _parse_cell(row[j], line_no, header[j])
        if split_idx is not None:
            s = row[split_idx].strip()
            if s not in SPLIT_NAMES:
                raise DataError(
                    f"line {line_no}: split label must be one of "
                    f"{SPLIT_NAMES}, got {s!r}"
                )
    y = [_parse_cell(row[label_idx], line_no, header[label_idx])
         for row, line_no in lines]
    for row, line_no in lines:
        for j, tok in enumerate(row):
            if j != split_idx and not np.isfinite(_number(tok)):
                raise DataError(
                    f"line {line_no}, column {header[j]!r}: "
                    f"non-finite value {tok.strip()!r}"
                )
    classes = {}
    for (row, line_no), v in zip(lines, y):
        if classify and v not in classes:
            if len(classes) == 2:
                raise DataError(
                    f"line {line_no}: more than two classes for "
                    f"classification (had {sorted(classes.values())}, "
                    f"then {row[label_idx].strip()!r})"
                )
            classes[v] = row[label_idx].strip()
    raise DataError(f"{path}: {why}")


def _read_body(path, skip, width, feat_idx, label_idx, split_idx,
               classify):
    """(A, y, stripped label texts, split labels or None) of the body
    after line ``skip``, read by numpy's C reader.

    Raises ValueError where that reader refuses the text, or where it
    reads no rows, rows of other than ``width`` fields, a non-finite
    value or (with ``classify``) a third label value.  Cells it reads
    parse to the same doubles as ``_number``.
    """
    labels, split = [], []

    def label(text):
        labels.append(text.strip())
        return _number(text)

    def split_label(text):
        text = text.strip()
        if text not in SPLIT_NAMES:
            raise ValueError(f"unknown split label {text!r}")
        split.append(text)
        return 0.0

    converters = {label_idx: label}
    if split_idx is not None:
        converters[split_idx] = split_label
    with open(path, encoding="utf-8-sig") as fh, warnings.catch_warnings():
        # a header-only file is an error the locator names
        warnings.filterwarnings(
            "ignore", "loadtxt: input contained no data", UserWarning)
        M = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"',
                       skiprows=skip, ndmin=2, converters=converters)
    if not M.size or M.shape[1] != width:
        raise ValueError(f"read {M.shape[0]} rows of {M.shape[1]} fields")
    if not np.isfinite(M).all():
        raise ValueError("read a non-finite value")
    y = M[:, label_idx].copy()
    if classify and np.unique(y).size > 2:
        raise ValueError("read more than two classes")
    # take copies into a C-contiguous A; M[:, idx] would be column-major,
    # and Dataset.part copies rows of that
    A = np.take(M, feat_idx, axis=1)
    return A, y, labels, split if split_idx is not None else None


def _load_table(path, label_column, split_column, classify=False):
    """(label name, feature names, A, y, split labels or None) of a CSV.

    ``label_column`` None takes the column named ``label``, else the last
    column that is not ``split_column``.  With ``classify``, y maps two
    label values to -1 and +1 (the one whose first-seen text sorts first
    to -1).  numpy's C reader reads the body; where it refuses it, the
    csv-module reader reads it again only to name the faulty line and
    cell.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = _read_header(reader, path)
        split_idx = (header.index(split_column) if split_column in header
                     else None)
        if label_column is None:
            others = [j for j in range(len(header)) if j != split_idx]
            if not others:
                raise DataError("no feature columns left after label/split")
            label_idx = (header.index("label") if "label" in header
                         else others[-1])
        elif label_column not in header:
            raise DataError(
                f"label column {label_column!r} not found; "
                f"columns are {header}"
            )
        else:
            label_idx = header.index(label_column)
        if split_idx == label_idx:
            raise DataError("label and split columns must differ")
        feat_idx = [
            j for j in range(len(header)) if j not in (label_idx, split_idx)
        ]
        if not feat_idx:
            raise DataError("no feature columns left after label/split")
        try:
            A, y, labels, split = _read_body(
                path, reader.line_num, len(header), feat_idx, label_idx,
                split_idx, classify)
        except ValueError as exc:
            _locate_fault(path, exc, reader, header, label_idx, split_idx,
                          classify)
    if classify:
        values, first = np.unique(y, return_index=True)
        if values.size < 2:
            raise DataError(
                "classification needs exactly two distinct label values, "
                f"found {values.size}"
            )
        # the value whose first-seen text sorts first maps to -1
        lo = values[int(labels[first[1]] < labels[first[0]])]
        y = np.where(y == lo, -1.0, 1.0)
    return (header[label_idx], tuple(header[j] for j in feat_idx), A, y,
            split)


def load_csv(path, label_column, task, split_column="split"):
    """Read a header + numeric-rows CSV into a Dataset.

    The ``label_column`` becomes y; every other column becomes a feature,
    in header order.  A column named ``split_column`` (when present) is
    read as split labels instead of a feature; pass ``split_column=None``
    to disable that.  Classification labels may be any two distinct
    numeric values; the one whose first-seen text is lexicographically
    smaller maps to -1.  A UTF-8 byte-order mark before the header is
    skipped.

    Raises DataError with a line number for a repeated column name,
    ragged rows, non-numeric or non-finite cells, bad split labels, or a
    label-class count other than two.
    """
    if task not in ("regression", "classification"):
        raise DataError(f"unknown task {task!r}")
    _, names, A, y, split = _load_table(
        path, label_column, split_column, task == "classification")
    return Dataset(A, y, task, split=split, feature_names=names)


def write_csv(ds, path, label_column="label", split_column="split"):
    """Write a Dataset as header + rows; floats use repr so a reload is exact.

    Emits the split column only when the dataset carries split labels.
    Raises ValueError when two header columns would share a name (such
    as a feature named like ``label_column``), since ``load_csv`` could
    not tell them apart.  ``split_column`` counts even when it is not
    written, since ``load_csv`` would read a column of that name as split
    labels.
    """
    names = ds.feature_names or tuple(f"f{j}" for j in range(1, ds.p + 1))
    columns = list(names) + [label_column, split_column]
    counts = Counter(c.strip() for c in columns if c is not None)
    dup = [c for c, k in counts.items() if k > 1]
    if dup:
        raise ValueError(f"column {dup[0]!r} appears twice in the header")
    header = columns if ds.split is not None else columns[:-1]
    ys = ds.y.tolist()
    ends = ([f",{s}\n" for s in ds.split.tolist()] if ds.split is not None
            else ["\n"] * ds.n)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        # repr floats and split labels never need quoting; one row at a
        # time keeps a single row of text in memory
        for a, y, end in zip(ds.A, ys, ends):
            cells = a.tolist()
            cells.append(y)
            fh.write(",".join(map(repr, cells)) + end)


def _check_fractions(fractions):
    """The (train, validation, test) fractions as a list of three floats;
    ValueError unless they are positive and sum to 1 (within 1e-9)."""
    f = [float(v) for v in fractions]
    if len(f) != 3:
        raise ValueError(
            f"fractions must be (train, validation, test), got {len(f)}"
        )
    if min(f) <= 0:
        raise ValueError(f"fractions must be positive, got {f}")
    if abs(sum(f) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(f)}")
    return f


def split_dataset(ds, fractions, seed):
    """Assign rows to train/validation/test by a seeded permutation.

    fractions must be three positive numbers summing to 1 (within 1e-9).
    Sizes: train and validation get the floor of fraction * n, test gets
    the remainder.  Rows stay in place; only the labels are assigned.
    """
    f = _check_fractions(fractions)
    n = ds.n
    # nudge before flooring so exact products stored as x.999... round up
    n_train = int(f[0] * n + 1e-9)
    n_val = int(f[1] * n + 1e-9)
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(
            f"fractions {f} leave an empty split for n={n} "
            f"(sizes {n_train}, {n_val}, {n_test})"
        )
    perm = np.random.default_rng(seed).permutation(n)
    split = np.empty(n, dtype="<U10")
    split[perm[:n_train]] = "train"
    split[perm[n_train:n_train + n_val]] = "validation"
    split[perm[n_train + n_val:]] = "test"
    return Dataset(ds.A, ds.y, ds.task, ds.x_true, split, ds.feature_names)


def _column_name(names, j):
    return names[j] if names is not None else str(j)


def _row_index(rows, n):
    """An index of the rows a boolean mask over n rows or an index array
    selects: a slice where the mask's rows form one block."""
    rows = np.asarray(rows)
    if rows.dtype == bool and rows.shape == (n,):
        rows = np.flatnonzero(rows)
        if rows.size and rows[-1] - rows[0] + 1 == rows.size:
            return slice(rows[0], rows[-1] + 1)
    return rows


def _select_rows(M, rows):
    """``M[rows]`` for a ``_row_index`` index, read-only and C-contiguous."""
    out = np.ascontiguousarray(M[rows])
    out.flags.writeable = False
    return out


def _column_norms(T):
    """Euclidean norm of each column of T, free of overflow and underflow.

    A column whose sum of squares is finite and nonzero gets the bytes of
    ``np.sqrt((T * T).sum(axis=0))``.  The others, whose squares overflow
    (cells above ~1e154) or underflow (below ~1e-162), are summed again
    after division by their largest magnitude.  Only an all-zero column
    has norm 0, and only a norm beyond the float range is inf.
    """
    with np.errstate(over="ignore"):
        norms = np.sqrt((T * T).sum(axis=0))
        redo = np.flatnonzero((norms == 0) | np.isinf(norms))
        if redo.size:
            S = T[:, redo]
            big = np.abs(S).max(axis=0)
            S = np.divide(S, big, out=np.zeros_like(S), where=big > 0)
            norms[redo] = big * np.sqrt((S * S).sum(axis=0))
    return norms


def _train_scales(A, train_rows, feature_names):
    """Column norms of A on the training rows; raises unless all are
    finite and nonzero."""
    T = (A if train_rows is None
         else _select_rows(A, _row_index(train_rows, A.shape[0])))
    if T.shape[0] == 0:
        raise ValueError("no training rows to compute norms from")
    scales = _column_norms(T)
    for bad, why in ((scales == 0, "is zero"),
                     (np.isinf(scales), "has a norm beyond the float range")):
        j = np.flatnonzero(bad)
        if j.size:
            name = _column_name(feature_names, j[0])
            raise ValueError(
                f"column {name!r} {why} on the training rows; "
                "cannot normalize"
            )
    return scales


def normalize_columns(A, train_rows=None, feature_names=None):
    """Scale columns to unit Euclidean norm measured on the training rows.

    Returns (scaled matrix, scale vector); dividing fitted coefficients by
    the scales maps them back to the raw feature units.  train_rows is a
    boolean mask or index array; None uses every row.  Norms are computed
    without overflow or underflow; a column that is zero on the training
    rows, or whose norm exceeds the float range, raises ValueError.
    """
    A = _as_design(A)
    scales = _train_scales(A, train_rows, feature_names)
    return A / scales, scales


def normalize_dataset(ds):
    """Scale a split dataset's columns to unit norm on its training rows.

    Returns (dataset, scales).  Dividing fitted coefficients by the scales
    maps them back to the raw feature units; the ground truth, where there
    is one, is multiplied by them, so y = A x* + w still holds.  A column
    that is zero on the training rows, or whose norm exceeds the float
    range, raises ValueError naming it.
    """
    A, scales = normalize_columns(ds.A, ds.mask("train"), ds.feature_names)
    x_true = None if ds.x_true is None else ds.x_true * scales
    out = Dataset(A, ds.y, ds.task, x_true, ds.split, ds.feature_names)
    return out, scales


def top_correlation_screen(ds, m):
    """Keep the m columns most correlated (in absolute value) with y.

    Correlations are computed on training rows only, so the screen never
    sees validation or test responses.  Constant columns count as
    correlation 0.  Returns (screened dataset, kept column indices);
    column order is preserved.
    """
    m = _check_count(m, "m")
    if m >= ds.p:
        return ds, np.arange(ds.p)
    At, yt = ds.part("train")
    Ac = At - At.mean(axis=0)
    yc = yt - yt.mean()
    sx = _column_norms(Ac)
    sy = np.sqrt(yc @ yc)
    denom = sx * sy
    corr = np.where(denom > 0, Ac.T @ yc / np.where(denom > 0, denom, 1.0),
                    0.0)
    keep = np.sort(np.argsort(-np.abs(corr), kind="stable")[:m])
    names = (
        tuple(ds.feature_names[j] for j in keep)
        if ds.feature_names is not None else None
    )
    x_true = ds.x_true[keep] if ds.x_true is not None else None
    out = Dataset(ds.A[:, keep], ds.y, ds.task, x_true, ds.split, names)
    return out, keep
