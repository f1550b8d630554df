"""Dataset container, synthetic benchmark generators, and CSV ingestion.

The synthetic regression generator builds the grouped-covariates design:
three blocks of five columns share a per-sample latent factor, the rest
are independent noise columns, and the response comes from a 15-nonzero
coefficient vector.  A classification variant plants a linear separator
on the same block structure.

All randomness flows through ``numpy.random.default_rng(seed)``; every
function here is a pure function of its inputs and the seed.
"""

from __future__ import annotations

import csv
import operator
from collections import Counter
from dataclasses import dataclass

import numpy as np

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
    "standardize_columns",
    "normalize_dataset",
    "top_correlation_screen",
]

SPLIT_NAMES = ("train", "validation", "test")


class DataError(ValueError):
    """A dataset file or schema violated its contract."""


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
        A = np.asarray(self.A, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if A.ndim != 2:
            raise ValueError(f"A must be 2-D, got shape {A.shape}")
        if y.shape != (A.shape[0],):
            raise ValueError(
                f"y has shape {y.shape}, expected ({A.shape[0]},)"
            )
        if not (np.isfinite(A).all() and np.isfinite(y).all()):
            raise ValueError("A and y must be finite")
        if self.task not in ("regression", "classification"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.task == "classification" and not np.isin(y, (-1.0, 1.0)).all():
            raise ValueError("classification responses must be -1 or +1")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "y", y)
        if self.x_true is not None:
            xt = np.asarray(self.x_true, dtype=float)
            if xt.shape != (A.shape[1],):
                raise ValueError(
                    f"x_true has shape {xt.shape}, expected ({A.shape[1]},)"
                )
            object.__setattr__(self, "x_true", xt)
        if self.split is not None:
            sp = np.asarray(self.split, dtype=str)
            if sp.shape != (A.shape[0],):
                raise ValueError("split labels must cover every row exactly")
            bad = set(sp.tolist()) - set(SPLIT_NAMES)
            if bad:
                raise ValueError(f"unknown split labels {sorted(bad)}")
            object.__setattr__(self, "split", sp)
        if self.feature_names is not None:
            names = tuple(str(c) for c in self.feature_names)
            if len(names) != A.shape[1]:
                raise ValueError(
                    f"{len(names)} feature names for {A.shape[1]} columns"
                )
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
        """(A_rows, y_rows) for one split part."""
        m = self.mask(name)
        return self.A[m], self.y[m]


@dataclass(frozen=True)
class SyntheticSpec:
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
        if min(self.n_groups, self.group_size) < 1 or self.n_irrelevant < 0:
            raise ValueError("group structure must be non-trivial")
        if self.within_noise_var < 0 or self.observation_noise_var < 0:
            raise ValueError("variances must be >= 0")
        if min(self.n_train, self.n_validation, self.n_test) < 1:
            raise ValueError("every split needs at least one sample")

    @property
    def p(self):
        return self.n_groups * self.group_size + self.n_irrelevant

    @property
    def n(self):
        return self.n_train + self.n_validation + self.n_test


@dataclass(frozen=True)
class ClassificationSpec:
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
        if min(self.n_groups, self.group_size) < 1 or self.n_irrelevant < 0:
            raise ValueError("group structure must be non-trivial")
        if self.within_noise_var < 0 or self.margin_noise_sd < 0:
            raise ValueError("noise parameters must be >= 0")
        if min(self.n_train, self.n_validation, self.n_test) < 1:
            raise ValueError("every split needs at least one sample")

    @property
    def p(self):
        return self.n_groups * self.group_size + self.n_irrelevant

    @property
    def n(self):
        return self.n_train + self.n_validation + self.n_test


def _split_labels(n_train, n_validation, n_test):
    return np.asarray(
        ["train"] * n_train
        + ["validation"] * n_validation
        + ["test"] * n_test
    )


def _grouped_design(rng, spec):
    """Raw (unnormalized) block design: grouped columns, then noise columns.

    Draw order is fixed (factors, within-group noise, tail columns) so the
    same seed always yields the same matrix.
    """
    n = spec.n
    k = spec.n_groups * spec.group_size
    z = rng.standard_normal((n, spec.n_groups))
    eps = rng.standard_normal((n, k)) * np.sqrt(spec.within_noise_var)
    tail = rng.standard_normal((n, spec.n_irrelevant))
    grouped = np.repeat(z, spec.group_size, axis=1) + eps
    return np.hstack([grouped, tail])


def _generate(spec, noise_sd):
    """(A, A x* + noise, x*, split, names) for either generator.

    The noise, with standard deviation ``noise_sd``, is drawn last.
    """
    rng = np.random.default_rng(spec.seed)
    A_raw = _grouped_design(rng, spec)
    split = _split_labels(spec.n_train, spec.n_validation, spec.n_test)
    names = tuple(f"f{j}" for j in range(1, spec.p + 1))
    A, _ = normalize_columns(A_raw, split == "train", names)
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


def _parse_cell(tok, line_no, col_name):
    try:
        return float(tok)
    except ValueError:
        raise DataError(
            f"line {line_no}, column {col_name!r}: "
            f"could not parse {tok!r} as a number"
        ) from None


def _read_table(path):
    """The stripped header, the non-blank rows and the line each ends on.

    Line numbers are physical (1-based) lines of the file, so they stay
    right after blank lines.  Raises DataError for an empty file or a
    header that names a column twice.
    """
    rows, line_nos = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if row:
                rows.append(row)
                line_nos.append(reader.line_num)
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    dup = [c for c, k in Counter(header).items() if k > 1]
    if dup:
        raise DataError(f"line {line_nos[0]}: duplicate column {dup[0]!r}")
    return header, rows, line_nos


def _check_finite_cells(rows, line_nos, header, feat_idx, label_idx, A, y):
    """Raise DataError at the first non-finite cell of a parsed CSV table.

    ``A[i, c]`` was parsed from ``rows[i + 1][feat_idx[c]]`` and ``y[i]``
    from ``rows[i + 1][label_idx]`` (row 0 is the header); ``line_nos``
    holds each row's line in the file.  The cell is located only on
    failure, so a valid table costs one vectorised test.
    """
    if np.isfinite(A).all() and np.isfinite(y).all():
        return
    bad = ~np.isfinite(np.column_stack((A, y)))
    columns = feat_idx + [label_idx]
    i = int(np.flatnonzero(bad.any(axis=1))[0])
    j = min(columns[c] for c in np.flatnonzero(bad[i]))
    raise DataError(
        f"line {line_nos[i + 1]}, column {header[j]!r}: "
        f"non-finite value {rows[i + 1][j].strip()!r}"
    )


def _parse_table(path, header, rows, line_nos, label_idx, split_idx):
    """Parse the rows of a ``_read_table`` table into numbers.

    Columns other than ``label_idx`` and ``split_idx`` (None if absent)
    are features.  Returns (feature columns, A, y, stripped label texts,
    split labels or None); every error names its line and cell.
    """
    feat_idx = [
        j for j in range(len(header)) if j not in (label_idx, split_idx)
    ]
    if not feat_idx:
        raise DataError("no feature columns left after label/split")
    if not rows[1:]:
        raise DataError(f"{path}: no data rows")
    # itemgetter of one index returns the cell itself, not a sequence
    get = (operator.itemgetter(*feat_idx) if len(feat_idx) > 1 else
           operator.itemgetter(slice(feat_idx[0], feat_idx[0] + 1)))
    A_rows, labels = [], []
    split = [] if split_idx is not None else None
    for row, line_no in zip(rows[1:], line_nos[1:]):
        if len(row) != len(header):
            raise DataError(
                f"line {line_no}: expected {len(header)} fields, "
                f"found {len(row)}"
            )
        try:
            # float() skips surrounding whitespace itself; a row it
            # rejects is parsed again cell by cell, which names the bad
            # cell or accepts whitespace only strip() removes ("\x1c")
            A_rows.append([*map(float, get(row))])
        except ValueError:
            A_rows.append([_parse_cell(row[j].strip(), line_no, header[j])
                           for j in feat_idx])
        labels.append(row[label_idx].strip())
        if split_idx is not None:
            s = row[split_idx].strip()
            if s not in SPLIT_NAMES:
                raise DataError(
                    f"line {line_no}: split label must be one of "
                    f"{SPLIT_NAMES}, got {s!r}"
                )
            split.append(s)

    A = np.asarray(A_rows)
    y = np.asarray([_parse_cell(tok, ln, header[label_idx])
                    for tok, ln in zip(labels, line_nos[1:])])
    _check_finite_cells(rows, line_nos, header, feat_idx, label_idx, A, y)
    return feat_idx, A, y, labels, split


def load_csv(path, label_column, task, split_column="split"):
    """Read a header + numeric-rows CSV into a Dataset.

    The ``label_column`` becomes y; every other column becomes a feature,
    in header order.  A column named ``split_column`` (when present) is
    read as split labels instead of a feature; pass ``split_column=None``
    to disable that.  Classification labels may be any two distinct
    numeric values; the one whose first-seen text is lexicographically
    smaller maps to -1.

    Raises DataError with a line number for a repeated column name,
    ragged rows, non-numeric or non-finite cells, bad split labels, or a
    label-class count other than two.
    """
    if task not in ("regression", "classification"):
        raise DataError(f"unknown task {task!r}")
    header, rows, line_nos = _read_table(path)
    if label_column not in header:
        raise DataError(
            f"label column {label_column!r} not found; "
            f"columns are {header}"
        )
    label_idx = header.index(label_column)
    split_idx = None
    if split_column is not None and split_column in header:
        split_idx = header.index(split_column)
        if split_idx == label_idx:
            raise DataError("label and split columns must differ")
    feat_idx, A, y, labels, split = _parse_table(
        path, header, rows, line_nos, label_idx, split_idx)
    if task == "classification":
        # key classes by numeric value; remember first-seen text and line
        classes = {}
        for tok, ln, v in zip(labels, line_nos[1:], y.tolist()):
            if v not in classes:
                if len(classes) == 2:
                    seen = sorted(c[0] for c in classes.values())
                    raise DataError(
                        f"line {ln}: more than two classes for "
                        f"classification (had {seen}, then {tok!r})"
                    )
                classes[v] = (tok, ln)
        if len(classes) < 2:
            raise DataError(
                "classification needs exactly two distinct label values, "
                f"found {len(classes)}"
            )
        lo, hi = sorted(classes, key=lambda v: classes[v][0])
        y = np.where(y == lo, -1.0, 1.0)

    names = tuple(header[j] for j in feat_idx)
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


def split_dataset(ds, fractions, seed):
    """Assign rows to train/validation/test by a seeded permutation.

    fractions must be three positive numbers summing to 1 (within 1e-9).
    Sizes: train and validation get the floor of fraction * n, test gets
    the remainder.  Rows stay in place; only the labels are assigned.
    """
    f = [float(v) for v in fractions]
    if len(f) != 3:
        raise ValueError("fractions must be (train, validation, test)")
    if min(f) <= 0:
        raise ValueError(f"fractions must be positive, got {f}")
    if abs(sum(f) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(f)}")
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


def normalize_columns(A, train_rows=None, feature_names=None):
    """Scale columns to unit Euclidean norm measured on the training rows.

    Returns (scaled matrix, scale vector); dividing fitted coefficients by
    the scales maps them back to the raw feature units.  train_rows is a
    boolean mask or index array; None uses every row.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"A must be 2-D, got shape {A.shape}")
    T = A if train_rows is None else A[train_rows]
    if T.shape[0] == 0:
        raise ValueError("no training rows to compute norms from")
    scales = np.sqrt((T * T).sum(axis=0))
    zero = np.flatnonzero(scales == 0)
    if zero.size:
        name = _column_name(feature_names, zero[0])
        raise ValueError(
            f"column {name!r} is zero on the training rows; "
            "cannot normalize"
        )
    return A / scales, scales


def standardize_columns(A, train_rows=None, feature_names=None):
    """Z-score columns using training-row mean and standard deviation.

    Returns (standardized matrix, means, stds).  Note this centers the
    columns; the fitted model has no intercept, so use this mode only for
    sensitivity checks against the default norm scaling.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"A must be 2-D, got shape {A.shape}")
    T = A if train_rows is None else A[train_rows]
    if T.shape[0] == 0:
        raise ValueError("no training rows to compute statistics from")
    means = T.mean(axis=0)
    stds = T.std(axis=0)
    zero = np.flatnonzero(stds == 0)
    if zero.size:
        name = _column_name(feature_names, zero[0])
        raise ValueError(
            f"column {name!r} is constant on the training rows; "
            "cannot standardize"
        )
    return (A - means) / stds, means, stds


def normalize_dataset(ds, mode="l2"):
    """Rescale a split dataset's columns using its training rows.

    mode "l2" scales to unit norm, "zscore" standardizes, "none" is the
    identity.  Returns (dataset, scales); scales is None for zscore/none.
    """
    if mode == "none":
        return ds, None
    train = ds.mask("train")
    if mode == "l2":
        A, scales = normalize_columns(ds.A, train, ds.feature_names)
    elif mode == "zscore":
        A, _, _ = standardize_columns(ds.A, train, ds.feature_names)
        scales = None
    else:
        raise ValueError(f"unknown normalization mode {mode!r}")
    out = Dataset(A, ds.y, ds.task, ds.x_true, ds.split, ds.feature_names)
    return out, (scales if mode == "l2" else None)


def top_correlation_screen(ds, m):
    """Keep the m columns most correlated (in absolute value) with y.

    Correlations are computed on training rows only, so the screen never
    sees validation or test responses.  Constant columns count as
    correlation 0.  Returns (screened dataset, kept column indices);
    column order is preserved.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m >= ds.p:
        return ds, np.arange(ds.p)
    At, yt = ds.part("train")
    Ac = At - At.mean(axis=0)
    yc = yt - yt.mean()
    sx = np.sqrt((Ac * Ac).sum(axis=0))
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
