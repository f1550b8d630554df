"""Evaluation metrics for fitted coefficient vectors.

Six metrics, all computed on the test split:

* MAE  -- ||A (x* - e)||_1, needs ground truth
* MSE  -- ||A (x* - e)||_2^2, needs ground truth
* SER  -- || |x*| - |e| ||_1 / p, reported as a percentage
* DoF  -- number of distinct nonzero magnitude classes in e
* CLA  -- percentage of test rows with sign(a^T e) = y, sign(0) = +1
* NNZ  -- number of nonzero entries of e

DoF and NNZ count the same nonzeros, |e_i| > 1e-8, so DoF <= NNZ.

MAE and MSE are sums over test rows, not means.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .prox import _as_vector

__all__ = [
    "MetricUnavailableError",
    "MetricsReport",
    "mae",
    "mse",
    "ser",
    "dof",
    "cla",
    "nnz",
    "compute_report",
]

METRIC_NAMES = ("MAE", "MSE", "SER", "DoF", "CLA", "NNZ")

# |e_i| above this is a nonzero, for DoF and NNZ alike
_ZERO_TOL = 1e-8
# two nonzero magnitudes share a DoF class when they differ by at most
# this times (1 + the larger)
_CLASS_TOL = 1e-4


class MetricUnavailableError(ValueError):
    """The metric's inputs (usually ground truth) are missing."""


@dataclass(frozen=True)
class MetricsReport:
    """Flat bundle of the six metrics; fields are None when unavailable."""

    MAE: float | None = None
    MSE: float | None = None
    SER: float | None = None
    DoF: int | None = None
    CLA: float | None = None
    NNZ: int | None = None

    def __post_init__(self):
        if self.DoF is not None and self.NNZ is not None:
            if self.DoF > self.NNZ:
                raise ValueError(
                    f"DoF {self.DoF} exceeds NNZ {self.NNZ}"
                )
        if self.SER is not None and self.SER < 0:
            raise ValueError(f"SER must be >= 0, got {self.SER}")
        if self.CLA is not None and not 0 <= self.CLA <= 100:
            raise ValueError(f"CLA must be in [0, 100], got {self.CLA}")

    def to_dict(self):
        """Flat name -> value dict, None for unavailable metrics."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _require_truth(x_true):
    if x_true is None:
        raise MetricUnavailableError("ground truth x* is unavailable")
    return _as_vector(x_true, "x_true")


def mae(A_test, x_true, e):
    """Sum of absolute prediction differences ||A (x* - e)||_1."""
    x_true = _require_truth(x_true)
    e = _as_vector(e, "e", x_true.size)
    return float(np.abs(A_test @ (x_true - e)).sum())


def mse(A_test, x_true, e):
    """Sum of squared prediction differences ||A (x* - e)||_2^2."""
    x_true = _require_truth(x_true)
    e = _as_vector(e, "e", x_true.size)
    r = A_test @ (x_true - e)
    return float(r @ r)


def ser(x_true, e):
    """Mean absolute magnitude error || |x*| - |e| ||_1 / p, as a percent.

    Depends on magnitudes only, so it is blind to sign flips.
    """
    x_true = _require_truth(x_true)
    e = _as_vector(e, "e", x_true.size)
    return float(np.abs(np.abs(x_true) - np.abs(e)).sum() / e.size * 100.0)


def dof(e):
    """Distinct magnitude classes among the nonzero entries of e.

    Two magnitudes share a class when they differ by at most
    1e-4 * (1 + larger).  Sorting makes the classes contiguous, so one pass
    over adjacent gaps counts them.
    """
    e = _as_vector(e, "e")
    mags = np.sort(np.abs(e[np.abs(e) > _ZERO_TOL]))
    if mags.size == 0:
        return 0
    gaps = np.diff(mags)
    return int(1 + np.count_nonzero(gaps > _CLASS_TOL * (1.0 + mags[1:])))


def cla(A_test, y_test, e):
    """Percentage of rows where sign(a^T e) matches the label; sign(0) = +1."""
    e = _as_vector(e, "e", A_test.shape[1])
    y_test = _as_vector(y_test, "y_test", A_test.shape[0])
    if A_test.shape[0] == 0:
        raise ValueError("no test rows")
    pred = np.where(A_test @ e >= 0, 1.0, -1.0)
    return float((pred == y_test).mean() * 100.0)


def nnz(e):
    """Number of entries with |e_i| > 1e-8."""
    e = _as_vector(e, "e")
    return int(np.count_nonzero(np.abs(e) > _ZERO_TOL))


def compute_report(ds, e):
    """All metrics available for a dataset's test split.

    Regression reports MAE and MSE (sums over the test rows) and SER when
    ground truth exists, DoF and NNZ; classification reports CLA, DoF and
    NNZ.
    """
    A_test, y_test = ds.part("test")
    vals = {"DoF": dof(e), "NNZ": nnz(e)}
    if ds.task == "classification":
        vals["CLA"] = cla(A_test, y_test, e)
    else:
        if ds.x_true is not None:
            vals["MAE"] = mae(A_test, ds.x_true, e)
            vals["MSE"] = mse(A_test, ds.x_true, e)
            vals["SER"] = ser(ds.x_true, e)
    return MetricsReport(**vals)
