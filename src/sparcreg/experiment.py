"""Validation-split hyperparameter search, repetition loops, and reports.

``grid_search`` fits every grid point on the training rows (warm-starting
each fit from the previous point's solution) and scores on the validation
rows.  ``run_repetitions`` repeats the whole pipeline with derived seeds
and aggregates the test metrics.  ``emit_table`` writes three artifacts:

* ``report.csv``   -- metrics x methods table of "mean±std" cells
* ``report.json``  -- full per-repetition detail plus the run config
* ``profile.csv``  -- coefficient profiles (truth and per-method
  estimates from repetition 0) for stem plots

Every number in a report is a pure function of (source, grids, config,
master seed), so rerunning a benchmark reproduces the files byte for byte.
"""

from __future__ import annotations

import itertools
import json
import os
from collections import Counter
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .data import (
    ClassificationSpec,
    SyntheticSpec,
    generate_grouped_classification,
    generate_synthetic,
)
from .metrics import METRIC_NAMES, cla, compute_report, nnz
from .prox import _check_count
from .regularizers import _BY_METHOD, Regularizer
from .solver import (
    Objective,
    SolverConfig,
    SolverDivergenceError,
    sparsa_solve,
)

__all__ = [
    "METHOD_NAMES",
    "TABLE_METRICS",
    "GridSpec",
    "BenchmarkReport",
    "default_grids",
    "grid_search",
    "run_repetitions",
    "emit_table",
    "load_report",
]

METHOD_NAMES = tuple(_BY_METHOD)

# metric rows shown in report.csv, per task
TABLE_METRICS = {
    "regression": ("MAE", "MSE", "DoF", "SER"),
    "classification": ("CLA", "DoF", "NNZ"),
}

SCHEMA_VERSION = 1


def _refuse_repeats(values, what):
    """ValueError naming the first value that occurs more than once."""
    repeated = [v for v, n in Counter(values).items() if n > 1]
    if repeated:
        raise ValueError(f"{what} repeats {repeated[0]}")


def _check_grid(grid, method=None):
    """The grid as a tuple of distinct regularizers, of ``method`` if
    given; TypeError for a point of another kind, ValueError for a repeat."""
    grid = tuple(grid)
    what = f"{method or 'the'} grid"
    expected = _BY_METHOD[method] if method else Regularizer
    for reg in grid:
        if not isinstance(reg, expected):
            raise TypeError(f"{what} holds {type(reg).__name__}, "
                            f"expected {expected.__name__}")
    _refuse_repeats(grid, what)
    return grid


@dataclass(frozen=True)
class GridSpec:
    """Per-method grids, each a tuple of distinct regularizers of it."""

    lasso: tuple = ()
    enet: tuple = ()
    oscar: tuple = ()
    sparc: tuple = ()

    def __post_init__(self):
        for name in METHOD_NAMES:
            object.__setattr__(self, name,
                               _check_grid(getattr(self, name), name))

    def grid_for(self, method):
        _check_methods((method,))
        return getattr(self, method)


def _check_methods(methods):
    """The methods as a tuple; ValueError for an empty list, an unknown
    method or a method named twice."""
    methods = tuple(methods)
    if not methods:
        raise ValueError("no methods given")
    for i, m in enumerate(methods):
        if m not in METHOD_NAMES:
            raise ValueError(f"unknown method {m!r}; choose from "
                             f"{', '.join(METHOD_NAMES)}")
        if m in methods[:i]:
            raise ValueError(f"method {m!r} given twice")
    return methods


def _axes(p, lam_grid=None, k_grid=None):
    """The axis of each regularizer field, as ``default_grids`` sets them."""
    lam = [float(v) for v in np.asarray(
        np.logspace(-3, 1, 10) if lam_grid is None else lam_grid, dtype=float)]
    k_grid = [_check_count(k, "k") for k in
              ((5, 10, 15, 20, 25) if k_grid is None else k_grid)]
    for name, axis in (("penalty", lam), ("sparsity", k_grid)):
        if not axis:
            raise ValueError(f"empty {name} grid")
        _refuse_repeats(axis, f"{name} grid")
    lam = tuple(sorted(lam, reverse=True))
    ks = tuple(sorted((k for k in k_grid if k <= p), reverse=True))
    return {"lam1": lam, "lam2": lam, "lam": lam, "k": ks or (int(p),)}


def _method_grid(method, axes):
    """The method's regularizers over the product of its fields' axes,
    the first field outermost."""
    cls = _BY_METHOD[method]
    return tuple(cls(*point) for point in itertools.product(
        *(axes[f.name] for f in fields(cls))))


def default_grids(p, lam_grid=None, k_grid=None):
    """Grids spanning under- to over-regularized regimes.

    The scalar penalties share a 10-point logarithmic grid from 1e-3 to
    10; two-parameter methods take the full product.  The sparsity levels
    default to {5, 10, 15, 20, 25} filtered to k <= p, or (p,) when every
    level exceeds p.  An empty grid, a repeated value or a level that is
    not a positive integer raises ValueError, before p filters the levels.

    Grid order is part of the design: every axis sweeps from strong to
    weak regularization, so warm starts follow the usual continuation
    path.  The k-sparse grid is penalty-major with k decreasing inside,
    which warm-starts each support size from the same-penalty solution
    one size up; projecting a good larger support down is far more
    reliable than growing one, and it is what lets the solver escape bad
    support basins of the nonconvex constraint.
    """
    axes = _axes(p, lam_grid, k_grid)
    return GridSpec(**{m: _method_grid(m, axes) for m in METHOD_NAMES})


def grid_search(ds, grid, config=None):
    """Select the grid point with the best validation score.

    Fits on train rows only.  Scores: regression by the sum of squared
    validation prediction errors (lower wins), classification by
    validation accuracy (higher wins).  Ties go to the sparser solution,
    then to the earlier grid point.  Returns (regularizer, coefficients).

    Before the first solve, a point that is not a ``Regularizer`` raises
    TypeError, and an empty grid or a repeated point ValueError.
    """
    grid = _check_grid(grid)
    if not grid:
        raise ValueError("hyperparameter grid is empty")
    # one Objective checks the train rows and holds them, copied at most
    # once, in the layout the solver picks for their size; every grid
    # point's is derived from it
    train = Objective._of_rows(ds.A, ds.y, ds.mask("train"), grid[0])
    A_val, y_val = ds.part("validation")
    if train.A.shape[0] == 0 or A_val.shape[0] == 0:
        raise ValueError("train and validation splits must be non-empty")

    e = None  # each fit warm-starts from the previous one
    best = None  # (score, nnz, index, reg, coefficients)
    for idx, reg in enumerate(grid):
        e = sparsa_solve(train._with_reg(reg), x0=e, config=config).x
        if ds.task == "classification":
            score = -cla(A_val, y_val, e)
        else:
            r = A_val @ e - y_val
            score = float(r @ r)
        k = nnz(e)
        if best is None or score < best[0] or (score == best[0]
                                               and k < best[1]):
            best = (score, k, idx, reg, e)
    return best[3], best[4]


def _reg_to_dict(reg):
    return {"type": reg.method, **asdict(reg)}


# each source type, its kind in the config echo and its generator, run at
# each repetition's seed
_SOURCES = ((SyntheticSpec, "synthetic-regression", generate_synthetic),
            (ClassificationSpec, "synthetic-classification",
             generate_grouped_classification))


def _one_repetition(ds, grids, cfg, methods, keep_estimates):
    cells = {}
    for method in methods:
        try:
            reg, e = grid_search(ds, grids.grid_for(method), cfg)
            report = compute_report(ds, e)
            est = [float(v) for v in e] if keep_estimates else None
            cells[method] = {
                "params": _reg_to_dict(reg),
                "metrics": report.to_dict(),
                "estimate": est,
                "error": None,
            }
        except SolverDivergenceError as exc:
            cells[method] = {
                "params": None,
                "metrics": None,
                "estimate": None,
                "error": f"{type(exc).__name__}: {exc}",
            }
    truth = ([float(v) for v in ds.x_true]
             if keep_estimates and ds.x_true is not None else None)
    return {"cells": cells, "truth": truth, "p": int(ds.p), "task": ds.task}


@dataclass(frozen=True)
class BenchmarkReport:
    """Aggregated benchmark results in plain JSON-ready types."""

    task: str
    methods: list
    repetitions: int
    master_seed: int
    metric_names: list
    summary: dict          # method -> {"mean": {...}, "std": {...},
                           #            "failures": int}
    selected: dict         # method -> [params dict or None per rep]
    per_repetition: dict   # method -> [metrics dict or None per rep]
    errors: dict           # method -> [None or message per rep]
    profile: dict          # {"index", "true", "estimates": {method: [...]}}
    config: dict
    schema_version: int = SCHEMA_VERSION

    def to_json_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json_dict(cls, d):
        if not isinstance(d, dict):
            raise ValueError("report is not a JSON object")
        if d.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported report schema {d.get('schema_version')!r}"
            )
        for f in fields(cls):
            if f.name not in d:
                raise ValueError(f"report has no field {f.name!r}")
        return cls(**{f.name: d[f.name] for f in fields(cls)})


def run_repetitions(source, grids, config=None, repetitions=50,
                    master_seed=0, methods=METHOD_NAMES):
    """Run the benchmark ``repetitions`` times and aggregate test metrics.

    ``source`` is a ``SyntheticSpec`` or a ``ClassificationSpec``;
    repetition r generates its data at seed ``master_seed + r`` (an
    integer >= 0, checked before the first solve), its
    columns at unit norm on the train rows, and MAE and MSE are sums over
    its test rows.  A solver failure marks that (method, repetition) cell
    as failed and the loop continues; failed cells are excluded from the
    mean/std but stay visible in the report.
    """
    repetitions = _check_count(repetitions, "repetitions")
    master_seed = _check_count(master_seed, "master_seed", 0)
    methods = _check_methods(methods)
    for m in methods:
        if not grids.grid_for(m):
            raise ValueError(f"empty grid for method {m!r}")
    cfg = config if config is not None else SolverConfig()
    kind, generate = next(((kind, generate) for cls, kind, generate in
                           _SOURCES if isinstance(source, cls)), (None, None))
    if kind is None:
        raise TypeError(f"unsupported source {type(source).__name__}")

    reps = [
        _one_repetition(generate(replace(source, seed=master_seed + r)),
                        grids, cfg, methods, keep_estimates=(r == 0))
        for r in range(repetitions)
    ]

    summary, selected, per_rep, errors = {}, {}, {}, {}
    for m in methods:
        cells = [rep["cells"][m] for rep in reps]
        selected[m] = [c["params"] for c in cells]
        per_rep[m] = [c["metrics"] for c in cells]
        errors[m] = [c["error"] for c in cells]
        mean, std = {}, {}
        for name in METRIC_NAMES:
            vals = [c["metrics"][name] for c in cells
                    if c["metrics"] is not None
                    and c["metrics"][name] is not None]
            if vals:
                arr = np.asarray(vals, dtype=float)
                mean[name] = float(arr.mean())
                std[name] = float(arr.std())
        summary[m] = {
            "mean": mean,
            "std": std,
            "failures": sum(c["error"] is not None for c in cells),
        }

    task, p = reps[0]["task"], reps[0]["p"]
    profile = {
        "index": list(range(1, p + 1)),
        "true": reps[0]["truth"],
        "estimates": {m: reps[0]["cells"][m]["estimate"] for m in methods},
    }
    config_echo = {
        "solver": asdict(cfg),
        "grids": {m: [_reg_to_dict(r) for r in grids.grid_for(m)]
                  for m in methods},
        "source": {"kind": kind, **asdict(source)},
        # echoes of the generated data's fixed split and scaling, and of
        # MAE and MSE being sums
        "fractions": None,
        "normalization": "l2",
        "average": False,
    }
    return BenchmarkReport(
        task=task,
        methods=list(methods),
        repetitions=repetitions,
        master_seed=master_seed,
        metric_names=list(TABLE_METRICS[task]),
        summary=summary,
        selected=selected,
        per_repetition=per_rep,
        errors=errors,
        profile=profile,
        config=config_echo,
    )


def format_table(report):
    """The report.csv text: metrics as rows, methods as columns."""
    lines = ["metric," + ",".join(report.methods)]
    for name in report.metric_names:
        cells = []
        for m in report.methods:
            s = report.summary[m]
            if name in s["mean"]:
                cells.append(f"{s['mean'][name]:.4f}±{s['std'][name]:.4f}")
            else:
                cells.append("")
        lines.append(name + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def emit_table(report, outdir):
    """Write report.csv, report.json, and profile.csv under outdir.

    Returns the three paths.  Serialization is deterministic (sorted JSON
    keys, repr floats), so identical reports yield identical bytes.
    """
    os.makedirs(outdir, exist_ok=True)
    csv_path = os.path.join(outdir, "report.csv")
    json_path = os.path.join(outdir, "report.json")
    profile_path = os.path.join(outdir, "profile.csv")

    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(format_table(report))

    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")

    prof = report.profile
    with open(profile_path, "w", encoding="utf-8") as fh:
        fh.write("index,true," + ",".join(report.methods) + "\n")
        for i, idx in enumerate(prof["index"]):
            row = [str(idx)]
            row.append("" if prof["true"] is None
                       else repr(prof["true"][i]))
            for m in report.methods:
                est = prof["estimates"][m]
                row.append("" if est is None else repr(est[i]))
            fh.write(",".join(row) + "\n")
    return csv_path, json_path, profile_path


def load_report(path):
    """Read back a report.json written by emit_table."""
    with open(path, encoding="utf-8") as fh:
        return BenchmarkReport.from_json_dict(json.load(fh))
