"""The benchmark's three workloads: set-up, one task, and output checks.

Every workload is closed-loop: one caller runs task 0, 1, 2, ... back to
back.  All inputs derive from the benchmark seed.  Library functions are
looked up through their modules at call time, so a traced run sees the
wrappers ``tracer.Tracer`` installs.

* ``synth-p40``   -- the paper's regression benchmark: one repetition of
  260 warm-started solves at p = 40, n_train = 20, then ``emit_table``.
  Bound by Python per-call overhead (validation, dispatch, PAVA on at
  most 40 elements); matrix products are negligible.
* ``largep-path`` -- one grid search per method on a p = 10 000,
  n_train = 200 design.  Bound by PAVA, sorting and products with A and
  A^T; per-call overhead is negligible.
* ``csv-fit``     -- write a 2000 x 200 classification CSV, then run the
  ``describe`` and ``fit`` subcommands on it in-process.  Bound by the
  pure-Python CSV paths and CLI overhead; the solver does little work.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import sys

import numpy as np

METHODS = ("lasso", "enet", "oscar", "sparc")

# public parameters of each method's regularizer, as report.json lists them
PARAMS = {"lasso": ("lam1",), "enet": ("lam1", "lam2"),
          "oscar": ("lam1", "lam2"), "sparc": ("lam", "k")}


def lib(name):
    """A loaded sparcreg submodule (looked up afresh on every call)."""
    return sys.modules["sparcreg." + name]


def _finite(values):
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


class Workload:
    """One workload.  Subclasses fill in the class attributes and methods.

    ``setup`` builds the inputs; ``task(k)`` runs task k and returns its
    outcome; ``check`` turns an outcome into (failure messages, view), the
    view holding the selected grid points and test metrics that the
    reference pins, or None when the outcome has none; ``fingerprint``
    reduces an outcome to a value that is equal exactly when two runs of
    the same input gave the same results.
    """

    name = ""
    fits_per_task = 0        # solves per task, known from the grid sizes
    cells_per_task = 0       # checked units per task (fail_frac counts them)
    pinned_tasks = 0         # every run completes at least these tasks;
                             # the reference pins them, a traced run traces them
    setups = 5               # set-ups per run; setup_s is their median

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        raise NotImplementedError

    def task(self, k):
        raise NotImplementedError

    def check(self, outcome):
        raise NotImplementedError

    def fingerprint(self, outcome):
        raise NotImplementedError

    def repeat_of(self, k):
        """An earlier task with the same input as task k, or None."""
        return None


def _check_estimate(method, e, params):
    fails = []
    if not _finite(e):
        fails.append(f"{method}: estimate is not finite")
    if method == "sparc" and np.count_nonzero(e) > params["k"]:
        fails.append(f"sparc: {np.count_nonzero(e)} nonzeros exceed "
                     f"k = {params['k']}")
    return fails


class SynthP40(Workload):
    name = "synth-p40"
    cells_per_task = len(METHODS)
    pinned_tasks = 4

    def setup(self):
        self.grids = lib("experiment").default_grids(40)
        self.fits_per_task = sum(len(self.grids.grid_for(m)) for m in METHODS)

    def task(self, k):
        exp = lib("experiment")
        s = self.seed * 1000 + k
        report = exp.run_repetitions(lib("data").SyntheticSpec(seed=s),
                                     self.grids, repetitions=1,
                                     master_seed=s)
        paths = exp.emit_table(report, os.path.join(self.workdir, "synth"))
        return report.to_json_dict(), paths[1]

    def check(self, outcome):
        report, json_path = outcome
        fails = []
        if lib("experiment").load_report(json_path).to_json_dict() != report:
            fails.append("report.json does not round-trip")
        selected, tests = [], []
        for m in METHODS:
            err = report["errors"][m][0]
            params = report["selected"][m][0]
            metrics = report["per_repetition"][m][0]
            if err is not None:
                fails.append(f"{m}: {err}")
                continue
            fails += _check_estimate(m, report["profile"]["estimates"][m],
                                     params)
            if not _finite([metrics["MSE"]]):
                fails.append(f"{m}: test MSE is not finite")
            selected.append(params)
            tests.append(metrics["MSE"])
        return fails, {"selected": selected, "test_mse": tests}

    def fingerprint(self, outcome):
        return json.dumps(outcome[0], sort_keys=True)


class LargePPath(Workload):
    name = "largep-path"
    cells_per_task = len(METHODS)
    pinned_tasks = 6         # one per dataset
    setups = 3
    datasets = 6             # cycled, so one run averages over several

    def setup(self):
        data, reg = lib("data"), lib("regularizers")
        self.data = [
            data.generate_synthetic(data.SyntheticSpec(
                n_irrelevant=9985, n_train=200, n_validation=100,
                n_test=100, seed=self.seed * 1000 + d))
            for d in range(self.datasets)
        ]
        # strong-to-weak, as default_grids orders them
        lam = (4.0, 1.0, 0.25)
        self.grids = {
            "lasso": tuple(reg.Lasso(l) for l in lam),
            "enet": tuple(reg.ElasticNet(l, 0.1) for l in lam),
            "oscar": tuple(reg.Oscar(l, l * 1e-5) for l in lam),
            "sparc": tuple(reg.Sparc(l, k) for l in (1.0, 0.1, 0.01)
                           for k in (25, 15)),
        }
        self.fits_per_task = sum(len(g) for g in self.grids.values())

    def task(self, k):
        ds = self.data[k % self.datasets]
        out = {}
        for m in METHODS:
            reg, e = lib("experiment").grid_search(ds, self.grids[m])
            out[m] = (reg, e, lib("metrics").compute_report(ds, e).MSE)
        return out

    def check(self, outcome):
        fails, selected, tests = [], [], []
        for m in METHODS:
            reg, e, mse = outcome[m]
            params = {"type": m, **{f: getattr(reg, f) for f in PARAMS[m]}}
            fails += _check_estimate(m, e, params)
            if not _finite([mse]):
                fails.append(f"{m}: test MSE is not finite")
            selected.append(params)
            tests.append(mse)
        return fails, {"selected": selected, "test_mse": tests}

    def fingerprint(self, outcome):
        return [(m, repr(outcome[m][0]), outcome[m][1].tobytes(),
                 outcome[m][2]) for m in METHODS]

    def repeat_of(self, k):
        return k - self.datasets if k >= self.datasets else None


class CsvFit(Workload):
    name = "csv-fit"
    cells_per_task = 3       # write_csv, describe, fit
    pinned_tasks = 3         # every task repeats the same input

    def setup(self):
        data = lib("data")
        self.ds = data.generate_grouped_classification(
            data.ClassificationSpec(n_irrelevant=185, n_train=1000,
                                    n_validation=600, n_test=400,
                                    margin_noise_sd=0.25, seed=self.seed))
        self.csv = os.path.join(self.workdir, "data.csv")
        self.outdir = os.path.join(self.workdir, "fit")
        # fit builds the same sparc grid as default_grids for p = 40
        self.fits_per_task = len(lib("experiment").default_grids(40).sparc)

    def task(self, k):
        cli = lib("cli")
        lib("data").write_csv(self.ds, self.csv, label_column="y")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc_describe = cli.main(["describe", self.csv])
        described = out.getvalue()
        shutil.rmtree(self.outdir, ignore_errors=True)   # no stale outputs
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc_fit = cli.main([
                "fit", self.csv, "--label", "y", "--task", "classification",
                "--method", "sparc", "--screen", "40",
                "--seed", str(self.seed), "--json", "--outdir", self.outdir,
            ])
        if rc_fit != 0:
            return rc_describe, described, rc_fit, None, None
        with open(os.path.join(self.outdir, "metrics.json"),
                  encoding="utf-8") as fh:
            metrics_text = fh.read()
        with open(os.path.join(self.outdir, "coefficients.csv"),
                  encoding="utf-8") as fh:
            coef = [float(row["coefficient"]) for row in csv.DictReader(fh)]
        return rc_describe, described, rc_fit, metrics_text, coef

    def check(self, outcome):
        rc_describe, described, rc_fit, metrics_text, coef = outcome
        fails = []
        if rc_describe != 0:
            fails.append(f"describe returned {rc_describe}")
        if not described.startswith(f"n={self.ds.n} p={self.ds.p}\n"):
            fails.append(f"describe printed {described[:40]!r}")
        if rc_fit != 0:
            return fails + [f"fit returned {rc_fit}"], None
        try:
            payload = json.loads(metrics_text)
        except ValueError as exc:
            return fails + [f"metrics.json does not parse: {exc}"], None
        params = payload["selected"]
        fails += _check_estimate("sparc", coef, params)
        pred = payload["prediction"]
        if not _finite([pred["test_mse"]]):
            fails.append("test_mse is not finite")
        if not 0 <= pred["test_cla"] <= 100:
            fails.append(f"test_cla {pred['test_cla']} outside [0, 100]")
        return fails, {"selected": [params], "test_mse": [pred["test_mse"]],
                       "test_cla": [pred["test_cla"]]}

    def fingerprint(self, outcome):
        return outcome

    def repeat_of(self, k):
        return 0 if k else None


WORKLOADS = {w.name: w for w in (SynthP40, LargePPath, CsvFit)}


def compare_reference(views, ref, rtol):
    """Failure messages where views differ from the stored reference.

    Selected grid points must match exactly; test metrics within rtol.
    """
    fails = []
    if len(views) != len(ref):
        return [f"reference covers {len(ref)} tasks, run checked "
                f"{len(views)}"]
    for k, (got, want) in enumerate(zip(views, ref)):
        if got["selected"] != want["selected"]:
            fails.append(f"task {k}: selected {got['selected']} but the "
                         f"reference selects {want['selected']}")
        for key, values in want.items():
            if key == "selected":
                continue
            for a, b in zip(got.get(key, ()), values):
                if not math.isclose(a, b, rel_tol=rtol, abs_tol=0.0):
                    fails.append(f"task {k}: {key} {a!r} differs from the "
                                 f"reference {b!r} by more than {rtol:g}")
    return fails
