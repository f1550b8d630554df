"""Compare two trees' behaviour on the acceptance fixtures, rep by rep.

Runs the regression fixture (``SyntheticSpec()``, 50 repetitions) and the
classification fixture (``ClassificationSpec()``, 20 repetitions) at
master seed 20260814 over ``default_grids``, as ``tests/test_acceptance.py``
does, against the sparcreg package under each of two ``--src`` trees, and
prints, the first tree being A and the second B:

* per repetition and method, each tree's test score (MSE for regression,
  CLA for classification), DoF, NNZ and selected grid point, with B's
  deltas;
* per method and metric, each tree's mean and median, B's paired wins,
  losses and ties against A, and B's worst repetition (its largest loss);
* per fixture, each tree's summed ``SolverStats`` fields and accepted
  iterations, and its solves by termination kind.

    python3 tools/behaviour.py --src ../parent/src --src src
    python3 tools/behaviour.py --src ../parent/src --src src --reps 5,2

The last line counts the deltas that are not zero.  Each tree runs in
its own child process, with the BLAS thread count pinned to 1 before numpy
loads; the child counts the work by wrapping the ``sparsa_solve`` that
``sparcreg.experiment`` calls.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

from fingerprints import check_tree, import_library  # noqa: E402

MASTER_SEED = 20260814
# fixture, its spec's class name, its score and whether a higher one wins
FIXTURES = (("regression", "SyntheticSpec", "MSE", False),
            ("classification", "ClassificationSpec", "CLA", True))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", type=Path, action="append", required=True,
                   help="directory holding a sparcreg package; give two, "
                        "A then B")
    p.add_argument("--reps", default="50,20",
                   help="regression,classification repetitions "
                        "(default: 50,20)")
    p.add_argument("--child", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    try:
        args.reps = tuple(int(t) for t in args.reps.split(","))
    except ValueError:
        p.error(f"--reps: expected two integers, got {args.reps!r}")
    if len(args.reps) != 2 or min(args.reps) < 1:
        p.error(f"--reps: expected two positive integers, got {args.reps}")
    if len(args.src) != (1 if args.child else 2):
        p.error("give --src twice: A, then B")
    return args


def run_fixtures(src, reps):
    """{fixture: {"cells", "work", "ends"}} for the tree ``src``: per
    method, each repetition's metrics and selected point, and the solves'
    summed work and terminations."""
    import_library(src)
    from sparcreg import data, experiment

    out = {}
    for (name, spec_name, _, _), count in zip(FIXTURES, reps):
        work, ends = Counter(), Counter()
        solve = experiment.sparsa_solve

        def counted(*a, **kw):
            res = solve(*a, **kw)
            work.update(asdict(res.stats))
            work["iterations"] += res.iterations
            ends[res.termination] += 1
            return res

        spec = getattr(data, spec_name)()
        experiment.sparsa_solve = counted
        try:
            report = experiment.run_repetitions(
                spec, experiment.default_grids(spec.p), repetitions=count,
                master_seed=MASTER_SEED)
        finally:
            experiment.sparsa_solve = solve
        cells = {m: [{"metrics": metrics, "selected": selected}
                     for metrics, selected in zip(report.per_repetition[m],
                                                  report.selected[m])]
                 for m in report.methods}
        out[name] = {"cells": cells, "work": dict(work), "ends": dict(ends)}
    return out


def run_child(src, reps):
    cmd = [sys.executable, __file__, "--child", "--src", str(src),
           "--reps", ",".join(map(str, reps))]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise SystemExit(f"error: the run of {src} exited {out.returncode}")
    return json.loads(out.stdout)


def _fmt(v):
    return "fail" if v is None else f"{v:.6g}"


def _delta(a, b):
    """B's change from A as text: "0" where equal, also where both
    failed, and "fail" where one did."""
    if a is None or b is None:
        return "0" if a is b else "fail"
    return "0" if a == b else f"{b - a:+.3g}"


def _point(selected):
    if selected is None:
        return "fail"
    return ",".join(f"{k}={v:g}" for k, v in selected.items() if k != "type")


def compare(a, b):
    """Print the comparison of two ``run_fixtures`` results; returns the
    number of deltas that are not zero."""
    nonzero = 0

    def note(d):
        nonlocal nonzero
        nonzero += d != "0"
        return d

    for name, _, score, higher in FIXTURES:
        metrics = (score, "DoF", "NNZ")
        A, B = a[name], b[name]
        print(f"== {name} fixture, {len(next(iter(A['cells'].values())))} "
              f"reps, master seed {MASTER_SEED}")
        for m in A["cells"]:
            for r, (ca, cb) in enumerate(zip(A["cells"][m], B["cells"][m])):
                ma, mb = ca["metrics"] or {}, cb["metrics"] or {}
                cols = " ".join(
                    f"{k} A={_fmt(ma.get(k))} B={_fmt(mb.get(k))} "
                    f"d={note(_delta(ma.get(k), mb.get(k)))}"
                    for k in metrics)
                same = ca["selected"] == cb["selected"]
                nonzero += not same
                print(f"{name} rep={r} {m}: {cols} | "
                      f"A {_point(ca['selected'])} "
                      f"B {_point(cb['selected'])} "
                      f"{'same' if same else 'moved'}")
        for m in A["cells"]:
            for k in metrics:
                better_high = higher and k == score
                # (rep, A's value, B's value) where neither cell failed
                pairs = [(r, ca["metrics"][k], cb["metrics"][k])
                         for r, (ca, cb) in enumerate(zip(A["cells"][m],
                                                          B["cells"][m]))
                         if ca["metrics"] and cb["metrics"]]
                va, vb = [p[1] for p in pairs], [p[2] for p in pairs]
                # B's loss on each pair: positive where A did better
                loss = [(x - y) if better_high else (y - x)
                        for _, x, y in pairs]
                wins = sum(d < 0 for d in loss)
                losses = sum(d > 0 for d in loss)
                ties = len(loss) - wins - losses
                worst = max(range(len(loss)), key=loss.__getitem__,
                            default=None)
                worst = ("none" if worst is None or loss[worst] <= 0
                         else f"rep {pairs[worst][0]} ({loss[worst]:+.3g})")
                means = [statistics.fmean(v) if v else None
                         for v in (va, vb)]
                medians = [statistics.median(v) if v else None
                           for v in (va, vb)]
                print(f"{name} {m} {k}: mean A={_fmt(means[0])} "
                      f"B={_fmt(means[1])} d={note(_delta(*means))} | "
                      f"median A={_fmt(medians[0])} B={_fmt(medians[1])} "
                      f"d={note(_delta(*medians))} | B wins={wins} "
                      f"losses={losses} ties={ties} worst={worst}")
        for label, wa, wb in (("work", A["work"], B["work"]),
                              ("ends", A["ends"], B["ends"])):
            for k in sorted(set(wa) | set(wb)):
                x, y = wa.get(k, 0), wb.get(k, 0)
                print(f"{name} {label} {k}: A={x} B={y} "
                      f"d={note(_delta(x, y))}")
    return nonzero


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    for src in args.src:
        check_tree(src)
    if args.child:
        print(json.dumps(run_fixtures(args.src[0], args.reps)))
        return 0
    a, b = (run_child(src, args.reps) for src in args.src)
    print(f"A: {args.src[0]}\nB: {args.src[1]}")
    nonzero = compare(a, b)
    print(f"nonzero deltas: {nonzero}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
