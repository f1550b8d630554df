"""Command-line interface.

Subcommands:

* ``prox``      -- apply one proximity operator to an inline vector
* ``synth``     -- run the synthetic regression benchmark, write reports
* ``fit``       -- fit a CSV dataset end to end and report test metrics
* ``describe``  -- print a quick summary of a CSV dataset

The command line is the only input: no configuration file or
environment variable sets a flag, and a flag is matched by its full name
only.  Exit codes: 0 success, 1 runtime or I/O failure, 2 argument
errors, each found before the first solve.  stdout is machine-parseable
under ``--json``; stderr carries diagnostics.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields

import numpy as np

from .data import (
    SPLIT_NAMES,
    SyntheticSpec,
    _check_fractions,
    _column_norms,
    _load_table,
    load_csv,
    normalize_dataset,
    split_dataset,
    top_correlation_screen,
)
from .experiment import (
    METHOD_NAMES,
    GridSpec,
    _axes,
    _check_methods,
    _method_grid,
    _reg_to_dict,
    emit_table,
    format_table,
    grid_search,
    run_repetitions,
)
from .metrics import compute_report
from .prox import _check_count
from .regularizers import _BY_METHOD, prox, prox_objective
from .solver import SolverConfig, SolverDivergenceError

__all__ = ["main"]


class CliError(Exception):
    """Argument-level problem; maps to exit code 2."""


@contextmanager
def _usage(prefix=""):
    """Report a ValueError raised inside as a CliError, after ``prefix``."""
    try:
        yield
    except ValueError as exc:
        raise CliError(f"{prefix}{exc}") from None


def _fmt(v):
    return f"{v:g}"


def _json_number(v):
    """v, or None where it is not finite, so stdout stays strict JSON."""
    return v if np.isfinite(v) else None


def _parse_list(text, flag, cast=float):
    with _usage(f"{flag}: "):
        return [cast(t) for t in text.replace(",", " ").split()]


def _solver_config(args):
    with _usage():
        return SolverConfig(**{f.name: getattr(args, f.name)
                               for f in fields(SolverConfig)})


def _add_solver_flags(p):
    # one flag per SolverConfig field, typed and defaulted as the field
    for f in fields(SolverConfig):
        p.add_argument("--" + f.name.replace("_", "-"),
                       type=type(f.default), default=f.default)


def _add_json_flag(p):
    p.add_argument("--json", action="store_true",
                   help="machine-readable stdout")


# ---------------------------------------------------------------- prox

# each regularizer field, the flag that sets it and the flag's type; the
# flag's dest is the field name
_FIELD_FLAGS = {"lam1": ("--lambda1", float), "lam2": ("--lambda2", float),
                "lam": ("--lambda", float), "k": ("--k", int)}


def _add_field_flags(p):
    for name, (flag, cast) in _FIELD_FLAGS.items():
        p.add_argument(flag, dest=name, type=cast)


def _given_fields(args, method):
    """The method's fields that flags set; refuses another method's flag."""
    names = [f.name for f in fields(_BY_METHOD[method])]
    for name, (flag, _) in _FIELD_FLAGS.items():
        if name not in names and getattr(args, name) is not None:
            raise CliError(f"{flag} is not a --{method} parameter")
    return {n: getattr(args, n) for n in names if getattr(args, n) is not None}


def _prox_regularizer(args):
    method = next(m for m in METHOD_NAMES if getattr(args, m))
    given = _given_fields(args, method)
    for f in fields(_BY_METHOD[method]):
        if f.name not in given:
            raise CliError(f"--{method} requires {_FIELD_FLAGS[f.name][0]}")
    return _BY_METHOD[method](**given)


def cmd_prox(args):
    if args.vec is not None:
        v = _parse_list(args.vec, "--vec")
    else:
        with open(args.vec_file, encoding="utf-8") as fh:
            v = _parse_list(fh.read(), "--vec-file")
    if not v:
        raise CliError("empty vector")
    with _usage():
        reg = _prox_regularizer(args)
        x = prox(reg, v)
        # on finite input the objective can only overflow, to inf
        with np.errstate(over="ignore"):
            obj = prox_objective(reg, v, x)
    if args.json:
        print(json.dumps(
            {"x": [float(t) for t in x], "objective": _json_number(obj)},
            sort_keys=True,
        ))
    else:
        print(" ".join(_fmt(t) for t in x))
        print(f"objective {_fmt(obj)}")
    return 0


# --------------------------------------------------------------- synth

def _parse_methods(text):
    with _usage():
        return _check_methods(m.strip() for m in text.split(",") if m.strip())


def _grid_spec(args, methods, p, given):
    """default_grids' grids of ``methods`` for p features, with
    --lambda-grid and --k-grid replacing their axes and each given field
    pinning its axis (a given k above p is clamped to p).  Refuses a grid
    flag that no searched field of the methods reads."""
    searched = {f.name for m in methods
                for f in fields(_BY_METHOD[m])} - set(given)
    lists = []
    for flag, text, fed, cast in (
            ("--lambda-grid", args.lambda_grid, searched - {"k"}, float),
            ("--k-grid", args.k_grid, searched & {"k"}, int)):
        if text and not fed:
            raise CliError(f"{flag} feeds no searched "
                           f"{' or '.join('--' + m for m in methods)} axis")
        lists.append(_parse_list(text, flag, cast) if text else None)
    with _usage():
        axes = _axes(p, *lists)
        axes.update((name, (min(value, p) if name == "k" else value,))
                    for name, value in given.items())
        return GridSpec(**{m: _method_grid(m, axes) for m in methods})


def _print_config_lines(pairs):
    for key, value in pairs:
        print(f"# {key}={value}")


def cmd_synth(args):
    methods = _parse_methods(args.methods)
    cfg = _solver_config(args)
    with _usage():
        _check_count(args.reps, "--reps")
        _check_count(args.seed, "--seed", 0)
    spec = SyntheticSpec()
    grids = _grid_spec(args, methods, spec.p, {})
    os.makedirs(args.outdir, exist_ok=True)
    report = run_repetitions(
        spec, grids, config=cfg, repetitions=args.reps,
        master_seed=args.seed, methods=methods,
    )
    paths = emit_table(report, args.outdir)
    if args.json:
        print(json.dumps(report.to_json_dict(), sort_keys=True))
    else:
        _print_config_lines([
            ("seed", args.seed), ("reps", args.reps),
            ("methods", ",".join(methods)),
            ("outdir", args.outdir),
        ] + [(f"solver.{k}", v) for k, v in sorted(asdict(cfg).items())])
        print(format_table(report), end="")
        print(f"# wrote {', '.join(paths)}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------- fit

def _parse_fractions(text):
    with _usage("--split: "):
        return tuple(_check_fractions(_parse_list(text, "--split")))


def _write_coefficients(path, names, e, scales):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        # csv quotes a name only when it must, such as one holding a comma
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["feature", "coefficient", "coefficient_raw"])
        for j, name in enumerate(names):
            writer.writerow([name, repr(float(e[j])),
                             repr(float(e[j] / scales[j]))])


def cmd_fit(args):
    fractions = _parse_fractions(args.split)
    cfg = _solver_config(args)
    given = _given_fields(args, args.method)
    with _usage():
        _check_count(args.seed, "--seed", 0)
        if args.screen is not None:
            _check_count(args.screen, "--screen")
    # a grid for one feature checks every grid flag, penalty value and k
    # before the CSV is read (the k axis for the real p comes later)
    _grid_spec(args, (args.method,), 1, given)
    os.makedirs(args.outdir, exist_ok=True)
    ds = load_csv(args.csv, args.label, args.task)
    with _usage():
        ds = split_dataset(ds, fractions, args.seed)
    kept = None
    if args.screen is not None:
        ds, kept = top_correlation_screen(ds, args.screen)
    ds, scales = normalize_dataset(ds)
    grids = _grid_spec(args, (args.method,), ds.p, given)
    reg, e = grid_search(ds, grids.grid_for(args.method), cfg)
    report = compute_report(ds, e)

    # sums over the test rows, as MAE and MSE are
    A_te, y_te = ds.part("test")
    r_te = A_te @ e - y_te
    prediction = {
        "test_mse": float(r_te @ r_te),
        "test_mae": float(np.abs(r_te).sum()),
    }
    if ds.task == "classification":
        prediction["test_cla"] = report.CLA

    payload = {
        "selected": _reg_to_dict(reg),
        "metrics": report.to_dict(),
        "prediction": prediction,
        "screen_kept": (None if kept is None
                        else [int(j) for j in kept]),
        "config": {
            "csv": args.csv, "label": args.label, "task": args.task,
            "method": args.method, "split": list(fractions),
            # echoes of the one column scaling and of sums, not means
            "seed": args.seed, "normalization": "l2",
            "metric_mean": False, "solver": asdict(cfg),
        },
    }
    _write_coefficients(os.path.join(args.outdir, "coefficients.csv"),
                        ds.feature_names, e, scales)
    with open(os.path.join(args.outdir, "metrics.json"), "w",
              encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")

    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        sel = ", ".join(f"{k}={v}" for k, v in payload["selected"].items()
                        if k != "type")
        print(f"selected {args.method} ({sel})")
        for k, v in sorted(report.to_dict().items()):
            if v is not None:
                print(f"{k} {_fmt(v)}")
        for k, v in sorted(prediction.items()):
            print(f"{k} {_fmt(v)}")
    return 0


# ------------------------------------------------------------ describe

def cmd_describe(args):
    label, _, A, y, split = _load_table(args.csv, None, "split")
    values, counts = np.unique(y, return_counts=True)
    norms = _column_norms(A)
    d = {"n": A.shape[0], "p": A.shape[1], "label": label,
         "task": "classification" if values.size == 2 else "regression",
         "classes": None, "label_range": None,
         "norm_range": [float(norms.min()), float(norms.max())],
         "split": (None if split is None else
                   {name: split.count(name) for name in SPLIT_NAMES})}
    if values.size == 2:
        d["classes"] = [{"value": float(v), "rows": int(c)}
                        for v, c in zip(values, counts)]
    else:
        d["label_range"] = [float(y.min()), float(y.max())]

    if args.json:
        d["norm_range"] = [_json_number(v) for v in d["norm_range"]]
        print(json.dumps(d, sort_keys=True))
        return 0
    print(f"n={d['n']} p={d['p']}")
    print(f"label column: {label}")
    print(f"task={d['task']} (inferred)")
    for c in d["classes"] or ():
        print(f"class {_fmt(c['value'])}: {c['rows']} rows")
    if d["label_range"] is not None:
        print("label range [{}, {}]".format(*map(_fmt, d["label_range"])))
    print("column norms in [{}, {}]".format(*map(_fmt, d["norm_range"])))
    for name, c in (d["split"] or {}).items():
        print(f"split {name}: {c} rows")
    return 0


# ---------------------------------------------------------------- main

def build_parser():
    # no prefix matching on any parser: a typo such as "--rep" must not
    # pass silently for "--reps"
    parser = argparse.ArgumentParser(
        prog="sparcreg",
        description="Sparse and clustered penalized least squares.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prox", help="apply a proximity operator",
                       allow_abbrev=False)
    which = p.add_mutually_exclusive_group(required=True)
    for name in METHOD_NAMES:
        which.add_argument(f"--{name}", action="store_true")
    _add_field_flags(p)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--vec", help="comma- or space-separated numbers")
    src.add_argument("--vec-file", help="file of numbers")
    _add_json_flag(p)
    p.set_defaults(func=cmd_prox)

    p = sub.add_parser("synth", help="synthetic regression benchmark",
                       allow_abbrev=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--methods", default=",".join(METHOD_NAMES))
    p.add_argument("--outdir", default=".")
    p.add_argument("--lambda-grid", help="comma-separated penalty grid")
    p.add_argument("--k-grid", help="comma-separated sparsity grid")
    _add_solver_flags(p)
    _add_json_flag(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="fit one CSV dataset",
                       allow_abbrev=False)
    p.add_argument("csv")
    p.add_argument("--label", required=True)
    p.add_argument("--task", required=True,
                   choices=("regression", "classification"))
    p.add_argument("--method", required=True, choices=METHOD_NAMES)
    p.add_argument("--split", default="0.5,0.3,0.2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--screen", type=int,
                   help="keep only the m columns most correlated with y")
    _add_field_flags(p)
    p.add_argument("--lambda-grid")
    p.add_argument("--k-grid")
    p.add_argument("--outdir", default=".")
    _add_solver_flags(p)
    _add_json_flag(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("describe", help="summarize a CSV dataset",
                       allow_abbrev=False)
    p.add_argument("csv")
    _add_json_flag(p)
    p.set_defaults(func=cmd_describe)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse: --help, or a usage error
        return exc.code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, SolverDivergenceError) as exc:
        # DataError, and the UnicodeDecodeError of a CSV or --vec-file that
        # is not UTF-8, are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
