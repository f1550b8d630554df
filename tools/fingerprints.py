"""Print each benchmark workload's pinned-task sha256 and reference verdict.

Runs each workload's pinned tasks, as ``bench/run.py`` does, against the
sparcreg package under ``--src`` and prints one line per workload and
seed:

    <workload> seed=<seed> tasks=<n> warnings=<w> sha256=<hex>

At the reference's default seed (0), each line goes on with the verdict
of ``bench/workloads.compare_reference`` on the pinned tasks' views
(selected grid points and test metrics) against ``bench/reference.json``:
``reference=ok``, or ``reference=<count> largest_move=<x>``, x being the
largest relative move of a test metric, followed by each difference on
its own indented line.  A change that moves pinned selections shows here
which ones moved, and how far.

Two trees give the same lines exactly when their pinned tasks give the
same results, byte for byte, so a change that must keep every output
byte is checked by running this once on each tree and comparing:

    python3 tools/fingerprints.py --src ../parent/src > parent.txt
    python3 tools/fingerprints.py > change.txt
    diff parent.txt change.txt

or in one call, which prints both trees' lines and exits 1 when any
line differs:

    python3 tools/fingerprints.py --against ../parent/src

The workloads come from this tree's ``bench/workloads.py``, imported
unchanged.  The BLAS thread count is pinned to 1 before numpy
loads, as in ``bench/run.py``.  Tasks write into a fixed work directory,
so that no output path differs between the two runs; it must not exist
beforehand, and it is removed afterwards.  Under ``--against`` the other
tree runs first, in a child process, and uses the work directory in turn.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS, compare_reference  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", type=Path, default=ROOT / "src",
                   help="directory holding the sparcreg package "
                        "(default: this tree's src/)")
    p.add_argument("--against", type=Path,
                   help="another directory holding a sparcreg package: "
                        "run it too and exit 1 unless every line agrees")
    p.add_argument("--workload", action="append",
                   help="workload name, repeatable (default: every one)")
    p.add_argument("--seed", type=int, action="append",
                   help="workload seed, repeatable (default: 0 and 7919)")
    p.add_argument("--workdir", type=Path,
                   default=Path(tempfile.gettempdir()) / "sparcreg-fingerprints",
                   help="fixed work directory, created and removed here")
    return p.parse_args(argv)


def check_tree(src):
    """Refuse a directory without a sparcreg package before any run."""
    if not (src / "sparcreg" / "__init__.py").is_file():
        raise SystemExit(f"error: {src} holds no sparcreg package")


def import_library(src):
    """Import sparcreg (and its CLI) from ``src``, nowhere else."""
    src = src.resolve()
    sys.path.insert(0, str(src))
    mod = importlib.import_module("sparcreg")
    importlib.import_module("sparcreg.cli")
    if Path(mod.__file__).resolve().parent != src / "sparcreg":
        raise SystemExit(f"error: imported sparcreg from {mod.__file__}, "
                         f"not from {src}")


def digest(cls, seed, workdir):
    """(tasks, warnings, sha256, views) of the pinned tasks of one
    workload; each view is checked right after its task, as
    ``bench/run.py`` does."""
    workdir.mkdir(parents=True)
    fps, views = [], []
    try:
        wl = cls(seed, str(workdir))
        wl.setup()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for k in range(wl.pinned_tasks):
                outcome = wl.task(k)
                fps.append(wl.fingerprint(outcome))
                view = wl.check(outcome)[1]
                if view is not None:
                    views.append(view)
    finally:
        shutil.rmtree(workdir)
    sha = hashlib.sha256(repr(fps).encode()).hexdigest()
    return len(fps), len(caught), sha, views


def reference_verdict(views, want, rtol):
    """``reference=ok``, or the count of differences between views and
    the reference's views ``want`` and the largest relative move of a test
    metric, then one indented line per difference."""
    fails = compare_reference(views, want, rtol)
    if not fails:
        return "reference=ok"
    moves = [abs(a - b) / abs(b) if b else (0.0 if a == b else math.inf)
             for got, ref in zip(views, want)
             for key, values in ref.items() if key != "selected"
             for a, b in zip(got.get(key, ()), values)]
    return "\n".join([f"reference={len(fails)} "
                      f"largest_move={max(moves, default=0.0):.3g}"]
                     + [f"  {msg}" for msg in fails])


def run_against(args):
    """This tool's lines for the tree ``args.against``, from a child
    process that runs the same workloads and seeds in the same work
    directory."""
    cmd = [sys.executable, __file__, "--src", str(args.against),
           "--workdir", str(args.workdir)]
    for name in args.workload or ():
        cmd += ["--workload", name]
    for seed in args.seed or ():
        cmd += ["--seed", str(seed)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise SystemExit(f"error: the run against {args.against} "
                         f"exited {out.returncode}")
    return out.stdout.splitlines()


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    for src in (args.src, args.against):
        if src is not None:
            check_tree(src)
    if args.workdir.exists():
        raise SystemExit(f"error: work directory {args.workdir} exists; "
                         f"remove it or pass another --workdir")
    import_library(args.src)
    with open(ROOT / "bench" / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    unknown = set(args.workload or ()) - set(WORKLOADS)
    if unknown:
        raise SystemExit(f"error: unknown workload(s) {sorted(unknown)}; "
                         f"choose from {sorted(WORKLOADS)}")
    if args.against is not None:
        theirs = run_against(args)
        print(f"{args.against}:", *theirs, f"{args.src}:", sep="\n",
              flush=True)
    ours = []
    for name in args.workload or sorted(WORKLOADS):
        for seed in args.seed or (0, 7919):
            tasks, warned, sha, views = digest(WORKLOADS[name], seed,
                                               args.workdir)
            line = (f"{name} seed={seed} tasks={tasks} warnings={warned} "
                    f"sha256={sha}")
            if seed == ref["default_seed"]:
                line += " " + reference_verdict(
                    views, ref["workloads"].get(name, []), ref["test_rtol"])
            ours += line.splitlines()
            print(line, flush=True)
    if args.against is not None and ours != theirs:
        print(f"error: {args.src} and {args.against} differ",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
