"""Benchmark for sparcreg: one workload per process, metrics as JSON.

Run from the repository root:

    python3 bench/run.py --workload synth-p40 --seed 0 --seconds 40 --trace 0

The library is imported from ``src/`` next to this directory.  The BLAS
thread count is pinned to 1 before numpy loads.  Set-up (a fresh import of
sparcreg plus the workload's data generation) runs several times and
reports its median.  Tasks then run back to back until ``--seconds`` have
passed and at least the workload's pinned tasks are done.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
pinned tasks once untraced and once with every public library function
wrapped (see tracer.py), checks that both give identical results, and
prints the per-layer metrics plus the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full
record with the environment goes to ``bench/out/``.  Exit status: 0 when
every output check passed, 1 when a check failed, 2 when the benchmark
could not run at all (for example, no ``src/sparcreg`` to import).
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from workloads import WORKLOADS, compare_reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
INNER_CAP_MESSAGE = "inner backtracking cap reached"


class SetupError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: reference.json's)")
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--update-reference", action="store_true",
                   help="store this run's pinned results as the reference "
                        "for the default seed")
    return p.parse_args(argv)


def import_library():
    """Import sparcreg afresh from src/, dropping any loaded copy first."""
    if not (SRC / "sparcreg" / "__init__.py").is_file():
        raise SetupError(f"no sparcreg package under {SRC}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "sparcreg" or n.startswith("sparcreg.")]:
        del sys.modules[name]
    mod = importlib.import_module("sparcreg")
    importlib.import_module("sparcreg.cli")
    if Path(mod.__file__).resolve().parent != SRC / "sparcreg":
        raise SetupError(f"imported sparcreg from {mod.__file__}, not {SRC}")
    return mod


def measured_blas_threads():
    """The thread count numpy's bundled OpenBLAS reports, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_measured": measured_blas_threads(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def tail(durations):
    """(value, label): the 75th percentile of the task times.

    The highest percentile with ten tasks beyond it needs more tasks than a
    run holds (about 10 to 30 here): below 20 tasks it falls at or below
    the median, below 11 it does not exist.  The 75th percentile, linearly
    interpolated, is the tail these counts support; the label says how many
    tasks lie beyond it.
    """
    n = len(durations)
    value = (statistics.quantiles(durations, n=4, method="inclusive")[-1]
             if n > 1 else durations[0])
    beyond = sum(d > value for d in durations)
    return value, f"p75 of {n} tasks, {beyond} beyond it"


class Run:
    """Task loop plus the check bookkeeping shared by both modes."""

    def __init__(self, wl):
        self.wl = wl
        self.tracer = None
        self.attempted = 0
        self.failures = []
        self.views = []
        self.fingerprints = []
        self.inner_cap_hits = 0
        self.failed_units = 0

    def fail(self, msg, units=1):
        self.failures.append(msg)
        self.failed_units += units
        if len(self.failures) <= 20:
            print(f"check failed: {msg}", file=sys.stderr)

    def tasks(self, count=None, seconds=None):
        """Run tasks 0, 1, ... until ``count`` are done or ``seconds`` passed.

        A timed run always completes the workload's pinned tasks.  Returns
        the task wall times; each outcome is checked right after its task,
        outside the timed interval.
        """
        wl = self.wl
        self.views, self.fingerprints = [], []
        durations = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            k = 0
            # a timed run starts no task expected to end more than half
            # a task past the deadline, so runs end close to ``seconds``
            while (k < count if count is not None else
                   k < wl.pinned_tasks
                   or time.perf_counter() - start
                   + 0.5 * sum(durations) / k < seconds):
                t0 = time.perf_counter()
                try:
                    if self.tracer is None:
                        outcome = wl.task(k)
                    else:
                        self.tracer.trace_id = k
                        with self.tracer.span("task"):
                            outcome = wl.task(k)
                except Exception:  # a failed task is counted, not fatal
                    durations.append(time.perf_counter() - t0)
                    self.attempted += wl.cells_per_task
                    self.fail(f"task {k} raised:\n{traceback.format_exc()}",
                              units=wl.cells_per_task)
                    self.fingerprints.append(None)
                else:
                    durations.append(time.perf_counter() - t0)
                    self.record(k, outcome)
                k += 1
        for w in caught:
            if INNER_CAP_MESSAGE in str(w.message):
                self.inner_cap_hits += 1
            else:
                warnings.showwarning(w.message, w.category, w.filename,
                                     w.lineno)
        return durations

    def record(self, k, outcome):
        wl = self.wl
        self.attempted += wl.cells_per_task
        fails, view = wl.check(outcome)
        for msg in fails:
            self.fail(f"task {k}: {msg}")
        if k < wl.pinned_tasks and view is not None:
            self.views.append(view)
        fp = wl.fingerprint(outcome)
        j = wl.repeat_of(k)
        if j is not None and fp != self.fingerprints[j]:
            self.fail(f"task {k} repeats task {j}'s input but its results "
                      f"differ")
        self.fingerprints.append(fp)

    @property
    def failed(self):
        return min(self.failed_units, self.attempted)


def set_up(cls, seed, workdir):
    """Import and set up ``cls.setups`` times; returns (workload, times)."""
    times = []
    wl = None
    for _ in range(cls.setups):
        wl = None
        gc.collect()
        t0 = time.perf_counter()
        import_library()
        wl = cls(seed, workdir)
        wl.setup()
        times.append(time.perf_counter() - t0)
    return wl, times


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def mean(values):
    return float(np.mean(values)) if values else float("nan")


def untraced(run, args, setup_times):
    wl = run.wl
    durations = run.tasks(seconds=args.seconds)
    done = sum(fp is not None for fp in run.fingerprints)
    busy = sum(durations)
    tail_value, tail_label = tail(durations)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "fits_per_s": (done * wl.fits_per_task / busy, "1/s"),
        "task_s_p50": (statistics.median(durations), "s"),
        "task_s_tail": (tail_value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    tests = [v for view in run.views for v in view["test_mse"]]
    cla = [v for view in run.views for v in view.get("test_cla", ())]
    extras = {
        "test_mse": (mean(tests), "1"),
        "test_cla": (mean(cla) if cla else None, "%"),
        "tasks": (len(durations), "count"),
        "task_s_tail_rank": (tail_label, ""),
        "solver_inner_cap_hits": (run.inner_cap_hits, "count"),
        "setup_s_all": (setup_times, "s"),
        "task_s_all": (durations, "s"),
    }
    return metrics, extras


def traced(run):
    import tracer as tr

    wl = run.wl
    plain = run.tasks(count=wl.pinned_tasks)
    plain_fps, plain_caps = run.fingerprints, run.inner_cap_hits
    run.inner_cap_hits = 0

    t = tr.Tracer()
    originals = {(m, k): getattr(sys.modules[m], k)
                 for m, k in tr.bindings()}
    t.install()
    try:
        with t.span("setup"):
            wl.setup()
        run.tracer = t
        durations = run.tasks(count=wl.pinned_tasks)
    finally:
        run.tracer = None
        t.restore()
    for (m, k), fn in originals.items():
        if getattr(sys.modules[m], k) is not fn:
            run.fail(f"{m}.{k} was not restored after tracing")
    if run.fingerprints != plain_fps:
        run.fail("traced and untraced runs gave different results")
    if run.inner_cap_hits != plain_caps:
        run.fail("traced and untraced runs hit the inner cap differently")
    if t.counters["nonmonotone_traces"]:
        run.fail(f"{t.counters['nonmonotone_traces']} sparsa_solve "
                 f"objective traces increase")

    values = tr.layer_metrics(t, run.inner_cap_hits)
    values["trace.overhead_frac"] = sum(durations) / sum(plain) - 1.0
    metrics = {name: (v, tr.unit(name)) for name, v in values.items()}
    OUT.mkdir(parents=True, exist_ok=True)
    spans = OUT / f"spans-{wl.name}-seed{wl.seed}.npz"
    t.write(spans)
    extras = {
        "traced_tasks": (wl.pinned_tasks, "count"),
        "spans": (len(t), "count"),
        "spans_file": (str(spans.relative_to(ROOT)), ""),
        "untraced_task_s": (plain, "s"),
        "traced_task_s": (durations, "s"),
    }
    return metrics, extras


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        ref = load_reference()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {REFERENCE}: {exc}", file=sys.stderr)
        return 2
    seed = ref["default_seed"] if args.seed is None else args.seed
    cls = WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        try:
            wl, setup_times = set_up(cls, seed, str(workdir))
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        run = Run(wl)
        if args.trace:
            metrics, extras = traced(run)
        else:
            metrics, extras = untraced(run, args, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.update_reference:
        if seed != ref["default_seed"] or run.failures:
            print("error: the reference takes a passing run at the default "
                  "seed", file=sys.stderr)
            return 2
        ref["workloads"][wl.name] = run.views
        with open(REFERENCE, "w", encoding="utf-8") as fh:
            json.dump(ref, fh, sort_keys=True, indent=1)
            fh.write("\n")
    elif seed == ref["default_seed"]:
        for msg in compare_reference(run.views,
                                     ref["workloads"].get(wl.name, []),
                                     ref["test_rtol"]):
            run.fail(f"reference: {msg}")

    if not args.trace:
        # after the reference check, so its failures count here too
        share = run.failed / max(run.attempted, 1)
        metrics["ok_frac"] = (1.0 - share, "ratio")
        extras["fail_frac"] = (share, "ratio")
    correct = not run.failures
    record = {
        "workload": wl.name, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "correct": correct, "attempted": run.attempted,
        "failed": run.failed, "failures": run.failures,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in {**metrics, **extras}.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"result-{wl.name}-seed{seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True, indent=1)
        fh.write("\n")

    for k, (v, u) in {**metrics, **extras}.items():
        if not isinstance(v, list):
            print(f"{k} = {v} {u}".rstrip())
    print(json.dumps({
        "correct": correct, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
