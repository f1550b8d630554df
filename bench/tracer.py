"""Span recorder that times calls into sparcreg's public functions from outside.

``Tracer.install`` replaces each listed function, in every ``sparcreg``
module namespace that binds it, with a wrapper that records one span per
call: name, start, end, enclosing span and trace id (one trace per
benchmark task).  Spans stay in memory in flat arrays; ``write`` saves them
when the run ends.  ``restore`` puts every original function object back.

Nothing here is imported by an untraced benchmark run.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "sparcreg"


def _hook_isotonic(tracer, args, kwargs):
    u = np.asarray(args[0] if args else kwargs["u"], dtype=float)
    tracer.counters["isotonic_elems"] += u.size
    if u.size <= 1 or bool(np.all(np.diff(u) <= 0)):
        tracer.counters["isotonic_feasible"] += 1


def _hook_solve_result(tracer, args, kwargs, result):
    tracer.counters["iterations"] += result.iterations
    if result.termination == "max-iterations":
        tracer.counters["term_max_iterations"] += 1
    if result.trace.size > 1 and not bool(np.all(np.diff(result.trace) <= 0)):
        tracer.counters["nonmonotone_traces"] += 1


def _file_bytes(counter, position, keyword):
    def hook(tracer, args, kwargs, result=None):
        path = args[position] if len(args) > position else kwargs[keyword]
        tracer.counters[counter] += os.path.getsize(path)
    return hook


# (span name, defining module, function, hook before the call, hook after)
TARGETS = (
    ("prox.soft_threshold", "prox", "soft_threshold", None, None),
    ("prox.prox_elastic_net", "prox", "prox_elastic_net", None, None),
    ("prox.isotonic_decreasing", "prox", "isotonic_decreasing",
     _hook_isotonic, None),
    ("prox.prox_oscar", "prox", "prox_oscar", None, None),
    ("prox.top_k_support", "prox", "top_k_support", None, None),
    ("prox.prox_sparc", "prox", "prox_sparc", None, None),
    ("regularizers.prox", "regularizers", "prox", None, None),
    ("regularizers.penalty_value", "regularizers", "penalty_value",
     None, None),
    ("solver.sparsa_solve", "solver", "sparsa_solve", None,
     _hook_solve_result),
    ("solver.objective_value", "solver", "objective_value", None, None),
    ("solver.gradient_smooth", "solver", "gradient_smooth", None, None),
    ("solver.bb_step", "solver", "bb_step", None, None),
    ("experiment.grid_search", "experiment", "grid_search", None, None),
    ("metrics.compute_report", "metrics", "compute_report", None, None),
    ("data.generate", "data", "generate_synthetic", None, None),
    ("data.generate", "data", "generate_grouped_classification",
     None, None),
    ("data.write_csv", "data", "write_csv", None,
     _file_bytes("write_csv_bytes", 1, "path")),
    ("data.load_csv", "data", "load_csv",
     _file_bytes("load_csv_bytes", 0, "path"), None),
    ("data.prep", "data", "split_dataset", None, None),
    ("data.prep", "data", "top_correlation_screen", None, None),
    ("data.prep", "data", "normalize_dataset", None, None),
    ("cli.fit", "cli", "cmd_fit", None, None),
    ("cli.describe", "cli", "cmd_describe", None, None),
)


def _modules():
    return [m for k, m in sorted(sys.modules.items())
            if k == PACKAGE or k.startswith(PACKAGE + ".")]


def bindings(targets=TARGETS):
    """Every (module name, attribute) bound to one of the target functions."""
    originals = {id(getattr(sys.modules[f"{PACKAGE}.{home}"], attr))
                 for _, home, attr, _, _ in targets}
    return [(mod.__name__, key) for mod in _modules()
            for key, value in vars(mod).items() if id(value) in originals]


class Tracer:
    """In-memory span store plus the module patches that feed it."""

    def __init__(self):
        self.name_ids = {}
        self.names = []
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.trace = array("q")
        self.trace_id = -1
        self.counters = Counter()
        self._open = []
        self._patched = []   # (module, attribute, original)

    def __len__(self):
        return len(self.start)

    def begin(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.trace.append(self.trace_id)
        self.end.append(-1)
        self._open.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def finish(self, i):
        self.end[i] = time.perf_counter_ns()
        self._open.pop()

    def span(self, name):
        return _Span(self, name)

    def wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            i = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(i)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self, targets=TARGETS):
        """Patch every binding of each target in the loaded sparcreg modules."""
        modules = _modules()
        for name, home, attr, before, after in targets:
            original = getattr(sys.modules[f"{PACKAGE}.{home}"], attr)
            wrapper = self.wrap(name, original, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def restore(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def write(self, path):
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            trace=np.frombuffer(self.trace, dtype=np.int64),
        )


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.i = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.finish(self.i)
        return False


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0
    reach = lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(start, end, parent):
    """Each span's duration minus the part its direct children cover."""
    children = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append((start[i], end[i]))
    return [end[i] - start[i]
            - covered_length(children.get(i, ()), start[i], end[i])
            for i in range(len(start))]


def summarize(tracer):
    """Per span name: calls, inclusive seconds and self seconds."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls, incl, excl = Counter(), Counter(), Counter()
    for i, nid in enumerate(tracer.span_name):
        name = tracer.names[nid]
        calls[name] += 1
        incl[name] += tracer.end[i] - tracer.start[i]
        excl[name] += selfs[i]
    return {name: {"calls": calls[name], "s": incl[name] * 1e-9,
                   "self_s": excl[name] * 1e-9}
            for name in tracer.names}


def count_under(tracer, name, ancestor):
    """Spans called ``name`` that have an enclosing ``ancestor`` span."""
    ids = tracer.name_ids
    if name not in ids or ancestor not in ids:
        return 0
    nid, aid = ids[name], ids[ancestor]
    n = 0
    for i, k in enumerate(tracer.span_name):
        if k != nid:
            continue
        p = tracer.parent[i]
        while p >= 0 and tracer.span_name[p] != aid:
            p = tracer.parent[p]
        n += p >= 0
    return n


def layer_metrics(tracer, inner_cap_hits):
    """The per-layer metrics, keyed by the names listed in BENCHMARK.json."""
    s = summarize(tracer)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def get(name):
        return s.get(name, zero)

    c = tracer.counters
    iso = get("prox.isotonic_decreasing")
    candidates = count_under(tracer, "regularizers.prox",
                             "solver.sparsa_solve")
    write, load = get("data.write_csv"), get("data.load_csv")
    return {
        "prox.isotonic_decreasing.calls": iso["calls"],
        "prox.isotonic_decreasing.s": iso["s"],
        "prox.isotonic_decreasing.elems": c["isotonic_elems"],
        "prox.isotonic_decreasing.feasible_frac":
            c["isotonic_feasible"] / iso["calls"] if iso["calls"] else 0.0,
        "prox.prox_oscar.s": get("prox.prox_oscar")["s"],
        "prox.prox_sparc.s": get("prox.prox_sparc")["s"],
        "prox.prox_elastic_net.s": get("prox.prox_elastic_net")["s"],
        "prox.soft_threshold.s": get("prox.soft_threshold")["s"],
        "prox.top_k_support.s": get("prox.top_k_support")["s"],
        "regularizers.prox.calls": get("regularizers.prox")["calls"],
        "regularizers.prox.self_s": get("regularizers.prox")["self_s"],
        "regularizers.penalty_value.calls":
            get("regularizers.penalty_value")["calls"],
        "regularizers.penalty_value.s": get("regularizers.penalty_value")["s"],
        "solver.sparsa_solve.calls": get("solver.sparsa_solve")["calls"],
        "solver.sparsa_solve.s": get("solver.sparsa_solve")["s"],
        "solver.sparsa_solve.self_s": get("solver.sparsa_solve")["self_s"],
        "solver.objective_value.s": get("solver.objective_value")["s"],
        "solver.gradient_smooth.s": get("solver.gradient_smooth")["s"],
        "solver.bb_step.s": get("solver.bb_step")["s"],
        "solver.iterations": c["iterations"],
        "solver.candidates": candidates,
        "solver.accept_ratio":
            c["iterations"] / candidates if candidates else 0.0,
        "solver.matvecs_computed": (get("solver.objective_value")["calls"]
                                    + 2 * get("solver.gradient_smooth")["calls"]
                                    + get("solver.bb_step")["calls"]),
        "solver.term_max_iterations": c["term_max_iterations"],
        "solver.inner_cap_hits": inner_cap_hits,
        "experiment.grid_search.calls": get("experiment.grid_search")["calls"],
        "experiment.grid_search.self_s":
            get("experiment.grid_search")["self_s"],
        "metrics.compute_report.s": get("metrics.compute_report")["s"],
        "data.generate.s": get("data.generate")["s"],
        "data.write_csv.s": write["s"],
        "data.write_csv.mb_per_s":
            c["write_csv_bytes"] / 1e6 / write["s"] if write["s"] else 0.0,
        "data.load_csv.s": load["s"],
        "data.load_csv.mb_per_s":
            c["load_csv_bytes"] / 1e6 / load["s"] if load["s"] else 0.0,
        "data.prep.s": get("data.prep")["s"],
        "cli.fit.self_s": get("cli.fit")["self_s"],
        "cli.describe.self_s": get("cli.describe")["self_s"],
    }


def unit(name):
    """The unit of a per-layer metric, from its name."""
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith((".s", "self_s")):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"
