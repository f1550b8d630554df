"""Tests for the benchmark's own code: span arithmetic, patching, checks.

Run with:  python -m pytest bench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparcreg
import sparcreg.cli
import tracer as tr
from run import tail
from workloads import CsvFit, compare_reference

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _tracer_with(spans):
    """A Tracer holding hand-built (name, start, end, parent) spans."""
    t = tr.Tracer()
    for name, start, end, parent in spans:
        i = t.begin(name)
        t.start[i], t.end[i], t.parent[i] = start, end, parent
        t._open.pop()
    return t


class TestSelfTime:
    def test_covered_length_merges_overlaps_and_clips(self):
        assert tr.covered_length([(10, 30), (20, 50)], 0, 100) == 40
        assert tr.covered_length([(90, 120), (-5, 5)], 0, 100) == 15
        assert tr.covered_length([(10, 20), (10, 20)], 0, 100) == 10
        assert tr.covered_length([], 0, 100) == 0

    def test_self_time_subtracts_direct_children_only(self):
        t = _tracer_with([
            ("task", 0, 100, -1),
            ("solve", 10, 60, 0),
            ("prox", 20, 30, 1),
            ("prox", 40, 45, 1),
            ("solve", 70, 90, 0),
        ])
        assert tr.self_times(t.start, t.end, t.parent) == [30, 35, 10, 5, 20]
        s = tr.summarize(t)
        assert s["solve"]["calls"] == 2
        assert s["solve"]["s"] == pytest.approx(70e-9)
        assert s["solve"]["self_s"] == pytest.approx(55e-9)
        assert s["prox"]["self_s"] == pytest.approx(15e-9)
        assert s["task"]["self_s"] == pytest.approx(30e-9)

    def test_count_under_follows_ancestors(self):
        t = _tracer_with([
            ("regularizers.prox", 0, 5, -1),
            ("solver.sparsa_solve", 10, 50, -1),
            ("solver.objective_value", 12, 20, 1),
            ("regularizers.prox", 13, 14, 2),
            ("regularizers.prox", 30, 40, 1),
        ])
        assert tr.count_under(t, "regularizers.prox",
                              "solver.sparsa_solve") == 2


class TestPatching:
    def test_traced_calls_nest_and_originals_come_back(self):
        before = {(m, k): getattr(sys.modules[m], k)
                  for m, k in tr.bindings()}
        for binding in [("sparcreg.solver", "prox"),
                        ("sparcreg.regularizers", "prox_oscar"),
                        ("sparcreg.prox", "isotonic_decreasing"),
                        ("sparcreg.experiment", "sparsa_solve"),
                        ("sparcreg.cli", "load_csv"),
                        ("sparcreg", "grid_search")]:
            assert binding in before
        t = tr.Tracer()
        t.install()
        try:
            for (m, k), fn in before.items():
                assert getattr(sys.modules[m], k) is not fn
            ds = sparcreg.generate_synthetic(sparcreg.SyntheticSpec(seed=3))
            sparcreg.grid_search(ds, [sparcreg.Oscar(0.1, 0.01)])
        finally:
            t.restore()
        for (m, k), fn in before.items():
            assert getattr(sys.modules[m], k) is fn
        names = [t.names[i] for i in t.span_name]
        for i, name in enumerate(names):
            if name == "regularizers.prox":
                assert names[t.parent[i]] == "solver.sparsa_solve"
            if name == "prox.isotonic_decreasing":
                assert names[t.parent[i]] == "prox.prox_oscar"
        m = tr.layer_metrics(t, inner_cap_hits=0)
        assert m["solver.sparsa_solve.calls"] == 1
        assert m["experiment.grid_search.calls"] == 1
        assert m["data.generate.s"] > 0
        assert m["solver.candidates"] == m["regularizers.prox.calls"]
        assert m["solver.iterations"] <= m["solver.candidates"]


def test_solve_hook_counts_iterations_caps_and_rising_traces():
    class Result:
        def __init__(self, trace, termination):
            self.trace = np.asarray(trace)
            self.iterations = self.trace.size
            self.termination = termination

    t = tr.Tracer()
    tr._hook_solve_result(t, (), {}, Result([3.0, 2.0, 2.0], "tolerance"))
    tr._hook_solve_result(t, (), {}, Result([3.0, 3.5], "max-iterations"))
    assert t.counters["iterations"] == 5
    assert t.counters["term_max_iterations"] == 1
    assert t.counters["nonmonotone_traces"] == 1


class TestNames:
    def test_metric_names_and_units_match_benchmark_json(self):
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            bench = json.load(fh)
        every = (bench["workloads"] + bench["end_to_end"]
                 + bench["per_layer"])
        for entry in every:
            assert NAME.match(entry["name"]), entry["name"]
        t = _tracer_with([])
        produced = set(tr.layer_metrics(t, 0)) | {"trace.overhead_frac"}
        listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
        assert set(listed) == produced
        for name, unit in listed.items():
            assert tr.unit(name) == unit


def test_tail_is_the_interpolated_75th_percentile():
    assert tail([2.0]) == (2.0, "p75 of 1 tasks, 0 beyond it")
    value, label = tail([float(i) for i in range(1, 21)])
    assert value == pytest.approx(15.25)
    assert label == "p75 of 20 tasks, 5 beyond it"


def test_reference_pins_selection_exactly_and_metrics_within_rtol():
    ref = [{"selected": [{"type": "lasso", "lam1": 1.0}],
            "test_mse": [2.0]}]
    same = [{"selected": [{"type": "lasso", "lam1": 1.0}],
             "test_mse": [2.0 * (1 + 1e-7)]}]
    assert compare_reference(same, ref, 1e-6) == []
    moved = [{"selected": [{"type": "lasso", "lam1": 1.0}],
              "test_mse": [2.1]}]
    assert len(compare_reference(moved, ref, 1e-6)) == 1
    other = [{"selected": [{"type": "lasso", "lam1": 0.5}],
              "test_mse": [2.0]}]
    assert len(compare_reference(other, ref, 1e-6)) == 1
    assert compare_reference([], ref, 1e-6)


def test_csv_fit_task_drives_cli_main_and_passes_its_checks(tmp_path):
    wl = CsvFit(0, str(tmp_path))
    wl.setup()
    outcome = wl.task(0)
    fails, view = wl.check(outcome)
    assert fails == []
    assert outcome[0] == 0 and outcome[2] == 0
    assert view["selected"][0]["type"] == "sparc"
    assert np.count_nonzero(outcome[4]) <= view["selected"][0]["k"]


def test_run_refuses_a_tree_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "synth-p40",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "no sparcreg package" in proc.stderr
