import copy
import importlib
import importlib.util
import json
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sparcreg

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "fingerprints.py"
MODULES = ["sparcreg"] + [f"sparcreg.{m.name}"
                          for m in pkgutil.iter_modules(sparcreg.__path__)]


def _run(*args):
    return subprocess.run([sys.executable, str(TOOL), *args],
                          capture_output=True, text=True, timeout=300)


@pytest.fixture
def fingerprints(monkeypatch):
    """tools/fingerprints.py as a module; the BLAS variables and the import
    path it sets are restored afterwards."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", [str(TOOL.parent), *sys.path])
    return importlib.import_module("fingerprints")


class TestExports:
    @pytest.mark.parametrize("module", MODULES)
    def test_every_exported_name_resolves(self, module):
        mod = importlib.import_module(module)
        assert [n for n in mod.__all__ if not hasattr(mod, n)] == []

    def test_every_traced_function_exists(self):
        # bench/tracer.py patches these by name; one that is gone would
        # fail only when a traced benchmark runs
        spec = importlib.util.spec_from_file_location(
            "tracer", ROOT / "bench" / "tracer.py")
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        missing = [f"{home}.{attr}" for _, home, attr, _, _ in tracer.TARGETS
                   if not callable(getattr(importlib.import_module(
                       f"sparcreg.{home}"), attr, None))]
        assert missing == []


class TestFingerprints:
    def test_prints_one_digest_and_removes_its_workdir(self, tmp_path):
        workdir = tmp_path / "work"
        out = _run("--workload", "csv-fit", "--seed", "3",
                   "--workdir", str(workdir))
        assert out.returncode == 0, out.stderr
        assert re.fullmatch(r"csv-fit seed=3 tasks=3 warnings=\d+ "
                            r"sha256=[0-9a-f]{64}\n", out.stdout)
        assert not workdir.exists()

    # largep-path runs the solver above the size rule: gathered products,
    # the gradient screen and Objective._of_rows
    @pytest.mark.parametrize("workload, seed, tasks", [
        ("csv-fit", 3, 3), ("largep-path", 0, 6)],
        ids=["csv-fit", "largep-path"])
    def test_against_the_same_tree_agrees(self, tmp_path, workload, seed,
                                          tasks):
        workdir = tmp_path / "work"
        out = _run("--against", str(ROOT / "src"), "--workload", workload,
                   "--seed", str(seed), "--workdir", str(workdir))
        assert out.returncode == 0, out.stderr
        heading, theirs, heading2, ours = out.stdout.splitlines()
        assert (heading, heading2) == (f"{ROOT / 'src'}:",
                                       f"{ROOT / 'src'}:")
        assert theirs == ours \
            and ours.startswith(f"{workload} seed={seed} tasks={tasks} ")
        assert not workdir.exists()

    def test_default_seed_matches_the_reference(self, tmp_path):
        out = _run("--workload", "synth-p40", "--seed", "0",
                   "--workdir", str(tmp_path / "work"))
        assert out.returncode == 0, out.stderr
        assert re.fullmatch(r"synth-p40 seed=0 tasks=4 warnings=\d+ "
                            r"sha256=[0-9a-f]{64} reference=ok\n", out.stdout)

    def test_one_altered_selection_is_one_difference(self, fingerprints):
        with open(ROOT / "bench" / "reference.json", encoding="utf-8") as fh:
            ref = json.load(fh)
        want = ref["workloads"]["synth-p40"]
        views = copy.deepcopy(want)
        assert fingerprints.reference_verdict(
            views, want, ref["test_rtol"]) == "reference=ok"
        views[2]["selected"][0]["lam1"] *= 2
        head, diff = fingerprints.reference_verdict(
            views, want, ref["test_rtol"]).splitlines()
        assert head == "reference=1 largest_move=0"
        assert diff.startswith("  task 2: selected [{'lam1': ")
        # a test metric that moves by half is a second difference
        views[2]["test_mse"][0] *= 1.5
        head, *diffs = fingerprints.reference_verdict(
            views, want, ref["test_rtol"]).splitlines()
        assert (head, len(diffs)) == ("reference=2 largest_move=0.5", 2)
        assert diffs[1].startswith("  task 2: test_mse ")

    @pytest.mark.parametrize("args, workdir, message", [
        (("--workload", "nope"), "new", "unknown workload"),
        ((), "", "exists"),
        (("--against", str(ROOT / "tools")), "new",
         "holds no sparcreg package"),
    ], ids=["unknown-workload", "existing-workdir", "against-no-package"])
    def test_refuses(self, tmp_path, args, workdir, message):
        out = _run(*args, "--workdir", str(tmp_path / workdir))
        assert out.returncode != 0 and message in out.stderr
        assert not (tmp_path / "new").exists()


class TestBehaviour:
    def test_same_tree_gives_zero_deltas_and_equal_work(self):
        src = str(ROOT / "src")
        out = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "behaviour.py"),
             "--src", src, "--src", src, "--reps", "2,2"],
            capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        assert lines[:2] == [f"A: {src}", f"B: {src}"]
        assert lines[-1] == "nonzero deltas: 0"
        # two reps of four methods per fixture, every one tied
        for fixture in ("regression", "classification"):
            reps = [l for l in lines if l.startswith(f"{fixture} rep=")]
            assert len(reps) == 8 and all(l.endswith(" same") for l in reps)
            summary = [l for l in lines if " wins=" in l
                       and l.startswith(fixture + " ")]
            assert len(summary) == 12
            assert all("wins=0 losses=0 ties=2 worst=none" in l
                       for l in summary)
            work = [l for l in lines
                    if l.startswith((f"{fixture} work ", f"{fixture} ends "))]
            assert any(" candidates: " in l for l in work)
            for l in work:
                a, b = re.search(r"A=(\d+) B=(\d+) d=0$", l).groups()
                assert a == b
        deltas = re.findall(r"\bd=(\S+)", out.stdout)
        assert deltas and set(deltas) == {"0"}
