import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "fingerprints.py"


def _run(*args):
    return subprocess.run([sys.executable, str(TOOL), *args],
                          capture_output=True, text=True, timeout=300)


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
