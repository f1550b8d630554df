"""End-to-end acceptance gate.

Every check prints one ``[PASS]``/``[FAIL]`` line (run with ``pytest -s``
to see them live) and then asserts, so the suite both documents and
enforces the package's headline guarantees:

1.  every proximity operator reaches the exact optimum that enumerating
    every face finds,
2.  the pooling projection matches block enumeration,
3.  the ordered-weight penalty form matches the literal pairwise sums,
4.  on an identity design the solver lands on the closed-form prox,
5.  the 50-repetition regression benchmark reproduces the headline
    orderings (low clustered complexity for the k-sparse method, lower
    magnitude and prediction error than the convex baselines),
6.  the 20-repetition classification benchmark keeps accuracy while
    using far fewer coefficient classes,
7.  core invariants (sparsity, equivariance, nonexpansiveness, gradient
    correctness, byte-identical reruns) hold under random streams.

The two benchmark fixtures dominate the runtime (about two minutes).
"""

import sys

import numpy as np
import pytest

from sparcreg.data import ClassificationSpec, SyntheticSpec
from sparcreg.experiment import default_grids, emit_table, run_repetitions
from sparcreg.metrics import dof, nnz
from sparcreg.prox import (
    isotonic_decreasing,
    prox_elastic_net,
    prox_oscar,
    prox_sparc,
    soft_threshold,
)
from sparcreg.regularizers import (
    ElasticNet,
    Lasso,
    Oscar,
    Sparc,
    penalty_value,
    prox,
    prox_objective,
)
from sparcreg.solver import Objective, gradient_smooth, objective_value, \
    sparsa_solve

from oracles import (
    isotonic_decreasing_bruteforce,
    oscar_penalty_direct,
    prox_exact,
    sparc_penalty_direct,
)

BENCHMARK_SEED = 20260814


def _line(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def regression_benchmark():
    spec = SyntheticSpec()
    return run_repetitions(spec, default_grids(spec.p), repetitions=50,
                           master_seed=BENCHMARK_SEED)


@pytest.fixture(scope="module")
def classification_benchmark():
    spec = ClassificationSpec()
    return run_repetitions(spec, default_grids(spec.p), repetitions=20,
                           master_seed=BENCHMARK_SEED)


def _mean(report, method, metric):
    return report.summary[method]["mean"][metric]


# ------------------------------------------------------------ criterion 1

def test_prox_matches_exhaustive_search():
    rng = np.random.default_rng(1001)
    # (dimension, cases, max vector scale); the oracle enumerates every
    # face of R^p, 24 483 of them at p = 5
    plans = [(2, 100, 2.5), (3, 200, 2.5), (4, 200, 2.0), (5, 100, 2.0)]
    kinds = ("lasso", "enet", "oscar", "sparc")
    worst = 0.0
    total = 0
    for p, count, scale in plans:
        for _ in range(count):
            v = rng.uniform(-scale, scale, size=p)
            kind = kinds[int(rng.integers(len(kinds)))]
            lam1 = float(rng.uniform(0.0, 1.5))
            lam2 = float(rng.uniform(0.0, 1.5))
            k = int(rng.integers(1, p + 1))
            if kind == "lasso":
                reg, params = Lasso(lam1), {"lam1": lam1}
            elif kind == "enet":
                reg, params = (ElasticNet(lam1, lam2),
                               {"lam1": lam1, "lam2": lam2})
            elif kind == "oscar":
                reg, params = Oscar(lam1, lam2), {"lam1": lam1, "lam2": lam2}
            else:
                reg, params = Sparc(lam1, k), {"lam": lam1, "k": k}
            ours = prox_objective(reg, v, prox(reg, v))
            ref, _ = prox_exact(kind, params, v)
            worst = max(worst, abs(ours - ref))
            total += 1
    _line("prox-face-oracle", worst <= 1e-12,
          f"max objective gap {worst:.3e} over {total} cases "
          f"(tolerance 1e-12)")


# ------------------------------------------------------------ criterion 2

def test_isotonic_matches_enumeration():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        u = rng.normal(0, 3, size=n)
        gap = float(np.max(np.abs(
            isotonic_decreasing(u) - isotonic_decreasing_bruteforce(u))))
        worst = max(worst, gap)
    _line("isotonic-enumeration", worst <= 1e-10,
          f"max coordinate gap {worst:.3e} over 1000 vectors "
          f"(tolerance 1e-10)")


# ------------------------------------------------------------ criterion 3

def test_pairwise_penalty_matches_weight_form():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(1000):
        p = int(rng.integers(1, 51))
        x = rng.normal(0, 2, size=p)
        lam1 = float(rng.uniform(0, 2))
        lam2 = float(rng.uniform(0, 2))
        ours = penalty_value(Oscar(lam1, lam2), x)
        ref = oscar_penalty_direct(x, lam1, lam2)
        worst = max(worst, abs(ours - ref) / max(1.0, abs(ref)))
        k = int(rng.integers(1, p + 1))
        xs = np.where(np.argsort(np.argsort(-np.abs(x))) < k, x, 0.0)
        ours_k = penalty_value(Sparc(lam2, k), xs)
        ref_k = sparc_penalty_direct(xs, lam2, k)
        worst = max(worst, abs(ours_k - ref_k) / max(1.0, abs(ref_k)))
    _line("pairwise-weight-form", worst <= 1e-10,
          f"max relative gap {worst:.3e} over 1000 vectors "
          f"(tolerance 1e-10)")


# ------------------------------------------------------------ criterion 4

def test_identity_design_reaches_closed_form():
    rng = np.random.default_rng(1004)
    worst_gap = -np.inf
    worst_iters = 0
    monotone = True
    for _ in range(25):
        y = rng.normal(0, 2, size=8)
        for reg in (Lasso(0.8), ElasticNet(0.6, 0.5), Oscar(0.3, 0.4),
                    Sparc(0.5, 3)):
            obj = Objective(np.eye(8), y, reg)
            res = sparsa_solve(obj)
            gap = objective_value(obj, res.x) - objective_value(
                obj, prox(reg, y))
            worst_gap = max(worst_gap, abs(gap))
            worst_iters = max(worst_iters, res.iterations)
            monotone = monotone and bool(np.all(np.diff(res.trace) <= 0))
    ok = worst_gap <= 1e-6 and worst_iters <= 50 and monotone
    _line("identity-design-solver", ok,
          f"max objective gap {worst_gap:.3e} (tolerance 1e-6), "
          f"max iterations {worst_iters} (cap 50), "
          f"traces non-increasing: {monotone}")


# ------------------------------------------------------------ criterion 5

def test_regression_benchmark_sparc_dof(regression_benchmark):
    val = _mean(regression_benchmark, "sparc", "DoF")
    _line("regression-sparc-dof", val <= 8.0,
          f"mean DoF {val:.2f} <= 8.00 over "
          f"{regression_benchmark.repetitions} repetitions")


def test_regression_benchmark_ser_ordering(regression_benchmark):
    s = _mean(regression_benchmark, "sparc", "SER")
    l = _mean(regression_benchmark, "lasso", "SER")
    e = _mean(regression_benchmark, "enet", "SER")
    _line("regression-ser-ordering", s < l and s < e,
          f"mean SER sparc {s:.2f} < lasso {l:.2f} and < enet {e:.2f}")


def test_regression_benchmark_mse_ordering(regression_benchmark):
    s = _mean(regression_benchmark, "sparc", "MSE")
    e = _mean(regression_benchmark, "enet", "MSE")
    _line("regression-mse-ordering", s < e,
          f"mean MSE sparc {s:.3f} < enet {e:.3f}")


def test_regression_benchmark_dof_ordering(regression_benchmark):
    s = _mean(regression_benchmark, "sparc", "DoF")
    e = _mean(regression_benchmark, "enet", "DoF")
    _line("regression-dof-ordering", e > s,
          f"mean DoF enet {e:.2f} > sparc {s:.2f}")


# ------------------------------------------------------------ criterion 6

def test_classification_benchmark_accuracy(classification_benchmark):
    s = _mean(classification_benchmark, "sparc", "CLA")
    l = _mean(classification_benchmark, "lasso", "CLA")
    _line("classification-accuracy", s >= l - 2.0,
          f"mean CLA sparc {s:.2f} >= lasso {l:.2f} - 2.00 over "
          f"{classification_benchmark.repetitions} repetitions")


def test_classification_benchmark_dof(classification_benchmark):
    s = _mean(classification_benchmark, "sparc", "DoF")
    e = _mean(classification_benchmark, "enet", "DoF")
    _line("classification-dof", s < e,
          f"mean DoF sparc {s:.2f} < enet {e:.2f}")


# ------------------------------------------------------------ criterion 7

def test_invariant_k_sparsity():
    rng = np.random.default_rng(1007)
    violations = 0
    for _ in range(300):
        p = int(rng.integers(1, 15))
        k = int(rng.integers(1, p + 1))
        v = rng.normal(0, 3, size=p)
        x = prox_sparc(v, float(rng.uniform(0, 2)), k)
        violations += int(np.count_nonzero(x) > k)
    _line("prox-k-sparsity", violations == 0,
          f"{violations} violations in 300 draws")


def test_invariant_permutation_equivariance():
    rng = np.random.default_rng(1008)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(2, 10))
        # distinct magnitudes keep the minimizer's support unambiguous
        mags = np.cumsum(rng.uniform(0.05, 1.0, size=p))
        v = mags * rng.choice([-1.0, 1.0], size=p)
        perm = rng.permutation(p)
        lam1, lam2 = rng.uniform(0, 1.5, size=2)
        k = int(rng.integers(1, p + 1))
        worst = max(worst, float(np.max(np.abs(
            prox_oscar(v[perm], lam1, lam2)
            - prox_oscar(v, lam1, lam2)[perm]))))
        worst = max(worst, float(np.max(np.abs(
            prox_sparc(v[perm], lam2, k)
            - prox_sparc(v, lam2, k)[perm]))))
    _line("permutation-equivariance", worst <= 1e-10,
          f"max coordinate gap {worst:.3e} over 100 draws "
          f"(tolerance 1e-10)")


def test_invariant_nonexpansiveness():
    rng = np.random.default_rng(1009)
    worst = -np.inf
    for _ in range(100):
        p = int(rng.integers(1, 12))
        u = rng.normal(0, 3, size=p)
        v = rng.normal(0, 3, size=p)
        lam1, lam2 = rng.uniform(0, 2, size=2)
        ref = float(np.linalg.norm(u - v))
        for a, b in (
            (soft_threshold(u, lam1), soft_threshold(v, lam1)),
            (prox_elastic_net(u, lam1, lam2), prox_elastic_net(v, lam1, lam2)),
            (prox_oscar(u, lam1, lam2), prox_oscar(v, lam1, lam2)),
        ):
            worst = max(worst, float(np.linalg.norm(a - b)) - ref)
    _line("prox-nonexpansive", worst <= 1e-9,
          f"max expansion {worst:.3e} over 100 pairs (tolerance 1e-9)")


def test_invariant_gradient_matches_finite_differences():
    rng = np.random.default_rng(1010)
    h = 1e-6
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(5, 16))
        p = int(rng.integers(2, 9))
        A = rng.normal(0, 1, size=(n, p))
        y = rng.normal(0, 1, size=n)
        obj = Objective(A, y, Lasso(0.0))
        x = rng.normal(0, 1, size=p)
        grad = gradient_smooth(obj, x)
        for j in range(p):
            e = np.zeros(p)
            e[j] = h
            fd = (objective_value(obj, x + e)
                  - objective_value(obj, x - e)) / (2 * h)
            worst = max(worst, abs(grad[j] - fd) / max(1.0, abs(fd)))
    _line("gradient-fd", worst <= 1e-5,
          f"max relative error {worst:.3e} with step {h:g} "
          f"(tolerance 1e-5)")


def test_invariant_reruns_are_byte_identical(tmp_path):
    from sparcreg.experiment import GridSpec
    spec = SyntheticSpec(n_train=12, n_validation=8, n_test=8,
                         n_groups=2, group_size=2, n_irrelevant=3)
    grids = GridSpec(lasso=(Lasso(0.5), Lasso(0.05)),
                     sparc=(Sparc(0.5, 4), Sparc(0.05, 4)))
    outs = []
    for sub in ("a", "b"):
        report = run_repetitions(spec, grids, repetitions=2, master_seed=3,
                                 methods=("lasso", "sparc"))
        outs.append(emit_table(report, tmp_path / sub))
    same = all(open(p1, "rb").read() == open(p2, "rb").read()
               for p1, p2 in zip(*outs))
    _line("rerun-determinism", same,
          "report.csv, report.json, profile.csv byte-identical "
          "across two runs")
