import numpy as np
import numpy.testing as npt
import pytest

from sparcreg.prox import soft_threshold
from sparcreg.regularizers import ElasticNet, Lasso, Oscar, Sparc, prox
from sparcreg.solver import (
    Objective,
    SolverConfig,
    SolverDivergenceError,
    bb_step,
    gradient_smooth,
    objective_value,
    sparsa_solve,
)

from oracles import lasso_coordinate_descent


def _random_problem(rng, n, p):
    A = rng.normal(0, 1, size=(n, p))
    y = rng.normal(0, 1, size=n)
    return A, y


class TestObjective:
    def test_value_and_gradient_small_example(self):
        obj = Objective(np.eye(2), np.array([1.0, 0.0]), Lasso(1.0))
        x = np.array([0.0, 1.0])
        # 0.5*((0-1)^2 + 1^2) + 1 = 2
        assert objective_value(obj, x) == pytest.approx(2.0)
        npt.assert_allclose(gradient_smooth(obj, x), [-1.0, 1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Objective(np.eye(2), np.array([1.0, 0.0, 0.0]), Lasso(1.0))
        with pytest.raises(ValueError):
            Objective(np.array([1.0, 2.0]), np.array([1.0, 2.0]), Lasso(1.0))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Objective(np.array([[np.inf]]), np.array([1.0]), Lasso(1.0))

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(31)
        h = 1e-6
        for _ in range(5):
            A, y = _random_problem(rng, 12, 7)
            obj = Objective(A, y, Lasso(0.0))  # zero penalty: smooth part only
            x = rng.normal(0, 1, size=7)
            grad = gradient_smooth(obj, x)
            for j in range(7):
                e = np.zeros(7)
                e[j] = h
                fd = (objective_value(obj, x + e) - objective_value(obj, x - e)) / (2 * h)
                assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestBbStep:
    def test_identity(self):
        assert bb_step(np.array([1.0, -2.0]), np.eye(2)) == pytest.approx(1.0)

    def test_scaled_identity(self):
        assert bb_step(np.array([3.0]), 2.0 * np.eye(1)) == pytest.approx(4.0)

    def test_zero_displacement_rejected(self):
        with pytest.raises(ValueError):
            bb_step(np.zeros(3), np.eye(3))

    def test_bounded_by_extreme_singular_values(self):
        rng = np.random.default_rng(32)
        A = rng.normal(0, 1, size=(10, 6))
        sv = np.linalg.svd(A, compute_uv=False)
        for _ in range(20):
            s = rng.normal(0, 1, size=6)
            val = bb_step(s, A)
            assert sv[-1] ** 2 - 1e-9 <= val <= sv[0] ** 2 + 1e-9


class TestSolverConfig:
    def test_defaults_valid(self):
        SolverConfig()

    @pytest.mark.parametrize("kwargs", [
        dict(alpha_min=0.0),
        dict(alpha_min=2.0, alpha_max=1.0),
        dict(eta=1.0),
        dict(max_outer=0),
        dict(max_inner=0),
        dict(tol=0.0),
        dict(sigma=0.0),
        dict(sigma=1.0),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestIdentityDesign:
    """With A = I the minimizer is the plain prox of y; the solver should
    land on it exactly within a couple of steps."""

    def test_lasso(self):
        y = np.array([3.0, -0.4, 1.5, 0.0, -2.0])
        obj = Objective(np.eye(5), y, Lasso(1.0))
        res = sparsa_solve(obj)
        npt.assert_allclose(res.x, soft_threshold(y, 1.0), atol=1e-12)
        assert res.termination == "tolerance"
        assert res.iterations <= 5

    @pytest.mark.parametrize("reg", [
        Lasso(0.7),
        ElasticNet(0.5, 0.8),
        Oscar(0.2, 0.4),
        Sparc(0.6, 3),
    ])
    def test_all_regularizers_reach_prox_of_y(self, reg):
        rng = np.random.default_rng(33)
        y = rng.normal(0, 2, size=6)
        obj = Objective(np.eye(6), y, reg)
        res = sparsa_solve(obj)
        npt.assert_allclose(res.x, prox(reg, y), atol=1e-10)

    def test_trace_non_increasing(self):
        rng = np.random.default_rng(34)
        y = rng.normal(0, 2, size=8)
        res = sparsa_solve(Objective(np.eye(8), y, Oscar(0.3, 0.3)))
        assert np.all(np.diff(res.trace) <= 0)


class TestGeneralDesign:
    def test_unregularized_matches_least_squares(self):
        rng = np.random.default_rng(35)
        A, _ = _random_problem(rng, 30, 5)
        y = rng.normal(0, 1, size=30)
        obj = Objective(A, y, Sparc(0.0, 5))  # k = p, zero weight: free fit
        res = sparsa_solve(obj, config=SolverConfig(tol=1e-12, max_outer=5000))
        ref = np.linalg.lstsq(A, y, rcond=None)[0]
        npt.assert_allclose(res.x, ref, rtol=1e-5, atol=1e-8)

    def test_lasso_matches_coordinate_descent(self):
        rng = np.random.default_rng(36)
        for _ in range(5):
            n = int(rng.integers(12, 21))
            p = int(rng.integers(3, 11))
            A, y = _random_problem(rng, n, p)
            lam = 0.1 * float(np.abs(A.T @ y).max())
            obj = Objective(A, y, Lasso(lam))
            res = sparsa_solve(obj, config=SolverConfig(tol=1e-12, max_outer=20000))
            x_cd = lasso_coordinate_descent(A, y, lam)
            gap = objective_value(obj, res.x) - objective_value(obj, x_cd)
            assert abs(gap) <= 1e-6

    def test_trace_non_increasing_and_final_sparse(self):
        rng = np.random.default_rng(37)
        A, y = _random_problem(rng, 25, 12)
        res = sparsa_solve(Objective(A, y, Sparc(0.5, 4)),
                           config=SolverConfig(tol=1e-10, max_outer=3000))
        assert np.all(np.diff(res.trace) <= 0)
        assert np.count_nonzero(res.x) <= 4

    def test_fixed_point_at_tight_tolerance(self):
        rng = np.random.default_rng(38)
        A, y = _random_problem(rng, 40, 6)
        reg = Lasso(0.5)
        obj = Objective(A, y, reg)
        res = sparsa_solve(obj, config=SolverConfig(tol=1e-12, max_outer=20000))
        alpha = res.alpha_final
        again = prox(reg, res.x - gradient_smooth(obj, res.x) / alpha, alpha)
        assert float(np.max(np.abs(again - res.x))) <= 1e-5 * max(1.0, float(np.max(np.abs(res.x))))

    @pytest.mark.parametrize("reg", [Lasso(0.3), ElasticNet(0.2, 0.5),
                                     Oscar(0.1, 0.05), Sparc(0.05, 4)],
                             ids=["lasso", "enet", "oscar", "sparc"])
    def test_trace_ends_at_objective_of_returned_x(self, reg):
        rng = np.random.default_rng(41)
        A, y = _random_problem(rng, 25, 12)
        obj = Objective(A, y, reg)
        res = sparsa_solve(obj)
        assert res.trace[-1] == objective_value(obj, res.x)

    def test_warm_start_respects_sparsity_constraint(self):
        rng = np.random.default_rng(39)
        A, y = _random_problem(rng, 20, 10)
        x0 = rng.normal(0, 1, size=10)  # dense start, infeasible for k=3
        res = sparsa_solve(Objective(A, y, Sparc(0.2, 3)), x0=x0)
        assert np.count_nonzero(res.x) <= 3

    def test_x0_size_checked(self):
        with pytest.raises(ValueError):
            sparsa_solve(Objective(np.eye(3), np.zeros(3), Lasso(1.0)),
                         x0=np.zeros(2))


class TestTermination:
    def test_outer_cap_reported(self):
        rng = np.random.default_rng(40)
        A, y = _random_problem(rng, 20, 10)
        res = sparsa_solve(Objective(A, y, Lasso(0.01)),
                           config=SolverConfig(max_outer=1))
        assert res.termination == "max-iterations"
        assert res.iterations == 1

    def test_tolerance_reported(self):
        res = sparsa_solve(Objective(np.eye(2), np.array([1.0, 2.0]), Lasso(0.1)))
        assert res.termination == "tolerance"

    def test_inner_cap_falls_back_without_increasing_objective(self):
        # Stiff quadratic: the BB estimate from a displacement along the soft
        # coordinate badly underestimates curvature, so the single allowed
        # inner try fails the decrease test and the solver must stop in place.
        A = np.diag([1.0, 10.0])
        y = np.array([1.0, 10.0])
        obj = Objective(A, y, Lasso(0.0))
        cfg = SolverConfig(max_inner=1, max_outer=10)
        with pytest.warns(RuntimeWarning):
            res = sparsa_solve(obj, x0=np.array([2.0, 1.0 + 1e-5]), config=cfg)
        assert res.inner_cap_hit
        assert res.termination == "line-search-cap"
        assert np.all(np.diff(res.trace) <= 0)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergent_start_raises(self):
        obj = Objective(np.eye(2), np.array([1.0, 2.0]), Lasso(1.0))
        with pytest.raises(SolverDivergenceError):
            sparsa_solve(obj, x0=np.array([1e200, 1e200]))
