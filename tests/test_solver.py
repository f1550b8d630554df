from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from sparcreg.prox import soft_threshold
from sparcreg import solver
from sparcreg.data import Dataset
from sparcreg.regularizers import (
    ElasticNet,
    Lasso,
    Oscar,
    Sparc,
    _penalty,
    prox,
)
from sparcreg.solver import (
    Objective,
    SolverConfig,
    SolverDivergenceError,
    _SUPPORT_PRODUCTS_MAX_FRACTION,
    _SUPPORT_PRODUCTS_MIN_SIZE,
    _residual_and_objective,
    _times_A,
    bb_step,
    gradient_smooth,
    objective_value,
    sparsa_solve,
)

from oracles import (lasso_coordinate_descent, sparc_global_bruteforce,
                     sparc_penalty_direct)


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

    @pytest.mark.parametrize("y", [np.ones((3, 1)), np.ones(2)],
                             ids=["2-D", "wrong-length"])
    def test_response_check_is_the_datasets(self, y):
        # one rule, one message: y is a vector with one entry per row of A
        with pytest.raises(ValueError) as from_dataset:
            Dataset(np.ones((3, 2)), y, "regression")
        with pytest.raises(ValueError) as from_objective:
            Objective(np.ones((3, 2)), y, Lasso(1.0))
        assert str(from_objective.value) == str(from_dataset.value) \
            == f"y has shape {y.shape}, expected (3,)"

    @pytest.mark.parametrize("reg, error, message", [
        ("lasso", TypeError, "unknown regularizer 'lasso'"),
        (Sparc(1.0, 5), ValueError, "k must satisfy 1 <= k <= 2, got 5"),
    ], ids=["not-a-regularizer", "cap-above-p"])
    def test_regularizer_checked_when_built(self, reg, error, message):
        # not first inside sparsa_solve
        A, y = np.ones((3, 2)), np.ones(3)
        with pytest.raises(error) as built:
            Objective(A, y, reg)
        assert str(built.value) == message
        with pytest.raises(error) as derived:
            Objective(A, y, Lasso(1.0))._with_reg(reg)
        assert str(derived.value) == message

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

    # ids kept from when the step-rule fields had rows here
    @pytest.mark.parametrize("kwargs", [
        dict(max_outer=0),
        dict(tol=0.0),
        dict(tol=np.nan),
        dict(tol=np.inf),
    ], ids=["kwargs3", "kwargs5", "kwargs10", "kwargs11"])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("flag", [True, np.True_],
                             ids=["bool", "numpy-bool"])
    def test_boolean_tol_rejected(self, flag):
        # True == 1, a valid tolerance, but a flag is not one
        with pytest.raises(ValueError,
                           match=r"tol must lie in \(0, inf\), got True"):
            SolverConfig(tol=flag)


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

    @pytest.mark.parametrize("reg", [Lasso(0.3), ElasticNet(0.2, 0.5),
                                     Oscar(0.1, 0.05), Sparc(0.05, 4)],
                             ids=["lasso", "enet", "oscar", "sparc"])
    def test_loop_objective_equals_checked_objective(self, reg):
        # the solver's unchecked F must be the public objective bit for bit
        rng = np.random.default_rng(43)
        A, y = _random_problem(rng, 15, 12)
        obj = Objective(A, y, reg)
        for _ in range(50):
            x = rng.normal(0, 1, size=12)
            x[rng.random(12) < rng.random()] = 0.0
            r, f = _residual_and_objective(obj, x)
            assert f == objective_value(obj, x)
            assert r.tobytes() == (A @ x - y).tobytes()

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

    def test_inner_cap_falls_back_without_increasing_objective(
            self, monkeypatch):
        # Stiff quadratic: the BB estimate from a displacement along the soft
        # coordinate badly underestimates curvature, so the single allowed
        # inner try fails the decrease test and the solver must stop in place.
        A = np.diag([1.0, 10.0])
        y = np.array([1.0, 10.0])
        obj = Objective(A, y, Lasso(0.0))
        monkeypatch.setattr(solver, "_MAX_INNER", 1)
        cfg = SolverConfig(max_outer=10)
        with pytest.warns(RuntimeWarning):
            res = sparsa_solve(obj, x0=np.array([2.0, 1.0 + 1e-5]), config=cfg)
        assert res.termination == "line-search-cap"
        assert np.all(np.diff(res.trace) <= 0)

    @staticmethod
    def _residual(obj, x, alpha):
        """alpha ||x+ - x|| of the candidate from x at alpha."""
        step = prox(obj.reg, x - gradient_smooth(obj, x) / alpha, alpha)
        return alpha * np.linalg.norm(step - x)

    def test_fixed_point_residual_at_a_tolerance_stop(self):
        rng = np.random.default_rng(40)
        A, y = _random_problem(rng, 20, 10)
        obj = Objective(A, y, Lasso(0.3))
        res = sparsa_solve(obj)
        assert res.termination == "tolerance" and res.iterations > 2
        # the accepted step into res.x, from the iterate before it
        prev = sparsa_solve(obj, config=SolverConfig(
            max_outer=res.iterations - 1))
        assert res.fixed_point_residual == pytest.approx(
            self._residual(obj, prev.x, res.alpha_final), rel=1e-12)
        assert res.fixed_point_residual > 0

    def test_fixed_point_residual_after_a_step_that_moved_nowhere(self):
        # x0 is the solution: the first step comes back to it exactly
        obj = Objective(np.eye(2), np.array([1.0, 2.0]), Lasso(0.5))
        res = sparsa_solve(obj, x0=np.array([0.5, 1.5]))
        assert (res.termination, res.iterations) == ("tolerance", 1)
        assert res.fixed_point_residual == 0.0

    def test_fixed_point_residual_at_a_line_search_cap(self, monkeypatch):
        # one try per iteration on badly scaled columns; the last candidate
        # was tried from the returned x at alpha_final / _ETA, where the
        # soft threshold zeroes a coordinate that it keeps at alpha_final
        rng = np.random.default_rng(2)
        A = rng.normal(size=(6, 3)) * np.array([1.0, 5.0, 20.0])
        y = 5.0 * rng.normal(size=6)
        obj = Objective(A, y, Lasso(1.0))
        monkeypatch.setattr(solver, "_MAX_INNER", 1)
        with pytest.warns(RuntimeWarning):
            res = sparsa_solve(obj, config=SolverConfig(max_outer=20))
        assert res.termination == "line-search-cap"
        alpha = res.alpha_final / solver._ETA
        assert res.fixed_point_residual == pytest.approx(
            self._residual(obj, res.x, alpha), rel=1e-12)
        assert res.fixed_point_residual != pytest.approx(
            self._residual(obj, res.x, res.alpha_final), rel=1e-3)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: the first step is taken at _ALPHA_MIN without the "
        "sufficient-decrease test; sending it through the test changes "
        "selections, so it waits for bench/reference.json to be "
        "regenerated"))
    def test_first_step_does_not_raise_objective(self):
        # F(0) = 150; a step at alpha = 1 against curvature 100 lands at
        # F of about 1.47e6
        obj = Objective(10 * np.eye(3), 10 * np.ones(3), Lasso(0.1))
        res = sparsa_solve(obj, config=SolverConfig(max_outer=1))
        assert res.trace[0] <= objective_value(obj, np.zeros(3))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergent_start_raises(self):
        obj = Objective(np.eye(2), np.array([1.0, 2.0]), Lasso(1.0))
        with pytest.raises(SolverDivergenceError):
            sparsa_solve(obj, x0=np.array([1e200, 1e200]))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("reg", [Lasso(0.3), ElasticNet(0.2, 0.5),
                                     Oscar(0.1, 0.05), Sparc(0.05, 4)],
                             ids=["lasso", "enet", "oscar", "sparc"])
    def test_overflowing_gradient_raises_divergence(self, reg):
        # F(0) = ||y||^2 / 2 is finite, but A^T y overflows to inf
        rng = np.random.default_rng(0)
        A = 1e160 * rng.normal(0, 1, size=(20, 40))
        y = 1e150 * rng.normal(0, 1, size=20)
        assert np.isinf(A.T @ y).any()
        with pytest.raises(SolverDivergenceError):
            sparsa_solve(Objective(A, y, reg))


class TestSparcGlobalOptimum:
    @staticmethod
    def _gaps(seeds, p, ks):
        """Relative gaps to the global optimum of warm-started chains over
        a (lam, k) grid, as grid_search runs them, on n = 8 designs with
        ks[0] planted nonzeros; each fit is priced by the literal
        objective."""
        grid = [(lam, k) for lam in (1.0, 0.1, 0.01) for k in ks]
        gaps = []
        for seed in seeds:
            rng = np.random.default_rng(seed)
            A = rng.normal(size=(8, p))
            x_true = np.zeros(p)
            x_true[rng.choice(p, ks[0], replace=False)] = \
                2.0 * rng.choice((-1.0, 1.0), ks[0])
            y = A @ x_true + 0.5 * rng.normal(size=8)
            x = None
            for lam, k in grid:
                x = sparsa_solve(Objective(A, y, Sparc(lam, k)), x0=x).x
                r = A @ x - y
                f_fit = 0.5 * float(r @ r) + sparc_penalty_direct(x, lam, k)
                f_opt, _ = sparc_global_bruteforce(A, y, lam, k)
                gaps.append((f_fit - f_opt) / abs(f_opt))
        return np.array(gaps)

    def test_no_fit_below_the_global_optimum(self):
        gaps = self._gaps(range(20), 10, (3, 2, 1))
        assert gaps.min() >= -1e-9
        # a floor on how often the solver reaches the global optimum: 73
        # of the 180 fits lie within 7e-6 of it and the next at 7e-3, so
        # a change of path that loses one of them fails here
        assert np.count_nonzero(gaps <= 1e-3) >= 73

    def test_no_fit_below_the_global_optimum_at_p_12_k_4(self):
        # the oracle's largest case: ~0.6 s per k = 4 enumeration
        gaps = self._gaps(range(2), 12, (4, 3, 2, 1))
        assert gaps.min() >= -1e-9


class TestSupportProducts:
    """Designs from 2**16 entries on multiply through the nonzero columns."""

    # 40 x 1700 = 68 000 entries, just above the rule; 40 x 1638 just below
    ABOVE, BELOW = (40, 1700), (40, 1638)

    def _problem(self, shape, seed=0):
        rng = np.random.default_rng(seed)
        n, p = shape
        A = rng.normal(0, 1, size=(n, p)) / np.sqrt(n)
        x_true = np.zeros(p)
        x_true[rng.choice(p, 8, replace=False)] = rng.normal(0, 2, size=8)
        y = A @ x_true + 0.1 * rng.normal(0, 1, size=n)
        return A, y

    def test_shapes_straddle_the_rule(self):
        assert np.prod(self.BELOW) < _SUPPORT_PRODUCTS_MIN_SIZE \
            <= np.prod(self.ABOVE)

    @pytest.mark.parametrize("shape", [ABOVE, BELOW],
                             ids=["above", "below"])
    @pytest.mark.parametrize("reg", [Lasso(0.3), ElasticNet(0.2, 0.5),
                                     Oscar(0.1, 0.05), Sparc(0.05, 30)],
                             ids=["lasso", "enet", "oscar", "sparc"])
    def test_objective_value_is_the_loops_objective(self, shape, reg):
        # the public F and the one the solver prices its start with agree
        # bit for bit, on the gathered product as on the dense one
        A, y = self._problem(shape)
        obj = Objective(A, y, reg)
        rng = np.random.default_rng(2)
        p = A.shape[1]
        for size in (0, 1, 30, p // 3):
            x = np.zeros(p)
            x[rng.choice(p, size, replace=False)] = rng.normal(0, 1, size)
            # Sparc's F is inf at the last size, above k = 30
            assert objective_value(obj, x) \
                == _residual_and_objective(obj, x)[1]

    @pytest.mark.parametrize("support", ["empty", "one", "partial", "full"])
    def test_restricted_product_matches_dense(self, support):
        A, y = self._problem(self.ABOVE)
        obj = Objective(A, y, Lasso(0.1))
        rng = np.random.default_rng(1)
        p = A.shape[1]
        x = np.zeros(p)
        idx = {"empty": [], "one": [17], "full": np.arange(p),
               "partial": rng.choice(p, 60, replace=False)}[support]
        x[idx] = rng.normal(0, 1, size=len(idx))
        dense = A @ x
        got = _times_A(obj, x)
        assert got.shape == dense.shape
        assert np.linalg.norm(got - dense) <= 1e-12 * np.linalg.norm(dense)
        if support == "empty":
            assert not got.any()

    @pytest.mark.parametrize("nnz", ["above", "at", "below"])
    def test_dense_support_switches_to_the_dense_product(self, nnz):
        A, y = self._problem(self.ABOVE)
        obj = Objective(A, y, Lasso(0.1))
        p = A.shape[1]
        cut = int(_SUPPORT_PRODUCTS_MAX_FRACTION * p)
        assert cut == _SUPPORT_PRODUCTS_MAX_FRACTION * p  # 425 of 1700
        count = {"above": cut + 1, "at": cut, "below": 60}[nnz]
        rng = np.random.default_rng(3)
        x = np.zeros(p)
        x[rng.choice(p, count, replace=False)] = rng.normal(0, 1, size=count)
        nz = x.nonzero()[0]
        dense, gathered = obj.A @ x, obj.A[:, nz] @ x[nz]
        assert dense.tobytes() != gathered.tobytes()  # the bytes tell them apart
        expected = dense if nnz == "above" else gathered
        assert _times_A(obj, x).tobytes() == expected.tobytes()
        r, _ = _residual_and_objective(obj, x)
        assert r.tobytes() == (expected - y).tobytes()

    @pytest.mark.parametrize("shape", [(20, 40), BELOW],
                             ids=["p40", "just-below"])
    def test_below_the_rule_products_are_dense_bit_for_bit(self, shape):
        A, y = self._problem(shape)
        obj = Objective(A, y, Sparc(0.1, 5))
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.normal(0, 1, size=shape[1])
            x[rng.random(shape[1]) < rng.random()] = 0.0
            assert _times_A(obj, x).tobytes() == (A @ x).tobytes()
            r, _ = _residual_and_objective(obj, x)
            assert r.tobytes() == (A @ x - y).tobytes()

    PENALTIES = pytest.mark.parametrize(
        "reg", [Lasso(0.05), ElasticNet(0.05, 0.1), Oscar(0.05, 1e-4),
                Sparc(0.01, 6)], ids=["lasso", "enet", "oscar", "sparc"])

    def _check_solve(self, reg, x0=None):
        A, y = self._problem(self.ABOVE)
        obj = Objective(A, y, reg)
        res = sparsa_solve(obj, x0)
        assert res.trace[-1] == objective_value(obj, res.x)
        assert np.all(np.diff(res.trace) <= 0)
        if isinstance(reg, Sparc):
            assert np.count_nonzero(res.x) <= reg.k

    @PENALTIES
    def test_above_the_rule_solve_is_consistent(self, reg):
        # the Lasso, ElasticNet and Oscar solves pass more than p / 4
        # nonzeros to 31-50 of their products, Sparc's iterates are k-sparse
        self._check_solve(reg)

    @PENALTIES
    def test_above_the_rule_dense_start_is_consistent(self, reg):
        # the start residual is a dense product (Sparc projects x0 to k
        # nonzeros first)
        x0 = np.random.default_rng(3).normal(0, 1, size=self.ABOVE[1])
        self._check_solve(reg, x0)

    @pytest.mark.parametrize("shape", [ABOVE, BELOW],
                             ids=["above", "below"])
    @pytest.mark.parametrize("delta", [-5, 5])
    def test_x_of_the_wrong_size_rejected(self, shape, delta):
        # above the rule the gathered product used to accept any length
        A, y = self._problem(shape)
        obj = Objective(A, y, Lasso(0.1))
        p = shape[1]
        x = np.zeros(p + delta)
        x[:3] = 1.0
        message = rf"x has shape \({p + delta},\), expected \({p},\)"
        with pytest.raises(ValueError, match=message):
            objective_value(obj, x)
        with pytest.raises(ValueError, match=message):
            gradient_smooth(obj, x)

    def _screened_solve(self, monkeypatch, reg):
        """Solve above the rule, checking every screened A^T r against the
        dense product; returns the result and the number of screened ones."""
        A, y = self._problem(self.ABOVE)
        obj = Objective(A, y, reg)
        p = A.shape[1]
        l1, _, _, k = reg.terms()
        gradient, step = solver._gradient, solver._Step.__call__
        screened = []

        def checked_gradient(obj, support, r, screen, stats):
            before = stats.At_screened
            cols, g = gradient(obj, support, r, screen, stats)
            dense = obj.A.T @ r
            if stats.At_screened == before:
                assert cols is None
                assert g.tobytes() == dense.tobytes()
                return cols, g
            screened.append(cols.size)
            assert np.all(np.diff(cols) > 0) and np.isin(support, cols).all()
            skipped = np.ones(p, dtype=bool)
            skipped[cols] = False
            bound = 1e-12 * obj.col_norms * np.linalg.norm(r)
            assert np.all(np.abs(g - dense[cols]) <= bound[cols])
            if k is None:
                assert np.all(np.abs(dense[skipped]) <= l1)
                return cols, g
            # the step on E runs the capped prox, which needs k <= |E|
            assert cols.size >= k
            if skipped.any():
                computed_off_support = ~skipped
                computed_off_support[support] = False
                off = np.sort(np.abs(dense[computed_off_support]))[::-1]
                assert off.size >= k
                assert off[k - 1] > np.abs(dense[skipped]).max()
            return cols, g

        def checked_step(self, x, cols, g, alpha, stats):
            if cols is not None:
                # the prox of the step is that of the full vector with the
                # computed entries, at any alpha
                g_full = np.zeros(p)
                g_full[cols] = g
                skipped = np.ones(p, dtype=bool)
                skipped[cols] = False
                full = np.where(skipped,
                                obj.A.T @ (_times_A(obj, x) - y), g_full)
                for a in (1.0, 3.7, 50.0, 1e4):
                    assert np.array_equal(prox(reg, x - g_full / a, a),
                                          prox(reg, x - full / a, a))
            return step(self, x, cols, g, alpha, stats)

        monkeypatch.setattr(solver, "_gradient", checked_gradient)
        monkeypatch.setattr(solver._Step, "__call__", checked_step)
        res = sparsa_solve(obj)
        assert res.trace[-1] == objective_value(obj, res.x)
        assert np.all(np.diff(res.trace) <= 0)
        return res, len(screened)

    @PENALTIES
    @pytest.mark.parametrize("alpha_min", [1.0, 30.0])
    def test_screened_gradient_is_safe(self, monkeypatch, reg, alpha_min):
        monkeypatch.setattr(solver, "_ALPHA_MIN", alpha_min)
        res, screened = self._screened_solve(monkeypatch, reg)
        assert screened == res.stats.At_screened
        if isinstance(reg, (Lasso, Sparc)):
            assert res.stats.At_screened > 0
            assert 0 < res.stats.At_columns \
                <= res.stats.At_screened * _SUPPORT_PRODUCTS_MAX_FRACTION \
                * self.ABOVE[1]

    @pytest.mark.parametrize("reg", [Lasso(0.0), Oscar(0.0, 1e-4),
                                     Sparc(1e-5, 900)],
                             ids=["lasso0", "oscar0", "sparc-k-above-p/2"])
    def test_dense_gradient_without_a_threshold(self, monkeypatch, reg):
        # l1 = 0 without a cap leaves no entry that provably stays zero; a
        # cap k > p / 4 leaves more than p / 4 entries to compute
        res, screened = self._screened_solve(monkeypatch, reg)
        assert screened == res.stats.At_screened == res.stats.At_columns == 0
        assert res.stats.At_dense > 1

    @pytest.mark.parametrize("shape", [ABOVE, BELOW],
                             ids=["above", "below"])
    @PENALTIES
    def test_stats_add_up(self, shape, reg):
        A, y = self._problem(shape)
        res = sparsa_solve(Objective(A, y, reg))
        st = res.stats
        assert res.termination == "tolerance"
        # one accepted candidate per trace entry
        assert st.candidates == res.iterations + st.backtracks
        # one product with A at the start, per candidate and per BB step,
        # which comes with every gradient but the first
        assert st.A_dense + st.A_gathered == st.candidates + st.At_dense \
            + st.At_screened
        p = shape[1]
        if shape == self.BELOW:
            assert st.A_gathered == st.At_screened == st.At_columns == 0
            assert st.prox_entries == st.candidates * p
        elif st.At_screened:
            # every screened gradient makes at least one step on at most
            # p / 4 coordinates
            assert st.prox_entries < st.candidates * p
        else:
            assert st.prox_entries == st.candidates * p

    @pytest.mark.parametrize("shape", [ABOVE, BELOW],
                             ids=["above", "below"])
    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan, 1e200])
    def test_non_finite_entries_rejected_at_every_size(self, shape, entry):
        # above the rule only a non-finite column norm makes A be scanned;
        # a finite entry whose square overflows is accepted
        A, y = self._problem(shape)
        A[7, 300] = entry
        if not np.isfinite(entry):
            with pytest.raises(ValueError, match="A must be finite"):
                Objective(A, y, Lasso(0.1))
            return
        obj = Objective(A, y, Lasso(0.1))
        if shape == self.ABOVE:
            assert np.isinf(obj.col_norms[300])
            assert np.isfinite(np.delete(obj.col_norms, 300)).all()
        A, y = self._problem(shape)
        y[3] = np.nan
        with pytest.raises(ValueError, match="y contains non-finite entries"):
            Objective(A, y, Lasso(0.1))

    @pytest.mark.parametrize("shape", [ABOVE, BELOW],
                             ids=["above", "below"])
    @pytest.mark.parametrize("rows", ["scattered", "block", "one"])
    def test_objective_of_rows(self, shape, rows):
        n, p = shape
        rng = np.random.default_rng(4)
        A = rng.normal(0, 1, size=(2 * n, p))
        y = rng.normal(0, 1, size=2 * n)
        mask = np.zeros(2 * n, dtype=bool)
        if rows == "scattered":
            mask[rng.choice(2 * n, n, replace=False)] = True
        elif rows == "block":
            mask[n // 2:n // 2 + n] = True
        else:
            mask[5] = True
        obj = Objective._of_rows(A, y, mask, Lasso(0.1))
        ref = Objective(A[mask], y[mask], Lasso(0.1))
        assert obj.A.tobytes(order="A") == ref.A.tobytes(order="A")
        assert obj.A.flags.f_contiguous == ref.A.flags.f_contiguous
        assert obj.y.tobytes() == ref.y.tobytes()
        if ref.col_norms is not None:
            assert obj.col_norms.tobytes() == ref.col_norms.tobytes()

    def test_column_major_only_above_the_rule(self):
        A_small, y_small = self._problem(self.BELOW)
        A_large, y_large = self._problem(self.ABOVE)
        small = Objective(A_small, y_small, Lasso(0.1))
        large = Objective(A_large, y_large, Lasso(0.1))
        assert small.A.flags.c_contiguous and not small.A.flags.f_contiguous
        assert large.A.flags.f_contiguous and not large.A.flags.c_contiguous
        assert np.array_equal(large.A, A_large)
        # an objective derived for another penalty shares the copy
        assert replace(large, reg=Sparc(0.1, 3)).A is large.A
        # column norms exist above the rule only, and are shared
        assert small.col_norms is None
        npt.assert_allclose(large.col_norms, np.linalg.norm(A_large, axis=0),
                            rtol=1e-14)
        assert large._with_reg(Sparc(0.1, 3)).col_norms is large.col_norms


class TestFusedCandidate:
    """Every candidate is the checked prox of the full gradient step, bit
    for bit; its F is its residual's plus ``_penalty``; every support
    handed to a product with A is the scan of its vector."""

    SHAPES = {"p40": (20, 40), "below": TestSupportProducts.BELOW,
              "above": TestSupportProducts.ABOVE}

    @pytest.mark.parametrize("shape", ["p40", "below", "above"])
    @pytest.mark.parametrize("start", ["zero", "dense"])
    @pytest.mark.parametrize("alpha_min", [1.0, 30.0])
    @TestSupportProducts.PENALTIES
    def test_every_candidate_is_exact(self, monkeypatch, shape, start,
                                      alpha_min, reg):
        n, p = self.SHAPES[shape]
        A, y = TestSupportProducts()._problem((n, p))
        obj = Objective(A, y, reg)
        x0 = None if start == "zero" else \
            np.random.default_rng(3).normal(0, 1, size=p)
        step, times = solver._Step.__call__, solver._times_A
        seen = {"candidates": 0, "screened": 0, "supports": 0}

        def checked_times(obj, x, stats=None, support=None):
            if support is not None:
                seen["supports"] += 1
                assert support.tobytes() == np.flatnonzero(x).tobytes()
            return times(obj, x, stats, support)

        def checked_step(self, x, cols, g, alpha, stats):
            x_new, support, r, f = step(self, x, cols, g, alpha, stats)
            g_full = g
            if cols is not None:
                seen["screened"] += 1
                g_full = np.zeros(p)
                g_full[cols] = g
            expected = prox(reg, x - g_full / alpha, alpha)
            assert x_new.tobytes() == expected.tobytes()
            assert r.tobytes() == (times(obj, x_new) - y).tobytes()
            f_checked = 0.5 * float(r @ r) + _penalty(reg.terms(), x_new)
            assert np.float64(f).tobytes() == np.float64(f_checked).tobytes()
            seen["candidates"] += 1
            return x_new, support, r, f

        monkeypatch.setattr(solver, "_times_A", checked_times)
        monkeypatch.setattr(solver._Step, "__call__", checked_step)
        monkeypatch.setattr(solver, "_ALPHA_MIN", alpha_min)
        res = sparsa_solve(obj, x0)
        assert seen["candidates"] == res.stats.candidates > 1
        assert (seen["supports"] > 0) == (shape == "above")
        assert (seen["screened"] > 0) == (res.stats.At_screened > 0)
        if shape == "above" and isinstance(reg, (Lasso, Sparc)):
            assert seen["screened"] > 0
