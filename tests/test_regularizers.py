import numpy as np
import numpy.testing as npt
import pytest

from sparcreg.prox import prox_elastic_net, prox_oscar, prox_sparc, soft_threshold
from sparcreg.regularizers import (
    ElasticNet,
    Lasso,
    Oscar,
    Sparc,
    penalty_value,
    prox,
    prox_objective,
    scale_penalty,
)

from oracles import (
    enet_penalty_direct,
    lasso_penalty_direct,
    oscar_penalty_direct,
    sparc_penalty_direct,
)


class TestConstruction:
    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            Lasso(-1.0)
        with pytest.raises(ValueError):
            ElasticNet(0.5, -0.1)
        with pytest.raises(ValueError):
            Oscar(-0.5, 0.1)
        with pytest.raises(ValueError):
            Sparc(1.0, 0)

    def test_frozen(self):
        reg = Lasso(1.0)
        with pytest.raises(AttributeError):
            reg.lam1 = 2.0


class TestPenaltyValue:
    def test_lasso(self):
        assert penalty_value(Lasso(2.0), [1.0, -3.0]) == pytest.approx(8.0)

    def test_elastic_net(self):
        # 1*(1+3) + 0.5*0.5*(1+9) = 6.5
        assert penalty_value(ElasticNet(1.0, 0.5), [1.0, -3.0]) == pytest.approx(6.5)

    def test_oscar_worked_example(self):
        # 2*(1+2+0) + 3*(max(1,2)+max(1,0)+max(2,0)) = 6 + 15 = 21
        assert penalty_value(Oscar(2.0, 3.0), [1.0, -2.0, 0.0]) == pytest.approx(21.0)

    def test_sparc_feasible(self):
        # top-2 magnitudes (4, 3): 1 * max(4,3) = 4
        assert penalty_value(Sparc(1.0, 2), [4.0, 0.0, -3.0]) == pytest.approx(4.0)

    def test_sparc_pads_with_zeros_below_k(self):
        # magnitudes (5, 0, 0): pairs max -> 5 + 5 + 0 = 10
        assert penalty_value(Sparc(1.0, 3), [5.0, 0.0, 0.0, 0.0]) == pytest.approx(10.0)

    def test_sparc_infeasible_is_infinite(self):
        assert penalty_value(Sparc(1.0, 1), [1.0, 2.0]) == np.inf

    def test_matches_direct_double_loops(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            p = int(rng.integers(1, 9))
            x = rng.normal(0, 2, size=p)
            a, b = float(rng.uniform(0, 2)), float(rng.uniform(0, 2))
            k = int(rng.integers(1, p + 1))
            npt.assert_allclose(penalty_value(Lasso(a), x),
                                lasso_penalty_direct(x, a), atol=1e-12)
            npt.assert_allclose(penalty_value(ElasticNet(a, b), x),
                                enet_penalty_direct(x, a, b), atol=1e-12)
            npt.assert_allclose(penalty_value(Oscar(a, b), x),
                                oscar_penalty_direct(x, a, b), rtol=1e-12, atol=1e-12)
            ours = penalty_value(Sparc(a, k), x)
            ref = sparc_penalty_direct(x, a, k)
            if np.isinf(ref):
                assert np.isinf(ours)
            else:
                npt.assert_allclose(ours, ref, rtol=1e-12, atol=1e-12)


class TestScalePenalty:
    def test_divides_scalar_parameters(self):
        assert scale_penalty(Lasso(2.0), 4.0) == Lasso(0.5)
        assert scale_penalty(ElasticNet(2.0, 1.0), 2.0) == ElasticNet(1.0, 0.5)
        assert scale_penalty(Oscar(3.0, 6.0), 3.0) == Oscar(1.0, 2.0)

    def test_sparc_k_is_not_scaled(self):
        assert scale_penalty(Sparc(2.0, 5), 4.0) == Sparc(0.5, 5)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            scale_penalty(Lasso(1.0), 0.0)


class TestProxDispatch:
    def test_lasso_is_soft_threshold(self):
        v = np.array([3.0, -2.0, 0.5])
        npt.assert_allclose(prox(Lasso(1.0), v), soft_threshold(v, 1.0))

    def test_elastic_net(self):
        v = np.array([3.0, -0.2])
        npt.assert_allclose(prox(ElasticNet(1.0, 1.0), v),
                            prox_elastic_net(v, 1.0, 1.0))

    def test_oscar(self):
        v = np.array([3.0, 2.9])
        npt.assert_allclose(prox(Oscar(0.0, 1.0), v), prox_oscar(v, 0.0, 1.0))

    def test_sparc(self):
        v = np.array([5.0, 1.0, -3.0])
        npt.assert_allclose(prox(Sparc(1.0, 2), v), prox_sparc(v, 1.0, 2))

    def test_alpha_rescales_before_prox(self):
        # prox of (1/alpha)*Omega at v equals the alpha-scaled parameter prox
        v = np.array([3.0, -2.0, 0.5])
        npt.assert_allclose(prox(Lasso(1.0), v, alpha=2.0),
                            soft_threshold(v, 0.5))
        npt.assert_allclose(prox(Sparc(1.0, 2), v, alpha=4.0),
                            prox_sparc(v, 0.25, 2))


class TestProxKernels:
    """prox runs unchecked kernels; it must match the checked operators."""

    @staticmethod
    def _composed(reg, v, alpha):
        scaled = scale_penalty(reg, alpha)
        if isinstance(scaled, Lasso):
            return soft_threshold(v, scaled.lam1)
        if isinstance(scaled, ElasticNet):
            return prox_elastic_net(v, scaled.lam1, scaled.lam2)
        if isinstance(scaled, Oscar):
            return prox_oscar(v, scaled.lam1, scaled.lam2)
        return prox_sparc(v, scaled.lam, scaled.k)

    def test_matches_scaled_public_operators_bit_for_bit(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            p = int(rng.integers(1, 51))
            v = np.round(rng.normal(0, 2, size=p), int(rng.integers(0, 3)))
            v[rng.random(p) < 0.2] = 0.0   # exact zeros; rounding makes ties
            alpha = float(np.exp(rng.normal(0, 2)))
            a, b = float(rng.exponential()), float(rng.exponential())
            k = int(rng.integers(1, p + 1))
            for reg in (Lasso(a), ElasticNet(a, b), Oscar(a, b / p),
                        Oscar(0.0, b), Sparc(b, k)):
                assert (prox(reg, v, alpha).tobytes()
                        == self._composed(reg, v, alpha).tobytes()), reg

    @pytest.mark.parametrize("v, alpha", [
        ([1.0, np.nan], 1.0),
        ([[1.0, 2.0]], 1.0),
        ([1.0, 2.0], 0.0),
        ([1.0, 2.0], -1.0),
        ([1.0, 2.0], np.nan),
        ([1.0, 2.0], np.inf),
    ], ids=["nan-v", "2d-v", "zero-alpha", "negative-alpha", "nan-alpha",
            "inf-alpha"])
    @pytest.mark.parametrize("reg", [Lasso(0.5), ElasticNet(0.5, 0.5),
                                     Oscar(0.5, 0.5), Sparc(0.5, 1)],
                             ids=["lasso", "enet", "oscar", "sparc"])
    def test_bad_input_rejected(self, reg, v, alpha):
        with pytest.raises(ValueError):
            prox(reg, v, alpha)

    def test_sparc_k_above_p_rejected(self):
        with pytest.raises(ValueError, match="k must satisfy"):
            prox(Sparc(0.5, 3), [1.0, 2.0])

    def test_scaled_parameter_overflow_rejected(self):
        with pytest.raises(ValueError, match="lam1"):
            prox(Lasso(1e300), [1.0], alpha=1e-10)

    def test_unknown_regularizer_rejected(self):
        with pytest.raises(TypeError):
            prox(object(), [1.0, 2.0])


class TestProxObjective:
    def test_value_at_candidate(self):
        # z=1, v=3: 1/1*|1| + 0.5*(1-3)^2 = 3
        val = prox_objective(Lasso(1.0), np.array([3.0]), np.array([1.0]))
        assert val == pytest.approx(3.0)

    def test_prox_output_beats_nearby_points(self):
        rng = np.random.default_rng(17)
        regs = [Lasso(0.7), ElasticNet(0.5, 0.4), Oscar(0.3, 0.6), Sparc(0.5, 3)]
        for reg in regs:
            for _ in range(25):
                v = rng.normal(0, 2, size=5)
                alpha = float(rng.uniform(0.5, 3.0))
                z = prox(reg, v, alpha=alpha)
                best = prox_objective(reg, v, z, alpha=alpha)
                for _ in range(20):
                    other = z + rng.normal(0, 0.1, size=5)
                    assert best <= prox_objective(reg, v, other, alpha=alpha) + 1e-9
