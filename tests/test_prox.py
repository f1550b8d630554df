import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from sparcreg.prox import (
    _owl,
    _pava,
    _prox_terms,
    isotonic_decreasing,
    owl_weights,
    project_k_sparse,
    prox_elastic_net,
    prox_oscar,
    prox_sparc,
    soft_threshold,
    top_k_support,
)

from sparcreg.data import SyntheticSpec, generate_synthetic, \
    top_correlation_screen
from sparcreg.experiment import GridSpec, default_grids, run_repetitions
from sparcreg.metrics import cla, mae, mse, ser
from sparcreg.regularizers import ElasticNet, Lasso, Oscar, Sparc, prox, \
    prox_objective
from sparcreg.solver import Objective, SolverConfig, bb_step, \
    gradient_smooth, objective_value, sparsa_solve

from oracles import (
    SortedMagnitudeView,
    isotonic_decreasing_bruteforce,
    pava_elementwise,
)


class TestSoftThreshold:
    def test_basic(self):
        npt.assert_allclose(soft_threshold([3.0, -2.0, 0.5], 1.0),
                            [2.0, -1.0, 0.0])

    def test_zero_threshold_is_identity(self):
        v = np.array([1.5, -0.3, 0.0])
        npt.assert_array_equal(soft_threshold(v, 0.0), v)

    def test_threshold_dominates(self):
        npt.assert_array_equal(soft_threshold([0.5, -0.9], 1.0), [0.0, 0.0])

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold([1.0], -0.1)


class TestElasticNet:
    def test_worked_example(self):
        # argmin 1*|x| + 0.5*x^2 + 0.5*(x-3)^2 -> soft(3,1)/(1+1) = 1
        npt.assert_allclose(prox_elastic_net([3.0], 1.0, 1.0), [1.0])

    def test_reduces_to_soft_threshold(self):
        v = np.array([2.0, -0.4, 1.1])
        npt.assert_allclose(prox_elastic_net(v, 0.7, 0.0),
                            soft_threshold(v, 0.7))

    def test_pure_ridge_scales(self):
        v = np.array([4.0, -2.0])
        npt.assert_allclose(prox_elastic_net(v, 0.0, 3.0), v / 4.0)


class TestOwlWeights:
    def test_worked_example(self):
        npt.assert_allclose(owl_weights(2.0, 3.0, 3), [8.0, 5.0, 2.0])

    def test_single_coordinate_has_no_pairs(self):
        npt.assert_allclose(owl_weights(1.5, 9.0, 1), [1.5])

    def test_zero_pair_weight_is_flat(self):
        npt.assert_allclose(owl_weights(0.5, 0.0, 4), np.full(4, 0.5))


class TestIsotonicDecreasing:
    def test_single_violation_pools(self):
        npt.assert_allclose(isotonic_decreasing([1.0, 3.0, 2.0]),
                            [2.0, 2.0, 2.0])

    def test_two_point_pool_is_mean(self):
        npt.assert_allclose(isotonic_decreasing([0.0, 10.0]), [5.0, 5.0])

    def test_infeasible_input_pools_ties(self):
        # the tie is one level set of the projection, and it keeps its exact
        # value: summing and dividing it would give 0.3000...04 / 3, one ulp
        # above 0.1; only the violation behind it is averaged
        out = isotonic_decreasing([0.1, 0.1, 0.1, -1.0, -0.5])
        assert out[:3].tolist() == [0.1] * 3
        assert out[3:].tolist() == [-0.75, -0.75]

    def test_already_feasible_unchanged(self):
        # a new array with the input's bytes: writing to it leaves u alone
        u = np.array([5.0, 3.0, 3.0, 0.0, -0.0, -1.0])
        out = isotonic_decreasing(u)
        assert out.tobytes() == u.tobytes()
        out[:] = 7.0
        assert u.tobytes() == np.array([5.0, 3.0, 3.0, 0.0, -0.0,
                                        -1.0]).tobytes()

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            u = rng.normal(0, 3, size=n)
            npt.assert_allclose(isotonic_decreasing(u),
                                isotonic_decreasing_bruteforce(u),
                                atol=1e-10)

    def test_preserves_total_mass(self):
        rng = np.random.default_rng(12)
        u = rng.normal(size=30)
        assert isotonic_decreasing(u).sum() == pytest.approx(u.sum())


class TestPavaKernel:
    """``_pava`` pushes non-increasing stretches whole; bytes must not move."""

    @staticmethod
    def _same(u):
        u = np.asarray(u, dtype=float)
        got = _pava(u)
        assert got.dtype == np.float64 and got.shape == u.shape
        assert got.tobytes() == pava_elementwise(u).tobytes()

    def test_random_tie_heavy(self):
        rng = np.random.default_rng(21)
        for _ in range(3000):
            n = int(rng.integers(2, 60))
            scale = rng.choice([0.1, 0.3, 1.0, 3.0])
            u = np.round(rng.normal(0, 2, size=n) / scale) * scale
            if rng.random() < 0.5:
                u = np.sort(u)[::-1] - rng.choice([0.0, 0.1, 0.3]) * np.arange(n)
            self._same(u)

    @pytest.mark.parametrize("u", [
        [], [2.5], [-1.0], [0.1] * 7, [0.0, -0.0, 0.0],
        np.arange(50, dtype=float), 0.1 * np.arange(13),
        np.arange(50, 0, -1, dtype=float),
    ], ids=["empty", "single", "single-negative", "all-equal", "signed-zeros",
            "increasing", "increasing-inexact", "decreasing"])
    def test_edge_shapes(self, u):
        self._same(u)

    def test_non_increasing_input_comes_back_bit_for_bit(self):
        rng = np.random.default_rng(22)
        cases = [[0.1] * 7, [0.0, -0.0, 0.0, -0.0], [0.1, 0.1, -0.0, 0.0]]
        for _ in range(500):
            n = int(rng.integers(1, 40))
            scale = rng.choice([0.1, 0.3, 1.0])
            cases.append(np.sort(np.round(rng.normal(0, 2, size=n) / scale)
                                 * scale)[::-1])
        for u in cases:
            u = np.asarray(u, dtype=float)
            assert _pava(u).tobytes() == u.tobytes()

    @pytest.mark.parametrize("u", [
        [1.0, 3.0, 2.0, 1.0, 0.5, 0.2],    # violation at the first index
        [5.0, 4.0, 3.0, 2.0, 1.0, 1.5],    # and at the last
        [1.0, 1.0, 0.5, 0.25, 0.25, 0.3],  # ties at both ends
    ], ids=["first", "last", "ties-both-ends"])
    def test_violation_at_an_end(self, u):
        self._same(u)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_large_p_sorted_minus_owl(self, seed):
        # the Oscar dense phase at p = 10 000: sorted magnitudes minus the
        # per-rank weights of a small lam2, a few hundred rises
        rng = np.random.default_rng(seed)
        p = 10_000
        mags = np.sort(np.abs(rng.normal(0, 1, size=p)))[::-1]
        u = mags - _owl(0.05, 4e-6, p)
        rises = np.count_nonzero(u[1:] > u[:-1])
        assert 100 <= rises <= 1000
        self._same(u)
        positive = (u > 0).nonzero()[0]
        self._same(u[:positive[-1] + 1])

    @pytest.mark.parametrize("slope", [1e-5, 1e-4, 1e-3])
    @pytest.mark.parametrize("n", [2_000, 10_000])
    def test_long_sorted_minus_linear_weights(self, n, slope):
        # the large-p shape: sorted 3|N(0, 1)| minus the weights
        # 0.25 + slope * rank of rank n - 1 down to 0; from a few rises
        # (long stretches pushed whole) to thousands (long merge chains)
        rng = np.random.default_rng(n)
        mags = np.sort(3.0 * np.abs(rng.normal(0, 1, size=n)))[::-1]
        u = mags - _owl(0.25, slope, n)
        assert np.count_nonzero(u[1:] > u[:-1]) >= 5
        self._same(u)

    def test_long_non_increasing_input(self):
        rng = np.random.default_rng(23)
        u = np.sort(np.round(rng.normal(0, 2, size=10_000), 1))[::-1]
        assert np.count_nonzero(u[1:] == u[:-1]) > 1000  # ties
        self._same(u)
        assert _pava(u).tobytes() == u.tobytes()

    @pytest.mark.parametrize("u", [[], [2.5], [3.0, 3.0, -0.0, -1.0],
                                   np.arange(25, 0, -1, dtype=float)],
                             ids=["empty", "single", "ties", "decreasing"])
    def test_feasible_input_comes_back_as_a_new_array(self, u):
        u = np.asarray(u, dtype=float)
        before = u.copy()
        got = _pava(u)
        assert got is not u and not np.shares_memory(got, u)
        assert got.tobytes() == u.tobytes()
        got[...] = 7.0  # writing the result leaves the input alone
        assert u.tobytes() == before.tobytes()


def _prox_oscar_full_pava(v, lam1, lam2):
    """prox_oscar with PAVA run over every sorted rank."""
    view = SortedMagnitudeView.from_vector(v)
    u = view.magnitudes - owl_weights(lam1, lam2, view.magnitudes.size)
    return view.reconstruct(np.maximum(isotonic_decreasing(u), 0.0))


class TestProxOscar:
    def test_pooling_example(self):
        # stationarity at a pooled pair: 2c = 3 + 2.9 - (1 + 0) -> c = 2.45
        npt.assert_allclose(prox_oscar([3.0, 2.9], 0.0, 1.0), [2.45, 2.45])

    def test_separated_example_keeps_signs_and_order(self):
        npt.assert_allclose(prox_oscar([5.0, -3.0], 0.0, 1.0), [4.0, -3.0])

    def test_reduces_to_soft_threshold_without_pair_weight(self):
        v = np.array([3.0, -1.0, 0.2, -4.0])
        npt.assert_allclose(prox_oscar(v, 0.8, 0.0),
                            soft_threshold(v, 0.8))

    def test_heavy_penalty_zeroes_everything(self):
        npt.assert_array_equal(prox_oscar([1.0, -0.5], 10.0, 10.0),
                               [0.0, 0.0])

    @pytest.mark.parametrize("v, lam1, lam2", [
        # u = [0.1, 0.1, 0.1, -2^-60, 0]: infeasible only past the positive
        # prefix, which PAVA leaves as it is
        ([0.1, -0.1, 0.1, 0.0, 0.0], 0.0, 2.0 ** -60),
        ([3.0, -1.0, 0.2, -4.0], 0.8, 0.0),          # lam2 = 0
        ([0.0, 2.0, 0.0, -2.0, 1.0, 0.0], 0.1, 0.3),  # exact zeros and ties
        ([1.0, -0.5, 0.25], 10.0, 10.0),              # every u <= 0
        ([0.0, 0.0, 0.0], 0.0, 1.0),
        # magnitudes equal to lam1 are not sorted; their u is exactly 0
        ([0.5, -0.5, 1.0, 0.25, -2.0, 0.5], 0.5, 0.1),
        ([0.5, -0.5, 1.0, 0.25, -2.0, 0.5], 0.5, 0.0),
        # lam1 = 0, as under a SPARC cap: the exact zeros are not sorted
        ([0.0, -3.0, 0.0, 2.5, 0.0, -2.5, 1.0], 0.0, 0.2),
    ], ids=["tied-prefix", "lam2-zero", "zeros-and-ties", "all-nonpositive",
            "all-zero", "at-lam1", "at-lam1-lam2-zero", "lam1-zero-zeros"])
    def test_matches_full_pava_bit_for_bit(self, v, lam1, lam2):
        v = np.array(v)
        assert (prox_oscar(v, lam1, lam2).tobytes()
                == _prox_oscar_full_pava(v, lam1, lam2).tobytes())

    @pytest.mark.parametrize("lam1", [0.0, 2.0 ** -70])
    @pytest.mark.parametrize("v", [
        # full u = [0.1, 0.1, 0.1, -2^-60 - lam1, -lam1] is infeasible
        [0.1, -0.1, 0.1, 0.0, 0.0],
        # full u = [0.1, 0.1, 0.1, -lam1] is feasible
        [0.1, -0.1, 0.1, 0.0],
    ], ids=["infeasible", "feasible"])
    def test_tied_prefix_keeps_its_value(self, v, lam1):
        # only the three nonzero magnitudes exceed lam1 and are sorted; the
        # tie is no violation, so it keeps 0.1 whatever the unsorted ranks
        v = np.array(v)
        out = prox_oscar(v, lam1, 2.0 ** -60)
        assert np.abs(out[:3]).tolist() == [0.1] * 3
        assert out.tobytes() == _prox_oscar_full_pava(v, lam1,
                                                      2.0 ** -60).tobytes()

    def test_large_p_with_few_magnitudes_above_lam1(self):
        rng = np.random.default_rng(17)
        v = rng.normal(0.0, 0.01, size=10_000)
        v[rng.choice(v.size, 15, replace=False)] = rng.normal(0.0, 2.0, 15)
        v[:3] = [0.5, -0.5, 0.5]  # a tie among the sorted ranks
        lam1 = 0.1
        assert np.count_nonzero(np.abs(v) > lam1) == 18
        for lam2 in (0.0, 1e-5, 1e-3):
            assert (prox_oscar(v, lam1, lam2).tobytes()
                    == _prox_oscar_full_pava(v, lam1, lam2).tobytes())

    def test_matches_full_pava_bit_for_bit_random(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            p = int(rng.integers(1, 301))
            v = rng.integers(-3, 4, size=p) * float(rng.choice([1.0, 0.1]))
            # lam1 at one of the magnitudes cuts the vector there
            lam1 = float(rng.choice([0.0, 0.1, rng.exponential(),
                                     rng.choice(np.abs(v))]))
            lam2 = float(rng.choice([0.0, 0.05, rng.exponential() / p]))
            assert (prox_oscar(v, lam1, lam2).tobytes()
                    == _prox_oscar_full_pava(v, lam1, lam2).tobytes())

    def test_magnitudes_never_grow(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            v = rng.normal(0, 2, size=8)
            x = prox_oscar(v, 0.3, 0.2)
            assert np.all(np.abs(x) <= np.abs(v) + 1e-12)

    def test_tied_magnitudes_never_grow_exactly(self):
        v = np.array([0.1, -0.1, 0.1, 0.0, 0.0])
        assert np.all(np.abs(prox_oscar(v, 0.0, 2.0 ** -60)) <= np.abs(v))


class TestTopKSupport:
    def test_orders_indices_ascending(self):
        npt.assert_array_equal(top_k_support([1.0, -5.0, 3.0], 2), [1, 2])

    def test_magnitude_tie_keeps_lower_index(self):
        npt.assert_array_equal(top_k_support([2.0, -2.0, 1.0], 1), [0])

    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_stable_argsort_with_boundary_ties(self, k):
        v = np.array([1.0, -2.0, 2.0, 0.0, 1.0, -2.0, 0.0, -1.0])
        expected = np.sort(np.argsort(-np.abs(v), kind="stable")[:k])
        assert top_k_support(v, k).tobytes() == expected.tobytes()

    def test_matches_stable_argsort_random(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            p = int(rng.integers(1, 40))
            v = rng.integers(-4, 5, size=p).astype(float)
            k = int(rng.integers(1, p + 1))
            expected = np.sort(np.argsort(-np.abs(v), kind="stable")[:k])
            assert top_k_support(v, k).tobytes() == expected.tobytes()

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            top_k_support([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            top_k_support([1.0, 2.0], 0)


class TestProjectKSparse:
    def test_keeps_largest(self):
        npt.assert_array_equal(project_k_sparse([1.0, -5.0, 3.0], 2),
                               [0.0, -5.0, 3.0])

    def test_k_equals_length_is_identity(self):
        v = np.array([0.1, -0.2])
        npt.assert_array_equal(project_k_sparse(v, 2), v)


class TestProxSparc:
    def test_worked_example(self):
        npt.assert_allclose(prox_sparc([5.0, 1.0, -3.0], 1.0, 2),
                            [4.0, 0.0, -3.0])

    def test_pooled_example(self):
        npt.assert_allclose(prox_sparc([3.0, 2.9, 0.1], 1.0, 2),
                            [2.45, 2.45, 0.0])

    def test_k_equals_p_matches_pure_pairwise_prox(self):
        rng = np.random.default_rng(9)
        v = rng.normal(0, 2, size=6)
        npt.assert_allclose(prox_sparc(v, 0.4, 6), prox_oscar(v, 0.0, 0.4))

    def test_output_always_k_sparse(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            p = int(rng.integers(1, 12))
            k = int(rng.integers(1, p + 1))
            v = rng.normal(0, 3, size=p)
            x = prox_sparc(v, float(rng.uniform(0, 2)), k)
            assert np.count_nonzero(x) <= k

    def test_zero_penalty_is_hard_thresholding(self):
        v = np.array([4.0, -1.0, 2.5, 0.3])
        npt.assert_array_equal(prox_sparc(v, 0.0, 2),
                               project_k_sparse(v, 2))

    def test_large_p_penalty_prox_matches_full_pava(self):
        # fewer nonzeros than k, so the cap's support holds exact zeros
        rng = np.random.default_rng(19)
        v = np.zeros(10_000)
        v[rng.choice(v.size, 30, replace=False)] = rng.integers(-4, 5, 30) / 4
        reg, alpha = Sparc(0.3, 50), 2.0
        idx = top_k_support(v, 50)
        expected = np.zeros_like(v)
        expected[idx] = _prox_oscar_full_pava(v[idx], 0.0, 0.3 / alpha)
        assert prox(reg, v, alpha).tobytes() == expected.tobytes()

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            prox_sparc([1.0, 2.0], 1.0, 0)
        with pytest.raises(ValueError):
            prox_sparc([1.0, 2.0], 1.0, 5)


@st.composite
def _part_of_a_vector(draw):
    """(v, E, terms): a vector that is zero off the ascending coordinates
    E, and family terms whose cap, if any, fits in E."""
    p = draw(st.integers(1, 30))
    cols = np.array(sorted(draw(st.sets(st.integers(0, p - 1), min_size=1))))
    # few values, so ties and exact zeros are common
    vals = draw(st.lists(st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.5, 2.0,
                                          -3.0, 0.25]),
                         min_size=cols.size, max_size=cols.size))
    v = np.zeros(p)
    v[cols] = vals
    l1 = draw(st.sampled_from([0.0, 0.25, 0.5, 1.2]))
    slope = draw(st.sampled_from([None, 0.0, 0.01, 0.3]))
    ridge = draw(st.sampled_from([None, 0.0, 0.7]))
    k = draw(st.one_of(st.none(), st.integers(1, cols.size)))
    return v, cols, (l1, slope, ridge, k)


class TestProxOnAPart:
    """The prox of a vector that is zero off E, run on E alone with the OWL
    dimension p and scattered back, is the prox of the whole vector."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_part_of_a_vector())
    def test_scattered_part_equals_full_prox(self, case):
        v, cols, terms = case
        out_part, mags_part = _prox_terms(v[cols], *terms, v.size)
        out, mags = _prox_terms(v, *terms)
        scattered = np.zeros(v.size)
        scattered[cols] = out_part
        assert scattered.tobytes() == out.tobytes()
        if terms[1] is not None:
            assert mags_part.tobytes() == mags.tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_part_of_a_vector())
    def test_magnitudes_are_those_of_the_output(self, case):
        v, _, (l1, slope, ridge, k) = case
        out, mags = _prox_terms(v, l1, slope, ridge, k)
        if slope is not None:
            # the sorted ranks, non-increasing; every other entry is 0
            ranked = np.sort(np.abs(out))[::-1]
            assert mags.tobytes() == ranked[:mags.size].tobytes()
            assert not ranked[mags.size:].any()
        elif k is None:
            assert mags.tobytes() == np.abs(out).tobytes()
        else:
            assert np.sort(mags).tobytes() \
                == np.sort(np.abs(out))[v.size - k:].tobytes()

    def test_all_zero_and_fewer_nonzeros_than_k(self):
        v = np.zeros(12)
        cols = np.array([2, 5, 7, 11])
        for terms in [(0.0, 0.4, None, 3), (0.5, None, 0.2, None),
                      (0.0, 0.1, None, None)]:
            out, mags = _prox_terms(v[cols], *terms, v.size)
            assert not out.any() and not mags.any()
        v[[5, 11]] = [1.5, -2.0]  # 2 nonzeros under a cap of 3
        out_part, _ = _prox_terms(v[cols], 0.0, 0.4, None, 3, v.size)
        scattered = np.zeros(v.size)
        scattered[cols] = out_part
        assert scattered.tobytes() \
            == _prox_terms(v, 0.0, 0.4, None, 3)[0].tobytes()


    @pytest.mark.parametrize("reg", [Lasso(0.5), ElasticNet(0.5, 0.7),
                                     Oscar(0.25, 0.3), Sparc(0.4, 3)],
                             ids=["lasso", "enet", "oscar", "sparc"])
    def test_checked_prox_of_a_part(self, reg):
        # regularizers.prox with d and magnitudes: the kernel, checked
        v = np.zeros(12)
        cols = np.array([2, 5, 7, 11])
        v[cols] = [1.5, -2.0, 0.75, -0.5]
        out, mags = prox(reg, v[cols], 2.0, d=v.size, magnitudes=True)
        l1, slope, ridge, k = reg.terms()
        scaled = (l1 / 2.0, None if slope is None else slope / 2.0,
                  None if ridge is None else ridge / 2.0, k)
        ref_out, ref_mags = _prox_terms(v[cols], *scaled, v.size)
        assert out.tobytes() == ref_out.tobytes()
        assert mags.tobytes() == ref_mags.tobytes()
        scattered = np.zeros(v.size)
        scattered[cols] = out
        assert scattered.tobytes() == prox(reg, v, 2.0).tobytes()
        with pytest.raises(ValueError, match="d must be at least"):
            prox(reg, v[cols], 2.0, d=3)
        with pytest.raises(ValueError, match="non-finite"):
            prox(reg, np.array([1.0, np.inf, 0.0, 2.0]), 2.0, d=12)

class TestSortedMagnitudeView:
    """The oracle view that ``_prox_oscar_full_pava`` is built on."""

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = rng.normal(0, 2, size=int(rng.integers(1, 10)))
            view = SortedMagnitudeView.from_vector(v)
            assert np.all(np.diff(view.magnitudes) <= 0)
            npt.assert_allclose(view.reconstruct(view.magnitudes), v)

    def test_reconstruct_applies_signs_in_place(self):
        view = SortedMagnitudeView.from_vector([-3.0, 1.0])
        npt.assert_array_equal(view.reconstruct(np.array([2.0, 0.5])),
                               [-2.0, 0.5])


class TestInputValidation:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold([np.nan, 1.0], 0.5)
        with pytest.raises(ValueError):
            prox_oscar([np.inf, 1.0], 0.5, 0.5)

    def test_matrix_input_rejected(self):
        with pytest.raises(ValueError):
            prox_oscar(np.ones((2, 2)), 0.5, 0.5)


_TINY = SyntheticSpec(n_train=6, n_validation=3, n_test=4, n_irrelevant=2)

# every count of the library, as (name, function of the count that
# returns the count it kept)
_COUNTS = {
    "Sparc.k": lambda k: Sparc(0.1, k).k,
    "prox_sparc": lambda k: int(np.count_nonzero(
        prox_sparc([5.0, 4.0, 3.0, 2.0, 1.0], 0.1, k))),
    "top_k_support": lambda k: top_k_support([3.0, 2.0, 1.0, 0.5], k).size,
    "project_k_sparse": lambda k: int(np.count_nonzero(
        project_k_sparse([3.0, 2.0, 1.0, 0.5], k))),
    "owl_weights.d": lambda d: owl_weights(0.1, 0.2, d).size,
    "default_grids.k_grid": lambda k: default_grids(
        10, k_grid=[k]).sparc[0].k,
    "SolverConfig.max_outer": lambda k: SolverConfig(max_outer=k).max_outer,
    "SolverConfig.max_inner": lambda k: SolverConfig(max_inner=k).max_inner,
    "run_repetitions.repetitions": lambda k: run_repetitions(
        _TINY, GridSpec(lasso=[Lasso(0.1)]), repetitions=k,
        methods=["lasso"]).repetitions,
    "top_correlation_screen.m": lambda m: top_correlation_screen(
        generate_synthetic(_TINY), m)[1].size,
}


class TestCountRule:
    """k, d and the iteration caps are counts: never truncated."""

    @pytest.mark.parametrize("bad", [2.5, np.nan, np.inf, 0, -1],
                             ids=["fraction", "nan", "inf", "zero",
                                  "negative"])
    @pytest.mark.parametrize("count", _COUNTS.values(), ids=_COUNTS.keys())
    def test_non_count_rejected(self, count, bad):
        with pytest.raises(ValueError, match="must be a positive integer"):
            count(bad)

    @pytest.mark.parametrize("value", [3.0, np.int64(3)],
                             ids=["float", "int64"])
    @pytest.mark.parametrize("count", _COUNTS.values(), ids=_COUNTS.keys())
    def test_integral_value_is_the_count(self, count, value):
        kept = count(value)
        assert kept == 3 and type(kept) is int

    @pytest.mark.parametrize("flag", [True, np.True_],
                             ids=["bool", "numpy-bool"])
    @pytest.mark.parametrize("count", _COUNTS.values(), ids=_COUNTS.keys())
    def test_boolean_rejected(self, count, flag):
        # True == 1, but a flag is not a count
        with pytest.raises(ValueError, match="must be a positive integer"):
            count(flag)


_OBJ3 = Objective(np.eye(3), np.ones(3), Lasso(0.1))

# every vector argument that must have the length of another argument, as
# (call with a vector of the wrong length, the error it raises); numpy
# would broadcast the first five to a number
_LENGTHS = {
    "mae.e": (lambda: mae(np.eye(3), [1, 2, 3], [1.0]),
              "e has shape (1,), expected (3,)"),
    "mae.x_true": (lambda: mae(np.eye(3), [1.0], [1, 2, 3]),
                   "e has shape (3,), expected (1,)"),
    "mse.e": (lambda: mse(np.eye(3), [1, 2, 3], [1.0]),
              "e has shape (1,), expected (3,)"),
    "cla.y_test": (lambda: cla(np.eye(3), [1.0], [1, -1, 1]),
                   "y_test has shape (1,), expected (3,)"),
    "prox_objective.z": (lambda: prox_objective(Lasso(1), [1, 2, 3], [0.5]),
                         "z has shape (1,), expected (3,)"),
    "cla.e": (lambda: cla(np.eye(3), [1, -1, 1], [1.0]),
              "e has shape (1,), expected (3,)"),
    "ser.e": (lambda: ser([1.0, 2.0, 3.0], [1.0, 2.0]),
              "e has shape (2,), expected (3,)"),
    "objective_value.x": (lambda: objective_value(_OBJ3, np.ones(4)),
                          "x has shape (4,), expected (3,)"),
    "gradient_smooth.x": (lambda: gradient_smooth(_OBJ3, np.ones((3, 1))),
                          "x has shape (3, 1), expected (3,)"),
    "sparsa_solve.x0": (lambda: sparsa_solve(_OBJ3, x0=np.ones(2)),
                        "x0 has shape (2,), expected (3,)"),
    "bb_step.s": (lambda: bb_step(np.ones(2), np.eye(3)),
                  "s has shape (2,), expected (3,)"),
}


class TestLengthRule:
    """A vector that pairs with a length is refused, with one message,
    unless it has that length."""

    @pytest.mark.parametrize("call, message", _LENGTHS.values(),
                             ids=_LENGTHS.keys())
    def test_wrong_length_rejected(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
