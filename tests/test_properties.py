"""Invariant checks driven by generated inputs rather than fixed examples."""

import numpy as np
import numpy.testing as npt
from hypothesis import assume, given, settings, strategies as st

from sparcreg.metrics import dof, nnz, ser
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
    _penalty,
    _scale,
    penalty_value,
)

settings.register_profile("suite", max_examples=50, deadline=None,
                          derandomize=True)
settings.load_profile("suite")

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
vectors = st.lists(finite, min_size=1, max_size=10)
weights = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)


@st.composite
def vector_pairs(draw):
    n = draw(st.integers(1, 10))
    u = draw(st.lists(finite, min_size=n, max_size=n))
    v = draw(st.lists(finite, min_size=n, max_size=n))
    return np.asarray(u), np.asarray(v)


@st.composite
def sparc_inputs(draw):
    v = np.asarray(draw(vectors))
    k = draw(st.integers(1, len(v)))
    lam = draw(weights)
    return v, lam, k


@given(sparc_inputs())
def test_sparc_prox_is_always_k_sparse(inp):
    v, lam, k = inp
    assert np.count_nonzero(prox_sparc(v, lam, k)) <= k


@given(sparc_inputs())
def test_sparc_prox_never_grows_magnitudes(inp):
    v, lam, k = inp
    x = prox_sparc(v, lam, k)
    assert np.all(np.abs(x) <= np.abs(v) + 1e-12)


@given(vectors, weights, weights, st.randoms(use_true_random=False))
def test_oscar_prox_is_permutation_equivariant(v, lam1, lam2, rnd):
    v = np.asarray(v)
    mags = np.abs(v)
    assume(mags.size < 2 or np.min(np.abs(np.subtract.outer(
        mags, mags)[~np.eye(mags.size, dtype=bool)])) > 1e-6)
    perm = list(range(v.size))
    rnd.shuffle(perm)
    perm = np.asarray(perm)
    direct = prox_oscar(v[perm], lam1, lam2)
    routed = prox_oscar(v, lam1, lam2)[perm]
    npt.assert_allclose(direct, routed, atol=1e-10)


@given(vector_pairs(), weights)
def test_soft_threshold_is_nonexpansive(pair, t):
    u, v = pair
    du = soft_threshold(u, t) - soft_threshold(v, t)
    d = u - v
    assert float(du @ du) <= float(d @ d) + 1e-9


@given(vector_pairs(), weights, weights)
def test_elastic_net_prox_is_nonexpansive(pair, lam1, lam2):
    u, v = pair
    du = prox_elastic_net(u, lam1, lam2) - prox_elastic_net(v, lam1, lam2)
    d = u - v
    assert float(du @ du) <= float(d @ d) + 1e-9


@given(vector_pairs(), weights, weights)
def test_oscar_prox_is_nonexpansive(pair, lam1, lam2):
    u, v = pair
    du = prox_oscar(u, lam1, lam2) - prox_oscar(v, lam1, lam2)
    d = u - v
    assert float(du @ du) <= float(d @ d) + 1e-9


@given(vectors)
def test_isotonic_output_is_non_increasing(u):
    out = isotonic_decreasing(np.asarray(u))
    assert np.all(np.diff(out) <= 1e-12)


@given(vectors)
def test_isotonic_is_idempotent(u):
    out = isotonic_decreasing(np.asarray(u))
    npt.assert_allclose(isotonic_decreasing(out), out, atol=1e-12)


@given(vectors)
def test_isotonic_preserves_mass(u):
    u = np.asarray(u)
    assert abs(isotonic_decreasing(u).sum() - u.sum()) <= 1e-9 * (
        1 + abs(u.sum()))


@given(vectors)
def test_isotonic_never_beats_itself(u):
    # projection: the output is the closest non-increasing vector, so any
    # other feasible candidate (here: its own sorted copy) is no closer
    u = np.asarray(u)
    out = isotonic_decreasing(u)
    alt = np.sort(u)[::-1]
    d_out = u - out
    d_alt = u - alt
    assert float(d_out @ d_out) <= float(d_alt @ d_alt) + 1e-9


@given(vectors, weights, st.floats(min_value=0.1, max_value=10.0))
def test_scaled_penalty_divides_value(x, lam, alpha):
    x = np.asarray(x)
    for reg in (Lasso(lam), ElasticNet(lam, lam), Oscar(lam, lam),
                Sparc(lam, x.size)):
        direct = _penalty(_scale(reg, alpha), x)
        expected = penalty_value(reg, x) / alpha
        npt.assert_allclose(direct, expected, rtol=1e-10, atol=1e-12)


@given(vectors)
def test_dof_never_exceeds_nnz(e):
    e = np.asarray(e)
    assert dof(e) <= nnz(e)


@given(vector_pairs())
def test_ser_ignores_signs(pair):
    x_true, e = pair
    assert ser(x_true, e) == ser(-x_true, np.abs(e))


@given(sparc_inputs())
def test_prox_is_deterministic(inp):
    v, lam, k = inp
    a = prox_sparc(v, lam, k)
    b = prox_sparc(v.copy(), lam, k)
    npt.assert_array_equal(a, b)
    npt.assert_array_equal(prox_oscar(v, lam, 0.1), prox_oscar(v, lam, 0.1))
