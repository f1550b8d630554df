"""Regularizers: one penalty family, its value and its scaled prox.

All four penalties are one family, the ordered weighted l1 (OWL) norm of
Zeng & Figueiredo with an optional top-k cap and ridge term:

    penalty(x) = sum_{i <= d} (l1 + slope * (d - i)) * |x|_[i]
                 + (ridge / 2) * ||x||_2^2

over the sorted magnitudes |x|_[1] >= |x|_[2] >= ..., with d = p, or
d = k under a cap, which also makes the penalty +inf unless
||x||_0 <= k.  Linear weights make the sum
``l1 * ||x||_1 + slope * sum_{i<j} max(|x_i|, |x_j|)``.  Each member
maps its fields to the terms (l1 weight, slope, ridge, top-k):

    ==========================  =========  =====  =====  =====
    member                      l1 weight  slope  ridge  top-k
    ==========================  =========  =====  =====  =====
    ``Lasso(lam1)``             lam1       --     --     --
    ``ElasticNet(lam1, lam2)``  lam1       --     lam2   --
    ``Oscar(lam1, lam2)``       lam1       lam2   --     --
    ``Sparc(lam, k)``           0          lam    --     k
    ==========================  =========  =====  =====  =====

A dash is an absent term (None), not a zero: without a slope the weights
are constant and need no sort, so ``Oscar(lam1, 0)`` still takes the
sorted path that ``Lasso(lam1)`` skips.  ``prox`` computes the proximity
operator of ``penalty / alpha``: the weights divide by alpha, k stays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .prox import (
    _as_vector,
    _check_count,
    _check_k,
    _check_nonneg,
    _owl,
    _prox_terms,
    # unused here: bench/tests/test_bench.py checks that tracing patches
    # and restores this binding
    prox_oscar,
)

__all__ = [
    "Regularizer",
    "Lasso",
    "ElasticNet",
    "Oscar",
    "Sparc",
    "penalty_value",
    "prox",
    "prox_objective",
]


class Regularizer:
    """A member of the penalty family: a frozen dataclass of its parameters
    that names its ``method`` and maps its fields to the family's terms."""

    method = ""

    def terms(self):
        """(l1 weight, slope, ridge, top-k); None marks an absent term."""
        raise NotImplementedError


@dataclass(frozen=True)
class Lasso(Regularizer):
    method = "lasso"
    lam1: float

    def __post_init__(self):
        _check_nonneg(self.lam1, "lam1")

    def terms(self):
        return self.lam1, None, None, None


@dataclass(frozen=True)
class ElasticNet(Regularizer):
    method = "enet"
    lam1: float
    lam2: float

    def __post_init__(self):
        _check_nonneg(self.lam1, "lam1")
        _check_nonneg(self.lam2, "lam2")

    def terms(self):
        return self.lam1, None, self.lam2, None


@dataclass(frozen=True)
class Oscar(Regularizer):
    method = "oscar"
    lam1: float
    lam2: float

    def __post_init__(self):
        _check_nonneg(self.lam1, "lam1")
        _check_nonneg(self.lam2, "lam2")

    def terms(self):
        return self.lam1, self.lam2, None, None


@dataclass(frozen=True)
class Sparc(Regularizer):
    method = "sparc"
    lam: float
    k: int

    def __post_init__(self):
        _check_nonneg(self.lam, "lam")
        object.__setattr__(self, "k", _check_count(self.k, "k"))

    def terms(self):
        return 0.0, self.lam, None, self.k


# the members by method name, in report order
_BY_METHOD = {cls.method: cls for cls in (Lasso, ElasticNet, Oscar, Sparc)}


def _terms(reg):
    if not isinstance(reg, Regularizer):
        raise TypeError(f"unknown regularizer {reg!r}")
    return reg.terms()


def _scale(reg, alpha):
    """The terms of ``penalty(reg) / alpha``, checked once per candidate.

    The fields are finite and non-negative, so a quotient can only go
    wrong by overflowing.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    l1, slope, ridge, k = _terms(reg)
    scaled = (l1 / alpha,
              None if slope is None else slope / alpha,
              None if ridge is None else ridge / alpha,
              k)
    if math.inf in scaled:
        raise ValueError(f"{reg!r} / alpha = {alpha!r} overflows")
    return scaled


def _weights(terms, d):
    """The OWL weights that ``_price`` dots with the sorted magnitudes of a
    d-vector: d of them, k under a cap; None without a slope."""
    l1, slope, _, k = terms
    if slope is None:
        return None
    # read through a negative stride, which keeps numpy's dot off BLAS:
    # one sequential sum, whose bits do not change when zero magnitudes are
    # left off its end.  A contiguous operand pair gives other bits
    return _owl(l1, slope, d if k is None else k)[::-1].copy()[::-1]


def _price(terms, weights, x, mags):
    """The penalty of the family terms at x, priced on the magnitudes mags.

    With a slope, mags are x's sorted magnitudes, non-increasing, of which
    trailing zeros may be left off, dotted with the leading ``weights``
    (``_weights``); without, |x| in order, times l1.  The ridge term is
    priced on x itself.
    """
    l1, slope, ridge, _ = terms
    if slope is None:
        value = l1 * np.add.reduce(mags)  # mags.sum(), without its wrapper
    else:
        value = weights[:mags.size] @ mags
    if ridge is not None:
        value = value + 0.5 * ridge * (x @ x)
    return float(value)


def _penalty(terms, x, weights=None):
    """The penalty of the family terms at a finite 1-D float64 x; k <= x.size.

    Under a cap the weights span the k retained ranks, so positions holding
    zeros still count as pair partners when x has fewer than k nonzeros;
    ``||x||_0`` uses strict equality to zero, since prox outputs contain
    exact zeros.  ``weights``, where the caller holds them, are
    ``_weights(terms, x.size)``.
    """
    slope, k = terms[1], terms[3]
    if slope is None:
        return _price(terms, None, x, np.abs(x))
    if k is not None and np.count_nonzero(x) > k:
        return float("inf")
    mags = np.sort(np.abs(x))[::-1][:x.size if k is None else k]
    if weights is None:
        weights = _weights(terms, x.size)
    return _price(terms, weights, x, mags)


def _checked_penalty(terms, x):
    if terms[3] is not None:
        _check_k(terms[3], x.size)
    return _penalty(terms, x)


def penalty_value(reg, x):
    """Evaluate the penalty at x (+inf off the k-sparse set under a cap)."""
    return _checked_penalty(_terms(reg), _as_vector(x, "x"))


def prox(reg, v, alpha=1.0, *, d=None, magnitudes=False):
    """Proximity operator of ``penalty(reg) / alpha`` at v.

    argmin_x  penalty(reg, x)/alpha + (1/2) ||x - v||^2

    Soft thresholding without a slope, the sorted OWL prox with one, then
    the ridge shrink 1/(1 + ridge); a cap applies this to the k largest
    magnitudes and zeroes the rest.  Checks alpha, the scaled terms, v and
    k <= v.size once, then runs the unchecked kernel ``_prox_terms``.

    ``d`` (default v.size), a count of at least v.size, is the length of
    the vector that v is the nonzero part of: an uncapped slope then takes
    the first of the d weights, and the result is that part of the prox
    of the d-vector.
    With ``magnitudes`` it returns (x, mags), mags being what the penalty
    of x is priced on: with a slope, the magnitudes of x's nonzero ranks,
    non-increasing; without, |x| in the order of v (of its top k under a
    cap).
    """
    l1, slope, ridge, k = _scale(reg, alpha)
    v = _as_vector(v)
    if k is not None:
        _check_k(k, v.size)
    if d is not None:
        d = _check_count(d, "d")
        if d < v.size:
            raise ValueError(f"d must be at least v.size = {v.size}, got {d}")
    out = _prox_terms(v, l1, slope, ridge, k, d)
    return out if magnitudes else out[0]


def prox_objective(reg, v, z, alpha=1.0):
    """Value of the prox objective ``penalty(reg, z)/alpha + 0.5*||z - v||^2``."""
    v = _as_vector(v)
    z = _as_vector(z, "z", v.size)
    d = z - v
    return _checked_penalty(_scale(reg, alpha), z) + 0.5 * float(d @ d)
