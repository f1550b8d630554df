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

from .prox import (  # the public operators stay importable from here
    _as_vector,
    _check_k,
    _check_nonneg,
    _owl,
    _prox_terms,
    owl_weights,
    prox_elastic_net,
    prox_oscar,
    prox_sparc,
    soft_threshold,
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
        if int(self.k) != self.k or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k}")
        object.__setattr__(self, "k", int(self.k))

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
    if not isinstance(reg, Regularizer):  # _terms inline: once per candidate
        raise TypeError(f"unknown regularizer {reg!r}")
    l1, slope, ridge, k = reg.terms()
    scaled = (l1 / alpha,
              None if slope is None else slope / alpha,
              None if ridge is None else ridge / alpha,
              k)
    if math.inf in scaled:
        raise ValueError(f"{reg!r} / alpha = {alpha!r} overflows")
    return scaled


def _penalty(terms, x):
    """The penalty of the family terms at a finite 1-D float64 x; k <= x.size.

    With a slope, the sorted magnitudes dotted with ``owl_weights``.  Under
    a cap the weights span the k retained ranks, so positions holding
    zeros still count as pair partners when x has fewer than k nonzeros;
    ``||x||_0`` uses strict equality to zero, since prox outputs contain
    exact zeros.
    """
    l1, slope, ridge, k = terms
    if slope is None:
        value = l1 * np.abs(x).sum()
    elif k is not None and np.count_nonzero(x) > k:
        return float("inf")
    else:
        d = x.size if k is None else k
        value = _owl(l1, slope, d) @ np.sort(np.abs(x))[::-1][:d]
    if ridge is not None:
        value = value + 0.5 * ridge * (x @ x)
    return float(value)


def _checked_penalty(terms, x):
    if terms[3] is not None:
        _check_k(terms[3], x.size)
    return _penalty(terms, x)


def penalty_value(reg, x):
    """Evaluate the penalty at x (+inf off the k-sparse set under a cap)."""
    return _checked_penalty(_terms(reg), _as_vector(x, "x"))


def prox(reg, v, alpha=1.0):
    """Proximity operator of ``penalty(reg) / alpha`` at v.

    argmin_x  penalty(reg, x)/alpha + (1/2) ||x - v||^2

    Soft thresholding without a slope, the sorted OWL prox with one, then
    the ridge shrink 1/(1 + ridge); a cap applies this to the k largest
    magnitudes and zeroes the rest.  Checks alpha, the scaled terms, v and
    k <= v.size once, then runs the unchecked kernel ``_prox_terms``.
    """
    l1, slope, ridge, k = _scale(reg, alpha)
    v = _as_vector(v)
    if k is not None:
        _check_k(k, v.size)
    return _prox_terms(v, l1, slope, ridge, k)


def prox_objective(reg, v, z, alpha=1.0):
    """Value of the prox objective ``penalty(reg, z)/alpha + 0.5*||z - v||^2``."""
    v = _as_vector(v)
    z = _as_vector(z, "z")
    d = z - v
    return _checked_penalty(_scale(reg, alpha), z) + 0.5 * float(d @ d)
