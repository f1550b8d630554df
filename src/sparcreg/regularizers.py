"""Regularizer definitions: penalty evaluation and scaled prox dispatch.

Four penalties share one interface:

* ``Lasso``       -- lam1 * ||x||_1
* ``ElasticNet``  -- lam1 * ||x||_1 + (lam2 / 2) * ||x||_2^2
* ``Oscar``       -- lam1 * ||x||_1 + lam2 * sum_{i<j} max(|x_i|, |x_j|)
* ``Sparc``       -- indicator of {||x||_0 <= k} plus lam * pairwise max
                     restricted to the k largest-magnitude positions

``penalty_value`` evaluates the penalty, ``prox`` computes the proximity
operator of ``penalty / alpha`` (the scalar parameters divide by alpha; the
sparsity indicator is invariant under positive scaling).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .prox import (  # the public operators stay importable from here
    _as_vector,
    _check_k,
    _check_nonneg,
    _owl,
    _prox_oscar,
    _prox_sparc,
    _soft,
    owl_weights,
    prox_elastic_net,
    prox_oscar,
    prox_sparc,
    soft_threshold,
)

__all__ = [
    "Lasso",
    "ElasticNet",
    "Oscar",
    "Sparc",
    "Regularizer",
    "penalty_value",
    "prox",
    "prox_objective",
    "scale_penalty",
]


@dataclass(frozen=True)
class Lasso:
    lam1: float

    def __post_init__(self):
        _check_nonneg(self.lam1, "lam1")


@dataclass(frozen=True)
class ElasticNet:
    lam1: float
    lam2: float

    def __post_init__(self):
        _check_nonneg(self.lam1, "lam1")
        _check_nonneg(self.lam2, "lam2")


@dataclass(frozen=True)
class Oscar:
    lam1: float
    lam2: float

    def __post_init__(self):
        _check_nonneg(self.lam1, "lam1")
        _check_nonneg(self.lam2, "lam2")


@dataclass(frozen=True)
class Sparc:
    lam: float
    k: int

    def __post_init__(self):
        _check_nonneg(self.lam, "lam")
        if int(self.k) != self.k or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k}")
        object.__setattr__(self, "k", int(self.k))


Regularizer = Union[Lasso, ElasticNet, Oscar, Sparc]


def penalty_value(reg, x):
    """Evaluate the penalty at x (may be +inf for Sparc).

    Oscar and Sparc are computed through the ordered-weight form: the sorted
    magnitudes dotted with ``owl_weights``.  For Sparc the weights span the k
    retained ranks, so positions holding zeros still count as pair partners
    when x has fewer than k nonzeros; ``||x||_0`` uses strict equality to
    zero, since prox outputs contain exact zeros.
    """
    x = _as_vector(x, "x")
    if isinstance(reg, Sparc) and not 1 <= reg.k <= x.size:
        raise ValueError(
            f"Sparc k must satisfy 1 <= k <= {x.size}, got {reg.k}"
        )
    return _penalty(reg, x)


def _penalty(reg, x):
    """``penalty_value`` for a finite 1-D float64 x and, for Sparc, k <= x.size."""
    if isinstance(reg, Lasso):
        return float(reg.lam1 * np.abs(x).sum())
    if isinstance(reg, ElasticNet):
        return float(reg.lam1 * np.abs(x).sum() + 0.5 * reg.lam2 * (x @ x))
    if isinstance(reg, Oscar):
        mags = np.sort(np.abs(x))[::-1]
        return float(_owl(float(reg.lam1), float(reg.lam2), x.size) @ mags)
    if isinstance(reg, Sparc):
        k = reg.k
        if np.count_nonzero(x) > k:
            return float("inf")
        mags = np.sort(np.abs(x))[::-1][:k]
        return float(_owl(0.0, float(reg.lam), k) @ mags)
    raise TypeError(f"unknown regularizer {reg!r}")


def _check_alpha(alpha):
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    return alpha


def scale_penalty(reg, alpha):
    """The regularizer whose penalty equals ``penalty(reg) / alpha``."""
    alpha = _check_alpha(alpha)
    if isinstance(reg, Lasso):
        return Lasso(reg.lam1 / alpha)
    if isinstance(reg, ElasticNet):
        return ElasticNet(reg.lam1 / alpha, reg.lam2 / alpha)
    if isinstance(reg, Oscar):
        return Oscar(reg.lam1 / alpha, reg.lam2 / alpha)
    if isinstance(reg, Sparc):
        return Sparc(reg.lam / alpha, reg.k)
    raise TypeError(f"unknown regularizer {reg!r}")


def prox(reg, v, alpha=1.0):
    """Proximity operator of ``penalty(reg) / alpha`` at v.

    argmin_x  penalty(reg, x)/alpha + (1/2) ||x - v||^2

    Checks v, alpha, the scaled parameters and (for Sparc) k <= v.size
    once, then runs the unchecked kernel; the result equals the public
    operator applied to ``scale_penalty(reg, alpha)``.
    """
    alpha = _check_alpha(alpha)
    v = _as_vector(v)
    if isinstance(reg, Lasso):
        return _soft(v, _check_nonneg(reg.lam1 / alpha, "lam1"))
    if isinstance(reg, ElasticNet):
        lam1 = _check_nonneg(reg.lam1 / alpha, "lam1")
        lam2 = _check_nonneg(reg.lam2 / alpha, "lam2")
        return _soft(v, lam1) / (1.0 + lam2)
    if isinstance(reg, Oscar):
        return _prox_oscar(v, _check_nonneg(reg.lam1 / alpha, "lam1"),
                           _check_nonneg(reg.lam2 / alpha, "lam2"))
    if isinstance(reg, Sparc):
        return _prox_sparc(v, _check_nonneg(reg.lam / alpha, "lam"),
                           _check_k(reg.k, v.size))
    raise TypeError(f"unknown regularizer {reg!r}")


def prox_objective(reg, v, z, alpha=1.0):
    """Value of the prox objective ``penalty(reg, z)/alpha + 0.5*||z - v||^2``."""
    v = _as_vector(v)
    z = _as_vector(z, "z")
    d = z - v
    return penalty_value(scale_penalty(reg, alpha), z) + 0.5 * float(d @ d)
