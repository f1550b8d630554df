"""Proximity operators for sparsity- and clustering-inducing penalties.

Building blocks shared by the LASSO, elastic net, OSCAR and SPARC penalties:
componentwise soft thresholding, the ordered weight sequence of the pairwise
max penalty, Euclidean projection onto the non-increasing cone
(pool-adjacent-violators), hard K-sparse projection, and the exact
sort / shrink / pool proximity operators assembled from them.

Every function is pure and operates on 1-D float arrays.  The public
functions validate their arguments and then call private kernels
(``_soft``, ``_owl``, ``_prox_oscar``, ``_top_k``, ``_prox_sparc``) that
assume a finite 1-D float64 vector and checked parameters; callers that
have already validated, such as ``regularizers.prox``, call the kernels
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SortedMagnitudeView",
    "soft_threshold",
    "prox_elastic_net",
    "owl_weights",
    "isotonic_decreasing",
    "prox_oscar",
    "top_k_support",
    "project_k_sparse",
    "prox_sparc",
]


_FLOAT = np.dtype(float)


def _as_vector(v, name="v"):
    if type(v) is np.ndarray and v.dtype is _FLOAT and v.ndim == 1:
        arr = v  # what np.asarray(v, dtype=float) would return
    else:
        arr = np.asarray(v, dtype=float)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.ndim != 1:
            raise ValueError(
                f"{name} must be a 1-D vector, got shape {arr.shape}"
            )
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _check_nonneg(value, name):
    value = float(value)
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be finite and non-negative, got {value}")
    return value


def _check_k(k, p):
    k = int(k)
    if not 1 <= k <= p:
        raise ValueError(f"k must satisfy 1 <= k <= {p}, got {k}")
    return k


@dataclass(frozen=True)
class SortedMagnitudeView:
    """Decomposition of a vector into sorted magnitudes, signs and a permutation.

    ``magnitudes`` is non-increasing; ``permutation[i]`` is the original index
    of the i-th largest magnitude (ties keep the lower original index first).
    ``reconstruct(magnitudes)`` recovers the original vector exactly.
    """

    magnitudes: np.ndarray
    signs: np.ndarray
    permutation: np.ndarray

    @classmethod
    def from_vector(cls, v):
        v = _as_vector(v)
        mags = np.abs(v)
        order = np.argsort(-mags, kind="stable")
        return cls(magnitudes=mags[order], signs=np.sign(v), permutation=order)

    def reconstruct(self, magnitudes=None):
        mags = self.magnitudes if magnitudes is None else np.asarray(magnitudes, dtype=float)
        out = np.empty_like(mags)
        out[self.permutation] = mags
        return self.signs * out


def _soft(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def soft_threshold(v, t):
    """Componentwise soft threshold: sign(v_i) * max(|v_i| - t, 0).

    The proximity operator of ``t * ||.||_1``.
    """
    return _soft(_as_vector(v), _check_nonneg(t, "t"))


def prox_elastic_net(v, lam1, lam2):
    """Prox of the elastic net penalty lam1*||x||_1 + (lam2/2)*||x||_2^2.

    Soft thresholding at lam1 followed by a 1/(1+lam2) shrink.
    """
    v = _as_vector(v)
    lam1 = _check_nonneg(lam1, "lam1")
    lam2 = _check_nonneg(lam2, "lam2")
    return _soft(v, lam1) / (1.0 + lam2)


def _owl(lam1, lam2, d):
    return lam1 + lam2 * np.arange(d - 1, -1, -1, dtype=float)


def owl_weights(lam1, lam2, d):
    """Per-rank weights that linearize the pairwise-max penalty.

    In descending magnitude order the k-th largest entry (k = 1..d) is the
    maximum in exactly (d - k) of the pairs, so

        lam1*||x||_1 + lam2*sum_{i<j} max(|x_i|, |x_j|)
            = sum_k (lam1 + lam2*(d - k)) * |x|_[k].

    Returns the non-increasing weight vector w_k = lam1 + lam2*(d - k).
    """
    lam1 = _check_nonneg(lam1, "lam1")
    lam2 = _check_nonneg(lam2, "lam2")
    d = int(d)
    if d < 1:
        raise ValueError(f"d must be a positive integer, got {d}")
    return _owl(lam1, lam2, d)


def _pava(u):
    """Pool-adjacent-violators on a 1-D float array, without checks.

    Scan left to right keeping a stack of blocks (sum, width); while the
    newest block's mean is at least its predecessor's, merge the two; finally
    expand each block to its mean.  Ties pool, so even a feasible input can
    come back changed in the last bit.
    """
    sums = []
    widths = []
    for x in u.tolist():
        sums.append(x)
        widths.append(1)
        # pool while predecessor mean <= newest mean (cross-multiplied)
        while len(sums) > 1 and sums[-2] * widths[-1] <= sums[-1] * widths[-2]:
            s = sums.pop()
            w = widths.pop()
            sums[-1] += s
            widths[-1] += w
    out = np.empty(u.size)
    pos = 0
    for s, w in zip(sums, widths):
        out[pos:pos + w] = s / w
        pos += w
    return out


def _is_non_increasing(u):
    # equals np.all(np.diff(u) <= 0) for finite u, with fewer numpy calls
    return u.size <= 1 or bool((u[1:] <= u[:-1]).all())


def isotonic_decreasing(u):
    """Euclidean projection onto the cone of non-increasing sequences.

    Pool-adjacent-violators; an input that is already non-increasing is
    returned as a copy.
    """
    u = _as_vector(u, "u")
    if _is_non_increasing(u):
        return u.copy()
    return _pava(u)


def _prox_oscar(v, lam1, lam2):
    mags = np.abs(v)
    order = np.argsort(-mags, kind="stable")
    u = mags[order] - _owl(lam1, lam2, v.size)
    if not _is_non_increasing(u):
        # Entries after the last positive one pool only into blocks whose
        # mean is <= 0, which never merge into a positive block and clip to
        # zero anyway, so PAVA runs on the prefix up to that entry alone.
        # Feasibility is tested on the whole of u: PAVA pools ties, so it
        # may change a feasible prefix in the last bit.
        positive = (u > 0).nonzero()[0]
        m = positive[-1] + 1 if positive.size else 0
        u[:m] = _pava(u[:m])
        u[m:] = 0.0
    out = np.empty_like(u)
    out[order] = np.maximum(u, 0.0)
    return np.sign(v) * out


def prox_oscar(v, lam1, lam2):
    """Exact prox of lam1*||x||_1 + lam2*sum_{i<j} max(|x_i|, |x_j|).

    Sort magnitudes in decreasing order, subtract the per-rank weights,
    project onto the non-increasing cone, clip at zero, then restore signs
    and the original order.  Magnitude order and signs are preserved:
    |v_i| >= |v_j| implies |out_i| >= |out_j| and sign(out_i) is either 0
    or sign(v_i).
    """
    return _prox_oscar(_as_vector(v), _check_nonneg(lam1, "lam1"),
                       _check_nonneg(lam2, "lam2"))


def _top_k(v, k):
    mags = np.abs(v)
    t = np.partition(mags, v.size - k)[v.size - k]  # k-th largest magnitude
    keep = mags >= t
    extra = np.count_nonzero(keep) - k
    if extra:
        # more than k at or above t: drop the highest-index ties at t, as a
        # stable sort would
        keep[(mags == t).nonzero()[0][-extra:]] = False
    return keep.nonzero()[0]


def top_k_support(v, k):
    """Indices (ascending) of the k largest entries of |v|; ties keep lower index."""
    v = _as_vector(v)
    return _top_k(v, _check_k(k, v.size))


def project_k_sparse(v, k):
    """Keep the k largest-magnitude entries of v, zero the rest."""
    v = _as_vector(v)
    idx = _top_k(v, _check_k(k, v.size))
    out = np.zeros_like(v)
    out[idx] = v[idx]
    return out


def _prox_sparc(v, lam, k):
    idx = _top_k(v, k)
    out = np.zeros_like(v)
    out[idx] = _prox_oscar(v[idx], 0.0, lam)
    return out


def prox_sparc(v, lam, k):
    """Prox of the SPARC penalty: k-sparsity plus a pairwise max on the survivors.

    Restrict v to the support of its k largest magnitudes, apply the
    pure-clustering OSCAR prox (lam1 = 0) there, and zero everything else.
    The output is always k-sparse with support inside ``top_k_support(v, k)``.
    """
    v = _as_vector(v)
    return _prox_sparc(v, _check_nonneg(lam, "lam"), _check_k(k, v.size))
