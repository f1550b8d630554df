"""Proximity operators for sparsity- and clustering-inducing penalties.

Building blocks shared by the LASSO, elastic net, OSCAR and SPARC penalties:
componentwise soft thresholding, the ordered weight sequence of the pairwise
max penalty, Euclidean projection onto the non-increasing cone
(pool-adjacent-violators), hard K-sparse projection, and the exact
sort / shrink / pool proximity operators assembled from them.

Every function is pure and operates on 1-D float arrays.  The public
functions validate their arguments and then call private kernels
(``_owl``, ``_pava``, ``_prox_sorted``, ``_top_k``, ``_prox_terms``) that
assume a finite 1-D float64 vector and checked parameters; callers that
have already validated, such as ``regularizers.prox``, call the kernels
directly.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
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


def _as_vector(v, name="v", size=None):
    """v as a finite 1-D float64 array, a 0-D value as one entry; with
    ``size``, of shape (size,).  The one vector rule of the package."""
    if type(v) is np.ndarray and v.dtype is _FLOAT and v.ndim == 1:
        arr = v  # what np.asarray(v, dtype=float) would return
    else:
        arr = np.asarray(v, dtype=float)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.ndim != 1 and size is None:
            raise ValueError(
                f"{name} must be a 1-D vector, got shape {arr.shape}"
            )
    if size is not None and arr.shape != (size,):
        raise ValueError(f"{name} has shape {arr.shape}, expected ({size},)")
    # np.isfinite(arr).all(), without the method's wrapper
    if not np.logical_and.reduce(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _check_nonneg(value, name):
    """float(value) for a finite value >= 0 that is not a boolean;
    anything else raises."""
    if not isinstance(value, (bool, np.bool_)):
        value = float(value)
        if math.isfinite(value) and value >= 0:
            return value
    raise ValueError(f"{name} must be finite and non-negative, got {value}")


def _check_count(value, name, least=1):
    """int(value) for a finite, integral value >= ``least`` (1 or 0) that
    is not a boolean; anything else raises."""
    try:
        count = -1 if isinstance(value, (bool, np.bool_)) else int(value)
    except (TypeError, ValueError, OverflowError):  # None, nan, inf
        count = -1
    if count != value or count < least:
        kind = "positive" if least else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value}")
    return count


def _check_k(k, p):
    k = _check_count(k, "k")
    if k > p:
        raise ValueError(f"k must satisfy 1 <= k <= {p}, got {k}")
    return k


def soft_threshold(v, t):
    """Componentwise soft threshold: sign(v_i) * max(|v_i| - t, 0).

    The proximity operator of ``t * ||.||_1``.
    """
    return _prox_terms(_as_vector(v), _check_nonneg(t, "t"), None, None,
                       None)[0]


def prox_elastic_net(v, lam1, lam2):
    """Prox of the elastic net penalty lam1*||x||_1 + (lam2/2)*||x||_2^2.

    Soft thresholding at lam1 followed by a 1/(1+lam2) shrink.
    """
    return _prox_terms(_as_vector(v), _check_nonneg(lam1, "lam1"), None,
                       _check_nonneg(lam2, "lam2"), None)[0]


def _owl(lam1, lam2, d, head=None):
    # the first ``head`` (default all d) of the d weights, built in place:
    # the bits of lam1 + lam2 * arange
    stop = -1 if head is None else d - 1 - head
    w = np.arange(d - 1, stop, -1, dtype=float)
    w *= lam2
    w += lam1
    return w


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
    return _owl(lam1, lam2, _check_count(d, "d"))


def _pava(u):
    """Pool-adjacent-violators on a 1-D float array, without checks.

    Scan left to right keeping a stack of blocks (sum, width); while the
    newest block's mean is above its predecessor's, merge the two; finally
    expand each block to its mean.  Only strict violators merge, so a
    non-increasing input comes back bit for bit, and an input without a
    rise (u[j] > u[j-1]) comes back as a copy at once.

    The newest block (s, w) lives in local variables and the stack lists
    hold the blocks below it.  An element that does not merge starts a
    singleton block, and every following element up to the next rise is
    at or below it, so that non-increasing stretch is pushed whole, with
    one extend; only the rises and the elements after a merge run the
    merge loop, and the arithmetic is that of pushing element by element.
    """
    ends = (u[1:] > u[:-1]).nonzero()[0].tolist()  # u[e + 1] > u[e]
    if not ends:
        return u.copy()
    vals = u.tolist()
    n = len(vals)
    ends.append(n - 1)
    e = ends[0]
    sums = vals[:e]
    widths = [1] * e
    s = vals[e]
    w = 1
    i = e + 1
    r = 1
    while i < n:
        x = vals[i]
        # pool while predecessor mean < newest mean (cross-multiplied)
        if s < x * w:
            s += x
            w += 1
            while sums and sums[-1] * w < s * widths[-1]:
                s += sums.pop()
                w += widths.pop()
            i += 1
        else:
            while ends[r] < i:
                r += 1
            e = ends[r]
            sums.append(s)
            widths.append(w)
            sums.extend(vals[i:e])
            widths.extend([1] * (e - i))
            s = vals[e]
            w = 1
            i = e + 1
    sums.append(s)
    widths.append(w)
    # free each list once its array exists, which keeps the peak memory
    # of a p = 10 000 call at the element loop's (~0.5 MB)
    del vals
    widths = np.array(widths, dtype=np.intp)
    means = np.array(sums)
    del sums
    means /= widths  # float64 / int64 divides as s / w does per block
    return means.repeat(widths)


def isotonic_decreasing(u):
    """Euclidean projection onto the cone of non-increasing sequences.

    Pool-adjacent-violators, which returns a new array: an input that is
    already non-increasing comes back as a copy, bit for bit.
    """
    return _pava(_as_vector(u, "u"))


def _prox_sorted(a, lam1, lam2, d):
    """The OSCAR prox's kernel at the magnitudes a = |v|: (order, mags),
    the indices of the ranks it sorts and their output magnitudes,
    non-increasing.

    ``d`` is the OWL dimension, at least v.size: a v that stands for a
    d-vector which is zero elsewhere takes the first of the d weights.
    Every weight is at least lam1, so an entry with |v_i| <= lam1 has
    u_i <= 0 and clips to zero, and such entries are the trailing ranks of
    the full stable sort.  Sorting the rest therefore gives exactly the
    leading ranks of the full order.  PAVA pools the sorted ranks whole: a
    block whose mean is <= 0 never merges into a positive block, so the
    trailing ranks change no positive output, and the result is bit-for-bit
    that of sorting all d magnitudes.
    """
    top = (a > lam1).nonzero()[0]
    order = top[(-a[top]).argsort(kind="stable")]
    u = _pava(a[order] - _owl(lam1, lam2, d, top.size))
    return order, np.maximum(u, 0.0, out=u)


def prox_oscar(v, lam1, lam2):
    """Exact prox of lam1*||x||_1 + lam2*sum_{i<j} max(|x_i|, |x_j|).

    Sort magnitudes in decreasing order, subtract the per-rank weights,
    project onto the non-increasing cone, clip at zero, then restore signs
    and the original order.  Only the magnitudes above lam1 are sorted:
    every weight is at least lam1, so the others come out zero.  The result
    is bit-for-bit that of sorting all of them.  Magnitude order and signs
    are preserved:
    |v_i| >= |v_j| implies |out_i| >= |out_j| and sign(out_i) is either 0
    or sign(v_i).
    """
    return _prox_terms(_as_vector(v), _check_nonneg(lam1, "lam1"),
                       _check_nonneg(lam2, "lam2"), None, None)[0]


def _top_k(mags, k):
    # the indices (ascending) of the k largest of the magnitudes mags
    j = mags.size - k
    part = mags.copy()
    part.partition(j)  # np.partition(mags, j), without its wrapper
    t = part[j]  # the k-th largest magnitude
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
    return _top_k(np.abs(v), _check_k(k, v.size))


def project_k_sparse(v, k):
    """Keep the k largest-magnitude entries of v, zero the rest."""
    v = _as_vector(v)
    idx = _top_k(np.abs(v), _check_k(k, v.size))
    out = np.zeros(v.size)
    out[idx] = v[idx]
    return out


def _prox_terms(v, l1, slope, ridge, k, d=None):
    """The prox of the penalty family's terms (see ``regularizers``), and
    the output magnitudes the penalty is priced on.

    Soft thresholding without a slope, the OSCAR prox with one, then the
    ridge shrink 1/(1 + ridge); a cap k applies this to the k largest
    magnitudes and zeroes the rest.  None marks an absent term.  Returns
    (out, mags): with a slope, mags are the sorted ranks' magnitudes,
    non-increasing, and every other entry of out is 0; without one, the
    magnitudes of out in the order of v (of its top k under a cap).  ``d``
    (default v.size) is the OWL dimension of an uncapped slope, for a v
    that is the part of a d-vector outside of which it is zero.
    """
    a = np.abs(v)
    part = v
    if k is not None:
        # the prox of the top k, whose OWL dimension is k
        idx = _top_k(a, k)
        part, a, d = v[idx], a[idx], k
    if slope is None:
        mags = np.maximum(a - l1, 0.0)
    else:
        order, mags = _prox_sorted(a, l1, slope, v.size if d is None else d)
    if ridge is not None:
        # sign * (m / c) has the bits of (sign * m) / c: a sign is -1, 0 or 1
        mags = mags / (1.0 + ridge)
    out = mags
    if slope is not None:
        out = np.zeros(part.size)
        out[order] = mags
    x = np.sign(part) * out
    if k is None:
        return x, mags
    out = np.zeros(v.size)
    out[idx] = x
    return out, mags


def prox_sparc(v, lam, k):
    """Prox of the SPARC penalty: k-sparsity plus a pairwise max on the survivors.

    Restrict v to the support of its k largest magnitudes, apply the
    pure-clustering OSCAR prox (lam1 = 0) there, and zero everything else.
    The output is always k-sparse with support inside ``top_k_support(v, k)``.
    """
    v = _as_vector(v)
    return _prox_terms(v, 0.0, _check_nonneg(lam, "lam"), None,
                       _check_k(k, v.size))[0]
