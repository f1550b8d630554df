"""Independent reference implementations used to verify the package.

Everything here is deliberately written the slow, literal way (double
loops over pairs, exhaustive enumeration) so the fast implementations
are checked against arithmetic that shares no code with them.
"""

import csv
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from sparcreg.data import SPLIT_NAMES, DataError, Dataset
from sparcreg.prox import (
    prox_elastic_net,
    prox_oscar,
    prox_sparc,
    soft_threshold,
)
from sparcreg.regularizers import ElasticNet, Lasso, Oscar, Sparc


def owl_weights_direct(lam1, lam2, d):
    """The d per-rank weights lam1 + lam2 * (d - k), k = 1..d: in
    descending magnitude order the k-th largest entry is the max in
    exactly d - k of the pairs."""
    return np.array([lam1 + lam2 * (d - k) for k in range(1, d + 1)],
                    dtype=float)


def lasso_penalty_direct(z, lam1):
    return lam1 * sum(abs(t) for t in z)


def enet_penalty_direct(z, lam1, lam2):
    return lam1 * sum(abs(t) for t in z) + 0.5 * lam2 * sum(t * t for t in z)


def oscar_penalty_direct(z, lam1, lam2):
    """lam1*||z||_1 + lam2 * sum over coordinate pairs of max(|z_i|,|z_j|)."""
    z = np.asarray(z, dtype=float)
    total = lam1 * np.abs(z).sum()
    p = z.size
    for i in range(p):
        for j in range(i + 1, p):
            total += lam2 * max(abs(z[i]), abs(z[j]))
    return float(total)


def sparc_penalty_direct(z, lam, k):
    """Indicator of k-sparsity plus the pairwise max over the k largest
    magnitudes (zeros pad the set when fewer than k entries are nonzero)."""
    z = np.asarray(z, dtype=float)
    if np.count_nonzero(z) > k:
        return float("inf")
    m = np.sort(np.abs(z))[::-1][:k]
    total = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            total += max(m[i], m[j])
    return float(lam * total)


# ------------------------------------------------------------ prox oracle

def _penalty_rows(kind, params, Z):
    """Penalty of every row of Z, via the direct definitions above
    (vectorized over rows but still literal in the pair structure)."""
    absZ = np.abs(Z)
    if kind == "lasso":
        return params["lam1"] * absZ.sum(axis=1)
    if kind == "enet":
        return (params["lam1"] * absZ.sum(axis=1)
                + 0.5 * params["lam2"] * (Z * Z).sum(axis=1))
    if kind == "oscar":
        p = Z.shape[1]
        total = params["lam1"] * absZ.sum(axis=1)
        pair = np.zeros(Z.shape[0])
        for i in range(p):
            for j in range(i + 1, p):
                pair += np.maximum(absZ[:, i], absZ[:, j])
        return total + params["lam2"] * pair
    if kind == "sparc":
        k = params["k"]
        M = -np.sort(-absZ, axis=1)[:, :k]
        pair = np.zeros(Z.shape[0])
        for i in range(k):
            for j in range(i + 1, k):
                pair += np.maximum(M[:, i], M[:, j])
        val = params["lam"] * pair
        infeasible = (absZ > 0).sum(axis=1) > k
        return np.where(infeasible, np.inf, val)
    raise ValueError(kind)


def prox_objective_rows(kind, params, Z, v):
    d = Z - v
    return _penalty_rows(kind, params, Z) + 0.5 * (d * d).sum(axis=1)


@functools.lru_cache(maxsize=None)
def _faces(p):
    """Every face of R^p for the penalty family, as (S, R).

    A face gives each coordinate either 0 or a sign and one of g ordered
    groups of equal magnitude, group 0 the largest.  ``S[f, i, j]`` is
    the sign of coordinate j if it lies in group i of face f, else 0;
    ``R[f, i, r]`` is 1 if group i holds rank r (ranks count from the
    largest magnitude), else 0.
    """
    S, R = [], []
    for labels in itertools.product(range(p + 1), repeat=p):
        used = sorted(set(labels) - {0})
        if used != list(range(1, len(used) + 1)):
            continue   # group labels 1..g, each used, 0 for a zero
        nonzero = [j for j in range(p) if labels[j]]
        sizes = [labels.count(g) for g in used]
        for signs in itertools.product((1.0, -1.0), repeat=len(nonzero)):
            s = np.zeros((p, p))
            for j, sign in zip(nonzero, signs):
                s[labels[j] - 1, j] = sign
            r = np.zeros((p, p))
            start = 0
            for i, size in enumerate(sizes):
                r[i, start:start + size] = 1.0
                start += size
            S.append(s)
            R.append(r)
    S, R = np.array(S), np.array(R)
    S.flags.writeable = R.flags.writeable = False  # shared by the cache
    return S, R


def prox_exact(kind, params, v):
    """The least value of penalty(z) + 0.5*||z - v||^2, and a z attaining it,
    by enumerating faces (``_faces``); for small p only.

    On a face, z_j = s_j c_i for the coordinates j of group i, and the
    penalty is linear in c: group i takes the per-rank weights of its
    ranks, W_i, and a ridge term adds (ridge/2) |G_i| c_i^2.  Setting the
    gradient in c_i to zero gives the face's one stationary point,

        c_i = (s . v_{G_i} - W_i) / (|G_i| (1 + ridge)).

    The faces where c is positive and strictly decreasing (and, under a
    cap, which have at most k nonzeros) hold points of their own face.
    The minimizer lies inside its own face, where the objective is a
    strictly convex quadratic in c, so it is that face's stationary point;
    the least literal objective (``prox_objective_rows``) over the
    feasible faces is therefore the exact optimum.  Nothing is assumed
    about which signs or order the minimizer keeps.
    """
    v = np.asarray(v, dtype=float)
    p = v.size
    S, R = _faces(p)
    ranks = np.arange(p)
    ridge = 0.0
    if kind == "lasso":
        w = np.full(p, params["lam1"])
    elif kind == "enet":
        w, ridge = np.full(p, params["lam1"]), params["lam2"]
    elif kind == "oscar":
        # rank r is the larger of a pair with each of the p - 1 - r below it
        w = params["lam1"] + params["lam2"] * (p - 1 - ranks)
    elif kind == "sparc":
        k = params["k"]
        w = np.where(ranks < k, params["lam"] * (k - 1 - ranks), 0.0)
    else:
        raise ValueError(kind)
    sizes = np.abs(S).sum(axis=2)                        # (faces, groups)
    present = sizes > 0
    c = np.where(present,
                 (S @ v - R @ w) / np.maximum(sizes, 1.0) / (1.0 + ridge),
                 0.0)
    nxt = np.concatenate([c[:, 1:], np.zeros((c.shape[0], 1))], axis=1)
    feasible = np.all(~present | ((c > 0) & (c > nxt)), axis=1)
    if kind == "sparc":
        feasible &= sizes.sum(axis=1) <= params["k"]
    Z = np.einsum("fi,fij->fj", c[feasible], S[feasible])
    vals = prox_objective_rows(kind, params, Z, v)
    best = int(np.argmin(vals))
    return float(vals[best]), Z[best]


# supports per batched solve in sparc_global_bruteforce
_SUPPORT_CHUNK = 64


def sparc_global_bruteforce(A, y, lam, k):
    """The least value of 0.5 ||A x - y||^2 + sparc_penalty_direct(x, lam, k)
    over all x, and an x attaining it, by enumerating faces; for p <= 12 and
    k <= 4 only, and for an A whose every k columns are independent.

    A face is a support T of size s <= k, a sign pattern and an ordered
    partition of T into equal-magnitude groups: a face of ``_faces(s)``
    with no zero coordinate.  On it x_T = S^T c, and with B = A_T S^T and
    the per-group weights W = R w (w_r = lam (k - 1 - r)), F is the convex
    quadratic 0.5 ||B c - y||^2 + W . c.  The minimizer lies inside its
    own face, so it solves (B^T B) c = B^T y - W there.  The faces where c
    is positive and strictly decreasing hold their points; the least
    literal objective over those points and x = 0 is the optimum.  The
    supports go through the batched solve ``_SUPPORT_CHUNK`` at a time,
    which holds its largest array, B, to 20 MB at n = 8, p = 12, k = 4.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    p = A.shape[1]
    if p > 12 or k > 4:
        raise ValueError(f"p = {p}, k = {k}: enumeration too large")
    best_f, best_x = 0.5 * float(y @ y), np.zeros(p)
    for s in range(1, min(k, p) + 1):
        S, R = _faces(s)
        full = np.abs(S).sum(axis=(1, 2)) == s        # no zero coordinate
        S, R = S[full], R[full]                       # (faces, groups, s)
        present = np.abs(S).sum(axis=2) > 0           # (faces, groups)
        W = R @ (lam * (k - 1 - np.arange(s)))
        supports = np.array(list(itertools.combinations(range(p), s)))
        for i in range(0, len(supports), _SUPPORT_CHUNK):
            T = supports[i:i + _SUPPORT_CHUNK]
            # B[t, f] = A[:, T[t]] S[f]^T, shape (supports, faces, n, groups)
            B = A[:, T].transpose(1, 0, 2)[:, None] @ S.transpose(0, 2, 1)
            G = B.transpose(0, 1, 3, 2) @ B
            # an absent group has a zero column in B; pin its c to 0
            G += np.eye(s) * ~present[:, :, None]
            rhs = np.einsum("tfng,n->tfg", B, y) - W
            c = np.linalg.solve(G, rhs[..., None])[..., 0]
            nxt = np.concatenate([c[..., 1:], np.zeros(c.shape[:2] + (1,))],
                                 axis=2)
            kept = np.all(~present | ((c > 0) & (c > nxt)), axis=2)
            for t, f in zip(*np.nonzero(kept)):
                x = np.zeros(p)
                x[T[t]] = c[t, f] @ S[f]
                r = A @ x - y
                value = 0.5 * float(r @ r) + sparc_penalty_direct(x, lam, k)
                if value < best_f:
                    best_f, best_x = value, x
    return best_f, best_x


# ------------------------------------- per-class penalty and prox chains
#
# Unlike the literal oracles above, these reuse the public operators: one
# branch per regularizer class, in the same floating-point operations as
# the family's kernels, so the family can be compared with them bit for
# bit.

def scale_penalty(reg, alpha):
    """The regularizer whose penalty equals ``penalty(reg) / alpha``,
    built class by class."""
    if isinstance(reg, Lasso):
        return Lasso(reg.lam1 / alpha)
    if isinstance(reg, ElasticNet):
        return ElasticNet(reg.lam1 / alpha, reg.lam2 / alpha)
    if isinstance(reg, Oscar):
        return Oscar(reg.lam1 / alpha, reg.lam2 / alpha)
    if isinstance(reg, Sparc):
        return Sparc(reg.lam / alpha, reg.k)
    raise TypeError(reg)


def prox_per_class(reg, v, alpha):
    """``scale_penalty`` followed by the class's public prox operator."""
    scaled = scale_penalty(reg, alpha)
    if isinstance(scaled, Lasso):
        return soft_threshold(v, scaled.lam1)
    if isinstance(scaled, ElasticNet):
        return prox_elastic_net(v, scaled.lam1, scaled.lam2)
    if isinstance(scaled, Oscar):
        return prox_oscar(v, scaled.lam1, scaled.lam2)
    return prox_sparc(v, scaled.lam, scaled.k)


def penalty_per_class(reg, x):
    """The penalty at a 1-D float64 x, one branch per class."""
    if isinstance(reg, Lasso):
        return float(reg.lam1 * np.abs(x).sum())
    if isinstance(reg, ElasticNet):
        return float(reg.lam1 * np.abs(x).sum() + 0.5 * reg.lam2 * (x @ x))
    if isinstance(reg, Oscar):
        mags = np.sort(np.abs(x))[::-1]
        return float(owl_weights_direct(reg.lam1, reg.lam2, x.size) @ mags)
    if isinstance(reg, Sparc):
        k = reg.k
        if np.count_nonzero(x) > k:
            return float("inf")
        mags = np.sort(np.abs(x))[::-1][:k]
        return float(owl_weights_direct(0.0, reg.lam, k) @ mags)
    raise TypeError(reg)


def prox_objective_per_class(reg, v, z, alpha):
    d = z - v
    return (penalty_per_class(scale_penalty(reg, alpha), z)
            + 0.5 * float(d @ d))


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
        v = np.asarray(v, dtype=float)
        mags = np.abs(v)
        order = np.argsort(-mags, kind="stable")
        return cls(magnitudes=mags[order], signs=np.sign(v), permutation=order)

    def reconstruct(self, magnitudes=None):
        mags = (self.magnitudes if magnitudes is None
                else np.asarray(magnitudes, dtype=float))
        out = np.empty_like(mags)
        out[self.permutation] = mags
        return self.signs * out


# ------------------------------------------------- isotonic by enumeration

def isotonic_decreasing_bruteforce(u):
    """Exact projection onto non-increasing vectors by trying every way of
    cutting u into consecutive blocks; the projection is the feasible
    blockwise-mean arrangement with the smallest distance."""
    u = np.asarray(u, dtype=float)
    n = u.size
    best_val, best_z = np.inf, None
    for cuts in itertools.product([0, 1], repeat=n - 1):
        bounds = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [n]
        z = np.empty(n)
        means = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            m = u[a:b].mean()
            means.append(m)
            z[a:b] = m
        if any(means[i] < means[i + 1] for i in range(len(means) - 1)):
            continue
        val = float(((z - u) ** 2).sum())
        if val < best_val:
            best_val, best_z = val, z
    return best_z


def pava_elementwise(u):
    """Pool-adjacent-violators pushing one element at a time.

    The stack loop that ``prox._pava`` speeds up: push each element as a
    block (sum, width), merge while the newest block's mean is above its
    predecessor's (cross-multiplied, so ties stay apart), then write each
    block's mean s / w.  ``_pava`` must match it bit for bit.
    """
    sums = []
    widths = []
    for x in np.asarray(u, dtype=float).tolist():
        sums.append(x)
        widths.append(1)
        while len(sums) > 1 and sums[-2] * widths[-1] < sums[-1] * widths[-2]:
            s = sums.pop()
            w = widths.pop()
            sums[-1] += s
            widths[-1] += w
    out = np.empty(sum(widths))
    pos = 0
    for s, w in zip(sums, widths):
        out[pos:pos + w] = s / w
        pos += w
    return out


# --------------------------------------------------------- dof by pairing

def dof_union_find(e, tol=1e-4, zero_tol=1e-8):
    """Distinct nonzero magnitude classes via explicit pairwise merging."""
    mags = [abs(t) for t in np.asarray(e, dtype=float) if abs(t) > zero_tol]
    n = len(mags)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(mags[i] - mags[j]) <= tol * (1.0 + max(mags[i], mags[j])):
                parent[find(i)] = find(j)
    return len({find(i) for i in range(n)})


# ------------------------------------------- lasso coordinate descent

def lasso_coordinate_descent(A, y, lam1, sweeps=20000, tol=1e-14):
    """Cyclic coordinate descent for 0.5*||Ax - y||^2 + lam1*||x||_1."""
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = A.shape
    col_sq = (A * A).sum(axis=0)
    x = np.zeros(p)
    r = y.copy()  # residual y - A x
    for _ in range(sweeps):
        delta = 0.0
        for j in range(p):
            if col_sq[j] == 0:
                continue
            old = x[j]
            rho = A[:, j] @ r + col_sq[j] * old
            new = np.sign(rho) * max(abs(rho) - lam1, 0.0) / col_sq[j]
            if new != old:
                r += A[:, j] * (old - new)
                x[j] = new
                delta = max(delta, abs(new - old))
        if delta < tol:
            break
    return x


# ------------------------------------------------------------ CSV oracles

def write_csv_rowwise(ds, path, label_column="label", split_column="split"):
    """``write_csv`` the literal way: every cell through ``csv.writer``."""
    names = ds.feature_names or tuple(f"f{j}" for j in range(1, ds.p + 1))
    header = list(names) + [label_column]
    if ds.split is not None:
        header.append(split_column)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for i in range(ds.n):
            row = [repr(float(v)) for v in ds.A[i]]
            row.append(repr(float(ds.y[i])))
            if ds.split is not None:
                row.append(str(ds.split[i]))
            w.writerow(row)


def _parse_cell(tok, line_no, col_name):
    """``float(tok)`` of a stripped cell, if it is ASCII and holds no ``_``:
    numpy's reader refuses the ``1_0`` and non-ASCII digits ``float``
    takes."""
    try:
        if tok.isascii() and "_" not in tok:
            return float(tok)
    except ValueError:
        pass
    raise DataError(
        f"line {line_no}, column {col_name!r}: "
        f"could not parse {tok!r} as a number"
    )


def load_csv_percell(path, label_column, task, split_column="split"):
    """``load_csv`` the literal way: strip and parse one cell at a time.

    Same contract and messages as ``sparcreg.data.load_csv``, except that
    it does not reject a header that names a column twice.
    """
    if task not in ("regression", "classification"):
        raise DataError(f"unknown task {task!r}")
    rows, line_nos = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if row:
                rows.append(row)
                line_nos.append(reader.line_num)
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    if label_column not in header:
        raise DataError(
            f"label column {label_column!r} not found; "
            f"columns are {header}"
        )
    label_idx = header.index(label_column)
    split_idx = None
    if split_column is not None and split_column in header:
        split_idx = header.index(split_column)
        if split_idx == label_idx:
            raise DataError("label and split columns must differ")
    feat_idx = [
        j for j in range(len(header)) if j not in (label_idx, split_idx)
    ]
    if not feat_idx:
        raise DataError("no feature columns left after label/split")
    if not rows[1:]:
        raise DataError(f"{path}: no data rows")

    A_rows, y_raw, split_vals = [], [], []
    for row, line_no in zip(rows[1:], line_nos[1:]):
        if len(row) != len(header):
            raise DataError(
                f"line {line_no}: expected {len(header)} fields, "
                f"found {len(row)}"
            )
        cells = [c.strip() for c in row]
        A_rows.append(
            [_parse_cell(cells[j], line_no, header[j]) for j in feat_idx]
        )
        y_raw.append((cells[label_idx], line_no))
        if split_idx is not None:
            if cells[split_idx] not in SPLIT_NAMES:
                raise DataError(
                    f"line {line_no}: split label must be one of "
                    f"{SPLIT_NAMES}, got {cells[split_idx]!r}"
                )
            split_vals.append(cells[split_idx])

    A = np.asarray(A_rows)
    y = np.asarray([_parse_cell(tok, ln, label_column) for tok, ln in y_raw])
    for i in range(len(A_rows)):           # first non-finite cell, by line
        for j in sorted(feat_idx + [label_idx]):
            v = y[i] if j == label_idx else A[i, feat_idx.index(j)]
            if not np.isfinite(v):
                raise DataError(
                    f"line {line_nos[i + 1]}, column {header[j]!r}: "
                    f"non-finite value {rows[i + 1][j].strip()!r}"
                )
    if task == "classification":
        classes = {}
        for (tok, ln), v in zip(y_raw, y.tolist()):
            if v not in classes:
                if len(classes) == 2:
                    seen = sorted(c[0] for c in classes.values())
                    raise DataError(
                        f"line {ln}: more than two classes for "
                        f"classification (had {seen}, then {tok!r})"
                    )
                classes[v] = (tok, ln)
        if len(classes) < 2:
            raise DataError(
                "classification needs exactly two distinct label values, "
                f"found {len(classes)}"
            )
        lo, hi = sorted(classes, key=lambda v: classes[v][0])
        y = np.where(y == lo, -1.0, 1.0)

    split = np.asarray(split_vals) if split_idx is not None else None
    names = tuple(header[j] for j in feat_idx)
    return Dataset(A, y, task, split=split, feature_names=names)


# ------------------------------------------------------ generator oracle

def generate_hstack(spec, classify=False):
    """(A, y) of the synthetic generators as first written.

    The tail columns are one (n, n_irrelevant) draw that ``np.hstack``
    joins to the grouped block, the train rows are copied by mask, and
    the scaled design is a new array.  ``classify`` gives the labels of
    ``generate_grouped_classification`` for a ``ClassificationSpec``.
    """
    rng = np.random.default_rng(spec.seed)
    n, k = spec.n, spec.n_groups * spec.group_size
    z = rng.standard_normal((n, spec.n_groups))
    eps = rng.standard_normal((n, k)) * np.sqrt(spec.within_noise_var)
    tail = rng.standard_normal((n, spec.n_irrelevant))
    A_raw = np.hstack([np.repeat(z, spec.group_size, axis=1) + eps, tail])
    T = A_raw[np.arange(n) < spec.n_train]
    A = A_raw / np.sqrt((T * T).sum(axis=0))
    x_true = np.concatenate([np.full(k, spec.signal),
                             np.zeros(spec.n_irrelevant)])
    noise_sd = (spec.margin_noise_sd if classify
                else np.sqrt(spec.observation_noise_var))
    margin = A @ x_true + rng.standard_normal(n) * noise_sd
    return A, (np.where(margin >= 0, 1.0, -1.0) if classify else margin)
