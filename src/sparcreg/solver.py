"""Proximal-gradient solver with Barzilai-Borwein step selection.

Minimizes F(x) = (1/2) ||A x - y||^2 + penalty(reg, x) by iterating

    x_{t+1} = prox_{penalty / alpha_t} ( x_t - grad(x_t) / alpha_t )

where alpha_t starts from a spectral (BB) estimate and is increased by a
factor eta until the candidate satisfies the sufficient-decrease test

    F(x_{t+1}) <= F(x_t) - (sigma * alpha_t / 2) * ||x_{t+1} - x_t||^2.

A^T A is never formed; products go through A and A^T only.  The residual
A x - y of each candidate gives both its objective value and, once it is
accepted, the next gradient, so an outer iteration costs one product with
A per candidate, one with A^T, and one with A for the BB step.

From 2**16 design entries on, products with A run over the support of x
(``_times_A``) and A^T r over the coordinates the prox can move
(``_GradientScreen``); each candidate is one ``_Step``.  Their docstrings
give the rules, README "Large designs" the measurements.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import _select_rows
from .prox import _as_vector, _check_count, project_k_sparse
from .regularizers import (_penalty, _price, _terms, _weights,
                           penalty_value, prox)

__all__ = [
    "Objective",
    "SolverConfig",
    "SolverResult",
    "SolverStats",
    "SolverDivergenceError",
    "objective_value",
    "gradient_smooth",
    "bb_step",
    "sparsa_solve",
]


class SolverDivergenceError(RuntimeError):
    """Raised when an iterate or objective stops being finite."""


# designs with at least this many entries are kept column-major and
# multiplied through the nonzero columns of x.  Measured with one BLAS
# thread at 15-30 nonzeros: at 1000 x 40 = 4e4 entries the restricted
# product is 1.4-2x slower than A @ x, at 200 x 500 = 1e5 about 2x
# faster (README, "Large designs")
_SUPPORT_PRODUCTS_MIN_SIZE = 1 << 16
# ... unless x has more nonzeros than this fraction of p: gathering the
# columns then costs more than the dense product.  Measured with one BLAS
# thread, the two cross between 0.2 p and 0.3 p for n = 100, 200 and
# 500, at 0.24-0.28 p for n = 200 (README, "Large designs")
_SUPPORT_PRODUCTS_MAX_FRACTION = 0.25
# one rounding unit of float64 (2**-52)
_EPS = float(np.finfo(float).eps)
# columns per block when scattered rows are gathered into a column-major
# copy: a (rows, 256) temporary, 0.4 MB at 200 rows
_GATHER_COLUMNS = 256


@dataclass(frozen=True)
class Objective:
    """Least-squares data term plus a regularizer.

    A is (n, p), y is (n,).  Rows are samples; the fit term is
    (1/2) * ||A x - y||^2 with no 1/n factor.  Building one checks that A
    and y are finite and stores an A of at least 2**16 entries
    column-major (a copy unless it already is), together with its column
    norms ``col_norms`` (None below 2**16 entries), which bound how far
    each entry of A^T r moves with r; ``_with_reg`` derives the objective
    of another regularizer on the same design without repeating any of it.
    """

    A: np.ndarray
    y: np.ndarray
    reg: object
    col_norms: np.ndarray = field(default=None, init=False, repr=False,
                                  compare=False)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if A.ndim != 2:
            raise ValueError(f"A must be 2-D, got shape {A.shape}")
        if y.ndim != 1:
            raise ValueError(f"y must be 1-D, got shape {y.shape}")
        if A.shape[0] != y.size:
            raise ValueError(
                f"A has {A.shape[0]} rows but y has {y.size} entries"
            )
        if not np.isfinite(y).all():
            raise ValueError("A and y must be finite")
        if A.size >= _SUPPORT_PRODUCTS_MIN_SIZE:
            A = np.asfortranarray(A)
            # einsum sums each column's squares in place, without the
            # (n, p) temporary of np.linalg.norm(A, axis=0).  An inf or nan
            # entry makes its column's norm non-finite, so A is scanned
            # only when a norm is; the scan then tells such an entry from a
            # finite one above ~1e154, whose square overflows
            norms = np.sqrt(np.einsum("ij,ij->j", A, A))
            finite = np.isfinite(norms).all() or np.isfinite(A).all()
            object.__setattr__(self, "col_norms", norms)
        else:
            finite = np.isfinite(A).all()
        if not finite:
            raise ValueError("A and y must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "y", y)

    @classmethod
    def _of_rows(cls, A, y, rows, reg):
        """``Objective(A[rows], y[rows], reg)`` for a boolean row mask,
        with at most one copy of the rows: from 2**16 entries on, rows that
        are not one contiguous block go straight into the column-major
        copy, a block of columns at a time.  A block of rows is a view
        copied once by ``asfortranarray``: 2.6 ms for 200 of 400 x 10 000
        rows, against 5.1 ms through the gather (2-core Xeon)."""
        idx = np.flatnonzero(rows)
        n, p = idx.size, A.shape[1]
        if n * p < _SUPPORT_PRODUCTS_MIN_SIZE or idx[-1] - idx[0] + 1 == n:
            return cls(_select_rows(A, rows), _select_rows(y, rows), reg)
        F = np.empty((n, p), order="F")
        for j in range(0, p, _GATHER_COLUMNS):
            F[:, j:j + _GATHER_COLUMNS] = A[idx, j:j + _GATHER_COLUMNS]
        return cls(F, y[idx], reg)

    def _with_reg(self, reg):
        """This objective with ``reg``, sharing the checked A and y and the
        column norms."""
        obj = object.__new__(Objective)
        object.__setattr__(obj, "A", self.A)
        object.__setattr__(obj, "y", self.y)
        object.__setattr__(obj, "reg", reg)
        object.__setattr__(obj, "col_norms", self.col_norms)
        return obj


@dataclass(frozen=True)
class SolverConfig:
    eta: float = 2.0
    alpha_min: float = 1.0
    alpha_max: float = 1e30
    max_outer: int = 1000
    max_inner: int = 50
    tol: float = 1e-6
    sigma: float = 0.01

    def __post_init__(self):
        if not 0 < self.alpha_min <= self.alpha_max:
            raise ValueError(
                f"need 0 < alpha_min <= alpha_max, got "
                f"{self.alpha_min}, {self.alpha_max}"
            )
        if not 1 < self.eta < math.inf:
            raise ValueError(f"eta must lie in (1, inf), got {self.eta}")
        for name in ("max_outer", "max_inner"):
            object.__setattr__(self, name,
                               _check_count(getattr(self, name), name))
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must lie in (0, inf), got {self.tol}")
        if not 0 < self.sigma < 1:
            raise ValueError(f"sigma must lie in (0, 1), got {self.sigma}")


@dataclass
class SolverStats:
    """What one solve cost, counted in the loop.

    A candidate is one prox step and its objective; a backtrack is a
    rejected candidate.  Products with A (start, candidate and BB
    products) are dense or gathered over the support of x; products with
    A^T are dense or screened, and ``At_columns`` sums the columns that
    the screened ones gathered.  ``prox_entries`` sums the entries the
    prox steps ran on: p per step, or the screened coordinates.
    """

    candidates: int = 0
    backtracks: int = 0
    A_dense: int = 0
    A_gathered: int = 0
    At_dense: int = 0
    At_screened: int = 0
    At_columns: int = 0
    prox_entries: int = 0


@dataclass(frozen=True)
class SolverResult:
    x: np.ndarray
    trace: np.ndarray          # objective value after each accepted step
    iterations: int            # accepted outer steps, == trace.size
    termination: str           # "tolerance", "max-iterations" or "line-search-cap"
    alpha_final: float = field(default=float("nan"))
    stats: SolverStats = field(default_factory=SolverStats)


def _support(x):
    # x.nonzero()'s indices, faster on a mask
    return (x != 0).nonzero()[0]


def _times_A(obj, x, stats=None, support=None):
    """A x; from 2**16 entries on, over the columns where x is nonzero,
    unless it has more than p / 4 of them.  ``support``, where the caller
    knows it, holds those columns in ascending order and spares the scan
    of x.  Either product may differ in the last bit from ``A @ x`` of a
    row-major A."""
    A = obj.A
    if obj.col_norms is not None:
        if support is None:
            support = _support(x)
        if support.size <= _SUPPORT_PRODUCTS_MAX_FRACTION * x.size:
            if stats is not None:
                stats.A_gathered += 1
            return A[:, support] @ x[support]
    if stats is not None:
        stats.A_dense += 1
    return A @ x


def _checked_x(obj, x, name="x"):
    x = _as_vector(x, name)
    p = obj.A.shape[1]
    if x.size != p:
        raise ValueError(f"{name} has size {x.size}, expected {p}")
    return x


def objective_value(obj, x):
    """F(x) = 0.5*||A x - y||^2 + penalty(x)."""
    x = _checked_x(obj, x)
    r = _times_A(obj, x) - obj.y
    return 0.5 * float(r @ r) + penalty_value(obj.reg, x)


def _residual_and_objective(obj, x, stats=None):
    """Residual A x - y and F(x), sharing one product with A; x is unchecked."""
    r = _times_A(obj, x, stats) - obj.y
    return r, 0.5 * float(r @ r) + _penalty(obj.reg.terms(), x)


def gradient_smooth(obj, x):
    """Gradient of the data term: A^T (A x - y)."""
    x = _checked_x(obj, x)
    return obj.A.T @ (obj.A @ x - obj.y)


class _GradientScreen:
    """A^T r of one solve, computed only on the coordinates the prox can
    move.

    Keeps the last dense gradient g_ref = A^T r_ref.  With c_j = ||A_j||
    and delta = ||r - r_ref||, every entry obeys
    |g_j - g_ref_j| <= c_j * delta.  The radius adds to delta a rounding
    slack of 4 (n + 4) eps (||r|| + ||r_ref||), which covers the error of
    both computed products (n eps / 2 times c_j ||r|| each), of the
    computed norms and of the bounds themselves with room to spare.  An
    entry is computed when x_j is nonzero or its bound can reach the prox's
    zero threshold, and the step runs on those coordinates E alone; with
    every other entry 0, its prox would come out the same, up to the sign
    of a zero:

    * without a cap the threshold is the l1 weight: an entry with
      |g_j| <= l1 and x_j = 0 soft-thresholds to 0, and the OSCAR prox
      never sorts it;
    * under a cap k, an off-support entry whose upper bound lies strictly
      (a few ulps) below the k-th largest off-support lower bound is beaten
      by k computed entries at every alpha, so it never enters the top k.

    When more than p / 4 entries would be computed, the product is the
    dense one, and it becomes the new reference.
    """

    def __init__(self, obj, l1, k):
        n, p = obj.A.shape
        self.At = obj.A.T  # row-major: gathering its rows is a take
        self.col_norms = obj.col_norms
        self.l1 = l1
        self.k = k
        self.p = p
        self.cut = _SUPPORT_PRODUCTS_MAX_FRACTION * p
        self.slack = 4 * (n + 4) * _EPS
        self.mags = None  # |g_ref|; None until the first dense product
        self.r_ref = None
        self.r_ref_norm = 0.0

    @classmethod
    def of(cls, obj):
        """The screen of obj's solve, or None where no entry can be skipped:
        below the size rule, with l1 = 0 and no cap, and under a cap k above
        p / 4, where the k beating entries alone pass the cut."""
        if obj.col_norms is None:
            return None
        l1, _, _, k = obj.reg.terms()
        if k is None and l1 == 0 or k is not None \
                and k > _SUPPORT_PRODUCTS_MAX_FRACTION * obj.A.shape[1]:
            return None
        return cls(obj, l1, k)

    def gradient(self, support, r, stats):
        if self.mags is not None:
            cols = self._columns(support, r)
            if cols is not None:
                stats.At_screened += 1
                stats.At_columns += cols.size
                # the rows of the row-major A^T, not A[:, cols]: the same
                # bytes, ~15% faster at 450 of 200 x 10 000 columns
                return cols, self.At[cols] @ r
        stats.At_dense += 1
        g = self.At @ r
        self.mags = np.abs(g)
        self.r_ref = r
        self.r_ref_norm = math.sqrt(r @ r)
        return None, g

    def _columns(self, support, r):
        """The coordinates to compute, or None if there are more than p / 4."""
        d = r - self.r_ref
        rad = math.sqrt(d @ d) \
            + self.slack * (math.sqrt(r @ r) + self.r_ref_norm)
        width = self.col_norms * rad
        if self.k is None:
            keep = self.mags + width > self.l1
        else:
            low = self.mags - width
            low[support] = -np.inf
            kth = np.partition(low, self.p - self.k)[self.p - self.k]
            if kth <= 0:
                return None
            high = self.mags + width
            high *= 1 + 4 * _EPS  # strictly below, even after dividing by alpha
            keep = high >= kth
        keep[support] = True
        if np.count_nonzero(keep) > self.cut:
            return None
        return keep.nonzero()[0]


def _gradient(obj, support, r, screen, stats):
    """A^T r as (cols, g): g holds the entries cols (ascending) of A^T r,
    or all of them where cols is None; ``support`` is that of x.  Screened
    through ``screen`` where there is one."""
    if screen is None:
        stats.At_dense += 1
        return None, obj.A.T @ r
    return screen.gradient(support, r, stats)


def bb_step(s, A):
    """Spectral step estimate ||A s||^2 / ||s||^2 for a nonzero displacement s.

    Equals the Rayleigh quotient of A^T A at s without ever forming A^T A.
    """
    s = _as_vector(s, "s")
    ss = float(s @ s)
    if ss == 0.0:
        raise ValueError("displacement s is zero; BB step undefined")
    As = A @ s
    return float(As @ As) / ss


class _Step:
    """The candidate step of one solve: x+ = prox(x - g / alpha), with its
    support, its residual A x+ - y and F(x+), each computed once.

    A gradient screened to the coordinates E makes a step on E alone.  The
    full argument is 0 off E, and so is its prox: soft thresholding gives
    0, the OSCAR prox sorts only magnitudes above l1 >= 0 (its weights
    come from the OWL dimension p), and under a cap the screen leaves the
    top k in E, whose ascending order keeps that of the stable sort (the
    screen returns at least k coordinates).
    """

    def __init__(self, obj):
        self.obj = obj
        self.terms = _terms(obj.reg)
        self.weights = _weights(self.terms, obj.A.shape[1])
        self.sparse = obj.col_norms is not None

    def support(self, x):
        """The nonzeros of x, ascending; None below the size rule."""
        return _support(x) if self.sparse else None

    def __call__(self, x, cols, g, alpha, stats):
        """(x+, its support, A x+ - y, F(x+)) for the gradient g, given on
        the coordinates cols (all where cols is None)."""
        p = x.size
        v = x - g / alpha if cols is None else x[cols] - g / alpha
        try:
            # the one checked prox call of the candidate; a ValueError here
            # means its argument or the scaled penalty overflowed
            out, mags = prox(self.obj.reg, v, alpha, d=p, magnitudes=True)
        except ValueError as exc:
            raise SolverDivergenceError(
                f"prox step overflowed: {exc}") from None
        stats.candidates += 1
        stats.prox_entries += v.size
        if cols is None:
            x_new, support = out, self.support(out)
        else:
            x_new, support = np.zeros(p), cols[_support(out)]
            x_new[cols] = out
        r = _times_A(self.obj, x_new, stats, support) - self.obj.y
        if self.terms[1] is None and mags.size != p:
            # numpy's pairwise sum of |x| runs over all p entries, so a
            # screened step sums |x| itself
            mags = np.abs(x_new)
        # _penalty(terms, x_new), bit for bit; non-finite if x_new is
        return x_new, support, r, \
            0.5 * float(r @ r) + _price(self.terms, self.weights, x_new, mags)


def _initial_point(obj, x0):
    if x0 is None:
        x = np.zeros(obj.A.shape[1])
    else:
        x = _checked_x(obj, x0, "x0").copy()
    k = _terms(obj.reg)[3]
    if k is not None:
        # the penalty is +inf off the k-sparse set; start feasible
        x = project_k_sparse(x, k)
    return x


def sparsa_solve(obj, x0=None, config=None):
    """Run the BB proximal-gradient iteration to convergence.

    Every outer iteration computes the gradient once and backtracks from
    alpha by eta until the monotone sufficient-decrease test passes.
    Iteration 0 differs in three ways, since there is no displacement yet
    to estimate curvature from: alpha is alpha_min, its one candidate is
    taken without the test, and the relative-F tolerance is not checked.
    Every later iteration seeds alpha from the BB ratio clamped to
    [alpha_min, alpha_max].

    Returns a SolverResult whose trace holds F after each accepted step;
    the trace is non-increasing, but trace[0] may exceed F(x0).  Raises
    SolverDivergenceError if the objective at the start, or any prox
    argument, iterate or objective value, becomes non-finite.
    """
    cfg = config if config is not None else SolverConfig()
    stats = SolverStats()
    x = _initial_point(obj, x0)
    r, f_x = _residual_and_objective(obj, x, stats)
    if not np.isfinite(f_x):
        raise SolverDivergenceError(f"objective at start is {f_x}")

    step = _Step(obj)
    support = step.support(x)
    screen = _GradientScreen.of(obj)
    alpha = cfg.alpha_min
    trace = []
    termination = "max-iterations"

    for it in range(cfg.max_outer):
        if it:
            s = x - x_prev
            ss = float(s @ s)
            if ss == 0.0:
                # the last step moved nowhere: fixed point reached
                termination = "tolerance"
                break
            # bb_step's ratio.  A s, not r - r_prev: the difference rounds
            # differently and moves alpha
            As = _times_A(obj, s, stats)
            alpha = min(max(float(As @ As) / ss, cfg.alpha_min),
                        cfg.alpha_max)
        cols, grad = _gradient(obj, support, r, screen, stats)

        accepted = False
        best_x, best_f = None, np.inf
        for _ in range(cfg.max_inner):
            # a non-finite iterate makes its F non-finite (_price)
            x_cand, support_cand, r_cand, f_cand = step(x, cols, grad, alpha,
                                                        stats)
            if not np.isfinite(f_cand):
                raise SolverDivergenceError(
                    "iterate became non-finite during backtracking"
                )
            if f_cand < best_f:
                best_x, best_f = x_cand, f_cand
            d = x_cand - x
            # the first step is taken without the test, so F may rise
            # from x0 to trace[0]
            if not it or \
                    f_cand <= f_x - 0.5 * cfg.sigma * alpha * float(d @ d):
                accepted = True
                break
            stats.backtracks += 1
            alpha *= cfg.eta
        if not accepted:
            # Backtracking exhausted.  Keep monotonicity: take the best
            # candidate only if it does not increase F, then stop.
            warnings.warn(
                "inner backtracking cap reached; stopping at the best "
                "non-increasing iterate",
                RuntimeWarning,
            )
            if best_f <= f_x:
                x, f_x = best_x, best_f
                trace.append(f_x)
            termination = "line-search-cap"
            break

        x_prev, f_prev = x, f_x
        x, support, f_x, r = x_cand, support_cand, f_cand, r_cand
        trace.append(f_x)

        if it and abs(f_prev - f_x) / max(abs(f_prev), 1.0) < cfg.tol:
            termination = "tolerance"
            break

    return SolverResult(
        x=x,
        trace=np.asarray(trace),
        iterations=len(trace),
        termination=termination,
        alpha_final=alpha,
        stats=stats,
    )
