"""Proximal-gradient solver with Barzilai-Borwein step selection.

Minimizes F(x) = (1/2) ||A x - y||^2 + penalty(reg, x) by iterating

    x_{t+1} = prox_{penalty / alpha_t} ( x_t - grad(x_t) / alpha_t )

where alpha_t starts from a spectral (BB) estimate and is increased by a
factor _ETA until the candidate satisfies the sufficient-decrease test

    F(x_{t+1}) <= F(x_t) - (_SIGMA * alpha_t / 2) * ||x_{t+1} - x_t||^2.

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

from .data import _as_design, _row_index, _select_rows
from .prox import _as_vector, _check_count, _check_k, project_k_sparse
from .regularizers import _penalty, _price, _terms, _weights, prox

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


def _check_reg(reg, p):
    """Raise unless reg is a ``Regularizer`` whose cap, if any, is <= p."""
    k = _terms(reg)[3]
    if k is not None:
        _check_k(k, p)


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
# SpaRSA's step rule (Wright, Nowak & Figueiredo 2009), as sparsa_solve says
_ETA = 2.0
_ALPHA_MIN = 1.0
_ALPHA_MAX = 1e30
_MAX_INNER = 50
_SIGMA = 0.01


@dataclass(frozen=True)
class Objective:
    """Least-squares data term plus a regularizer.

    A is (n, p), y is (n,).  Rows are samples; the fit term is
    (1/2) * ||A x - y||^2 with no 1/n factor.  Building one checks that A
    and y are finite and that reg is a ``Regularizer`` whose cap, if any,
    is at most p, and stores an A of at least 2**16 entries column-major (a
    copy unless it already is), together with its column norms
    ``col_norms`` (None below 2**16 entries), which bound how far each
    entry of A^T r moves with r; ``_with_reg`` derives the objective of
    another regularizer on the same design, checking only the regularizer.
    """

    A: np.ndarray
    y: np.ndarray
    reg: object
    col_norms: np.ndarray = field(default=None, init=False, repr=False,
                                  compare=False)

    def __post_init__(self):
        A = _as_design(self.A)
        n, p = A.shape
        y = _as_vector(self.y, "y", n)
        _check_reg(self.reg, p)
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
            raise ValueError("A must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "y", y)

    @classmethod
    def _of_rows(cls, A, y, rows, reg):
        """``Objective(A[rows], y[rows], reg)`` for a boolean row mask,
        with at most one copy of the rows: from 2**16 entries on, a block
        of columns at a time straight into the column-major copy (2-core
        Xeon: 2.6 ms for a block of 200 of 400 x 10 000 rows, 4.2 ms for
        scattered rows)."""
        rows = _row_index(rows, A.shape[0])
        y = _select_rows(y, rows)
        n, p = y.size, A.shape[1]
        if n * p < _SUPPORT_PRODUCTS_MIN_SIZE:
            return cls(_select_rows(A, rows), y, reg)
        F = np.empty((n, p), order="F")
        for j in range(0, p, _GATHER_COLUMNS):
            F[:, j:j + _GATHER_COLUMNS] = A[rows, j:j + _GATHER_COLUMNS]
        return cls(F, y, reg)

    def _with_reg(self, reg):
        """This objective with ``reg``, sharing the checked A and y and the
        column norms."""
        _check_reg(reg, self.A.shape[1])
        obj = object.__new__(Objective)
        object.__setattr__(obj, "A", self.A)
        object.__setattr__(obj, "y", self.y)
        object.__setattr__(obj, "reg", reg)
        object.__setattr__(obj, "col_norms", self.col_norms)
        return obj


@dataclass(frozen=True)
class SolverConfig:
    max_outer: int = 1000
    tol: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "max_outer",
                           _check_count(self.max_outer, "max_outer"))
        if type(self.tol) in (bool, np.bool_) or not 0 < self.tol < math.inf:
            raise ValueError(f"tol must lie in (0, inf), got {self.tol}")


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
    # alpha ||x+ - x|| of the last candidate, at the alpha it was tried with
    fixed_point_residual: float = field(default=float("nan"))
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


def objective_value(obj, x):
    """F(x) = 0.5*||A x - y||^2 + penalty(x)."""
    return _residual_and_objective(
        obj, _as_vector(x, "x", obj.A.shape[1]))[1]


def _residual_and_objective(obj, x, stats=None):
    """Residual A x - y and F(x), sharing one product with A; x is unchecked.
    A data term past the float range is F = inf, without numpy's warning."""
    r = _times_A(obj, x, stats) - obj.y
    with np.errstate(over="ignore"):
        f = 0.5 * float(r @ r)
    return r, f + _penalty(obj.reg.terms(), x)


def gradient_smooth(obj, x):
    """Gradient of the data term: A^T (A x - y)."""
    x = _as_vector(x, "x", obj.A.shape[1])
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
    A = _as_design(A)
    s = _as_vector(s, "s", A.shape[1])
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
        # only a screened step names the OWL dimension p; a full step's
        # default, v.size, is p without the check of d
        if cols is None:
            v, d = x - g / alpha, None
        else:
            v, d = x[cols] - g / alpha, p
        try:
            # the one checked prox call of the candidate; a ValueError here
            # means its argument or the scaled penalty overflowed
            out, mags = prox(self.obj.reg, v, alpha, d=d, magnitudes=True)
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
        x = _as_vector(x0, "x0", obj.A.shape[1]).copy()
    k = _terms(obj.reg)[3]
    if k is not None:
        # the penalty is +inf off the k-sparse set; start feasible
        x = project_k_sparse(x, k)
    return x


def sparsa_solve(obj, x0=None, config=None):
    """Run the BB proximal-gradient iteration to convergence.

    Every outer iteration computes the gradient once and backtracks from
    alpha by _ETA, for at most _MAX_INNER candidates, until the monotone
    sufficient-decrease test passes.  Iteration 0 differs in three ways:
    with no displacement yet to estimate curvature from, alpha is
    _ALPHA_MIN, its one candidate is taken without the test, and the
    relative-F tolerance is not checked.  Every later iteration seeds
    alpha from the BB ratio clamped to [_ALPHA_MIN, _ALPHA_MAX].

    Returns a SolverResult whose trace holds F after each accepted step;
    the trace is non-increasing, but trace[0] may exceed F(x0).  Raises
    SolverDivergenceError if the objective at the start, or any prox
    argument, iterate or objective value, becomes non-finite.
    """
    cfg = config if config is not None else SolverConfig()
    stats = SolverStats()
    x = _initial_point(obj, x0)
    r, f_x = _residual_and_objective(obj, x, stats)
    if not math.isfinite(f_x):
        raise SolverDivergenceError(f"objective at start is {f_x}")

    step = _Step(obj)
    support = step.support(x)
    screen = _GradientScreen.of(obj)
    alpha = _ALPHA_MIN
    trace = []
    termination = "max-iterations"

    for it in range(cfg.max_outer):
        if it:
            # s is the last step, x - x_prev, and ss = ||s||^2: both
            # computed once, for the accepted candidate's test
            if ss == 0.0:
                # the last step moved nowhere: fixed point reached
                termination = "tolerance"
                break
            # bb_step's ratio.  A s, not r - r_prev: the difference rounds
            # differently and moves alpha
            As = _times_A(obj, s, stats)
            alpha = min(max(float(As @ As) / ss, _ALPHA_MIN), _ALPHA_MAX)
        cols, grad = _gradient(obj, support, r, screen, stats)

        accepted = False
        best_x, best_f = None, np.inf
        for _ in range(_MAX_INNER):
            # a non-finite iterate makes its F non-finite (_price)
            x_cand, support_cand, r_cand, f_cand = step(x, cols, grad, alpha,
                                                        stats)
            if not math.isfinite(f_cand):
                raise SolverDivergenceError(
                    "iterate became non-finite during backtracking"
                )
            if f_cand < best_f:
                best_x, best_f = x_cand, f_cand
            s = x_cand - x
            ss = float(s @ s)
            # the first step is taken without the test, so F may rise
            # from x0 to trace[0]
            if not it or f_cand <= f_x - 0.5 * _SIGMA * alpha * ss:
                accepted = True
                break
            stats.backtracks += 1
            alpha *= _ETA
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

        f_prev = f_x
        x, support, f_x, r = x_cand, support_cand, f_cand, r_cand
        trace.append(f_x)

        if it and abs(f_prev - f_x) / max(abs(f_prev), 1.0) < cfg.tol:
            termination = "tolerance"
            break

    # a capped line search raised alpha by _ETA after its last candidate
    alpha_step = alpha / _ETA if termination == "line-search-cap" else alpha
    return SolverResult(
        x=x,
        trace=np.asarray(trace),
        iterations=len(trace),
        termination=termination,
        alpha_final=alpha,
        fixed_point_residual=alpha_step * math.sqrt(ss),
        stats=stats,
    )
