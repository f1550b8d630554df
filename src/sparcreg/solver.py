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

The objective and x0 are checked on entry; inside the loop each candidate
pays for one checked ``prox`` call, and its objective and the BB ratio go
through unchecked code guarded by the loop's own finiteness tests.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .prox import _as_vector, project_k_sparse
from .regularizers import Sparc, _penalty, penalty_value, prox

__all__ = [
    "Objective",
    "SolverConfig",
    "SolverResult",
    "SolverDivergenceError",
    "objective_value",
    "gradient_smooth",
    "bb_step",
    "sparsa_solve",
]


class SolverDivergenceError(RuntimeError):
    """Raised when an iterate or objective stops being finite."""


@dataclass(frozen=True)
class Objective:
    """Least-squares data term plus a regularizer.

    A is (n, p), y is (n,).  Rows are samples; the fit term is
    (1/2) * ||A x - y||^2 with no 1/n factor.
    """

    A: np.ndarray
    y: np.ndarray
    reg: object

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
        if not (np.isfinite(A).all() and np.isfinite(y).all()):
            raise ValueError("A and y must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "y", y)


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
        if self.eta <= 1:
            raise ValueError(f"eta must exceed 1, got {self.eta}")
        if self.max_outer < 1 or self.max_inner < 1:
            raise ValueError("iteration caps must be >= 1")
        if self.tol <= 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if not 0 < self.sigma < 1:
            raise ValueError(f"sigma must lie in (0, 1), got {self.sigma}")


@dataclass(frozen=True)
class SolverResult:
    x: np.ndarray
    trace: np.ndarray          # objective value after each accepted step
    iterations: int            # accepted outer steps, == trace.size
    termination: str           # "tolerance", "max-iterations" or "line-search-cap"
    inner_cap_hit: bool = field(default=False)
    alpha_final: float = field(default=float("nan"))


def objective_value(obj, x):
    """F(x) = 0.5*||A x - y||^2 + penalty(x)."""
    x = _as_vector(x, "x")
    r = obj.A @ x - obj.y
    return 0.5 * float(r @ r) + penalty_value(obj.reg, x)


def _residual_and_objective(obj, x):
    """Residual A x - y and F(x), sharing one product with A; x is unchecked."""
    r = obj.A @ x - obj.y
    return r, 0.5 * float(r @ r) + _penalty(obj.reg, x)


def gradient_smooth(obj, x):
    """Gradient of the data term: A^T (A x - y)."""
    x = _as_vector(x, "x")
    return obj.A.T @ (obj.A @ x - obj.y)


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


def _prox_step(obj, x, grad, alpha):
    """prox of the gradient step from x, the one checked call per candidate.

    The objective and the sizes are checked on entry to the solver, so a
    ValueError from prox here means its argument or the scaled penalty
    overflowed, for instance through an infinite gradient.
    """
    try:
        return prox(obj.reg, x - grad / alpha, alpha)
    except ValueError as exc:
        raise SolverDivergenceError(f"prox step overflowed: {exc}") from None


def _initial_point(obj, x0):
    p = obj.A.shape[1]
    if x0 is None:
        x = np.zeros(p)
    else:
        x = _as_vector(x0, "x0").copy()
        if x.size != p:
            raise ValueError(f"x0 has size {x.size}, expected {p}")
    if isinstance(obj.reg, Sparc):
        # the penalty is +inf off the k-sparse set; start feasible
        x = project_k_sparse(x, obj.reg.k)
    return x


def sparsa_solve(obj, x0=None, config=None):
    """Run the BB proximal-gradient iteration to convergence.

    The first step uses alpha = alpha_min with no acceptance test (there is
    no displacement yet to estimate curvature from).  Every later outer
    iteration computes the gradient once, seeds alpha from the BB ratio
    clamped to [alpha_min, alpha_max], and backtracks by eta until the
    monotone sufficient-decrease test passes.

    Returns a SolverResult whose trace holds F after each accepted step;
    the trace is non-increasing.  Raises SolverDivergenceError if any
    prox argument, iterate or objective value becomes non-finite.
    """
    cfg = config if config is not None else SolverConfig()
    x = _initial_point(obj, x0)
    r, f_x = _residual_and_objective(obj, x)
    if not np.isfinite(f_x):
        raise SolverDivergenceError(f"objective at start is {f_x}")

    grad = obj.A.T @ r
    alpha = cfg.alpha_min
    x_new = _prox_step(obj, x, grad, alpha)
    r_new, f_new = _residual_and_objective(obj, x_new)
    if not (np.isfinite(x_new).all() and np.isfinite(f_new)):
        raise SolverDivergenceError("first step produced non-finite values")
    x_prev, f_prev = x, f_x
    x, f_x, r = x_new, f_new, r_new
    trace = [f_x]
    termination = "max-iterations"
    inner_cap_hit = False

    for _ in range(1, cfg.max_outer):
        s = x - x_prev
        ss = float(s @ s)
        if ss == 0.0:
            # the last step moved nowhere: fixed point reached
            termination = "tolerance"
            break
        # bb_step's ratio.  A s, not r - r_prev: the difference rounds
        # differently and moves alpha
        As = obj.A @ s
        alpha = min(max(float(As @ As) / ss, cfg.alpha_min), cfg.alpha_max)
        grad = obj.A.T @ r

        accepted = False
        best_x, best_f = None, np.inf
        for _ in range(cfg.max_inner):
            x_cand = _prox_step(obj, x, grad, alpha)
            r_cand, f_cand = _residual_and_objective(obj, x_cand)
            if not (np.isfinite(x_cand).all() and np.isfinite(f_cand)):
                raise SolverDivergenceError(
                    "iterate became non-finite during backtracking"
                )
            if f_cand < best_f:
                best_x, best_f = x_cand, f_cand
            d = x_cand - x
            if f_cand <= f_x - 0.5 * cfg.sigma * alpha * float(d @ d):
                accepted = True
                break
            alpha *= cfg.eta
        if not accepted:
            # Backtracking exhausted.  Keep monotonicity: take the best
            # candidate only if it does not increase F, then stop.
            inner_cap_hit = True
            warnings.warn(
                "inner backtracking cap reached; stopping at the best "
                "non-increasing iterate",
                RuntimeWarning,
            )
            if best_f <= f_x:
                x_prev, f_prev = x, f_x
                x, f_x = best_x, best_f
                trace.append(f_x)
            termination = "line-search-cap"
            break

        x_prev, f_prev = x, f_x
        x, f_x, r = x_cand, f_cand, r_cand
        trace.append(f_x)

        denom = max(abs(f_prev), 1.0)
        if abs(f_prev - f_x) / denom < cfg.tol:
            termination = "tolerance"
            break

    return SolverResult(
        x=x,
        trace=np.asarray(trace),
        iterations=len(trace),
        termination=termination,
        inner_cap_hit=inner_cap_hit,
        alpha_final=alpha,
    )
