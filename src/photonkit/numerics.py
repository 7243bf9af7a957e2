"""Shared numerical kernel: the one bracketed root solver, quadrature, damped
least squares, and the pieces every solver shares: the speed of light, the
symmetric-slab dispersion relation's roots and mode profile, the moments of a
weighted grid and the grid CSV writer.

The special functions live in `special`. `gauss_legendre` imports
numpy.polynomial on its first call and `write_grid_csv` imports `float_repr`,
so importing this module loads the numpy core alone."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DomainError,
    MaxIterations,
    NoSignChange,
    PhotonkitError,
    SingularJacobian,
)

__all__ = [
    "C_UM_PER_FS",
    "RootBracket",
    "FitResult",
    "bracket_root",
    "find_root",
    "gauss_legendre",
    "integrate",
    "least_squares_fit",
    "slab_roots",
    "slab_profile",
    "grid_moments",
    "write_grid_csv",
]

C_UM_PER_FS = 0.299792458

# Levenberg-Marquardt schedule constants.
LM_LAMBDA0 = 1e-3
LM_STEP_TOL = 1e-10
LM_RSS_TOL = 1e-12
# Geodesic acceleration: the largest accepted ratio of 2|D a| to |D v|.
LM_ACCEL_RATIO = 0.75
# The errors that mean a model has no value at the trial parameters.
_NO_VALUE = (PhotonkitError, ValueError, ArithmeticError)


@dataclass(frozen=True)
class RootBracket:
    """Interval [lo, hi] with function values of opposite sign at the ends.

    The fields are floats, or equal-shape arrays holding one bracket per
    element."""

    lo: float | np.ndarray
    hi: float | np.ndarray
    f_lo: float | np.ndarray
    f_hi: float | np.ndarray

    def __post_init__(self):
        lo, hi, f_lo, f_hi = self.lo, self.hi, self.f_lo, self.f_hi
        if not np.all(lo < hi):
            raise NoSignChange(f"bracket requires lo < hi, got [{lo}, {hi}]")
        # Compare signs, not the product: the product of two tiny values
        # underflows to zero and would pass a bracket with no sign change.
        if np.any(((f_lo > 0) & (f_hi > 0)) | ((f_lo < 0) & (f_hi < 0))):
            raise NoSignChange(f"no sign change: f({lo})={f_lo}, f({hi})={f_hi}")


def bracket_root(f: Callable[[float], float], lo: float, hi: float) -> RootBracket:
    """Evaluate f at the interval ends and build a RootBracket."""
    return RootBracket(lo, hi, f(lo), f(hi))


@dataclass
class FitResult:
    parameters: np.ndarray
    standard_errors: np.ndarray
    residual_sum_squares: float
    converged: bool
    iterations: int


def find_root(f: Callable, bracket: RootBracket, tol: float = 1e-12,
              max_iter: int = 200, ftol: float = math.inf):
    """Roots of f inside the bracket, every bracket of an array bracket at once.

    f takes the abscissae (a float for a float bracket, else an array of the
    bracket's shape) and returns the values of f there, or a (values, slopes)
    pair. Each root starts from regula falsi and keeps its sign change in
    [a, b]. When f gives slopes, a step is Newton's x - f/f' where that lands
    inside (a, b), and bisection otherwise. Without slopes a step is the
    Anderson-Bjorck false position: an end kept by two steps running has its
    value scaled by 1 - f(x)/f(old x) (by 1/2 where that is not positive), so
    the next point lands past the root and the bracket shrinks from both
    sides. That point stays at least half the stopping width inside each end,
    so a point at the root is followed by one just across it. A point outside
    (a, b) falls back to bisection. A root is done once |f| <= ftol and the
    Newton step or the bracket is no wider than the stopping width: tol, or
    two float spacings at x, the finest a bracket gets; a NaN slope never
    passes that test. An exact zero of f is done at once, at a bracket end
    too.

    Returns a float for a float bracket, else an array. Raises DomainError for
    tol <= 0 or a NaN value of f, MaxIterations when a root is not done
    within max_iter steps.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    scalar = np.ndim(bracket.lo) == 0
    a, b, fa, fb = (np.asarray(v, dtype=float) for v in
                    (bracket.lo, bracket.hi, bracket.f_lo, bracket.f_hi))
    if np.isnan(fa).any() or np.isnan(fb).any():
        raise DomainError("f is NaN at a bracket end")
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(fb == 0.0, b, a - fa * (b - a) / (fb - fa))
    done = np.zeros(x.shape, dtype=bool)
    moved_a = np.zeros(x.shape, dtype=bool)  # whether the last step moved a
    moved_b = np.zeros(x.shape, dtype=bool)
    for _ in range(max_iter):
        out = f(float(x) if scalar else x)
        fx, slope = out if isinstance(out, tuple) else (out, None)
        fx = np.asarray(fx, dtype=float)
        if np.isnan(fx).any():
            raise DomainError("f is NaN inside the bracket; the solver cannot continue")
        same = np.sign(fx) == np.sign(fa)
        if slope is None:
            # x replaces the end whose value has its sign; the end kept
            # twice running is scaled (Anderson-Bjorck).
            with np.errstate(divide="ignore", invalid="ignore"):
                scale = 1.0 - fx / np.where(same, fa, fb)
            scale = np.where(scale > 0.0, scale, 0.5)
            fa = np.where(~same & moved_b, scale * fa, fa)
            fb = np.where(same, np.where(moved_a, scale * fb, fb), fx)
            moved_a, moved_b = same, ~same
        a = np.where(same, x, a)
        fa = np.where(same, fx, fa)
        b = np.where(same, b, x)
        step = np.inf if slope is None else fx / slope
        # Where f is flat, rounding noise keeps the Newton step above tol;
        # the collapsed bracket then pins the root.
        width = np.maximum(tol, 2.0 * np.spacing(np.abs(x)))
        pinned = np.minimum(np.abs(step), b - a) <= width
        done |= (np.abs(fx) <= ftol) & (pinned | (fx == 0.0))
        if done.all():
            return float(x) if scalar else x
        if slope is None:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                guess = a - fa * (b - a) / (fb - fa)
            guess = np.minimum(np.maximum(guess, a + 0.5 * width), b - 0.5 * width)
        else:
            guess = x - step
        inside = (guess > a) & (guess < b)
        x = np.where(done, x, np.where(inside, guess, 0.5 * (a + b)))
    raise MaxIterations(f"{np.count_nonzero(~done)} of {done.size} root(s) not "
                        f"found to tol={tol}, ftol={ftol} within {max_iter} steps")


@lru_cache(maxsize=64)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], cached per order. Every
    caller shares the arrays, so they are read-only."""
    if order < 2:
        raise DomainError("quadrature order must be >= 2")
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def integrate(f: Callable[[float], float], a: float, b: float, order: int = 32) -> float:
    """Gauss-Legendre approximation of the integral of f over [a, b].

    Exact (to roundoff) for polynomials of degree <= 2*order - 1.
    """
    if not a < b:
        raise DomainError("integration requires a < b")
    nodes, weights = gauss_legendre(order)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid + half * nodes
    try:
        fx = np.asarray(f(x), dtype=float)
        if fx.shape != x.shape:
            raise ValueError
    except (TypeError, ValueError):
        fx = np.array([f(xi) for xi in x], dtype=float)
    return float(half * np.dot(weights, fx))


def _jacobian(model, params, x, base):
    """Forward-difference Jacobian of the model, given its values `base` at params."""
    p = np.asarray(params, dtype=float)
    cols = []
    for j in range(p.size):
        step = 1.49e-8 * max(abs(p[j]), 1.0)
        pj = p.copy()
        pj[j] += step
        cols.append((_eval_model(model, pj, x) - base) / step)
    return np.column_stack(cols)


def _eval_model(model, params, x):
    """The model's values at every point of x, from one vectorised call.

    An exception from the model propagates; a result of another shape than
    x raises DomainError."""
    out = np.asarray(model(params, x), dtype=float)
    if out.shape != np.shape(x):
        raise DomainError(f"model returned shape {out.shape} for points of shape "
                          f"{np.shape(x)}")
    return out


class _DenseProducts:
    """J^T J and J^T v of a dense Jacobian, given its sqrt(w)-weighted rows."""

    def __init__(self, jw):
        self.jw = jw

    def gram(self):
        return self.jw.T @ self.jw

    def rmatvec(self, v):
        return self.jw.T @ v


def least_squares_fit(model: Callable, xdata: Sequence[float], ydata: Sequence[float],
                      initial: Sequence[float], weights: Sequence[float] | None = None,
                      max_iter: int = 200, jacobian: Callable | None = None) -> FitResult:
    """Levenberg-Marquardt minimization of sum w_i (y_i - model(p, x_i))^2,
    geodesic-accelerated when the jacobian hook gives the model's curvature
    (Transtrum & Sethna, arXiv:1201.5885).

    Each damped trial costs one model call. It solves
    (J^T W J + lam D^2) v = J^T W r for the velocity v, with
    D^2 = diag(J^T W J). Given the model's second directional derivative m''
    along v, the same damped system against -J^T W m'' gives the
    acceleration a, and the trial steps to p + v + a/2 when
    2 |D a| <= alpha |D v| (alpha = LM_ACCEL_RATIO). It steps to p + v when
    the acceleration is larger, and when m'' is not given, has no value (see
    below) or is not finite.

    model(params, x) takes all of x in one call and returns one value per
    point, and must be finite at every point at the initial parameters
    (DomainError otherwise). A trial the model cannot evaluate at all (it
    raises a PhotonkitError, a ValueError such as DomainError, or an
    ArithmeticError, or no value is finite) has left the model's domain and
    counts as an infinitely bad step; any other exception, a NameError or
    TypeError from a bug in the model say, propagates. A trial that is not
    finite at some points is rejected too, but does not mark a domain wall.
    So every accepted step keeps a value at every point. Damping starts at
    1e-3 and is divided/multiplied by 10 on accepted/rejected steps. The fit
    stops on an accepted step whose relative step or RSS drop is tiny; that
    stop counts as converged unless a trial of the same iteration left the
    domain, as a fit pressed against a domain wall stops on tiny steps too.
    Standard errors come from the covariance estimate scaled by residual
    variance, with the Jacobian taken at the returned parameters.

    The fitter touches the Jacobian J only through J^T W J and J^T W v.
    jacobian(params, x, values), given the model values at params, returns
    either the (len(x), len(params)) derivative matrix or an object whose
    gram() gives J^T J and whose rmatvec(v) gives J^T v, v one value per
    point; either may come in a (jacobian, curvature) pair whose
    curvature(direction) returns the model's second derivative along
    `direction` at the same params, one value per point. The object's
    products are unweighted, so the fit raises DomainError when it comes with
    weights. biphoton.fit_gaussian_2d gives the object, built from grid
    moments, while |rho| <= 0.995 (they agree with the dense products to
    5.5e-11 of the diagonal scale there), and the matrix above. The hook is
    called once per iteration, and once more at parameters the last
    iteration moved to; forward differences, with no curvature, by default.
    Weights must be finite and positive.
    """
    if jacobian is None:
        jacobian = partial(_jacobian, model)
    x = np.asarray(xdata, dtype=float)
    y = np.asarray(ydata, dtype=float)
    p = np.array(initial, dtype=float)
    sw = None
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        if not (np.isfinite(w).all() and (w > 0).all()):
            raise DomainError("weights must be finite and positive")
        sw = np.sqrt(w)
    if y.size < p.size:
        raise DomainError("need at least as many data points as parameters")

    def weigh(values):
        # sqrt(w) times values (one per point, or one row each); an
        # unweighted fit skips the multiply by 1.
        if sw is None:
            return values
        return values * (sw[:, None] if values.ndim == 2 else sw)

    def rss_at(params):
        # The RSS and the model's values at params: inf when no value is
        # finite, NaN, which no comparison accepts, when only some are.
        m = _eval_model(model, params, x)
        finite = np.isfinite(m)
        if not finite.all():
            return (np.nan if finite.any() else np.inf), m
        r = weigh(y - m)
        return float(np.dot(r, r)), m

    def derivatives():
        # The Jacobian products at p, and the curvature hook or None.
        out = jacobian(p, x, m)
        jac, curvature = out if isinstance(out, tuple) else (out, None)
        if not hasattr(jac, "gram"):
            return _DenseProducts(weigh(jac)), curvature
        if sw is not None:
            raise DomainError("a Jacobian given as products needs an unweighted fit")
        return jac, curvature

    def accelerated(dp, damp, curvature, jac, d2):
        # No curvature, an m'' that has no value or is not finite, or an
        # acceleration too large to trust, leaves the plain step.
        if curvature is None:
            return dp
        try:
            m2 = np.asarray(curvature(dp), dtype=float)
        except _NO_VALUE:
            return dp
        if not np.isfinite(m2).all():
            return dp
        acc = np.linalg.solve(damp, -jac.rmatvec(weigh(m2)))
        if 2.0 * math.sqrt(d2 @ acc**2) <= LM_ACCEL_RATIO * math.sqrt(d2 @ dp**2):
            return dp + 0.5 * acc
        return dp

    rss, m = rss_at(p)
    if not np.isfinite(rss):
        raise DomainError("model must be finite at every point, with a finite RSS, "
                          "at the initial parameters")
    lam = LM_LAMBDA0
    converged = False
    iterations = 0
    accepted = True
    for iterations in range(1, max_iter + 1):
        jac, curvature = derivatives()
        a = jac.gram()
        # the residual is not held while the trials run
        g = jac.rmatvec(weigh(y - m))
        d2 = np.diag(a)
        accepted = stop = left_domain = False
        while lam < 1e14:
            damp = a + lam * np.diag(np.maximum(d2, 1e-30))
            try:
                dp = np.linalg.solve(damp, g)
            except np.linalg.LinAlgError as exc:
                raise SingularJacobian(str(exc)) from exc
            step = accelerated(dp, damp, curvature, jac, d2)
            trial = p + step
            # Trial parameters may leave the model's domain entirely: an
            # infinitely bad step rather than a failure.
            try:
                trial_rss, trial_m = rss_at(trial)
            except _NO_VALUE:
                trial_rss, trial_m = np.inf, None
            left_domain |= trial_rss == np.inf
            if trial_rss <= rss:
                rel_step = np.max(np.abs(step) / np.maximum(np.abs(p), 1e-300))
                rel_drop = (rss - trial_rss) / max(rss, 1e-300)
                p, rss, m = trial, trial_rss, trial_m
                lam = max(lam / 10.0, 1e-12)
                accepted = True
                stop = rel_step < LM_STEP_TOL or rel_drop < LM_RSS_TOL
                converged = stop and not left_domain
                break
            # a rejected trial's model values are not held while the next runs
            del trial_m
            lam *= 10.0
        if stop or not accepted:
            break

    if accepted:
        # The last accepted step moved p: the standard errors belong to the
        # returned parameters, so linearise there.
        jac, _ = derivatives()
    dof = max(y.size - p.size, 1)
    try:
        cov = np.linalg.inv(jac.gram()) * (rss / dof)
        se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        se = np.full(p.size, np.nan)
    return FitResult(parameters=p, standard_errors=se, residual_sum_squares=rss,
                     converged=converged, iterations=iterations)


def slab_roots(k_lim: float, extent: float,
               index_factor: float) -> list[tuple[int, float]]:
    """Roots (p, k), p = 1, 2, ... in ascending k, of the symmetric-slab relation
    k extent = p pi - 2 arctan(F k / gamma), with F = index_factor and the
    cladding decay rate gamma = sqrt(k_lim^2 - k^2); this arctan branch keeps
    the arithmetic real. Odd p are the cosine-core modes, even p the sine-core
    ones. One find_root call takes Newton steps for every p at once, on the
    closed-form slope extent + 2 F k_lim^2 / (gamma (gamma^2 + F^2 k^2)).
    """
    if k_lim <= 0:
        return []
    lo, hi = 1e-12 * k_lim, k_lim - 1e-12 * k_lim

    def residual(k, p):
        gamma = np.sqrt(k_lim**2 - k**2)
        fk = index_factor * k
        return (k * extent - p * math.pi + 2.0 * np.arctan(fk / gamma),
                extent + 2.0 * index_factor * k_lim**2 / (gamma * (gamma**2 + fk**2)))

    # 2 arctan < pi, so no root has p * pi beyond hi * extent + pi.
    p = np.arange(1, int(hi * extent / math.pi) + 2)
    f_lo, f_hi = residual(lo, p)[0], residual(hi, p)[0]
    keep = (f_lo < 0) & (f_hi > 0)
    p = p[keep]
    bracket = RootBracket(np.full(p.shape, lo), np.full(p.shape, hi),
                          f_lo[keep], f_hi[keep])
    k = find_root(partial(residual, p=p), bracket, tol=1e-14)
    return list(zip(p.tolist(), k.tolist()))


def slab_profile(coord, k_t, extent, gamma, parity_odd):
    """Core sinusoid with value-matched exponential tails, centred slab.

    The core of width `extent` carries cos (sin when `parity_odd`) of k_t x;
    outside it the field decays as exp(-gamma (|x| - extent/2)).
    """
    coord = np.asarray(coord, dtype=float)
    half = 0.5 * extent
    if parity_odd:
        core = np.sin(k_t * coord)
        edge = math.sin(k_t * half)
        sign = np.sign(coord)
    else:
        core = np.cos(k_t * coord)
        edge = math.cos(k_t * half)
        sign = np.ones_like(coord)
    tail = sign * edge * np.exp(-gamma * (np.abs(coord) - half))
    return np.where(np.abs(coord) <= half, core, tail)


def grid_moments(x, y, weights):
    """Means, variances and covariance (mu_x, mu_y, var_x, var_y, cov) of the
    grid carrying weights[j, k] at (x[j], y[k]); the weights need not sum to 1."""
    total = weights.sum()
    px = weights.sum(axis=1) / total
    py = weights.sum(axis=0) / total
    mu_x = float(np.dot(px, x))
    mu_y = float(np.dot(py, y))
    var_x = float(np.dot(px, (x - mu_x)**2))
    var_y = float(np.dot(py, (y - mu_y)**2))
    cov = float((x - mu_x) @ weights @ (y - mu_y) / total)
    return mu_x, mu_y, var_x, var_y, cov


def write_grid_csv(path, header: Sequence[str], x, y, values) -> None:
    """Write a 2-D grid as rows `x[j], y[k], values[j, k]` under a header row,
    j-major.

    Floats are written as repr and lines end in \\r\\n, byte for byte what
    csv.writer gives for the same repr'd rows. The bytes come from the numpy
    kernel in `float_repr` (float_repr.write_grid), not from a repr call per
    value; it is imported here so that only the commands that write a grid
    compile it."""
    from .float_repr import write_grid

    write_grid(path, header, x, y, values)
