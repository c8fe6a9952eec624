"""Support-endpoint estimation by solving the order-statistic matching equations.

Writing Fhat_(l,u) for the boundary-corrected CDF estimator built on a
candidate support, the endpoints (l, u) are chosen so that

    Fhat_(l,u)(X_(1)) = 1/(n+1)      and      Fhat_(l,u)(X_(n)) = n/(n+1),

the expected CDF values of the sample minimum and maximum.  Plugging the
extremes themselves in instead corresponds to targets (0, 1).

Each correction method has one one-sided solve, parametrised by the side
s = +1 (right: e = X_(n), target n/(n+1)) or s = -1 (left: e = X_(1), target
1/(n+1)).  It finds the side-s endpoint v from the signed objective
s * (Fhat(e) - target), evaluated on the original sample; that objective is
positive at e and nonincreasing as v moves outward on either side, so one
bracket search, bisection and fallback serve both endpoints.  The unknown is
mirrored, not the sample: solving the left side as the right side of -X is
exact only for a compact kernel, because with the Gaussian kernel the
reflection estimator's total mass falls short of 1 and the mirrored right
equation is a different left equation.

For the boundary-kernel method the mass beyond e is
m(v) = (1/n) sum W((X_i - e) / (v - e)), and Fhat(e) is 1 - m on the right
and m on the left, so the two equations decouple exactly.  m increases from
(#ties at e)/(2n) as v tends to e (each tied extreme contributes W(0) = 1/2)
to 1/2 as v moves away, so for n >= 2 and an untied extreme a unique root
exists and bisection with a sign-checked, range-doubling bracket finds it.

For the reflection method Fhat(e) is the reflection CDF with the other
endpoint held fixed; it is constant beyond e + s*h for a compact kernel, so
the bracket is [e, e + s*h].  When the target is not straddled the solver
falls back to the extreme itself and sets a flag.  The residual two-sided
coupling is resolved by alternating one-dimensional solves until both
endpoints stop moving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import ConfigError, NumericError
from .estimators import (
    BOUNDARY_KERNEL,
    NAIVE,
    REFLECTION,
    FittedEstimator,
    Sample,
    SupportInterval,
    _check_contains,
    _reflection_terms,
    fit_boundary_kernel,
    fit_naive,
    fit_reflection,
)
from .kernels import KernelSpec

__all__ = ["SupportMode", "SolveReport", "solve_support", "fit"]

MAX_BISECT = 200
MAX_SWEEPS = 100
MOVE_TOL = 1e-10


@dataclass(frozen=True)
class SupportMode:
    """How the support is resolved: known, solved, extremes, or one-sided.

    kind is one of "known", "proposed", "extremes", "half_known_lower",
    "half_known_upper"; the lower/upper fields carry the known endpoints.
    """

    kind: str
    lower: Optional[float] = None
    upper: Optional[float] = None

    @classmethod
    def known(cls, lower: float, upper: float) -> "SupportMode":
        return cls("known", float(lower), float(upper))

    @classmethod
    def proposed(cls) -> "SupportMode":
        return cls("proposed")

    @classmethod
    def extremes(cls) -> "SupportMode":
        return cls("extremes")

    @classmethod
    def half_known_lower(cls, lower: float) -> "SupportMode":
        return cls("half_known_lower", lower=float(lower))

    @classmethod
    def half_known_upper(cls, upper: float) -> "SupportMode":
        return cls("half_known_upper", upper=float(upper))

    def __post_init__(self) -> None:
        if self.kind not in ("known", "proposed", "extremes", "half_known_lower", "half_known_upper"):
            raise ConfigError(f"unknown support mode {self.kind!r}")
        for name, v in (("lower", self.lower), ("upper", self.upper)):
            if v is not None and not np.isfinite(v):
                raise ConfigError(f"{name} endpoint must be finite")
        if self.kind == "known" and (self.lower is None or self.upper is None):
            raise ConfigError("known mode needs both endpoints")
        if self.kind == "half_known_lower" and self.lower is None:
            raise ConfigError("half_known_lower needs the lower endpoint")
        if self.kind == "half_known_upper" and self.upper is None:
            raise ConfigError("half_known_upper needs the upper endpoint")


@dataclass(frozen=True)
class SolveReport:
    """Solved endpoints with residuals, brackets, iteration counts, and flags."""

    l_hat: float
    u_hat: float
    residual_left: float
    residual_right: float
    iterations_left: int
    iterations_right: int
    bracket_left: Tuple[float, float]
    bracket_right: Tuple[float, float]
    fallback_left: bool = False
    fallback_right: bool = False
    outer_sweeps: int = 0

    def to_dict(self) -> dict:
        return {
            "l_hat": self.l_hat,
            "u_hat": self.u_hat,
            "residual_left": self.residual_left,
            "residual_right": self.residual_right,
            "iterations_left": self.iterations_left,
            "iterations_right": self.iterations_right,
            "bracket_left": list(self.bracket_left),
            "bracket_right": list(self.bracket_right),
            "fallback_left": self.fallback_left,
            "fallback_right": self.fallback_right,
            "outer_sweeps": self.outer_sweeps,
        }


def _bisect(
    g: Callable[[float], float], s: int, near: float, far: float, g_near: float, g_far: float,
    tol: float, max_iter: int,
):
    """Bisection for g = 0 between near (g > 0) and far (g <= 0).

    g is the signed objective s * (Fhat(e) - target); returns (root, residual
    Fhat(e) - target, iterations, bracket as (lower, upper), fallback flag).
    """
    bracket = (min(near, far), max(near, far))
    best_x, best_g = (near, g_near) if abs(g_near) < abs(g_far) else (far, g_far)
    for it in range(1, max_iter + 1):
        mid = 0.5 * (near + far)
        gm = g(mid)
        if abs(gm) < abs(best_g):
            best_x, best_g = mid, gm
        if abs(gm) < tol:
            return mid, s * gm, it, bracket, False
        if gm > 0.0:
            near = mid
        else:
            far = mid
    raise NumericError(
        f"bisection did not reach tolerance {tol} in {max_iter} iterations "
        f"(best residual {s * best_g:.3e} at {best_x!r}, bracket [{min(near, far)!r}, {max(near, far)!r}])"
    )


def _extreme_and_target(data: np.ndarray, s: int) -> Tuple[float, float]:
    """The side-s sample extreme e and its order-statistic target for Fhat(e)."""
    n = data.size
    return (float(data[-1]), n / (n + 1.0)) if s > 0 else (float(data[0]), 1.0 / (n + 1.0))


# -- boundary kernel -------------------------------------------------------------


def _bk_extreme_cdf(data: np.ndarray, kernel: KernelSpec, s: int, v: float) -> float:
    """Boundary-kernel Fhat(e) at the side-s extreme e with that endpoint at v.

    The mass beyond e is m = mean W((X_i - e) / (v - e)) on either side, so
    Fhat(e) is 1 - m on the right and m on the left.
    """
    e = data[-1] if s > 0 else data[0]
    m = float(np.mean(kernel.cdf((data - e) / (v - e))))
    return 1.0 - m if s > 0 else m


def _bk_limit(data: np.ndarray, s: int) -> float:
    # limit of Fhat(e) as v tends to e: each tied extreme contributes W(0) = 1/2
    e = data[-1] if s > 0 else data[0]
    m = int(np.count_nonzero(data == e)) / (2.0 * data.size)
    return 1.0 - m if s > 0 else m


def _solve_bk_side(data: np.ndarray, kernel: KernelSpec, h: float, tol: float, max_iter: int, s: int):
    e, target = _extreme_and_target(data, s)
    side = "right" if s > 0 else "left"
    limit = _bk_limit(data, s)
    if s * (limit - target) <= 0.0:
        # tied extremes hold Fhat(e) on the wrong side of the target: no root beyond e
        return e, limit - float(s > 0), 0, (e, e), True
    g = lambda v: s * (_bk_extreme_cdf(data, kernel, s, v) - target)
    near = e + s * (abs(e) * 1e-12 + 1e-300)
    g_near = g(near)
    if g_near <= 0.0:
        raise NumericError(
            f"{side} objective already past target {target} at the bracket start {near!r}; "
            "data scale defeats the near-extreme offset"
        )
    span = h
    far = e + s * span
    g_far = g(far)
    while g_far > 0.0:
        span *= 2.0
        far = e + s * span
        g_far = g(far)
        if not np.isfinite(far):
            raise NumericError(f"{side} bracket expansion overflowed")
    return _bisect(g, s, near, far, g_near, g_far, tol, max_iter)


# -- reflection ------------------------------------------------------------------


def _reflection_extreme_cdf(
    data: np.ndarray, kernel: KernelSpec, h: float, s: int, l: float, u: float
) -> float:
    """Reflection Fhat(e) on support [l, u] at the side-s extreme e."""
    e = data[-1] if s > 0 else data[0]
    return float(_reflection_terms(kernel, False, e, data, h, l, u).mean())


def _solve_reflection_side(
    data: np.ndarray, kernel: KernelSpec, h: float, tol: float, max_iter: int, s: int, l: float, u: float,
):
    """One-dimensional reflection solve for the side-s endpoint, the other held fixed.

    The signed objective is nonincreasing outward and constant beyond e + s*h
    for a compact kernel, so the bracket is [e, e + s*h]; when it does not
    straddle the target the endpoint falls back to e.
    """
    e, target = _extreme_and_target(data, s)

    def g(v: float) -> float:
        lv, uv = (l, v) if s > 0 else (v, u)
        return s * (_reflection_extreme_cdf(data, kernel, h, s, lv, uv) - target)

    near, far = e, e + s * h
    g_near, g_far = g(near), g(far)
    if not (g_far < 0.0 < g_near):
        res = g_near if abs(g_near) < abs(g_far) else g_far
        return e, s * res, 0, (min(near, far), max(near, far)), True
    return _bisect(g, s, near, far, g_near, g_far, tol, max_iter)


# -- public entry points ---------------------------------------------------------


def solve_support(
    sample: Sample,
    h: float,
    kernel: KernelSpec,
    method: str,
    mode: SupportMode,
    tol: float = 1e-10,
    max_iter: int = MAX_BISECT,
) -> SolveReport:
    """Estimate support endpoints for the given correction method and mode.

    mode "proposed" solves both endpoints, "extremes" returns the sample
    extremes with residuals against targets (0, 1), and the half-known modes
    solve only the unknown side.
    """
    if mode.kind == "known":
        raise ConfigError("solve_support needs an unknown endpoint; mode 'known' has none")
    if method not in (REFLECTION, BOUNDARY_KERNEL):
        raise ConfigError(f"solve_support supports reflection/boundary_kernel, got {method!r}")
    if method == BOUNDARY_KERNEL and not kernel.compact:
        raise ConfigError("the boundary-kernel solve requires a compact kernel")
    if h <= 0:
        raise ConfigError("bandwidth must be positive")
    data = sample.values
    n = sample.n
    if n < 2:
        raise ConfigError("support solving needs at least two observations")
    x1, xn = sample.min, sample.max
    # a known endpoint must not cut into the sample, as `fit` requires of any support
    _check_contains(sample, -np.inf if mode.lower is None else mode.lower,
                    np.inf if mode.upper is None else mode.upper)
    if h > (xn - x1) / 2.0:
        raise ConfigError(f"bandwidth {h} exceeds half the sample range {(xn - x1) / 2.0}")
    if tol <= 0:
        raise ConfigError("tolerance must be positive")
    if max_iter < 1:
        raise ConfigError("max_iter must be at least 1")

    if mode.kind == "extremes":
        return _extremes_report(data, kernel, h, method)

    sides = {"proposed": (1, -1), "half_known_lower": (1,), "half_known_upper": (-1,)}[mode.kind]
    # (endpoint, residual, iterations, bracket, fallback) per side; a known
    # endpoint stays as given, an unknown one starts at the sample extreme
    l0 = float(mode.lower) if mode.lower is not None else x1
    u0 = float(mode.upper) if mode.upper is not None else xn
    result = {-1: (l0, 0.0, 0, (l0, l0), False), 1: (u0, 0.0, 0, (u0, u0), False)}
    sweeps = 0
    if method == BOUNDARY_KERNEL:
        # the two boundary-kernel equations decouple exactly
        for s in sides:
            result[s] = _solve_bk_side(data, kernel, h, tol, max_iter, s)
    else:
        # reflection: alternate one-dimensional solves until both endpoints settle
        for sweeps in range(1, MAX_SWEEPS + 1):
            moved = 0.0
            for s in sides:
                new = _solve_reflection_side(data, kernel, h, tol, max_iter, s, result[-1][0], result[1][0])
                moved = max(moved, abs(new[0] - result[s][0]))
                result[s] = new
            if moved < MOVE_TOL:
                break
    (l_hat, res_l, it_l, br_l, fb_l), (u_hat, res_r, it_r, br_r, fb_r) = result[-1], result[1]
    return SolveReport(l_hat, u_hat, res_l, res_r, it_l, it_r, br_l, br_r, fb_l, fb_r, sweeps)


def _extremes_report(data: np.ndarray, kernel: KernelSpec, h: float, method: str) -> SolveReport:
    """The sample extremes as the support, with residuals against targets (0, 1)."""
    x1, xn = float(data[0]), float(data[-1])
    if method == BOUNDARY_KERNEL:
        res_l, res_r = _bk_limit(data, -1), _bk_limit(data, 1) - 1.0
    else:
        res_l = _reflection_extreme_cdf(data, kernel, h, -1, x1, xn)
        res_r = _reflection_extreme_cdf(data, kernel, h, 1, x1, xn) - 1.0
    return SolveReport(x1, xn, res_l, res_r, 0, 0, (x1, x1), (xn, xn), False, False, 0)


def fit(
    sample: Sample,
    h: float,
    kernel: KernelSpec,
    method: str,
    mode: Optional[SupportMode] = None,
    tol: float = 1e-10,
    max_iter: int = MAX_BISECT,
) -> Tuple[FittedEstimator, Optional[SolveReport]]:
    """Resolve the support (solving if needed) and build the fitted estimator.

    The naive method takes no mode and gets an unbounded support; corrected
    methods require a mode.  Returns (estimator, report); the report is None
    when nothing was solved (naive or known support).
    """
    if method == NAIVE:
        if mode is not None:
            raise ConfigError("the naive method takes no support mode")
        return fit_naive(sample, h, kernel), None
    if method not in (REFLECTION, BOUNDARY_KERNEL):
        raise ConfigError(f"unknown method {method!r}")
    if mode is None:
        raise ConfigError(f"method {method!r} requires a support mode")
    if mode.kind == "known":
        support = SupportInterval(mode.lower, mode.upper)
        report = None
    else:
        report = solve_support(sample, h, kernel, method, mode, tol=tol, max_iter=max_iter)
        support = SupportInterval(report.l_hat, report.u_hat)
    if method == REFLECTION:
        return fit_reflection(sample, h, kernel, support), report
    return fit_boundary_kernel(sample, h, kernel, support), report
