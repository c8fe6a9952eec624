"""Support-endpoint estimation by solving the order-statistic matching equations.

Writing Fhat_(l,u) for the boundary-corrected CDF estimator built on a
candidate support, the endpoints (l, u) are chosen so that

    Fhat_(l,u)(X_(1)) = 1/(n+1)      and      Fhat_(l,u)(X_(n)) = n/(n+1),

the expected CDF values of the sample minimum and maximum.  Plugging the
extremes themselves in instead corresponds to targets (0, 1).

One solve serves both methods and both sides s = +1 (e = X_(n), target
n/(n+1)) and s = -1 (e = X_(1), target 1/(n+1)).  It works on the sample
centred at e and scaled by the bandwidth, z = (X - e) / h, for the unknown
delta = s * (v - e) / h >= 0 that places the side-s endpoint v.  The
objective g(delta) = s * (Fhat(e) - target) is positive at delta = 0,
nonincreasing, and unchanged by shifting or rescaling the data, so data
such as 1e9 + Beta, or extremes within 1e-300 of their neighbours, solve
like data on [0, 1].  The unknown is mirrored, not the sample: with the
Gaussian kernel the reflection CDF's mass falls short of 1, and the right
equation of -X is a different left equation.

Boundary kernel: g(delta) = 1/(n+1) - mean W(s * z / delta) on either side,
so the equations decouple.  The mean W rises from (#ties at e)/(2n) at
delta = 0 to 1/2, so an untied extreme has one root; the bracket [0, 1]
doubles until it holds it.  Bisection first runs in data coordinates from
e + s*(|e|*1e-12 + 1e-300), where this solver always started it: the pdf
jumps at l + h and u - h, and this keeps the endpoints of ordinary data bit
for bit.  Only when that start lies past the root or the bisection cannot
reach TOL (data far from 0 relative to h, near-tied extremes) does the
delta bisection below take over.

Reflection: Fhat(e) is the reflection CDF at z = 0 with h = 1 and the other
endpoint held fixed, constant beyond delta = 1 for a compact kernel, so the
bracket is [0, 1]; when it misses the target the endpoint falls back to e
with a flag.  With a compact kernel the two equations decouple (h is at most
half the sample range), so one sweep of one-sided solves settles both
endpoints.  With the Gaussian they couple, and alternating one-sided solves
run until both endpoints move less than MOVE_TOL bandwidths, or raise
NumericError after MAX_SWEEPS.

In delta, the bracket's upper end is halved while the root lies lower, and
bisection stops at |g| < TOL, or raises NumericError once the bracket is two
adjacent floats.  The residual is s * g at the solved delta, before the
endpoint e + s*h*delta rounds to the data's spacing: on 1e9 + Beta with
h = 0.05 the fitted estimator's own Fhat(e) - target reaches 6e-8 (1e-4 at
1e12), however small the reported residual.

Look-ahead.  The objectives take an array of points, of any shape, and
return their values in that shape; each value depends on its own point
alone: the boundary kernel's is the mean of its own row of W terms, which
sums as the one-dimensional mean of that row does, and the reflection's is
`_piece_sums`'s count and window sums of its own four pieces.  So one call
evaluates every midpoint the next k bisection steps can visit, the 2^k - 1
nodes of the tree below the bracket, each formed as 0.5 * (lo + hi) as a
step forms it, and the steps then walk those values: roots, residuals,
iteration counts, brackets and NumericError texts are the one-point loop's,
bit for bit.  The set-up asks for g(0), g(1) and the data-coordinate start
or the first k halvings of [0, 1] in one call.  k is the largest depth whose
2^k - 1 points cost at most LOOKAHEAD_TERMS terms, a point costing the n
terms of a boundary-kernel mean or the terms its moving reflection pieces
evaluate in their `_reach` windows at delta = 0 (their widest), plus 64;
the set-up call may cost more.  A call costs tens of microseconds whatever
its size and a point in a small window little, so the Epanechnikov solves
at n = 100 to 2000 look 4 to 6 steps ahead.  Where a point costs about a
window of n (the boundary kernel at n = 2000) k is 1 and only the set-up is
batched; each step then passes its one midpoint as a 0-d array, and the
objective's arithmetic on it runs in NumPy scalars, at the one-point loop's
cost.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import isqrt
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
    _piece_sums,
    _reach,
    _reflection_sum,
)
from .kernels import KernelSpec

__all__ = ["SupportMode", "SolveReport", "solve_support", "fit"]

# Bisection step cap.  A delta bisection runs on one binade [hi/2, hi] and
# reaches adjacent floats within 53 steps; the cap bounds the boundary
# kernel's data-coordinate first pass, whose NumericError hands over to it.
MAX_BISECT = 200
MAX_SWEEPS = 100
MOVE_TOL = 1e-10
# Bisection stops once a side's residual |Fhat(e) - target| is below TOL.
TOL = 1e-10
# Terms one look-ahead call of the objective may cost (see the module docstring).
# A point costs its terms plus sqrt(LOOKAHEAD_TERMS) = 64, about what its tree
# node and window bookkeeping cost, so a call holds at most 63 points.
LOOKAHEAD_TERMS = 1 << 12


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
    """Solved endpoints with residuals, brackets, iteration counts, and flags.

    A residual is s * g at the solved point, Fhat(e) - target of the side's
    equation; a delta solve evaluates it before the endpoint rounds to the
    data's spacing (see the module docstring).
    """

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
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


def _depth(cost: int) -> int:
    """Bisection steps per objective call when a point costs `cost` terms (see LOOKAHEAD_TERMS)."""
    return max(1, (LOOKAHEAD_TERMS // (cost + isqrt(LOOKAHEAD_TERMS)) + 1).bit_length() - 1)


def _lookahead(g: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, k: int) -> Tuple[list, list]:
    """(ends, values): the bracket (lo, hi) cut at every midpoint that k bisection steps can visit, and g there.

    ends holds the 2^k + 1 cuts in order from lo to hi, each midpoint formed
    from the two cuts that bracket it as a step forms it; values[j] is g at
    ends[j + 1].  The first step's midpoint is ends[2^(k-1)], and a step at
    ends[p] with its bracket (ends[p - w], ends[p + w]) goes on to p + w/2 if g > 0
    there, else to p - w/2.
    """
    if k == 1:
        # one midpoint goes in as a 0-d array, so that g works in NumPy scalars
        ends = [lo, 0.5 * (lo + hi), hi]
        return ends, [g(np.array(ends[1])).tolist()]
    ends = [lo, hi]
    for _ in range(k):
        ends = [v for a, b in zip(ends, ends[1:]) for v in (a, 0.5 * (a + b))] + [hi]
    return ends, g(np.array(ends[1:-1])).tolist()


def _bisect(g: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, depth: int):
    """(root, g(root), iterations) of g = 0 between lo and hi (either order), g(lo) > 0 >= g(hi).

    g maps an array of points to their values; it is called once per `depth`
    steps, at every midpoint those steps can visit (`_lookahead`).  Stops at
    |g| < TOL; raises NumericError after MAX_BISECT steps or at adjacent floats.
    """
    best, w = (np.inf, lo), 0
    for it in range(1, MAX_BISECT + 1):
        if w == 0:
            k = min(depth, MAX_BISECT + 1 - it)
            ends, values = _lookahead(g, lo, hi, k)
            p = w = 1 << (k - 1)
        mid = ends[p]
        if mid == lo or mid == hi:
            break
        gm = values[p - 1]
        if abs(gm) < TOL:
            return mid, gm, it
        best = min(best, (abs(gm), mid))
        w >>= 1
        lo, hi, p = (mid, hi, p + w) if gm > 0.0 else (lo, mid, p - w)
    raise NumericError(
        f"bisection did not reach tolerance {TOL} in {it} iterations (best |residual| {best[0]:.3e} "
        f"at {best[1]!r}, bracket [{min(lo, hi)!r}, {max(lo, hi)!r}])"
    )


def _bk_extreme_cdf(data: np.ndarray, kernel: KernelSpec, s: int, v):
    """Boundary-kernel Fhat(e) at the side-s extreme e with that endpoint at v, of v's shape (a scalar or an array).

    The mass beyond e is m = mean W((X_i - e) / (v - e)) on either side, so
    Fhat(e) is 1 - m on the right and m on the left.  Each v's mean is the
    sum of its own row over n, as np.mean forms it; one endpoint's is a
    NumPy scalar, and so is the rest of its arithmetic.
    """
    e, v = (data[-1] if s > 0 else data[0]), np.asarray(v, dtype=float)
    # for one endpoint the centred row has the quotient's shape, so NumPy divides it in place
    m = np.add.reduce(kernel.cdf((data - e) / (v[..., None] - e)), axis=-1) / data.size
    return 1.0 - m if s > 0 else m


def _extreme_and_target(data: np.ndarray, s: int) -> Tuple[float, float]:
    """The side-s sample extreme e and its order-statistic target for Fhat(e)."""
    n = data.size
    return (float(data[-1]), n / (n + 1.0)) if s > 0 else (float(data[0]), 1.0 / (n + 1.0))


def _bk_objective(data: np.ndarray, kernel: KernelSpec, h: float, s: int, other: float):
    """(g, e, unit of delta, target, data-coordinate start, terms a point costs) of g = 1/(n+1) - mean W(s*z/delta).

    The unit is h, or a power-of-two fraction of it when e's nearest neighbour
    is a subnormal number of bandwidths away, so z and delta keep full precision.
    A point costs the n terms of its mean.
    """
    n = data.size
    e, target = _extreme_and_target(data, s)
    gap = np.abs(data[data != e] - e).min()
    unit = h
    if gap / h < np.finfo(float).tiny:
        # exponents taken apart, because gap / h may underflow to 0
        unit = float(np.ldexp(h, np.frexp(gap)[1] - np.frexp(h)[1] + 1020))
    sz = s * (data - e) / unit  # s * z, the same bits as s * ((data - e) / unit)
    # as delta -> 0 the mean W tends to (#ties at e)/(2n): each tied extreme keeps W(0) = 1/2
    g0 = 1.0 / (n + 1.0) - np.count_nonzero(sz == 0.0) / (2.0 * n)

    def g(d: np.ndarray) -> np.ndarray:
        flat = d.ravel()
        out = np.full(flat.size, g0)
        rows = (flat != 0.0).nonzero()[0]
        if rows.size:
            out[rows] = 1.0 / (n + 1.0) - np.mean(kernel.cdf(sz / flat[rows, None]), axis=1)
        return out.reshape(d.shape)

    return g, e, unit, target, e + s * (abs(e) * 1e-12 + 1e-300), n


def _reflection_objective(data: np.ndarray, kernel: KernelSpec, h: float, s: int, other: float):
    """(g, e, h, target, None, terms a point costs): Fhat(e) at z = 0, h = 1 and the other endpoint at (other - e)/h.

    Fhat(e) is the reflection cdf as `estimators._window_estimates` forms it at
    the one point z = 0, which lies in [l, u]: its four pieces' exact counts
    and window sums, combined in `_reflection_sum`'s order, over n (unclipped).
    Two of the pieces do not move with delta: they are summed once, in the
    first call, and a point costs the terms the two moving pieces evaluate in
    their `_reach` windows (not those at z >= the kernel's `cdf_one`),
    counted at delta = 0, where the windows are widest.  Each piece's sums
    are its own (`_piece_sums`), so g is bit for bit the four pieces' sums
    per point.
    """
    e, target = _extreme_and_target(data, s)
    z = (data - e) / h
    o = (other - e) / h

    # `_reflection_points(False, 0.0, l, u)` at (l, u) = (o, d) or (-d, o) as
    # base + slope * d, bit for bit: fl(2d - o) = fl(-o + 2d), fl(2o - (-d)) =
    # fl(2o + d), and -0.0 + (-2d) keeps the sign of 2 * (-0.0) - 0.0 at d = 0
    base, slope = ([0.0, 2.0 * o, -o, 0.0], [0.0, 0.0, 2.0, 2.0]) if s > 0 else \
        ([0.0, -0.0, 2.0 * o, 2.0 * o], [0.0, -2.0, 1.0, 0.0])
    still = [k for k in range(4) if slope[k] == 0.0]
    moving = [k for k in range(4) if slope[k] != 0.0]
    base, slope = np.array(base), np.array(slope)
    still_base, base, slope = base[still], base[moving, None], slope[moving, None]
    rows = {}  # piece k's counts and window sums; the still pieces' from the first call on

    def pieces(d: np.ndarray) -> np.ndarray:
        return (base + slope * d).ravel()

    def g(d: np.ndarray) -> np.ndarray:
        p = pieces(d)
        first = not rows
        if first:  # the first call also sums the still pieces, after the moving ones
            p = np.concatenate([p, still_base])
        c, _, w = _piece_sums(kernel, z, p, 1.0, 0.0, False, True)
        if first:
            rows.update(zip(still, zip(c[-2:], w[-2:])))
        m = d.size
        rows[moving[0]] = c[:m].reshape(d.shape), w[:m].reshape(d.shape)
        rows[moving[1]] = c[m : 2 * m].reshape(d.shape), w[m : 2 * m].reshape(d.shape)
        cdf = _reflection_sum(False, lambda k: rows[k][0]) + _reflection_sum(False, lambda k: rows[k][1])
        return s * (cdf / z.size - target)

    widest = pieces(np.zeros(1))
    a, b = _reach(z, widest, 1.0, kernel.saturation)
    first = _reach(z, widest, 1.0, kernel.cdf_one)[0] if kernel.cdf_one < kernel.saturation else a
    return g, e, h, target, None, int((b - first).sum())


@np.errstate(over="ignore")  # s*z/delta overflows to -inf at tiny delta, where W is 0 as it should be
def _solve_side(objective, data: np.ndarray, kernel: KernelSpec, h: float, s: int, other: float):
    """(endpoint, residual, iterations, bracket, fallback) of side s, the other endpoint at `other`.

    An objective with a data-coordinate start (the boundary kernel) doubles the bracket [0, 1].
    Values are asked for in batches, each point at most once: g(0), g(1) and
    the start or the first `depth` halvings of [0, 1] in the first call, then
    `depth` halvings at a time while the root lies lower.
    """
    g, e, unit, target, start, cost = objective(data, kernel, h, s, other)
    depth = _depth(cost)
    known = {}

    def values(*points: float) -> list:
        new = [d for d in points if d not in known]
        if new:
            known.update(zip(new, g(np.array(new)).tolist()))
        return [known[d] for d in points]

    def halvings(hi: float) -> list:
        out = []
        for _ in range(depth):
            hi *= 0.5
            out.append(hi)
        return out

    hi = 1.0
    d_start = None if start is None else s * (start - e) / unit
    g0, g_hi = values(0.0, hi, *(halvings(hi) if start is None else [d_start]))[:2]
    while start is not None and g_hi > 0.0:
        hi *= 2.0
        if not np.isfinite(hi):
            raise NumericError("boundary-kernel bracket expansion overflowed")
        (g_hi,) = values(hi)
    if not g0 > 0.0 >= g_hi:
        # tied extremes (boundary kernel), or a target the reflection bracket misses
        res = g0 if abs(g0) < abs(g_hi) else g_hi
        return e, s * res, 0, tuple(sorted((e, e + s * unit))), True
    if start is not None and known[d_start] > 0.0:
        # data coordinates first, which keep the endpoints of ordinary data bit for bit
        far = e + s * unit * hi
        try:
            v, res, it = _bisect(lambda v: s * (_bk_extreme_cdf(data, kernel, s, v) - target), start, far, depth)
            return v, s * res, it, tuple(sorted((start, far))), False
        except NumericError:
            pass
    while 0.5 * hi > 0.0:
        if 0.5 * hi not in known:
            values(*halvings(hi))
        if known[0.5 * hi] > 0.0:
            break
        hi *= 0.5
    d, res, it = _bisect(g, 0.5 * hi, hi, depth)
    bracket = tuple(sorted((e + s * unit * 0.5 * hi, e + s * unit * hi)))
    return e + s * unit * d, s * res, it, bracket, False


# -- public entry points ---------------------------------------------------------


def solve_support(
    sample: Sample,
    h: float,
    kernel: KernelSpec,
    method: str,
    mode: SupportMode,
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
    if not h > 0:  # NaN too
        raise ConfigError("bandwidth must be positive")
    data = sample.values
    if sample.n < 2:
        raise ConfigError("support solving needs at least two observations")
    x1, xn = sample.min, sample.max
    # a known endpoint must not cut into the sample, as `fit` requires of any support
    _check_contains(sample, -np.inf if mode.lower is None else mode.lower,
                    np.inf if mode.upper is None else mode.upper)
    if h > (xn - x1) / 2.0:
        raise ConfigError(f"bandwidth {h} exceeds half the sample range {(xn - x1) / 2.0}")

    objective = _bk_objective if method == BOUNDARY_KERNEL else _reflection_objective
    if mode.kind == "extremes":
        return _extremes_report(data, kernel, h, objective)

    sides = {"proposed": (1, -1), "half_known_lower": (1,), "half_known_upper": (-1,)}[mode.kind]
    # (endpoint, residual, iterations, bracket, fallback) per side; a known
    # endpoint stays as given, an unknown one starts at the sample extreme
    l0 = float(mode.lower) if mode.lower is not None else x1
    u0 = float(mode.upper) if mode.upper is not None else xn
    result = {-1: (l0, 0.0, 0, (l0, l0), False), 1: (u0, 0.0, 0, (u0, u0), False)}
    # With a compact kernel the two equations decouple.  The boundary kernel's
    # never involve the other endpoint.  In the reflection equation of side s,
    # the mirrored terms across the other endpoint are exactly 0 and 1 for
    # every l <= X_(1) and u >= X_(n), because h <= (X_(n) - X_(1))/2 (checked
    # above), so one sweep solves both.  Reflection with the Gaussian
    # alternates one-dimensional solves until both endpoints move less than
    # MOVE_TOL bandwidths.
    for sweeps in range(1, MAX_SWEEPS + 1):
        moved = 0.0
        for s in sides:
            new = _solve_side(objective, data, kernel, h, s, result[-s][0])
            moved = max(moved, abs(new[0] - result[s][0]) / h)
            result[s] = new
        if kernel.compact or moved < MOVE_TOL:
            break
    else:
        raise NumericError(
            f"reflection endpoints still moved {moved:.3e} bandwidths after {MAX_SWEEPS} sweeps"
        )
    (l_hat, res_l, it_l, br_l, fb_l), (u_hat, res_r, it_r, br_r, fb_r) = result[-1], result[1]
    # the boundary kernel's sides are solved once each, with no outer sweep
    sweeps = sweeps if method == REFLECTION else 0
    return SolveReport(l_hat, u_hat, res_l, res_r, it_l, it_r, br_l, br_r, fb_l, fb_r, sweeps)


def _extremes_report(data: np.ndarray, kernel: KernelSpec, h: float, objective) -> SolveReport:
    """The sample extremes as the support, with residuals against targets (0, 1)."""
    x1, xn = float(data[0]), float(data[-1])
    res = {}
    for s, other in ((-1, xn), (1, x1)):
        # at delta = 0 the objective gives Fhat(e) = target + s * g(0)
        g, _, _, target, _, _ = objective(data, kernel, h, s, other)
        res[s] = float(target + s * g(np.zeros(1))[0] - (s > 0))
    return SolveReport(x1, xn, res[-1], res[1], 0, 0, (x1, x1), (xn, xn), False, False, 0)


def fit(
    sample: Sample,
    h: float,
    kernel: KernelSpec,
    method: str,
    mode: Optional[SupportMode] = None,
) -> Tuple[FittedEstimator, Optional[SolveReport]]:
    """Resolve the support (solving if needed) and build the fitted estimator.

    The naive method takes no mode and gets an unbounded support; corrected
    methods require a mode.  Returns (estimator, report); the report is None
    when nothing was solved (naive or known support).
    """
    if method == NAIVE:
        if mode is not None:
            raise ConfigError("the naive method takes no support mode")
        return FittedEstimator(NAIVE, sample, h, SupportInterval(-np.inf, np.inf), kernel), None
    if method not in (REFLECTION, BOUNDARY_KERNEL):
        raise ConfigError(f"unknown method {method!r}")
    if mode is None:
        raise ConfigError(f"method {method!r} requires a support mode")
    if mode.kind == "known":
        support = SupportInterval(mode.lower, mode.upper)
        report = None
    else:
        report = solve_support(sample, h, kernel, method, mode)
        support = SupportInterval(report.l_hat, report.u_hat)
    return FittedEstimator(method, sample, h, support, kernel), report
