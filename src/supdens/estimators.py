"""One-dimensional kernel estimators of a density f and its CDF F.

All three estimators are averages of one per-observation term, a kernel
placed at X_i with a scale s(x) that may depend on the evaluation point:

    cdf term  W(z),                      z = (x - X_i) / s(x),
    pdf term  K(z) (1 - s'(x) z) / s(x), its exact x-derivative.

The estimators differ only in where and with which scale the term is placed.

naive
    s = h everywhere (s' = 0): pdf(x) = (1/(nh)) sum K((x - X_i)/h),
    cdf(x) = (1/n) sum W((x - X_i)/h).

reflection
    Kernel mass falling outside a known/estimated support [l, u] is mirrored
    back across each endpoint: on [l, u] the pdf is the sum of the naive
    terms at x and at its mirror points 2l - x and 2u - x, and the CDF is
    F(x) - F(2l - x) + F(2u - l) - F(2u - x) built from the same naive terms.
    The CDF terms are grouped per observation so that cdf(l) is exactly 0
    and, for a compact kernel with h <= u - l, cdf(u) is exactly 1 in
    floating point.  Outside [l, u] the pdf is 0 and the cdf 0 or 1.

boundary_kernel
    The scale is the distance to the endpoint inside each boundary region:
    s = x - l (s' = +1) on (l, l+h), s = h (s' = 0) on [l+h, u-h), and
    s = u - x (s' = -1) on [u-h, u); the cdf is 0 at or below l and 1 at or
    above u, and the pdf is 0 there.  So the pdf is the exact analytic
    derivative of each piece, and exactly the naive pdf in the middle one.
    It has bona fide jumps at the seams l+h and u-h (the CDF is continuous
    but only piecewise C^1 there).

Every estimator is one frozen dataclass, `FittedEstimator`, which checks
its method, bandwidth, support and kernel when it is built; evaluation is
pure and thread-safe.  One table, `_piece_table`, places the terms for
every evaluator: which points carry kernel pieces, each piece's points,
scale and slope, and the constant term off the support.  The per-observation
term functions (`cdf_terms`, `pdf_terms`) return the (m, n) matrices whose
row means are cdf/pdf values, filled in blocks of at most `BLOCK_ROWS`
sorted points and MEAN_CHUNK // n rows; the joint's tensor grids and the
tests use them.

A term is saturated (K = 0, and W exactly 0 or 1) wherever |x - X_i| >=
s(x) times the kernel's saturation radius: the support radius of a compact
kernel, and for the Gaussian the point (39) beyond which its float64 values
underflow to exactly 0 or round to exactly 1.  Each piece of a term (the
naive point x, each reflection mirror, the boundary kernel's x at its scale)
has a window of sorted columns, found by `searchsorted` (`_reach`), outside
which its terms are saturated.  A term-matrix block evaluates each piece on
the dense slice of columns its points' windows span and writes the
saturated constants on either side (`_fill_block`), bit for bit the terms
the kernel gives.  The `pdf`, `cdf` and `evaluate_grid` of a compact kernel
form no matrix (`_window_estimates`): a value is the exact count of the
columns below each piece's window, whose cdf terms are exactly 1, plus the
sum of the terms inside it, so m points cost O(m (w + log n)) for windows
of w columns, and the working arrays hold about WINDOW_CHUNK entries.  Each
value is within (k + 5) eps times the mean |term| of the exact mean, k the
window terms it sums; reflection's cdf(l) = 0 and cdf(u) = 1 stay exact.
On a 2-CPU x86_64 VM a 4001-point reflection `evaluate_grid` on beta(3,1)
data with LSCV bandwidths takes 5 ms at n = 10^3, 0.03 s at n = 10^5 and
0.08 s at n = 10^6, where term blocks and their row means took 0.016, 1.0
and 8.6 s (BENCH_window.json).  The solver's reflection objective goes
through the same sums.  The multivariate product-form estimator (`joint`)
likewise evaluates the terms only at the (point, observation) pairs inside
a coordinate's windows and counts the pairs whose terms are exactly 1.

The Gaussian's window of 39 bandwidths covers most of a sample at the
bandwidths LSCV picks, so its `pdf`, `cdf` and `evaluate_grid` form no
terms: a fast Gauss transform (`_gauss_sums`) sums them from moments of
boxes of the sorted sample and Taylor expansions about the boxes of the
points, at a cost that follows the boxes in reach of the points, not m n.
Each value is within EVAL_TOL = 1e-14 of the exact mean (the pdf's times h),
reflection's cdf(l) is still exactly 0, and a point's value does not depend
on the other points evaluated with it.  On a 2-CPU x86_64 VM a 4001-point
Gaussian reflection `evaluate_grid` on beta(3,1) data with h = 0.02 takes
0.007 s at n = 10^3 and 0.011 s at n = 10^5, where the windowed terms took
0.24 s and 30 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, erfc, exp, factorial, lgamma, log, pi, sqrt

import numpy as np

from .errors import ConfigError, DataError
from .kernels import KernelSpec

__all__ = [
    "Sample",
    "SupportInterval",
    "FittedEstimator",
    "evaluate_grid",
    "cdf_terms",
    "pdf_terms",
]

NAIVE = "naive"
REFLECTION = "reflection"
BOUNDARY_KERNEL = "boundary_kernel"
METHODS = (NAIVE, REFLECTION, BOUNDARY_KERNEL)


@dataclass(frozen=True)
class Sample:
    """A sorted array of finite observations with cached extremes."""

    values: np.ndarray

    def __init__(self, values) -> None:
        arr = np.sort(np.asarray(values, dtype=float).ravel())
        if arr.size < 1:
            raise DataError("sample must contain at least one observation")
        if not np.all(np.isfinite(arr)):
            raise DataError("sample values must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def min(self) -> float:
        return float(self.values[0])

    @property
    def max(self) -> float:
        return float(self.values[-1])

    def std(self) -> float:
        return float(np.std(self.values, ddof=1)) if self.n > 1 else 0.0


@dataclass(frozen=True)
class SupportInterval:
    """An interval (lower, upper), either bound possibly infinite."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not self.lower < self.upper:
            raise ConfigError(f"support requires lower < upper, got ({self.lower}, {self.upper})")

    @property
    def bounded(self) -> bool:
        return np.isfinite(self.lower) and np.isfinite(self.upper)

    @property
    def length(self) -> float:
        return self.upper - self.lower


def _check_contains(sample: Sample, lower: float, upper: float) -> None:
    if sample.min < lower or sample.max > upper:
        raise DataError(
            f"sample range [{sample.min}, {sample.max}] not contained in support [{lower}, {upper}]"
        )


@dataclass(frozen=True)
class FittedEstimator:
    """A fitted kernel estimator: method + sample + bandwidth + support + kernel.

    The naive method takes the support (-inf, inf).  The corrected methods take
    a bounded support containing the sample, at least 2h long; the boundary
    kernel also needs a compact kernel.  Immutable; pdf(x) and cdf(x) take x's
    shape (a float at a scalar or 0-d x) and are safe from any number of threads.
    """

    method: str
    sample: Sample
    h: float
    support: SupportInterval
    kernel: KernelSpec

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.method == BOUNDARY_KERNEL and not self.kernel.compact:
            raise ConfigError("the boundary-kernel method requires a compact kernel")
        if not self.h > 0:  # NaN too
            raise ConfigError("bandwidth must be positive")
        object.__setattr__(self, "h", float(self.h))
        support = self.support
        if self.method == NAIVE:
            if support.lower != -np.inf or support.upper != np.inf:
                raise ConfigError(f"the naive method needs the support (-inf, inf), got {support}")
            return
        if not support.bounded:
            raise ConfigError("boundary-corrected estimators need a bounded support")
        _check_contains(self.sample, support.lower, support.upper)
        if self.h > support.length / 2.0:
            raise ConfigError(
                f"bandwidth {self.h} exceeds half the support length {support.length / 2.0}; "
                "boundary regions would overlap"
            )

    def pdf(self, x) -> float | np.ndarray:
        (out,) = _evaluate(self, x, cdf=False)
        return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))

    def cdf(self, x) -> float | np.ndarray:
        (out,) = _evaluate(self, x, pdf=False)
        return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))


def evaluate_grid(est: FittedEstimator, grid) -> np.ndarray:
    """Evaluate pdf and cdf on a sorted grid; returns an (m, 3) array (x, pdf, cdf)."""
    xs = np.asarray(grid, dtype=float).ravel()
    if xs.size == 0:
        return np.empty((0, 3))
    out = np.empty((xs.size, 3))
    out[:, 0] = xs
    out[:, 1], out[:, 2] = _evaluate(est, xs)
    return out


def _evaluate(est: FittedEstimator, x, pdf: bool = True, cdf: bool = True) -> list:
    """The estimator's pdf and/or cdf values at the points x, in that order."""
    xs = np.asarray(x, dtype=float).ravel()
    if est.kernel.name == "gaussian" and _boxes_exact(est):
        return [v for v, want in zip(_gauss_estimates(est, xs), (pdf, cdf)) if want]
    l, u = est.support.lower, est.support.upper
    return _window_estimates(est.kernel, est.method, est.sample.values, est.h, l, u, xs, pdf, cdf)


# ---------------------------------------------------------------------------
# Per-observation terms.  cdf_terms(e, x)[k, i] is the contribution of
# observation i at x[k]; the row mean is the estimator value.  For the
# corrected methods each term saturates to exactly 0 below the support and
# exactly 1 at/above the upper endpoint, which makes the multivariate
# marginalization identities exact.
# ---------------------------------------------------------------------------

#: Rows of the (m, n) term matrix evaluated at once, at most MEAN_CHUNK // n
#: (and at least 1).  A block's pieces are combined WINDOW_CHUNK terms at a
#: time, so evaluating m points holds the output and a few chunk-sized
#: temporaries, not m x n ones.  Blocks take the points in sorted order, so the
#: columns a block must evaluate stay close to those of a single point.
BLOCK_ROWS = 128


def cdf_terms(est: FittedEstimator, x: np.ndarray, data: np.ndarray | None = None) -> np.ndarray:
    """The (m, n) matrix of per-observation CDF terms at the points x.

    data defaults to the fitted sample; the joint estimator passes a raw
    column, the sample in observation order, so that the columns keep that
    order.
    """
    return _terms(est, x, data, pdf=False)


def pdf_terms(est: FittedEstimator, x: np.ndarray, data: np.ndarray | None = None) -> np.ndarray:
    """The (m, n) matrix of per-observation pdf terms at the points x; see `cdf_terms`."""
    return _terms(est, x, data, pdf=True)


def _sorting(v: np.ndarray) -> np.ndarray | None:
    """The stable argsort of v, or None when v is already sorted."""
    return None if np.all(v[:-1] <= v[1:]) else np.argsort(v, kind="stable")


def _terms(est: FittedEstimator, x: np.ndarray, data: np.ndarray | None, pdf: bool) -> np.ndarray:
    xs = np.asarray(x, dtype=float).ravel()
    # cols[j] is the column of sorted observation j; windows need sorted data
    data = est.sample.values if data is None else data
    cols = _sorting(data)
    if cols is not None:
        data = data[cols]
    out = np.empty((xs.size, data.size))
    step = min(BLOCK_ROWS, max(1, MEAN_CHUNK // max(1, data.size)))
    # unsorted points are filled in sorted order through one block buffer
    rows = _sorting(xs)
    if rows is not None:
        xs = xs[rows]
        buffer = np.empty((min(step, xs.size), data.size))
    for start in range(0, xs.size, step):
        span = slice(start, start + step)
        block = out[span] if rows is None else buffer[: xs[span].size]
        _fill_block(est, xs[span], data, cols, pdf, block)
        if rows is not None:
            out[rows[span]] = block
    return out


#: Terms per block of `cdf_terms`/`pdf_terms` rows (at least one row), and per
#: chunk of observations of the joint's tensor-grid term matrices.  Above
#: n = 2^20 / BLOCK_ROWS = 8192 a block has fewer than BLOCK_ROWS rows.
MEAN_CHUNK = 1 << 20


#: Entries per chunk of the window sums: window terms in `_piece_sums`, and
#: (candidate, observation) pairs in the LSCV's `bandwidth._window_pair_sums`;
#: also the terms per piece that a block of the term matrices combines at once.
#: Their working arrays of this length then stay in or near a 2-CPU x86_64
#: VM's 2 MB L2 cache.  With 2^14 entries a chunk against 2^16, a 4001-point
#: reflection `evaluate_grid` on beta(3,1) data took 4.3 against 6.7 ms at
#: n = 2000 (BENCH_window.json), and the 40-candidate Epanechnikov LSCV at
#: n = 2000 (8 candidates a chunk against 32) 17-23 against 27-35 ms
#: (BENCH_lscv_chunk.json).
WINDOW_CHUNK = 1 << 14


def _piece_table(method: str, h: float, l: float, u: float, x: np.ndarray, pdf: bool) -> tuple:
    """(on, pieces, scale, slope, const): how the terms at the points x are placed; x must be finite.

    on marks the points that carry kernel pieces: all (naive), [l, u]
    (reflection) or (l, u) (boundary kernel).  pieces holds each piece's
    points, per point or a scalar: x; for reflection x, 2l - x, 2u - l (the
    cdf's) and 2u - x.  scale and slope are s(x) and s'(x): h and 0, but for
    the boundary kernel x - l and +1 on (l, l+h) and u - x and -1 on
    [u-h, u), the latter winning should rounding make them overlap.  const
    is the term off `on`: 1 for the cdf above the support, else 0.
    """
    if not np.all(np.isfinite(x)):
        raise DataError("evaluation points must be finite")
    zero = np.zeros(x.shape)
    if method == NAIVE:
        return np.ones(x.shape, dtype=bool), (x,), h, 0.0, zero
    if method == REFLECTION:
        const = zero if pdf else np.where(x > u, 1.0, 0.0)
        return (x >= l) & (x <= u), _reflection_points(pdf, x, l, u), h, 0.0, const
    lh, uh = l + h, u - h
    left, right = (x > l) & (x < lh) & (x < uh), (x >= uh) & (x < u)
    on = left | right | ((x >= lh) & (x < uh))
    scale = np.where(left, x - l, np.where(right, u - x, h))
    slope = np.where(left, 1.0, np.where(right, -1.0, 0.0))
    return on, (x,), scale, slope, zero if pdf else np.where(x >= u, 1.0, 0.0)


def _table_rows(method: str, h: float, l: float, u: float, x: np.ndarray, pdf: bool) -> tuple:
    """(rows, points, scale, slope, const, combine): the `_piece_table` at its rows, indexed by rows.

    points lays the pieces end to end, a scalar piece as one entry; combine(v, pdf)
    sums values so laid out per row as the terms combine (`_reflection_sum`).
    """
    on, pieces, scale, slope, const = _piece_table(method, h, l, u, x, pdf)
    rows = slice(None) if on.all() else on.nonzero()[0]
    at = lambda v: v[rows] if np.ndim(v) else v  # noqa: E731
    pieces = [np.atleast_1d(at(p)) for p in pieces]
    ends = np.cumsum([p.size for p in pieces]).tolist()

    def combine(v: np.ndarray, pdf: bool) -> np.ndarray:
        v = [v[a:b] for a, b in zip([0] + ends, ends)]
        return v[0] if len(v) == 1 else _reflection_sum(pdf, lambda k: v[(0, 1, -1)[k] if pdf else k])

    points = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
    return rows, points, at(scale), at(slope), const, combine


def _window_estimates(
    kernel: KernelSpec, method: str, data: np.ndarray, h: float, l: float, u: float, x: np.ndarray,
    pdf: bool = True, cdf: bool = True,
) -> list:
    """The pdf and/or cdf at the points x, in that order, from exact counts and window sums.

    data is the sorted sample and [l, u] the support (naive ignores it).  A
    value sums the terms of its pieces (`_piece_table`): the naive point x;
    reflection's x, 2l - x, 2u - l and 2u - x (the pdf takes x, 2l - x and
    2u - x); the boundary kernel's x at its one scale.  Below its window
    [a, b) (`_reach`) a piece's cdf terms are exactly 1 and from b on exactly
    0, and its pdf terms are 0 outside, so a piece adds the exact count a
    (cdf only) and the sum of its b - a window terms (`_piece_sums`); no
    (m, n) block is formed.  Reflection combines the counts as integers,
    (a_0 - a_1) + (a_2 - a_3), and the window sums in `_reflection_sum`'s
    order.  At x = l the pieces x and 2l - x, and 2u - l and 2u - x, are the
    same arrays, so cdf(l) is exactly 0; at x = u, for a compact kernel with
    h <= (u - l)/2, the pieces x and 2u - x are, 2l - x counts 0 and 2u - l
    counts n, so cdf(u) is exactly 1.  The cdf is clipped to [0, 1].  A
    point's value does not depend on the other points evaluated with it.

    Tolerance: every term is bit for bit the one `cdf_terms`/`pdf_terms` form,
    and each value is within (k + 5) eps M of the exact mean of the rounded
    full-width terms, k the number of window terms summed for the point over
    its pieces and M the mean over the observations of the sum of the
    pieces' |terms| (the row's mean |term| for naive and the boundary kernel).
    Each window sum of k_p terms is within (k_p - 1) eps/2 of the sum of its
    magnitudes; combining the pieces, adding the count and dividing by n
    round five times at most, and a full-width row rounds its terms' three
    combinations once each.
    """
    n = data.size
    rows, points, scale, slope, cdf_out, combine = _table_rows(method, h, l, u, x, not cdf)
    counts, pdf_sums, cdf_sums = _piece_sums(kernel, data, points, scale, slope, pdf, cdf)
    out = []
    if pdf:
        pdf_out = np.zeros(x.size)
        pdf_out[rows] = combine(pdf_sums, True) / n
        out.append(pdf_out)
    if cdf:
        cdf_out[rows] = np.minimum(np.maximum((combine(counts, False) + combine(cdf_sums, False)) / n, 0.0), 1.0)
        out.append(cdf_out)
    return out


def _piece_sums(kernel: KernelSpec, data: np.ndarray, p: np.ndarray, scale, slope, pdf: bool, cdf: bool) -> tuple:
    """(a, pdf sums, cdf sums) of the pieces p with their scales and slopes (scalars or one per piece).

    a is each piece's `_reach` window start, the count of its cdf terms that
    are exactly 1; the sums are those of its `_scaled_terms` over its window,
    None where not asked for.  The windows are laid end to end in one ragged
    array of about WINDOW_CHUNK entries at a time (or one window) and summed
    per piece by reduceat.  A window's cdf terms at z >= the kernel's
    `cdf_one` are exactly 1 as well: they are written, not evaluated.
    """
    a, b = _reach(data, p, scale, kernel.saturation)
    # a cdf without the pdf evaluates the terms from column `first` on, those at z < cdf_one
    skipping = cdf and not pdf and kernel.cdf_one < kernel.saturation
    first = _reach(data, p, scale, kernel.cdf_one)[0] if skipping else a
    sizes = b - a
    pdf_sums, cdf_sums = (np.zeros(p.size) if want else None for want in (pdf, cdf))
    filled = sizes.nonzero()[0]
    for i, j in _chunks(sizes[filled], WINDOW_CHUNK):
        k = filled[i:j]
        size = sizes[k]
        count = b[k] - first[k] if skipping else size
        starts = size.cumsum() - size

        def spread(v):
            return v[k].repeat(count) if isinstance(v, np.ndarray) else v

        args = spread(p), data[_ranges(first[k], count)], spread(scale), spread(slope)
        if pdf:
            pdf_sums[k] = np.add.reduceat(_scaled_terms(kernel, True, *args), starts)
        if cdf:
            terms = _scaled_terms(kernel, False, *args)
            if skipping:
                terms, evaluated = np.ones(starts[-1] + size[-1]), terms
                terms[_ranges(starts + size - count, count)] = evaluated
            cdf_sums[k] = np.add.reduceat(terms, starts)
    return a, pdf_sums, cdf_sums


def _fill_block(
    est: FittedEstimator, x: np.ndarray, data: np.ndarray, cols: np.ndarray | None, pdf: bool, out: np.ndarray
) -> None:
    """Write the terms at the sorted points x into out, one row per point.

    data is the sorted sample, and sorted observation j belongs in column
    cols[j] of out (column j when cols is None).  Each piece is evaluated on
    the dense slice [min a, max b) of its points' `_reach` windows, and is
    the saturated constant before it (1 for the cdf, 0 for the pdf) and 0
    after it.  The pieces combine as in `_reflection_sum`, WINDOW_CHUNK terms
    at a time between the first and last slice and as one row elsewhere.
    """
    kernel, n = est.kernel, data.size
    on, pieces, scale, slope, const = _piece_table(est.method, est.h, est.support.lower, est.support.upper, x, pdf)
    # the points that carry pieces are consecutive among the sorted x: those in
    # [l, u] or (l, u), or in the boundary kernel's three regions, which join
    i, j = (on.argmax(), on.size - on[::-1].argmax()) if on.any() else (0, 0)
    out[:i], out[j:] = const[:i, None], const[j:, None]
    if i == j:
        return
    at = lambda v: v[i:j, None] if np.ndim(v) else v  # noqa: E731
    pieces, scale, slope = [at(p) for p in pieces], at(scale), at(slope)
    slices = [(np.min(a), np.max(b)) for a, b in (_reach(data, p, scale, kernel.saturation) for p in pieces)]
    filled = [(a, b) for a, b in slices if a < b]
    lo, hi = (min(a for a, _ in filled), max(b for _, b in filled)) if filled else (n, n)
    below = 0.0 if pdf else 1.0

    def term(k: int, c: int, e: int):
        # piece k's terms on the columns [c, e): a constant or one row of them where its slice misses them
        p, (a, b) = pieces[k], (min(max(v, c), e) for v in slices[k])
        if a == b:
            return below if a == e else 0.0 if a == c else np.where(np.arange(c, e) < a, below, 0.0)
        terms = _scaled_terms(kernel, pdf, p, data[a:b], scale, slope)
        if (a, b) == (c, e):
            return terms
        t = np.empty(terms.shape[:-1] + (e - c,))
        t[..., : a - c], t[..., a - c : b - c], t[..., b - c :] = below, terms, 0.0
        return t

    cuts = sorted({0, hi, n}.union(range(lo, hi, max(1, WINDOW_CHUNK // (j - i)))))
    for c, e in zip(cuts, cuts[1:]):
        value = term(0, c, e) if len(pieces) == 1 else _reflection_sum(pdf, lambda k: term(k, c, e))
        out[i:j, slice(c, e) if cols is None else cols[c:e]] = value


def _reach(data: np.ndarray, p, scale, radius: float) -> tuple:
    """Per element of p and scale, the columns [a, b) of the sorted data outside which |z| >= radius.

    For j < a, z = (p - X_j)/scale >= radius, and for j >= b, z <= -radius; at
    the kernel's saturation radius K(z) = 0 and W(z) is exactly 1 or 0 there.
    Proof: the threshold below p - reach (reach >= radius*scale) is strictly
    less than the exact p - reach, so X_j at or below it makes p - X_j > reach,
    and rounding the difference and the quotient keeps z >= radius.  The upper
    side is the mirror image.  At one scale, a and b do not decrease as p grows.
    """
    reach = np.nextafter(radius * scale, np.inf)
    a = data.searchsorted(np.nextafter(p - reach, -np.inf), "right")
    b = data.searchsorted(np.nextafter(p + reach, np.inf), "left")
    return a, b


def _scaled_terms(
    kernel: KernelSpec, pdf: bool, x, data: np.ndarray, scale, slope: float = 0.0
) -> np.ndarray:
    """W(z), or its x-derivative K(z)(1 - slope*z)/scale, at z = (x - X_i)/scale.

    scale is s(x) and slope is ds/dx: s = h with slope 0 is the naive term.
    slope may also be an array of one value per element or per row; the
    factor is formed only where it is nonzero, and elsewhere leaves K(z)/scale.
    """
    # A subnormal scale can overflow z, or z*z inside K, for far observations.
    # That z lies beyond the saturation radius, where W is exactly 0 or 1, K is
    # 0 and the slope term clips z, so the overflow changes no value.
    with np.errstate(over="ignore"):
        z = (x - data) / scale
        if not pdf:
            return kernel.cdf(z)
        k = kernel.pdf(z)
    # K(z) = 0 beyond the saturation radius, where z may be infinite near an
    # endpoint; clipping z there keeps 0 * inf from making NaN
    r = kernel.saturation
    if isinstance(slope, np.ndarray):
        on = np.flatnonzero(slope.any(axis=tuple(range(1, slope.ndim))))
        k[on] *= 1.0 - slope[on] * np.clip(z[on], -r, r)
    elif slope:
        k = k * (1.0 - slope * np.clip(z, -r, r))
    return k / scale


def _reflection_points(pdf: bool, x, l: float, u: float) -> tuple:
    """The points whose naive terms `_reflection_sum` combines: x, 2l - x, (2u - l,) 2u - x."""
    if pdf:
        return x, 2.0 * l - x, 2.0 * u - x
    return x, 2.0 * l - x, 2.0 * u - l, 2.0 * u - x


def _reflection_sum(pdf: bool, term) -> np.ndarray:
    """Reflection terms from term(k), the naive terms at the k-th of `_reflection_points`.

    The terms are asked for in the order they are summed, so at most two
    are held at once.
    """
    if pdf:
        return term(0) + term(1) + term(2)
    # Grouping (W(x) - W(2l - x)) + (W(2u - l) - W(2u - x)) per observation
    # cancels bitwise at x = l (fl(2l - l) == l, and 2u - l is shared) and
    # saturates to exactly 1 at x = u for a compact kernel with h <= u - l.
    return (term(0) - term(1)) + (term(2) - term(3))


# ---------------------------------------------------------------------------
# The Gaussian kernel's sums by a fast Gauss transform: box moments of the
# sorted sample and Taylor (Hermite) expansions about boxes of targets.  The
# bandwidth module's LSCV pair sums use the same box moments and recurrence.
# ---------------------------------------------------------------------------

#: Every Gaussian term the expansions form is within EXPANSION_TOL of its exact
#: value; _WIDEST[p] is the widest box, in units of the Gaussian's sigma, whose
#: p-term Taylor remainder stays within it by Cramér's bound (see `_gauss_sums`).
EXPANSION_TOL = 1e-15
_WIDEST = np.array([0.0] + [sqrt(0.5) * exp((log(EXPANSION_TOL / 1.09) + lgamma(p + 1) / 2) / p) for p in range(1, 64)])

#: Gaussian cdf values, and pdf values times h, are within EVAL_TOL of their exact
#: values: each of at most four sums per point holds terms within EXPANSION_TOL +
#: 2.6 eps (the coordinates' rounding and libm's erfc; 6.3e-15 in all), and the rest
#: covers the rounding of the sums (measured below 1e-15 against full-width means).
EVAL_TOL = 1e-14

#: Float64 entries per working array of the chunked computations: the transform's
#: terms x box pairs here, and the Gaussian LSCV's gathered box moments in `bandwidth`.
CHUNK = 1 << 16

#: Multiply-adds of one BLAS product, here and in `joint`'s tensor grids.
#: OpenBLAS runs (8 x 128) (128 x 201) and (16 x 80) (80 x 201) on the calling
#: thread but (8 x 400) (400 x 201) on two, and on a 2-CPU VM its second thread
#: made such products 10-100x slower at times (a (64 x 2000) (2000 x 201)
#: product took 1 to 21 ms).
GEMM_MNK = 1 << 18

#: Box indices below 2^61 in magnitude are exact integers, and so is every sum or
#: difference of them the transform forms.
_KEY_LIMIT = 2.0 ** 61


def _box_moments(y: np.ndarray, s, sigma, terms: int) -> tuple:
    """Boxes [k s, (k + 1) s) of the sorted, nonempty y and their moments sum u^a / a!, a < terms.

    s is a power of 2, so y - k s is exact and u = (y - (k + 1/2) s)/sigma is
    rounded once.  Returns each nonempty box's k and its moments.
    """
    box = np.floor(y / s)
    u = y - box * s
    u -= 0.5 * s
    u /= sigma
    starts = np.r_[0, np.flatnonzero(box[1:] != box[:-1]) + 1]
    moments = np.empty((starts.size, terms))
    power = np.ones(u.size)
    for a in range(terms):
        moments[:, a] = np.add.reduceat(power, starts) / factorial(a)
        power *= u
    return box[starts], moments


def _hermite(D: np.ndarray, count: int) -> np.ndarray:
    """herm[m] = H_m(D) exp(-D^2) = (-1)^m (d/dD)^m exp(-D^2) for m < count.

    By the recurrence H_(m+1) = 2 D H_m - 2 m H_(m-1).
    """
    herm = np.zeros((count,) + D.shape)
    herm[0] = np.exp(-D * D)
    for m in range(count - 1):
        herm[m + 1] = 2.0 * (D * herm[m] - m * herm[m - 1])  # herm[-1] is 0 at m = 0
    return herm


def _gauss_E(D: np.ndarray) -> np.ndarray:
    """E(D) = erfc(-D)/2 at the few offsets D of `_gauss_sums`, each by libm's erfc (`math.erfc`)."""
    return 0.5 * np.array([erfc(-d) for d in D])


def _box_width(h):
    """The largest power of 2 at most h (elementwise)."""
    return np.ldexp(1.0, np.frexp(h)[1] - 1)


def _boxes_exact(est: FittedEstimator) -> bool:
    """Whether the transform's box indices of the sample are exact: |X_i| < 2^61 s and sqrt(2) h finite.

    Otherwise (a bandwidth below about 1e-18 of the data's magnitude, or
    above 1.2e308) the Gaussian is evaluated by its windowed terms.
    """
    return max(-est.sample.min, est.sample.max) < _KEY_LIMIT * _box_width(est.h) and sqrt(2.0) * est.h < np.inf


def _chunks(cost: np.ndarray, cap: float):
    """Yield (i, j) over consecutive runs of items whose costs sum to at most cap, or of one item."""
    ends, i = np.cumsum(cost), 0
    while i < cost.size:
        j = max(i + 1, int(ends.searchsorted(ends[i] - cost[i] + cap, "right")))
        yield i, j
        i = j


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenation of arange(a, a + k) over a in starts and k in lengths."""
    offsets = np.repeat(np.cumsum(lengths) - lengths - starts, lengths)
    return np.arange(offsets.size) - offsets


def _gauss_estimates(est: FittedEstimator, x: np.ndarray) -> tuple:
    """The Gaussian naive or reflection (pdf, cdf) at the points x, from `_gauss_sums`.

    Reflection transforms x, 2l - x, 2u - l and 2u - x in one call, and sums
    (F(x) - F(2l - x)) + (F(2u - l) - F(2u - x)); a target's sums depend on the
    target alone, so at x = l both differences are exactly 0.  The pdf is
    clipped at 0 and the cdf to [0, 1].
    """
    data, h, n = est.sample.values, est.h, est.sample.n
    rows, points, _, _, cdf, combine = _table_rows(est.method, h, est.support.lower, est.support.upper, x, False)
    phi, Phi = _gauss_sums(data, h, points)
    pdf = np.zeros(x.size)
    pdf[rows] = np.maximum(combine(phi, True) / (n * h), 0.0)
    cdf[rows] = np.clip(combine(Phi, False) / n, 0.0, 1.0)
    return pdf, cdf


def _gauss_sums(data: np.ndarray, h: float, t: np.ndarray) -> tuple:
    """Sums of phi(z) and of Phi(z), z = (t_k - X_i)/h, over the sorted data at each point t_k.

    In v = z/sqrt(2) = (t - X)/sigma, sigma = sqrt(2) h, Phi(z) = E(v) with
    E(v) = erfc(-v)/2 and E^(m)(v) = (-1)^(m-1) H_(m-1)(v) exp(-v^2)/sqrt(pi),
    and phi(z) = E'(v)/sqrt(2).  The data and the targets fall into boxes
    [k s, (k + 1) s), s the largest power of 2 at most h; for a target in box
    k + d and a source in box k, v = D + u_t - u_s with D = d w, w = s/sigma,
    and |u_t - u_s| < w.  Taylor-expanding E about D, each source box adds
    sum_(a+c<=p) (-1)^a M_a E^(a+c)(D) u_t^c / c! over its moments
    M_a = sum u_s^a / a!, and each target reads its box's coefficients by
    Horner; phi takes the same coefficients shifted by one, the derivative.
    Error bound: by Cramér's inequality |H_m(x)| exp(-x^2/2) <= 1.09 2^(m/2)
    sqrt(m!), the remainders are at most 1.09 (sqrt(2) w)^p / sqrt(p!) times
    1/sqrt(2 pi) (phi) and w / (sqrt(pi) (p + 1)) (Phi), and p is the least
    count keeping that factor within EXPANSION_TOL.  Source boxes more than R
    boxes from a target hold points more than R w away, R the least with
    exp(-(R w)^2) <= EXPANSION_TOL: they add 0 to phi and their exact count
    (below the target) or 0 (above) to Phi.  So every term is within
    EXPANSION_TOL of its value at the rounded coordinates.  Those are exact
    but for sigma, u and D = d w, each rounded once or twice:
    |dv| <= 2 eps (|v| + w), which moves a phi or Phi term by at most 1.1 eps.
    E(D) itself is libm's erfc (`math.erfc`), one value at each of the 2R + 1
    offsets D: within 3 ulp of erfc(-D) < 2 against `mpmath` on [-6, 6], so
    within 1.5 eps of E(D), which adds at most 1.5 eps to a Phi term; the
    derivatives are exp and the Hermite recurrence.
    Box indices are exact integers (`_boxes_exact`); targets beyond 2^62
    boxes are clipped there, which keeps them out of every source box's reach.

    Each target box's coefficients add its source boxes in increasing order,
    elementwise in every array, so a target's sums do not depend on the other
    targets; the working arrays hold about CHUNK entries at a time.
    """
    s, sigma = _box_width(h), sqrt(2.0) * h
    w = s / sigma
    p, reach = int(np.searchsorted(_WIDEST, w)), ceil(sqrt(-log(EXPANSION_TOL)) / w)
    keys = np.floor(data / s)
    first = np.flatnonzero(np.diff(keys, prepend=np.nan) != 0)
    keys, first = keys[first].astype(np.int64), np.append(first, data.size)
    with np.errstate(over="ignore"):
        kt = np.floor(np.clip(t / s, -2.0 * _KEY_LIMIT, 2.0 * _KEY_LIMIT))
    boxes, inv = np.unique(kt.astype(np.int64), return_inverse=True)
    lo, hi = keys.searchsorted(boxes - reach, "left"), keys.searchsorted(boxes + reach, "right")
    # deriv[m, d + R] = E^(m)(d w), m <= p
    D = np.arange(-reach, reach + 1) * w
    deriv = np.concatenate([_gauss_E(D)[None], _hermite(D, p) * ((-1.0) ** np.arange(p) / sqrt(pi))[:, None]])
    # each target box's source boxes lo..hi-1 in increasing order, chunked by pairs
    pairs = hi - lo
    coef = np.zeros((p + 1, boxes.size))
    for start, stop in _chunks(pairs, CHUNK // (p + 1)):
        T = np.arange(start, stop)[pairs[start:stop] > 0]
        if not T.size:
            continue
        src = _ranges(lo[T], pairs[T])
        need = np.unique(src)
        _, moments = _box_moments(data[_ranges(first[need], first[need + 1] - first[need])], s, sigma, p + 1)
        signed = (moments * (-1.0) ** np.arange(p + 1)).T[:, need.searchsorted(src)]
        deriv_d = deriv[:, np.repeat(boxes[T], pairs[T]) - keys[src] + reach]
        # terms[c, k] = sum over a <= p - c of (-1)^a M_a E^(a+c)(D) for pair k
        terms = np.zeros((p + 1, src.size))
        for a in range(p + 1):
            terms[: p + 1 - a] += signed[a] * deriv_d[a:]
        coef[:, T] = np.add.reduceat(terms, np.cumsum(pairs[T]) - pairs[T], axis=1)
    has = hi[inv] > lo[inv]
    ut = np.zeros(t.size)
    ut[has] = (t[has] - kt[has] * s - 0.5 * s) / sigma  # t - k s is exact
    cdf = pdf = coef[p][inv]
    for c in range(p - 1, -1, -1):
        col = coef[c][inv]
        cdf = col + cdf * (ut / (c + 1))
        if c:
            pdf = col + pdf * (ut / c)
    return pdf / sqrt(2.0), first[lo][inv] + cdf
