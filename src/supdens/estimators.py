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
pure and thread-safe.  The per-observation term functions (`cdf_terms`,
`pdf_terms`) return the (m, n) matrices whose row means are cdf/pdf values,
filled in blocks of `BLOCK_ROWS` points.  `pdf`, `cdf`, `evaluate_grid` and
the multivariate product-form estimator all reduce through `_row_means`,
which takes the row means of one chunk of about 2^20 terms at a time, so no
caller holds the whole matrix.

A term is saturated (K = 0, and W exactly 0 or 1) wherever |x - X_i| >=
s(x) times the kernel's saturation radius: the support radius of a compact
kernel, and for the Gaussian the point (39) beyond which its float64 values
underflow to exactly 0 or round to exactly 1.  Blocks take the points in
sorted order, and each piece of a term (the naive point x, each reflection
mirror, each boundary-kernel scale) evaluates the kernel only on the sorted
columns that `searchsorted` finds in reach of the block; every other column
gets the saturated constant.  Evaluating m points then costs the kernel
evaluations of the pairs in reach plus an O(m n) fill and row mean, and
every term is bit for bit the one the kernel gives.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    kernel also needs a compact kernel.  Immutable; pdf/cdf evaluation is safe
    from any number of threads.
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
        out = _term_means(pdf_terms, self, x)
        return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out

    def cdf(self, x) -> float | np.ndarray:
        out = _term_means(cdf_terms, self, x)
        return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out


def evaluate_grid(est: FittedEstimator, grid) -> np.ndarray:
    """Evaluate pdf and cdf on a sorted grid; returns an (m, 3) array (x, pdf, cdf)."""
    xs = np.asarray(grid, dtype=float).ravel()
    if xs.size == 0:
        return np.empty((0, 3))
    out = np.empty((xs.size, 3))
    out[:, 0] = xs
    out[:, 1] = _term_means(pdf_terms, est, xs)
    out[:, 2] = _term_means(cdf_terms, est, xs)
    return out


# ---------------------------------------------------------------------------
# Per-observation terms.  cdf_terms(e, x)[k, i] is the contribution of
# observation i at x[k]; the row mean is the estimator value.  For the
# corrected methods each term saturates to exactly 0 below the support and
# exactly 1 at/above the upper endpoint, which makes the multivariate
# marginalization identities exact.
# ---------------------------------------------------------------------------

#: Rows of the (m, n) term matrix evaluated at once.  Each piece of a block is
#: computed into a temporary of at most BLOCK_ROWS x n, so evaluating m points
#: holds the output and a few block-sized temporaries, not m x n ones.  Blocks
#: take the points in sorted order, so the columns a block must evaluate stay
#: close to those of a single point.
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
    if not np.all(np.isfinite(xs)):
        raise DataError("evaluation points must be finite")
    # cols[j] is the column of sorted observation j; windows need sorted data
    cols = None
    if data is None:
        data = est.sample.values
    else:
        cols = _sorting(data)
        if cols is not None:
            data = data[cols]
    out = np.empty((xs.size, data.size))
    # unsorted points are filled in sorted order through one block buffer
    rows = _sorting(xs)
    if rows is not None:
        xs = xs[rows]
        buffer = np.empty((min(BLOCK_ROWS, xs.size), data.size))
    for start in range(0, xs.size, BLOCK_ROWS):
        span = slice(start, start + BLOCK_ROWS)
        block = out[span] if rows is None else buffer[: xs[span].size]
        _fill_block(est, xs[span], data, cols, pdf, block)
        if rows is not None:
            out[rows[span]] = block
    return out


#: Terms per chunk of rows that `_row_means` reduces at once.  A chunk of
#: 2^20 terms (8 MB) lets glibc's allocator keep the block temporaries in its
#: heap.  With BLOCK_ROWS-row chunks it returned them to the system after each
#: block: a 4001-point eval at n = 2000 took 46k page faults and 1.8x the time
#: of one whole-matrix eval.
MEAN_CHUNK = 1 << 20


def _row_means(block, m: int, n: int) -> np.ndarray:
    """Row means of an (m, n) term matrix, one chunk of MEAN_CHUNK terms at a time.

    block(rows) returns the matrix's rows for a slice of row indices.  Only one
    chunk exists at once, and each mean is the whole matrix's row mean bit for bit.
    """
    out = np.empty(m)
    step = max(BLOCK_ROWS, MEAN_CHUNK // n)
    for start in range(0, m, step):
        rows = slice(start, start + step)
        out[rows] = block(rows).mean(axis=1)
    return out


def _term_means(terms, est: FittedEstimator, x) -> np.ndarray:
    """Row means of terms(est, x): the estimator's values at the points x."""
    xs = np.asarray(x, dtype=float).ravel()
    return _row_means(lambda rows: terms(est, xs[rows]), xs.size, est.sample.n)


def _fill_block(
    est: FittedEstimator, x: np.ndarray, data: np.ndarray, cols: np.ndarray | None, pdf: bool, out: np.ndarray
) -> None:
    """Write the terms at the sorted points x into out, one row per point.

    data is the sorted sample, and sorted observation j belongs in column
    cols[j] of out (column j when cols is None).
    """
    kernel, h, n = est.kernel, est.h, data.size
    if cols is not None:
        out[:] = 0.0  # so that zero segments need no scattered write

    def put(rows: slice, value, start: int = 0, stop: int = n) -> None:
        # value is a float constant or an array of terms
        constant = isinstance(value, float)
        if cols is None or (constant and stop - start == n):
            out[rows, start:stop] = value
        elif not constant or value != 0.0:
            out[rows, cols[start:stop]] = value

    def evaluate(rows: slice, pieces, combine=lambda term: term(0)) -> None:
        if np.size(pieces[0][0]):
            for start, stop, term in _segments(kernel, pdf, data, pieces):
                put(rows, combine(term), start, stop)

    if est.method == NAIVE:
        evaluate(slice(None), [(x, h, 0.0)])
        return
    l, u = est.support.lower, est.support.upper
    # outside the support the pdf terms are 0 and the cdf terms 0 below, 1 above
    above = 0.0 if pdf else 1.0
    if est.method == REFLECTION:
        inside = slice(x.searchsorted(l, "left"), x.searchsorted(u, "right"))
        put(slice(0, inside.start), 0.0)
        put(slice(inside.stop, None), above)
        points = _reflection_points(pdf, x[inside], l, u)
        evaluate(inside, [(p, h, 0.0) for p in points], lambda term: _reflection_sum(pdf, term))
        return
    # boundary kernel: scale x - l, h and u - x on (l, l+h), [l+h, u-h) and
    # [u-h, u); x == l and x == u keep the outside values, which are the
    # limits of the adjacent pieces for observations strictly inside the
    # support.  Should rounding make the pieces overlap, the later one wins.
    i0, i3 = x.searchsorted(l, "right"), x.searchsorted(u, "left")
    i1, i2 = x.searchsorted([l + h, u - h], "left")
    put(slice(0, min(i0, i2)), 0.0)
    put(slice(i3, None), above)
    for rows, scale, slope in (
        (slice(i0, min(i1, i2)), lambda v: v - l, 1.0),
        (slice(i1, i2), lambda v: h, 0.0),
        (slice(i2, i3), lambda v: u - v, -1.0),
    ):
        evaluate(rows, [(x[rows], scale(x[rows]), slope)])


def _segments(kernel: KernelSpec, pdf: bool, data: np.ndarray, pieces):
    """Yield (start, stop, term) over runs of columns that cover all n.

    pieces are (p, scale, slope) triples, p and scale scalars or one value
    per row; term(k) is piece k's `_scaled_terms` on the columns
    [start, stop), computed when asked for.  The kernel is evaluated only
    inside each piece's window (see `_window`); elsewhere a piece's terms are
    the constants the kernel saturates to, 0 for the pdf and 1 or 0 for the
    cdf.
    """
    n = data.size
    spans = [_window(data, p, scale, kernel.saturation) for p, scale, _ in pieces]
    cuts = sorted({0, n}.union(*spans))
    for start, stop in zip(cuts, cuts[1:]):

        def term(k: int, start=start, stop=stop):
            (p, scale, slope), (a, b) = pieces[k], spans[k]
            if a <= start and stop <= b:
                return _scaled_terms(kernel, pdf, _column(p), data[start:stop], _column(scale), slope)
            return 0.0 if pdf or start >= b else 1.0

        yield start, stop, term


def _column(v):
    return v[:, None] if isinstance(v, np.ndarray) else v


def _window(data: np.ndarray, p, scale, radius: float) -> tuple:
    """Columns [a, b) of the sorted data outside which every row's z saturates: the union of `_reaches`."""
    a, b = _reaches(data, p, scale, radius)
    return int(a.min()), int(b.max())


def _reaches(data: np.ndarray, p, scale, radius: float) -> tuple:
    """Per element of p and scale, columns [a, b) of the sorted data outside which |z| >= radius.

    For j < a, z = (p - X_j)/scale >= radius, and for j >= b, z <= -radius.
    At the kernel's saturation radius K(z) = 0 and W(z) is exactly 1 or 0
    there; at twice it K*K(z) = 0.  Proof: the threshold below p - reach
    (reach >= radius*scale) is strictly less than the exact p - reach, so
    X_j at or below it makes p - X_j > reach, and rounding the difference
    and the quotient keeps z >= radius.  The upper side is the mirror image.
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
    """
    # A subnormal scale can overflow z, or z*z inside K, for far observations.
    # That z lies beyond the saturation radius, where W is exactly 0 or 1, K is
    # 0 and the slope term clips z, so the overflow changes no value.
    with np.errstate(over="ignore"):
        z = (x - data) / scale
        if not pdf:
            return kernel.cdf(z)
        k = kernel.pdf(z)
    if slope:
        # K(z) = 0 beyond the saturation radius, where z may be infinite near
        # an endpoint; clipping z there keeps 0 * inf from making NaN
        r = kernel.saturation
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


def _reflection_terms(
    kernel: KernelSpec, pdf: bool, x, data: np.ndarray, h: float, l: float, u: float
) -> np.ndarray:
    """Reflection terms for x in [l, u], evaluated on every column: naive terms at x and its mirrors."""
    points = _reflection_points(pdf, x, l, u)
    return _reflection_sum(pdf, lambda k: _scaled_terms(kernel, pdf, points[k], data, h))
