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
#: holds the output and a few block-sized temporaries, not m x n ones.
BLOCK_ROWS = 128


def cdf_terms(est: FittedEstimator, x: np.ndarray, data: np.ndarray | None = None) -> np.ndarray:
    """The (m, n) matrix of per-observation CDF terms at the points x.

    data defaults to the fitted sample; the joint estimator passes a raw
    column so that the columns keep its observation order.
    """
    return _terms(est, x, data, pdf=False)


def pdf_terms(est: FittedEstimator, x: np.ndarray, data: np.ndarray | None = None) -> np.ndarray:
    """The (m, n) matrix of per-observation pdf terms at the points x; see `cdf_terms`."""
    return _terms(est, x, data, pdf=True)


def _terms(est: FittedEstimator, x: np.ndarray, data: np.ndarray | None, pdf: bool) -> np.ndarray:
    xs = np.asarray(x, dtype=float).ravel()
    if not np.all(np.isfinite(xs)):
        raise DataError("evaluation points must be finite")
    data = est.sample.values if data is None else data
    out = np.empty((xs.size, data.size))
    for start in range(0, xs.size, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        _fill_block(est, xs[rows], data, pdf, out[rows])
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


def _fill_block(est: FittedEstimator, x: np.ndarray, data: np.ndarray, pdf: bool, out: np.ndarray) -> None:
    kernel, h = est.kernel, est.h
    if est.method == NAIVE:
        out[:] = _scaled_terms(kernel, pdf, x[:, None], data, h)
        return
    l, u = est.support.lower, est.support.upper
    # outside the support the pdf terms are 0 and the cdf terms 0 below, 1 above
    out[:] = 0.0 if pdf else (x >= u)[:, None]
    if est.method == REFLECTION:
        rows = (x >= l) & (x <= u)
        if rows.any():
            out[rows] = _reflection_terms(kernel, pdf, x[rows, None], data, h, l, u)
        return
    # boundary kernel: scale x - l, h and u - x on its three pieces; x == l and
    # x == u keep the outside values, which are the limits of the adjacent
    # pieces for observations strictly inside the support
    for rows, scale, slope in (
        ((x > l) & (x < l + h), x - l, 1.0),
        ((x >= l + h) & (x < u - h), np.full_like(x, h), 0.0),
        ((x >= u - h) & (x < u), u - x, -1.0),
    ):
        if rows.any():
            out[rows] = _scaled_terms(kernel, pdf, x[rows, None], data, scale[rows, None], slope)


def _scaled_terms(
    kernel: KernelSpec, pdf: bool, x, data: np.ndarray, scale, slope: float = 0.0
) -> np.ndarray:
    """W(z), or its x-derivative K(z)(1 - slope*z)/scale, at z = (x - X_i)/scale.

    scale is s(x) and slope is ds/dx: s = h with slope 0 is the naive term.
    """
    z = (x - data) / scale
    if not pdf:
        return kernel.cdf(z)
    k = kernel.pdf(z)
    if slope:
        k = k * (1.0 - slope * z)
    return k / scale


def _reflection_terms(
    kernel: KernelSpec, pdf: bool, x, data: np.ndarray, h: float, l: float, u: float
) -> np.ndarray:
    """Reflection terms for x in [l, u]: naive terms at x and its mirrors 2l - x, 2u - x."""

    def naive(p):
        return _scaled_terms(kernel, pdf, p, data, h)

    if pdf:
        return naive(x) + naive(2.0 * l - x) + naive(2.0 * u - x)
    # Grouping (W(x) - W(2l - x)) + (W(2u - l) - W(2u - x)) per observation
    # cancels bitwise at x = l (fl(2l - l) == l, and 2u - l is shared) and
    # saturates to exactly 1 at x = u for a compact kernel with h <= u - l.
    return (naive(x) - naive(2.0 * l - x)) + (naive(2.0 * u - l) - naive(2.0 * u - x))
