"""Joint density/CDF estimation on an unknown hyper-rectangle.

Each coordinate is fitted by the univariate pipeline (boundary-corrected
estimator plus endpoint solving), and the marginals are combined through the
product form

    cdf(x) = (1/n) sum_i prod_j Wterm_j(x_j, X_{j,i}),
    pdf(x) = (1/n) sum_i prod_j wterm_j(x_j, X_{j,i}),

where Wterm_j / wterm_j are the per-observation CDF/PDF kernel terms of the
chosen corrected marginal method on its resolved interval.  Because each
per-observation CDF term saturates to exactly 1 at the coordinate's upper
endpoint (and 0 below the lower one), sending all coordinates but one above
their endpoints reproduces the remaining marginal, and the joint CDF hits 1
at the estimated upper corner.

Neither evaluation path forms the (points, observations) product.  Each
coordinate's terms are placed by `estimators._piece_table`.  Outside its
kernel windows (`estimators._reach`) a term is exactly 0 or exactly 1, and
`fit_joint` sorts each coordinate once: `order[j]` lists the
observations by coordinate j and `ranks[j]` holds each one's place in it,
at which marginal j's sorted sample holds its value (up to the sign of a zero).

Scattered points.  At a point, coordinate j's ranks fall into a run
[lo_j, hi_j) whose cdf terms are exactly 1 (empty for the pdf), the spans
that its pieces' windows cover, and the rest, whose terms are exactly 0
(`_Layout`).  The cdf is (C + S)/n.  C is the exact count of the
observations in every coordinate's run.  S sums the products over the
candidates: the observations in some coordinate's span and in no
coordinate's zero group, each taken at the first coordinate whose span
holds it.  A candidate's factor is evaluated only in the coordinates whose
span holds it; in every other coordinate it is exactly 1.  The pdf sums
the candidates of coordinate 0's spans that lie in every other
coordinate's span.  The kernel is thus evaluated only at pairs in some
window, and the count compares the ranks of the observations in coordinate
0's runs, at most m n d integer comparisons.  Points go in chunks of about
CHUNK candidates and run ranks, and a chunk's runs are counted in boxes of
at most CHUNK (point, rank) pairs or one point's run, so the working arrays
stay near CHUNK entries however the points' runs and spans lie.  Points of
a chunk that share one span (a window as wide as the sample, as the
Gaussian's often is) form a (points, ranks) block, whose terms broadcast
from the points' column.

Tensor grids.  With T_j = terms(axis_j, X_j), the per-axis (m_j, n) term
matrices, the grid is the Khatri-Rao product of T_0 ... T_(d-2), formed
GRID_ROWS rows at a time, times T_(d-1) transposed, for every d.  The
products are split over the observations into BLAS calls of at most
GEMM_MNK multiply-adds, and the matrices are built for about
MEAN_CHUNK / sum(m_j) observations at a time.

Accuracy.  Every term, and every product of factors formed elementwise, is
bit for bit the one `cdf_terms`/`pdf_terms` give; the grid's last factor is
multiplied inside the BLAS product.  Only the order of the sum over the
observations changes: each value is within (k + 2) eps times the mean
|term| of its row of the exact mean, k the number of nonzero products in
the row.  (A sum of k nonzero terms in any order is within (k - 1) eps/2
times the sum of their magnitudes; adding the count and dividing by n round
once each.)  The count is exact and every exact 0 and 1 is kept, so the cdf
is exactly 1 with every coordinate above its upper endpoint (or at it,
where each term there is exactly 1, as with a compact kernel) and exactly 0
with a coordinate below its lower endpoint (for reflection, at it).  A
point's value does not depend on the other points evaluated with it.
On a 2-CPU x86_64 VM, the Epanechnikov reflection estimator at 2000
scattered points takes 0.07 s per pdf and 0.20 s per cdf at n = 10^4,
where the product blocks took 0.98 and 1.10 s, and 0.87 and 2.4 s at
n = 10^5, where they took 18 s each; a 201^2 grid takes 0.94 s there
against 5.5 s, and the process peaks at 95 MB against 381 MB
(BENCH_joint.json).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, DataError
from .estimators import (
    BOUNDARY_KERNEL,
    GEMM_MNK,
    MEAN_CHUNK,
    REFLECTION,
    FittedEstimator,
    Sample,
    _chunks,
    _ranges,
    _piece_table,
    _reach,
    _reflection_sum,
    _scaled_terms,
    cdf_terms,
    pdf_terms,
)
from .kernels import KernelSpec
from .solver import SolveReport, SupportMode, fit as fit_univariate

__all__ = ["MultiSample", "JointEstimator", "fit_joint", "joint_cdf", "joint_pdf"]

#: Candidate (point, observation) pairs, plus run ranks to count, per chunk of
#: scattered points: each working array of a chunk holds about this many
#: entries.  Measured in a warmed `joint_grid` worker (2000 points, n = 2000,
#: 20 interleaved rounds), a pdf and a cdf took a median 56, 50, 46, 46 and
#: 52 ms with chunks of 2^16 to 2^20.
CHUNK = 1 << 18

#: Khatri-Rao rows of the tensor grid per BLAS product (of at most
#: `estimators.GEMM_MNK` multiply-adds).
GRID_ROWS = 16


@dataclass(frozen=True)
class MultiSample:
    """n observations of d coordinates, all finite."""

    rows: np.ndarray

    def __init__(self, rows) -> None:
        arr = np.asarray(rows, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DataError("multivariate sample must be a nonempty (n, d) array")
        if not np.all(np.isfinite(arr)):
            raise DataError("multivariate sample values must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "rows", arr)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]

    def coordinate(self, j: int) -> Sample:
        return Sample(self.rows[:, j])


@dataclass(frozen=True)
class JointEstimator:
    """Product-type combination of boundary-corrected marginal estimators.

    The marginals share the observation index: marginal j is fitted on the
    j-th coordinate of the same rows, and the product couples the terms
    per observation.  Immutable after fit; evaluation is thread-safe.
    order[j] is the stable argsort of coordinate j and ranks[j] its inverse.
    """

    data: MultiSample
    marginals: Tuple[FittedEstimator, ...]
    reports: Tuple[Optional[SolveReport], ...]
    order: np.ndarray = field(init=False, repr=False, compare=False)
    ranks: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        order = np.argsort(self.data.rows.T, axis=1, kind="stable")
        ranks = np.empty_like(order)
        np.put_along_axis(ranks, order, np.arange(self.data.n), axis=1)
        for name, value in (("order", order), ("ranks", ranks)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def d(self) -> int:
        return len(self.marginals)

    @property
    def rectangle(self) -> Tuple[Tuple[float, float], ...]:
        return tuple((m.support.lower, m.support.upper) for m in self.marginals)

    def cdf(self, x) -> float | np.ndarray:
        return _match_shape(np.clip(self._values(x, pdf=False), 0.0, 1.0), x)

    def pdf(self, x) -> float | np.ndarray:
        return _match_shape(self._values(x, pdf=True), x)

    def _values(self, x, pdf: bool) -> np.ndarray:
        """(C + S)/n at each point: the run count C and the candidates' sum S."""
        pts = _as_points(x, self.d)
        layouts = [_layout(est, pts[:, j], pdf) for j, est in enumerate(self.marginals)]
        run = np.array([lay.run[1] for lay in layouts]) > 0
        span = np.array([sum(width for _, width in lay.spans) for lay in layouts])
        # coordinate k takes candidates only at points where every earlier coordinate
        # has a run and no coordinate is all zeros
        live = np.all(run | (span > 0), axis=0)
        takes = np.cumprod(np.vstack([live, run[:-1]]), axis=0).astype(bool)[: 1 if pdf else self.d]
        counted = np.all(run, axis=0) & (not pdf)
        cost = np.where(counted, layouts[0].run[1], 0) + np.sum(span[: takes.shape[0]] * takes, axis=0)
        # points in the order of coordinate 0 keep a chunk's runs there close together
        order = np.argsort(pts[:, 0], kind="stable")
        out = np.empty(pts.shape[0])
        for i, j in _chunks(cost[order], CHUNK):
            p = order[i:j]
            chunk = [lay.take(p) for lay in layouts]
            total = self._candidate_sum(chunk, takes[:, p])
            if not pdf:
                total += self._run_count(chunk, counted[p])
            out[p] = total / self.data.n
        return out

    def _run_count(self, layouts, counted: np.ndarray) -> np.ndarray:
        """The exact number of observations in every coordinate's run, at the counted points.

        The points go in consecutive groups, each counted on one dense box: its
        points by the coordinate-0 ranks from their lowest run start to their
        highest run end.  A group grows while its box holds at most CHUNK
        entries, or is one point, whose box is its own run.
        """
        out = np.zeros(counted.size)
        idx = np.flatnonzero(counted)
        start, width = layouts[0].run
        while idx.size:
            # the first k points' box is k times the ranks their runs spread over
            lo, hi = np.minimum.accumulate(start[idx]), np.maximum.accumulate((start + width)[idx])
            k = max(1, int((np.arange(1, idx.size + 1) * (hi - lo)).searchsorted(CHUNK, "right")))
            p, idx, ranks = idx[:k], idx[k:], np.arange(lo[k - 1], hi[k - 1])
            at = lambda v: v[p, None]  # noqa: E731
            inside = _inside(ranks, [layouts[0].run], at)
            obs = self.order[0][ranks]
            for j in range(1, self.d):
                inside &= _inside(self.ranks[j][obs], [layouts[j].run], at)
            out[p] = np.count_nonzero(inside, axis=1)
        return out

    def _candidate_sum(self, layouts, takes: np.ndarray) -> np.ndarray:
        """Per point, the sum of the candidates' products.

        The candidates come in blocks, one per coordinate k and span.  Each
        block's products are summed in rank order and the blocks' sums added
        in block order, so a point's sum does not depend on the other points.
        """
        sums = np.zeros(takes.shape[1])
        for k, lay in enumerate(layouts[: takes.shape[0]]):
            for start, width in lay.spans:
                lengths = np.where(takes[k], width, 0)
                pts = np.flatnonzero(lengths)
                if not pts.size:
                    continue
                if np.ptp(start[pts]) == 0 and np.ptp(lengths[pts]) == 0:
                    # the same ranks at every point: a (points, ranks) block, whose terms
                    # broadcast from the points' column; the flat form gathers each
                    # entry's point, and on the Gaussian joint at n = 2000 took 1.3-1.7x
                    # the time of the product blocks it replaces (BENCH_joint.json)
                    q, r = pts[:, None], start[pts[0]] + np.arange(lengths[pts[0]])
                    sums[pts] += np.cumsum(self._block_products(layouts, k, q, r), axis=1)[:, -1]
                else:
                    q, product = self._flat_products(layouts, k, lengths, _ranges(start, lengths))
                    sums += np.bincount(q, product, minlength=sums.size)
        return sums

    def _block_products(self, layouts, k: int, q: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The products at the points q (a column) and coordinate k's ranks r (a row), 0 where not a candidate.

        Each later coordinate's terms are evaluated throughout and kept in its
        spans; elsewhere the factor is exactly 1 in its run and 0 outside it.
        """
        at, obs = (lambda v: v[q]), self.order[k][r]
        product = layouts[k].terms(q, r)
        for j in range(k + 1, self.d):
            rj, other = self.ranks[j][obs], layouts[j]
            factor, in_spans = other.terms(q, rj), _inside(rj, other.spans, at)
            if not in_spans.all():
                factor = np.where(in_spans, factor, _inside(rj, [other.run], at))
            product = product * factor
        for j in range(k):  # a candidate in an earlier coordinate's span was taken there
            product = np.where(_inside(self.ranks[j][obs], [layouts[j].run], at), product, 0.0)
        return product

    def _flat_products(self, layouts, k: int, lengths: np.ndarray, r: np.ndarray) -> tuple:
        """(q, products) of the candidates among coordinate k's ranks r, lengths[q] of them at point q.

        Each later coordinate's terms are evaluated only in its spans.
        """
        at, obs = (lambda v: np.repeat(v, lengths)), self.order[k][r]
        keep, later = np.ones(r.size, dtype=bool), []
        for j, other in enumerate(layouts):
            if j < k:  # a candidate in an earlier coordinate's span was taken there
                keep &= _inside(self.ranks[j][obs], [other.run], at)
            elif j > k:
                later.append((other, self.ranks[j][obs]))
                keep &= _inside(later[-1][1], other.cover, at)
        keep = _where(keep)
        q, r = at(np.arange(lengths.size))[keep], r[keep]
        product = layouts[k].terms(q, r)
        for other, rj in later:
            rj = rj[keep]
            sel = _where(~_inside(rj, [other.run], lambda v: v[q]))
            product[sel] *= other.terms(q[sel], rj[sel])
        return q, product

    def cdf_grid(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        """Joint CDF on the tensor grid spanned by per-coordinate axes."""
        return np.clip(self._grid(axes, cdf_terms), 0.0, 1.0)

    def pdf_grid(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        """Joint PDF on the tensor grid spanned by per-coordinate axes."""
        return self._grid(axes, pdf_terms)

    def _grid(self, axes: Sequence[np.ndarray], terms) -> np.ndarray:
        if len(axes) != self.d:
            raise ConfigError(f"expected {self.d} axes, got {len(axes)}")
        axes = [np.asarray(axis, dtype=float).ravel() for axis in axes]
        shape = tuple(axis.size for axis in axes)
        lead, rows = shape[:-1], prod(shape[:-1])
        out = np.zeros((rows, shape[-1]))
        step = max(1, MEAN_CHUNK // max(1, sum(shape)))
        for c0 in range(0, self.data.n, step):
            # coordinate 0's columns in sorted order need no sort in `cdf_terms`/`pdf_terms`
            cols = self.data.rows[self.order[0][c0 : c0 + step]]
            mats = [terms(est, axes[j], cols[:, j]) for j, est in enumerate(self.marginals)]
            # the observations in slices of `width`, each slice one product of at
            # most GEMM_MNK multiply-adds; the zeros that pad the last add nothing
            last = mats.pop()
            width = max(1, GEMM_MNK // (GRID_ROWS * max(1, last.shape[0])))
            slices = -(-last.shape[1] // width)
            right = np.zeros((slices * width, last.shape[0]))
            right[: last.shape[1]] = last.T
            right = right.reshape(slices, width, -1)
            for r0 in range(0, rows, GRID_ROWS):
                flat = np.arange(r0, min(r0 + GRID_ROWS, rows))
                # 1.0 * t == t, so starting from ones keeps the products exact
                block = np.zeros((flat.size, slices * width))
                block[:, : last.shape[1]] = 1.0
                for mat, idx in zip(mats, np.unravel_index(flat, lead) if lead else ()):
                    block[:, : last.shape[1]] *= mat[idx]
                left = block.reshape(flat.size, slices, width).transpose(1, 0, 2)
                out[r0 : r0 + flat.size] += np.matmul(left, right).sum(axis=0)
        return (out / self.data.n).reshape(shape)


class _Layout:
    """One coordinate's ranks at each of m points, in three groups.

    Each group is a list of per-point rank intervals (start, width): run, the
    ranks whose terms are exactly 1 (the cdf's only); spans, disjoint
    intervals covering the windows of the term's pieces; and cover, disjoint
    intervals whose union is the run's and the spans'.  Every other rank's
    term is exactly 0.
    """

    def __init__(self, est: FittedEstimator, pdf: bool, pieces, scale, slope, plain, run, spans, cover):
        self.est, self.pdf = est, pdf
        self.pieces, self.scale, self.slope, self.plain = pieces, scale, slope, plain
        self.run, self.spans, self.cover = run, spans, cover

    def take(self, idx: np.ndarray) -> "_Layout":
        """The layout at the points idx."""
        pick = lambda v: v[idx] if np.ndim(v) else v  # noqa: E731
        group = lambda intervals: [(start[idx], width[idx]) for start, width in intervals]  # noqa: E731
        return _Layout(self.est, self.pdf, [pick(p) for p in self.pieces], pick(self.scale),
                       pick(self.slope), pick(self.plain), group([self.run])[0], group(self.spans), group(self.cover))

    def terms(self, q: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The term of the observation of rank r[k] at point q[k], as `cdf_terms`/`pdf_terms` form it.

        At plain points (see `_layout`) the reflection mirrors' windows are empty, and their
        terms are the saturated constants: 0 at 2l - x and, for the cdf, 1 above u.
        """
        est, pdf, plain = self.est, self.pdf, None if self.plain is None else self.plain[q]
        if plain is not None and q.ndim == 1 and plain.any() and not plain.all():
            out = np.empty(q.size)
            for rows in (np.flatnonzero(plain), np.flatnonzero(~plain)):
                out[rows] = self.terms(q[rows], r[rows])
            return out
        at, data = (lambda v: v[q] if np.ndim(v) else v), est.sample.values[r]  # noqa: E731

        def term(k: int):
            if k and plain.all():
                return 0.0 if pdf or k == 1 else 1.0
            return _scaled_terms(est.kernel, pdf, at(self.pieces[k]), data, at(self.scale), at(self.slope))

        return term(0) if len(self.pieces) == 1 else _reflection_sum(pdf, term)


def _layout(est: FittedEstimator, x: np.ndarray, pdf: bool) -> _Layout:
    """The `_Layout` of the marginal's sorted sample at the points x.

    Reflection: the windows of the pieces at 2l - x, x and the mirrors above u
    are in that order, so their spans are [a1, b1), [max(a0, b1), b0) and
    [max(aU, b0), bU), joined where they touch.  A cdf rank below a0 has
    W = 1 at x and at the upper mirrors, and one at or above b1 has W = 0 at
    2l - x: the run is [b1, max(a0, b1)), and the cover [a1, b0) and the
    upper span.  Every other rank outside the spans has the four W all 1 or
    the pair at x and 2l - x both 0 with the upper pair equal: its term is
    0.  Boundary kernel: one piece of window [a, b), at the scale
    `estimators._piece_table` gives; below a the cdf term is 1.  Off the
    support every term is 0, or 1 for the cdf above it.
    """
    data, n, h, radius = est.sample.values, est.sample.n, est.h, est.kernel.saturation
    inside, pieces, scale, slope, const = _piece_table(est.method, h, est.support.lower, est.support.upper, x, pdf)
    none = np.zeros(x.size, dtype=np.intp)
    if est.method == REFLECTION:
        (a0, b0), (a1, b1) = (_reach(data, p, h, radius) for p in pieces[:2])
        # the mirrors above u: 2u - x, and for the cdf 2u - l, whose window ends last
        a_up, b_up = _reach(data, pieces[-1], h, radius)[0], _reach(data, pieces[2], h, radius)[1]
        upper = (np.maximum(a_up, b0), b_up + none)
        spans = _joined([(a1, b1), (np.maximum(a0, b1), b0), upper])
        run, cover = (b1, np.maximum(a0, b1)), [(a1, b0), upper]
        # plain: the mirrors' windows are empty, at rank 0 below l and at n above u
        plain = (b1 == 0) & (a_up == n)
    else:
        a, b = _reach(data, x, scale, radius)
        spans, plain = [(a, b)], None
        run, cover = (none, a), [(none, b)]
    if pdf:
        run, cover = (none, none), spans
    # off the support there are no spans, and above it the cdf's run holds all n ranks
    full = np.where(const > 0.0, n, 0)
    on = lambda v, off=0: np.where(inside, v, off)  # noqa: E731
    run = (on(run[0]), on(run[1], full))
    spans = [(on(a), on(b)) for a, b in spans]
    cover = spans if pdf else [(on(a), on(b, full if i == 0 else 0)) for i, (a, b) in enumerate(cover)]
    widths = lambda group: [(a, b - a) for a, b in group]  # noqa: E731
    return _Layout(est, pdf, pieces, scale, slope, plain, widths([run])[0], widths(spans), widths(cover))


def _joined(spans) -> list:
    """Ordered disjoint (start, stop) spans, each joined to the next where it ends at the next's start.

    A joined span is left empty at its start; a wide window (the Gaussian's)
    then gives every point one span of all n ranks.
    """
    out = [spans[0]]
    for start, stop in spans[1:]:
        (a, b), touch = out[-1], out[-1][1] == start
        out[-1] = (a, np.where(touch, a, b))
        out.append((np.where(touch, a, start), stop))
    return out


def _inside(r: np.ndarray, intervals, at) -> np.ndarray:
    """Whether each rank r lies in one of the per-point intervals (start, width), read at its point by at."""
    out = None
    for start, width in intervals:
        if width.any():
            hit = (r - at(start)).view(np.uint64) < at(width).view(np.uint64)
            out = hit if out is None else out | hit
    return np.zeros(r.shape, dtype=bool) if out is None else out


def _where(mask: np.ndarray):
    """The positions where mask holds: all of them as a slice, which takes no copy, or their indices."""
    return slice(None) if mask.all() else np.flatnonzero(mask)


def _as_points(x, d: int) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        if arr.size != d:
            raise ConfigError(f"point has {arr.size} coordinates, estimator has {d}")
        arr = arr.reshape(1, d)
    elif arr.ndim == 2:
        if arr.shape[1] != d:
            raise ConfigError(f"points have {arr.shape[1]} coordinates, estimator has {d}")
    else:
        raise ConfigError("points must be a d-vector or an (m, d) array")
    return arr


def _match_shape(out: np.ndarray, x):
    arr = np.asarray(x)
    if arr.ndim == 1:
        return float(out[0])
    return out


def fit_joint(
    data: MultiSample,
    h,
    kernel: KernelSpec,
    method: str,
    mode: SupportMode | Sequence[SupportMode],
) -> JointEstimator:
    """Fit every coordinate by the univariate pipeline and combine them.

    h is a scalar shared by all coordinates or one bandwidth per coordinate;
    mode likewise.  d = 1 reduces exactly to the univariate estimator.
    """
    if method not in (REFLECTION, BOUNDARY_KERNEL):
        raise ConfigError(f"joint estimation uses reflection/boundary_kernel, got {method!r}")
    hs = np.asarray(h, dtype=float).ravel()
    if hs.size == 1:
        hs = np.repeat(hs, data.d)
    if hs.size != data.d:
        raise ConfigError(f"expected 1 or {data.d} bandwidths, got {hs.size}")
    modes = [mode] * data.d if isinstance(mode, SupportMode) else list(mode)
    if len(modes) != data.d:
        raise ConfigError(f"expected 1 or {data.d} support modes, got {len(modes)}")
    marginals, reports = zip(*(fit_univariate(data.coordinate(j), float(hs[j]), kernel, method, modes[j])
                               for j in range(data.d)))
    return JointEstimator(data, marginals, reports)


def joint_cdf(est: JointEstimator, x) -> float | np.ndarray:
    """Product-form joint CDF at x (a d-vector or (m, d) array)."""
    return est.cdf(x)


def joint_pdf(est: JointEstimator, x) -> float | np.ndarray:
    """Product-form joint PDF at x; zero outside the estimated rectangle."""
    return est.pdf(x)
