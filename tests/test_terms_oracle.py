"""Windowed term evaluation against a full-width oracle, bit for bit.

The term matrices (`pdf_terms`, `cdf_terms`) evaluate the kernel only on
the sorted columns within its saturation radius of each block of points
(the support radius for Epanechnikov, 39 bandwidths for the Gaussian) and
write the saturated constants elsewhere.  The oracle here evaluates every
(point, observation) pair with the same per-term functions, so any column
the window wrongly leaves out shows as a changed bit.  Gaussian bandwidths
are drawn small enough that the window is often narrower than the sample.

The univariate pdf, cdf and evaluate_grid form no term matrix.  The
Gaussian's come from a fast Gauss transform, so they match the oracle's row
means within the transform's stated bound, `estimators.EVAL_TOL` (the pdf's
times h).  Every other kernel's are an exact count plus per-point window
sums, so they match the math.fsum means of the oracle's rows within the
bound `estimators._window_estimates` states.  The joint sums the window
terms apart from an exact count, so its values match the math.fsum means of
the oracle's product rows within the joint's stated bound, and the terms it
evaluates, and the exact 0s and 1s it does not, match bit for bit.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supdens import (
    BOUNDARY_KERNEL,
    EPANECHNIKOV,
    GAUSSIAN,
    NAIVE,
    REFLECTION,
    FittedEstimator,
    MultiSample,
    Sample,
    SupportInterval,
    SupportMode,
    evaluate_grid,
    fit,
    fit_joint,
)
from supdens.estimators import (
    EVAL_TOL,
    _reach,
    _reflection_points,
    _reflection_sum,
    _scaled_terms,
    cdf_terms,
    pdf_terms,
)
from supdens.joint import _inside, _layout
from test_joint import assert_row_means


def _reflection_terms(kernel, pdf, x, data, h, l, u):
    """Reflection terms for x in [l, u], evaluated on every column: naive terms at x and its mirrors."""
    points = _reflection_points(pdf, x, l, u)
    return _reflection_sum(pdf, lambda k: _scaled_terms(kernel, pdf, points[k], data, h))


def oracle_terms(est, x, data, pdf):
    """The (m, n) terms at the points x, every column evaluated."""
    kernel, h = est.kernel, est.h
    x = np.asarray(x, dtype=float)
    if est.method == NAIVE:
        return _scaled_terms(kernel, pdf, x[:, None], data, h)
    l, u = est.support.lower, est.support.upper
    out = np.zeros((x.size, data.size))
    if not pdf:
        out[x >= u] = 1.0
    if est.method == REFLECTION:
        rows = (x >= l) & (x <= u)
        out[rows] = _reflection_terms(kernel, pdf, x[rows, None], data, h, l, u)
        return out
    for rows, scale, slope in (
        ((x > l) & (x < l + h), x - l, 1.0),
        ((x >= l + h) & (x < u - h), np.full_like(x, h), 0.0),
        ((x >= u - h) & (x < u), u - x, -1.0),
    ):
        out[rows] = _scaled_terms(kernel, pdf, x[rows, None], data, scale[rows, None], slope)
    return out


def assert_same_bits(got, want):
    """got and want hold the same float64 bit patterns, so -0.0 and +0.0 may not swap."""
    assert got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


def oracle_pieces(est, x, pdf):
    """(rows, p, scale, slope) per piece of the values at the points x, placed as `oracle_terms` places them.

    rows selects the points the piece serves; p and scale hold one value per point.
    """
    h, ones = est.h, np.ones_like(x)
    if est.method == NAIVE:
        return [(ones > 0.0, x, h * ones, 0.0)]
    l, u = est.support.lower, est.support.upper
    if est.method == REFLECTION:
        rows = (x >= l) & (x <= u)
        return [(rows, p * ones, h * ones, 0.0) for p in _reflection_points(pdf, x, l, u)]
    return [
        ((x > l) & (x < l + h) & (x < u - h), x, x - l, 1.0),
        ((x >= l + h) & (x < u - h), x, h * ones, 0.0),
        ((x >= u - h) & (x < u), x, u - x, -1.0),
    ]


def window_bound(est, x, pdf):
    """Per point, the bound (k + 5) eps M that `estimators._window_estimates` states.

    k counts the point's window terms over its pieces (`_reach`) and M is the
    mean over the observations of the sum of its pieces' |terms|.
    """
    data, kernel = est.sample.values, est.kernel
    k, mass = np.zeros(x.size), np.zeros(x.size)
    for rows, p, scale, slope in oracle_pieces(est, x, pdf):
        a, b = _reach(data, p[rows], scale[rows], kernel.saturation)
        k[rows] += b - a
        terms = _scaled_terms(kernel, pdf, p[rows, None], data, scale[rows, None], slope)
        mass[rows] += np.abs(terms).mean(axis=1)
    return (k + 5) * np.finfo(float).eps * mass


def fsum_rows(rows):
    """math.fsum of each row, bit for bit, over the row's terms other than 0 and 1 and the count of its 1s.

    fsum rounds the exact sum once, and the 0s left out and the 1s added as
    one count keep the exact sum; outside its windows a row is mostly 0s and 1s.
    """
    keep = np.column_stack([(rows != 0.0) & (rows != 1.0), np.ones(rows.shape[0], dtype=bool)])
    terms = np.column_stack([rows, (rows == 1.0).sum(axis=1)])[keep].tolist()
    ends = np.cumsum(keep.sum(axis=1)).tolist()
    return np.array([math.fsum(terms[i:j]) for i, j in zip([0] + ends[:-1], ends)])


def assert_window_means(est, x, got, rows, pdf):
    """got is within `window_bound` of the math.fsum means of the full-width term rows (the cdf's clipped).

    The mean and the bound are formed once per distinct point, whose rows must be equal.
    """
    x, first, inverse = np.unique(np.asarray(x, dtype=float), return_index=True, return_inverse=True)
    assert np.array_equal(rows, rows[first][inverse])
    want = fsum_rows(rows[first]) / rows.shape[1]
    if not pdf:
        want = np.clip(want, 0.0, 1.0)
    excess = np.abs(got - want[inverse]) - window_bound(est, x, pdf)[inverse]
    assert np.all(excess <= 0.0), excess.max()


def assert_means(est, x, got, rows, pdf):
    """got holds the estimator's values at x, the means of the oracle's term rows.

    The Gaussian's are within EVAL_TOL (pdf: EVAL_TOL / h) of the rows'
    means, and every other kernel's within `window_bound` of their fsum means.
    """
    if est.kernel.name != "gaussian":
        assert_window_means(est, x, got, rows, pdf)
        return
    assert np.all(np.abs(got - rows.mean(axis=1)) <= (EVAL_TOL / est.h if pdf else EVAL_TOL))


_kernel_method = st.sampled_from([
    (EPANECHNIKOV, NAIVE), (EPANECHNIKOV, REFLECTION), (EPANECHNIKOV, BOUNDARY_KERNEL),
    (GAUSSIAN, NAIVE), (GAUSSIAN, REFLECTION),
])


def _column(draw, n, shift):
    """n observations on a lattice of step 1/32 (so ties are common), shifted."""
    ints = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    return shift + np.array(ints, dtype=float) / 32.0


def _permutation(draw, k):
    """A random order of range(k) from a drawn seed: drawing the order itself takes k draws."""
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(k)


def _support(draw, values, kernel):
    """(l, u, h): a support around the values and a bandwidth of at most half its length.

    Half the time the bandwidth is divided by the kernel's saturation radius,
    so the Gaussian's window of 39 bandwidths is mostly narrower than the sample.
    """
    lo, hi = values.min(), values.max()
    l = lo - draw(st.sampled_from([0.0, 1.0 / 64.0, 0.3]))
    u = hi + draw(st.sampled_from([0.0, 1.0 / 64.0, 0.25]))
    if u - l < 0.1:
        u = l + 0.1
    # frac = 1 makes the seams l + h and u - h meet
    frac = draw(st.sampled_from([1.0, 0.5, 0.13]) | st.floats(0.02, 1.0))
    frac /= draw(st.sampled_from([1.0, kernel.saturation]))
    return l, u, frac * (u - l) / 2.0


def _edge_points(l, u, h, values, r):
    """Points at the support ends and seams, their neighbours, X_i, X_i -+ h and X_i -+ r h."""
    ends = np.array([l, u, l + h, u - h])
    return np.concatenate([
        ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf),
        values, values - h, values + h, values - r * h, values + r * h, [l - 1.0, u + 1.0, l - h, u + h],
    ])


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_univariate_terms_match_full_width_oracle(data):
    draw = data.draw
    kernel, method = draw(_kernel_method)
    n = draw(st.integers(1, 70))
    values = _column(draw, n, draw(st.sampled_from([0.0, 1e9])))
    l, u, h = _support(draw, values, kernel)
    support = SupportInterval(-np.inf, np.inf) if method == NAIVE else SupportInterval(l, u)
    est = FittedEstimator(method, Sample(values), h, support, kernel)
    pts = _edge_points(l, u, h, values, kernel.saturation)
    pts = np.concatenate([pts, draw(st.lists(st.floats(l - 2 * h, u + 2 * h), max_size=80))])
    pts = pts[_permutation(draw, pts.size)]
    raw = values[_permutation(draw, n)]
    for pdf, terms, evaluate, col in ((True, pdf_terms, est.pdf, 1), (False, cdf_terms, est.cdf, 2)):
        want = oracle_terms(est, pts, est.sample.values, pdf)
        assert_same_bits(terms(est, pts), want)
        assert_same_bits(terms(est, pts, raw), oracle_terms(est, pts, raw, pdf))
        assert_means(est, pts, evaluate(pts), want, pdf)
        assert np.array_equal(evaluate_grid(est, pts)[:, col], evaluate(pts))


@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_epanechnikov_window_sums_within_the_stated_bound(data):
    # Larger samples than above, lattice data with ties or beta draws, so the
    # windows are mostly narrower than the sample; points at the support
    # ends, the seams, the observations and their kernel edges
    draw = data.draw
    n = draw(st.integers(1, 400))
    if draw(st.booleans()):
        values = _column(draw, n, draw(st.sampled_from([0.0, 1e9])))
    else:
        values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).beta(3.0, 1.0, n)
    l, u, h = _support(draw, values, EPANECHNIKOV)
    pts = _edge_points(l, u, h, values, 1.0)
    pts = np.concatenate([pts, draw(st.lists(st.floats(l - 2 * h, u + 2 * h), max_size=60))])
    pts = pts[_permutation(draw, pts.size)]
    other = np.linspace(0.0, 1.0, n)
    for method in (NAIVE, REFLECTION, BOUNDARY_KERNEL):
        support = SupportInterval(-np.inf, np.inf) if method == NAIVE else SupportInterval(l, u)
        est = FittedEstimator(method, Sample(values), h, support, EPANECHNIKOV)
        pdf, cdf = est.pdf(pts), est.cdf(pts)
        assert_window_means(est, pts, pdf, pdf_terms(est, pts), True)
        assert_window_means(est, pts, cdf, cdf_terms(est, pts), False)
        assert np.array_equal(evaluate_grid(est, pts)[:, 1:], np.column_stack([pdf, cdf]))
        assert np.all(pdf >= 0.0) and np.all((cdf >= 0.0) & (cdf <= 1.0))
        # a point's value does not depend on the other points
        assert est.pdf(pts[0]) == pdf[0] and est.cdf(pts[-1]) == cdf[-1]
        if method == NAIVE:
            continue
        if method == REFLECTION:  # criterion 1, exactly
            assert est.cdf(l) == 0.0 and est.cdf(u) == 1.0
        je = fit_joint(MultiSample(np.column_stack([values, other])), [h, 0.25], EPANECHNIKOV, method,
                       [SupportMode.known(l, u), SupportMode.known(-0.5, 1.5)])
        joint = je.cdf(np.column_stack([pts, np.full(pts.size, 2.0)]))
        assert np.all(np.abs(joint - cdf) <= 1e-12)


def test_epanechnikov_eval_memory_follows_the_window():
    # n = 2 * 10^4: term blocks of MEAN_CHUNK terms, the row means' way, peak
    # at 10.8 MB here; the window sums hold WINDOW_CHUNK-entry arrays
    values = np.random.default_rng(9).beta(3.0, 1.0, 20_000)
    grid = np.linspace(-0.1, 1.1, 4001)
    for method in (NAIVE, REFLECTION, BOUNDARY_KERNEL):
        support = SupportInterval(-np.inf, np.inf) if method == NAIVE else SupportInterval(0.0, 1.0)
        est = FittedEstimator(method, Sample(values), 0.004, support, EPANECHNIKOV)
        tracemalloc.start()
        try:
            evaluate_grid(est, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6, (method, peak)


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_joint_matches_full_width_oracle(data):
    draw = data.draw
    kernel, method = draw(_kernel_method.filter(lambda km: km[1] != NAIVE))
    n, d = draw(st.integers(1, 50)), draw(st.integers(1, 3))
    shift = draw(st.sampled_from([0.0, 1e9]))
    cols = np.column_stack([_column(draw, n, shift) for _ in range(d)])
    supports = [_support(draw, cols[:, j], kernel) for j in range(d)]
    je = fit_joint(MultiSample(cols), [h for _, _, h in supports], kernel, method,
                   [SupportMode.known(l, u) for l, u, _ in supports])
    axes = []
    for j, (l, u, h) in enumerate(supports):
        axis = _edge_points(l, u, h, cols[:, j], kernel.saturation)
        axes.append(axis[_permutation(draw, axis.size)][: 60 // d])
    m = 150
    pts = np.column_stack([axis[np.arange(m) % axis.size] for axis in axes])
    pts = pts[_permutation(draw, m)]
    _check_joint(je, cols, pts, axes)


def _check_joint(je, cols, pts, axes):
    """The joint's pdf, cdf and tensor grids at the points and axes against the oracle.

    Values: within (k + 2) eps times the row's mean |product| of the fsum
    mean, k the number of nonzero products.  Rank groups: every term in a
    run is exactly 1, every term outside the runs and spans exactly 0, and
    the terms in the spans are the oracle's bit for bit.
    """
    n, d = cols.shape
    for pdf, evaluate, grid in ((True, je.pdf, je.pdf_grid), (False, je.cdf, je.cdf_grid)):
        prod = oracle_terms(je.marginals[0], pts[:, 0], cols[:, 0], pdf)
        for j in range(1, d):
            prod *= oracle_terms(je.marginals[j], pts[:, j], cols[:, j], pdf)
        got = evaluate(pts)
        assert_row_means(got, prod, clip=not pdf)
        assert all(evaluate(pts[k]) == got[k] for k in range(0, pts.shape[0], 37))
        mats = [oracle_terms(je.marginals[j], axes[j], cols[:, j], pdf) for j in range(d)]
        grid_prod = mats[0].reshape(mats[0].shape[:1] + (1,) * (d - 1) + (n,))
        for j in range(1, d):
            grid_prod = grid_prod * mats[j].reshape((1,) * j + mats[j].shape[:1] + (1,) * (d - 1 - j) + (n,))
        assert_row_means(grid(axes), grid_prod, clip=not pdf)
        for j in range(d):
            _check_layout(je, j, pts[:, j], pdf)


def _check_layout(je, j, x, pdf):
    """Coordinate j's rank groups at the points x, checked on every (point, rank) pair.

    The groups must split the ranks (the cover being the run and the spans),
    the oracle's terms must be exactly 1 in the run and 0 outside the groups,
    and the layout's terms in the spans the oracle's bit for bit.
    """
    est = je.marginals[j]
    data, layout = est.sample.values, _layout(est, x, pdf)
    want = oracle_terms(est, x, data, pdf).ravel()
    q, r = np.repeat(np.arange(x.size), data.size), np.tile(np.arange(data.size), x.size)
    at = lambda v: v[q]  # noqa: E731
    in_run = _inside(r, [layout.run], at)
    in_spans = sum(_inside(r, [span], at).astype(int) for span in layout.spans)
    assert np.all(in_spans + in_run <= 1)
    in_spans = in_spans.astype(bool)
    assert np.array_equal(_inside(r, layout.cover, at), in_run | in_spans)
    assert np.all(want[in_run] == 1.0)
    assert np.all(want[~in_run & ~in_spans] == 0.0)
    assert np.array_equal(layout.terms(q[in_spans], r[in_spans]), want[in_spans])
    # a (points, ranks) block evaluates every pair, and keeps those in the spans
    block = layout.terms(np.arange(x.size)[:, None], np.arange(data.size))
    assert np.array_equal(block.ravel()[in_spans], want[in_spans])


# beta(3,1) data on [0, 1] with h = 0.002: the Gaussian's window of 39h = 0.078
# holds about a tenth of the sample's range, so most columns are saturated
_NARROW_H = 0.002


@pytest.mark.parametrize("method", [NAIVE, REFLECTION])
def test_gaussian_window_narrower_than_the_sample(method):
    values = np.random.default_rng(5).beta(3.0, 1.0, 300)
    l, u, h = 0.0, 1.0, _NARROW_H
    support = SupportInterval(-np.inf, np.inf) if method == NAIVE else SupportInterval(l, u)
    est = FittedEstimator(method, Sample(values), h, support, GAUSSIAN)
    pts = np.concatenate([np.linspace(-0.1, 1.1, 1201), _edge_points(l, u, h, values, GAUSSIAN.saturation)])
    a, b = _reach(est.sample.values, np.array([0.5]), h, GAUSSIAN.saturation)
    a, b = a.min(), b.max()
    assert 0 < a < b < values.size and b - a < values.size / 5
    for pdf, terms, evaluate in ((True, pdf_terms, est.pdf), (False, cdf_terms, est.cdf)):
        want = oracle_terms(est, pts, est.sample.values, pdf)
        assert_same_bits(terms(est, pts), want)
        assert_same_bits(terms(est, pts, values), oracle_terms(est, pts, values, pdf))
        assert_means(est, pts, evaluate(pts), want, pdf)


def test_gaussian_joint_window_narrower_than_the_sample():
    rng = np.random.default_rng(6)
    cols = np.column_stack([rng.beta(3.0, 1.0, 200), rng.beta(2.0, 2.0, 200)])
    je = fit_joint(MultiSample(cols), _NARROW_H, GAUSSIAN, REFLECTION, SupportMode.known(0.0, 1.0))
    axes = [np.linspace(-0.05, 1.05, 45), np.linspace(1.05, -0.05, 37)]
    pts = rng.uniform(-0.05, 1.05, (300, 2))
    pts[:100] = cols[:100] + GAUSSIAN.saturation * _NARROW_H * rng.choice([-1.0, 1.0], (100, 2))
    _check_joint(je, cols, pts, axes)


# ---------------------------------------------------------------------------
# The Gaussian pdf, cdf and evaluate_grid by the fast Gauss transform
# ---------------------------------------------------------------------------

_SHIFT = 1e9  # lattice points below 2 and their mirrors stay exact at this shift


def _gaussian_fit(method, values, l, u, h, shift=0.0):
    support = SupportInterval(-np.inf, np.inf) if method == NAIVE else SupportInterval(l + shift, u + shift)
    return FittedEstimator(method, Sample(values + shift), h, support, GAUSSIAN)


@settings(deadline=None, max_examples=120)
@given(data=st.data())
def test_gaussian_transform_matches_full_width_oracle(data):
    # Lattice data with ties (n down to 1), bandwidths from 1e-4 of the
    # support's length (every point its own box, most far apart) to half of
    # it, and points at l, u, the mirror points and past X_max + 38h, where
    # the window path saturates.  The 1/32 lattice, the dyadic support and
    # lattice points make the 1e9 shift exact, so the shifted fit's values are
    # the unshifted ones bit for bit.
    draw = data.draw
    method = draw(st.sampled_from([NAIVE, REFLECTION]))
    n = draw(st.sampled_from([1, 2]) | st.integers(1, 300))
    values = _column(draw, n, 0.0)
    l = values.min() - draw(st.sampled_from([0.0, 1.0 / 64.0, 0.25]))
    u = values.max() + draw(st.sampled_from([0.0, 1.0 / 64.0, 0.25]))
    u = max(u, l + 0.125)
    h = (u - l) * 10.0 ** draw(st.sampled_from([-4.0, np.log10(0.5)]) | st.floats(-4.0, np.log10(0.5)))
    est = _gaussian_fit(method, values, l, u, h)
    lattice = np.concatenate([[l, u], values, 2.0 * l - values, 2.0 * u - values, 2.0 * u - l - values,
                              np.array(draw(st.lists(st.integers(-1024, 2048), max_size=40))) / 1024.0])
    r = GAUSSIAN.saturation
    far = np.concatenate([[l - h, u + h], values.max() + np.array([r - 1.0, r, 45.0, 1e6]) * h,
                          values.min() - np.array([r - 1.0, r, 45.0]) * h,
                          draw(st.lists(st.floats(l - 3 * h, u + 3 * h), max_size=40))])
    pts = np.concatenate([lattice, far, np.nextafter(lattice[:2], -np.inf), np.nextafter(lattice[:2], np.inf)])
    pts = pts[_permutation(draw, pts.size)]
    pdf, cdf = est.pdf(pts), est.cdf(pts)
    for got, pdf_side in ((pdf, True), (cdf, False)):
        assert_means(est, pts, got, oracle_terms(est, pts, est.sample.values, pdf_side), pdf_side)
    grid = evaluate_grid(est, pts)
    assert np.array_equal(grid[:, 1], pdf) and np.array_equal(grid[:, 2], cdf)
    shifted = _gaussian_fit(method, values, l, u, h, _SHIFT)
    on = np.isin(pts, lattice)
    assert np.array_equal(shifted.pdf(pts[on] + _SHIFT), pdf[on])
    assert np.array_equal(shifted.cdf(pts[on] + _SHIFT), cdf[on])


@pytest.mark.parametrize("gap", [2.0 ** 20 + 0.5, 2.0 ** 30 + 0.5])
def test_gaussian_transform_on_two_far_clusters(gap):
    # box edges are exact in data units, so a cluster far from the other (and
    # from the median) keeps its coordinates to the rounding of u and D;
    # differences from a median near 1 would straddle a power of 2 and round
    # to two different spacings, 1e-8 bandwidths apart
    rng = np.random.default_rng(3)
    values = np.concatenate([rng.beta(3.0, 1.0, 200), gap + rng.beta(3.0, 1.0, 150)])
    est = FittedEstimator(NAIVE, Sample(values), 0.01, SupportInterval(-np.inf, np.inf), GAUSSIAN)
    pts = np.concatenate([rng.uniform(0.0, 1.0, 200), gap + rng.uniform(0.0, 1.0, 200)])
    for got, pdf in ((est.pdf(pts), True), (est.cdf(pts), False)):
        assert_means(est, pts, got, oracle_terms(est, pts, est.sample.values, pdf), pdf)


def _beta_fit(method, n, h, seed=5):
    values = np.random.default_rng(seed).beta(3.0, 1.0, n)
    return _gaussian_fit(method, values, 0.0, 1.0, h)


@pytest.mark.parametrize("h", [0.0118, 0.3, 1e-4])
def test_gaussian_reflection_cdf_at_the_lower_end_is_zero(h):
    # x = l and its mirror 2l - x are the same target, as are 2u - l and 2u - x
    est = _beta_fit(REFLECTION, 400, h)
    assert est.cdf(0.0) == 0.0 and est.cdf(np.array([0.5, 0.0, 1.0]))[1] == 0.0
    assert evaluate_grid(est, [0.0, 1.0])[0, 2] == 0.0
    fitted, _ = fit(est.sample, 0.05, GAUSSIAN, REFLECTION, SupportMode.proposed())
    assert fitted.cdf(fitted.support.lower) == 0.0


@pytest.mark.parametrize("method", [NAIVE, REFLECTION])
def test_gaussian_values_stay_in_range_deep_in_the_tails(method):
    # where every term is all but saturated, or the reflection cdf's two
    # differences all but cancel (a subnormal distance above l = 0 at a wide
    # bandwidth), the rounding could leave a pdf below 0 or a cdf outside
    # [0, 1]; both are clipped (at h = 0.45 the unclipped cdf reaches -1.2e-17)
    for h in (0.002, 0.0118, 0.1, 0.45):
        est = _beta_fit(method, 300, h)
        lo, hi = est.sample.min, est.sample.max
        offsets = np.linspace(5.0, 60.0, 500) * h
        ends = np.concatenate([5e-324 * np.arange(100), np.linspace(0.0, 1e-6, 200), 1.0 - np.linspace(0.0, 1e-6, 200)])
        pts = np.concatenate([lo - offsets, hi + offsets, ends, [-1e300, 1e300]])
        if method == REFLECTION:
            pts = np.clip(pts, 0.0, 1.0)
        pdf, cdf = est.pdf(pts), est.cdf(pts)
        assert np.all(pdf >= 0.0) and np.all((cdf >= 0.0) & (cdf <= 1.0))


@pytest.mark.parametrize("method", [NAIVE, REFLECTION])
def test_gaussian_value_depends_on_the_point_alone(method):
    # each target's coefficients add its source boxes in a fixed order, so a
    # point's value is the same whatever else is evaluated with it
    est = _beta_fit(method, 2000, 0.0118)
    xs = np.random.default_rng(8).uniform(-0.1, 1.1, 150)
    xs[:4] = [0.0, 1.0, est.sample.min, est.sample.max]
    pdf, cdf = est.pdf(xs), est.cdf(xs)
    assert all(est.pdf(x) == p and est.cdf(x) == c for x, p, c in zip(xs, pdf, cdf))
    assert np.array_equal(est.cdf(xs[::-1]), cdf[::-1])


@pytest.mark.parametrize("h", [0.02, 1e-5])
def test_gaussian_eval_memory_is_linear(h):
    # n = 2 * 10^5: a BLOCK_ROWS block of full rows alone was 205 MB; h = 1e-5
    # puts most points in boxes of their own
    est = _beta_fit(REFLECTION, 200_000, h)
    grid = np.linspace(-0.1, 1.1, 4001)
    tracemalloc.start()
    try:
        evaluate_grid(est, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6
