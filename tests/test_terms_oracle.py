"""Windowed term evaluation against a full-width oracle, bit for bit.

For a compact kernel the estimators evaluate the kernel only on the sorted
columns in reach of each block of points and write the saturated constants
elsewhere.  The oracle here evaluates every (point, observation) pair with
the same per-term functions, so any column the window wrongly leaves out
shows as a changed bit.
"""

import numpy as np
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
    fit_joint,
)
from supdens.estimators import _reflection_terms, _scaled_terms, cdf_terms, pdf_terms


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


_kernel_method = st.sampled_from([
    (EPANECHNIKOV, NAIVE), (EPANECHNIKOV, REFLECTION), (EPANECHNIKOV, BOUNDARY_KERNEL),
    (GAUSSIAN, NAIVE), (GAUSSIAN, REFLECTION),
])


def _column(draw, n, shift):
    """n observations on a lattice of step 1/32 (so ties are common), shifted."""
    ints = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    return shift + np.array(ints, dtype=float) / 32.0


def _support(draw, values):
    """(l, u, h): a support around the values and a bandwidth of at most half its length."""
    lo, hi = values.min(), values.max()
    l = lo - draw(st.sampled_from([0.0, 1.0 / 64.0, 0.3]))
    u = hi + draw(st.sampled_from([0.0, 1.0 / 64.0, 0.25]))
    if u - l < 0.1:
        u = l + 0.1
    # frac = 1 makes the seams l + h and u - h meet
    frac = draw(st.sampled_from([1.0, 0.5, 0.13]) | st.floats(0.02, 1.0))
    return l, u, frac * (u - l) / 2.0


def _edge_points(l, u, h, values):
    """Points at the support ends and seams, their neighbours, and X_i, X_i -+ h."""
    ends = np.array([l, u, l + h, u - h])
    return np.concatenate([
        ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf),
        values, values - h, values + h, [l - 1.0, u + 1.0, l - h, u + h],
    ])


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_univariate_terms_match_full_width_oracle(data):
    draw = data.draw
    kernel, method = draw(_kernel_method)
    n = draw(st.integers(1, 70))
    values = _column(draw, n, draw(st.sampled_from([0.0, 1e9])))
    l, u, h = _support(draw, values)
    support = SupportInterval(-np.inf, np.inf) if method == NAIVE else SupportInterval(l, u)
    est = FittedEstimator(method, Sample(values), h, support, kernel)
    pts = _edge_points(l, u, h, values)
    pts = np.concatenate([pts, draw(st.lists(st.floats(l - 2 * h, u + 2 * h), max_size=80))])
    pts = pts[np.array(draw(st.permutations(range(pts.size))), dtype=int)]
    raw = values[np.array(draw(st.permutations(range(n))), dtype=int)]
    for pdf, terms, evaluate, col in ((True, pdf_terms, est.pdf, 1), (False, cdf_terms, est.cdf, 2)):
        want = oracle_terms(est, pts, est.sample.values, pdf)
        assert np.array_equal(terms(est, pts), want)
        assert np.array_equal(terms(est, pts, raw), oracle_terms(est, pts, raw, pdf))
        assert np.array_equal(evaluate(pts), want.mean(axis=1))
        assert np.array_equal(evaluate_grid(est, pts)[:, col], want.mean(axis=1))


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_joint_matches_full_width_oracle(data):
    draw = data.draw
    kernel, method = draw(_kernel_method.filter(lambda km: km[1] != NAIVE))
    n, d = draw(st.integers(1, 50)), draw(st.integers(1, 3))
    shift = draw(st.sampled_from([0.0, 1e9]))
    cols = np.column_stack([_column(draw, n, shift) for _ in range(d)])
    supports = [_support(draw, cols[:, j]) for j in range(d)]
    je = fit_joint(MultiSample(cols), [h for _, _, h in supports], kernel, method,
                   [SupportMode.known(l, u) for l, u, _ in supports])
    axes = []
    for j, (l, u, h) in enumerate(supports):
        axis = _edge_points(l, u, h, cols[:, j])
        axes.append(axis[np.array(draw(st.permutations(range(axis.size))), dtype=int)][: 60 // d])
    m = 150
    pts = np.column_stack([axis[np.arange(m) % axis.size] for axis in axes])
    pts = pts[np.array(draw(st.permutations(range(m))), dtype=int)]
    letters = "abc"[:d]
    sub = ",".join(f"{c}z" for c in letters) + "->" + letters
    for pdf, evaluate, grid in ((True, je.pdf, je.pdf_grid), (False, je.cdf, je.cdf_grid)):
        prod = oracle_terms(je.marginals[0], pts[:, 0], cols[:, 0], pdf)
        for j in range(1, d):
            prod *= oracle_terms(je.marginals[j], pts[:, j], cols[:, j], pdf)
        mats = [oracle_terms(je.marginals[j], axes[j], cols[:, j], pdf) for j in range(d)]
        want, want_grid = prod.mean(axis=1), np.einsum(sub, *mats) / n
        if not pdf:
            want, want_grid = np.clip(want, 0.0, 1.0), np.clip(want_grid, 0.0, 1.0)
        assert np.array_equal(evaluate(pts), want)
        assert np.array_equal(grid(axes), want_grid)
