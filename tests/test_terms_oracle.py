"""Windowed term evaluation against a full-width oracle, bit for bit.

The estimators evaluate the kernel only on the sorted columns within its
saturation radius of each block of points (the support radius for
Epanechnikov, 39 bandwidths for the Gaussian) and write the saturated
constants elsewhere.  The oracle here evaluates every (point, observation)
pair with the same per-term functions, so any column the window wrongly
leaves out shows as a changed bit.  Gaussian bandwidths are drawn small
enough that the window is often narrower than the sample.
"""

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
    fit_joint,
)
from supdens.estimators import _reflection_terms, _scaled_terms, _window, cdf_terms, pdf_terms


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
    supports = [_support(draw, cols[:, j], kernel) for j in range(d)]
    je = fit_joint(MultiSample(cols), [h for _, _, h in supports], kernel, method,
                   [SupportMode.known(l, u) for l, u, _ in supports])
    axes = []
    for j, (l, u, h) in enumerate(supports):
        axis = _edge_points(l, u, h, cols[:, j], kernel.saturation)
        axes.append(axis[np.array(draw(st.permutations(range(axis.size))), dtype=int)][: 60 // d])
    m = 150
    pts = np.column_stack([axis[np.arange(m) % axis.size] for axis in axes])
    pts = pts[np.array(draw(st.permutations(range(m))), dtype=int)]
    _check_joint(je, cols, pts, axes)


def _check_joint(je, cols, pts, axes):
    """The joint's pdf, cdf and tensor grids at the points and axes equal the oracle's bit for bit."""
    n, d = cols.shape
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
    a, b = _window(est.sample.values, 0.5, h, GAUSSIAN.saturation)
    assert 0 < a < b < values.size and b - a < values.size / 5
    for pdf, terms, evaluate in ((True, pdf_terms, est.pdf), (False, cdf_terms, est.cdf)):
        want = oracle_terms(est, pts, est.sample.values, pdf)
        assert np.array_equal(terms(est, pts), want)
        assert np.array_equal(terms(est, pts, values), oracle_terms(est, pts, values, pdf))
        assert np.array_equal(evaluate(pts), want.mean(axis=1))


def test_gaussian_joint_window_narrower_than_the_sample():
    rng = np.random.default_rng(6)
    cols = np.column_stack([rng.beta(3.0, 1.0, 200), rng.beta(2.0, 2.0, 200)])
    je = fit_joint(MultiSample(cols), _NARROW_H, GAUSSIAN, REFLECTION, SupportMode.known(0.0, 1.0))
    axes = [np.linspace(-0.05, 1.05, 45), np.linspace(1.05, -0.05, 37)]
    pts = rng.uniform(-0.05, 1.05, (300, 2))
    pts[:100] = cols[:100] + GAUSSIAN.saturation * _NARROW_H * rng.choice([-1.0, 1.0], (100, 2))
    _check_joint(je, cols, pts, axes)
