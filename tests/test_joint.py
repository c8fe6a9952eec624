import itertools
import tracemalloc

import numpy as np
import pytest

from supdens import (
    BOUNDARY_KERNEL,
    EPANECHNIKOV,
    REFLECTION,
    ConfigError,
    DataError,
    MultiSample,
    SupportMode,
    fit,
    fit_joint,
    joint_cdf,
    joint_pdf,
)
from supdens import estimators
from supdens.estimators import BLOCK_ROWS, cdf_terms, pdf_terms
from supdens.quadrature import simpson_weights


def beta_rows(rng, n, d=2):
    return np.column_stack([rng.uniform(0, 1, n) for _ in range(d)])


def test_multisample_validation():
    with pytest.raises(DataError):
        MultiSample(np.empty((0, 2)))
    with pytest.raises(DataError):
        MultiSample([[0.1, np.inf]])
    ms = MultiSample([[0.1, 0.2], [0.3, 0.4]])
    assert ms.n == 2 and ms.d == 2


def test_single_point_hand_example():
    # one observation at (0.5, 0.5), known support [0,1]^2, h = 0.3:
    # the mirror terms vanish and the product pdf is (0.75/0.3)^2
    ms = MultiSample([[0.5, 0.5]])
    je = fit_joint(ms, 0.3, EPANECHNIKOV, REFLECTION, SupportMode.known(0.0, 1.0))
    assert joint_pdf(je, [0.5, 0.5]) == pytest.approx(6.25, rel=1e-14)


def test_d1_reduces_to_univariate():
    rng = np.random.default_rng(40)
    vals = rng.uniform(0, 1, 50)
    je = fit_joint(MultiSample(vals.reshape(-1, 1)), 0.1, EPANECHNIKOV, REFLECTION, SupportMode.proposed())
    est, _ = fit(je.marginals[0].sample, 0.1, EPANECHNIKOV, REFLECTION, SupportMode.proposed())
    xs = rng.uniform(-0.2, 1.2, 25)
    got_pdf = joint_pdf(je, xs.reshape(-1, 1))
    got_cdf = joint_cdf(je, xs.reshape(-1, 1))
    # summation order differs (observation vs sorted order), so allow 1 ulp
    assert np.allclose(got_pdf, est.pdf(xs), atol=1e-14, rtol=1e-14)
    assert np.allclose(got_cdf, est.cdf(xs), atol=1e-15, rtol=0)


@pytest.mark.parametrize("method", [REFLECTION, BOUNDARY_KERNEL])
def test_marginalization_identity(method):
    rng = np.random.default_rng(41)
    ms = MultiSample(beta_rows(rng, 120))
    je = fit_joint(ms, [0.12, 0.15], EPANECHNIKOV, method, SupportMode.proposed())
    (l1, u1), (l2, u2) = je.rectangle
    for xj in [0.2, 0.5, 0.9]:
        full = joint_cdf(je, [xj, u2 + 7.0])
        marg = je.marginals[0].cdf(xj)
        assert abs(full - marg) < 1e-12
        full2 = joint_cdf(je, [u1 + 3.0, xj])
        marg2 = je.marginals[1].cdf(xj)
        assert abs(full2 - marg2) < 1e-12


def test_upper_corner_and_clamping():
    rng = np.random.default_rng(42)
    ms = MultiSample(beta_rows(rng, 150))
    je = fit_joint(ms, 0.12, EPANECHNIKOV, REFLECTION, SupportMode.proposed())
    corner = [je.rectangle[0][1], je.rectangle[1][1]]
    assert joint_cdf(je, corner) >= 1.0 - 1e-9
    assert joint_cdf(je, [je.rectangle[0][0] - 0.1, 0.5]) == 0.0
    assert joint_pdf(je, [je.rectangle[0][0] - 0.1, 0.5]) == 0.0
    assert joint_pdf(je, [2.0, 2.0]) == 0.0


@pytest.mark.parametrize("method", [REFLECTION, BOUNDARY_KERNEL])
def test_product_pairs_coordinates_of_the_same_observation(method):
    # rows (x, 1 - x): the mass lies on the anti-diagonal, so pairing the
    # coordinates by rank instead of by observation would put it on the
    # diagonal (cdf(0.5, 0.5) near 0.47 instead of near 0)
    rng = np.random.default_rng(49)
    x = rng.uniform(0, 1, 200)
    je = fit_joint(MultiSample(np.column_stack([x, 1.0 - x])), 0.1, EPANECHNIKOV, method,
                   SupportMode.proposed())
    assert joint_cdf(je, [0.5, 0.5]) < 0.05
    assert joint_pdf(je, [0.3, 0.3]) == 0.0
    assert joint_pdf(je, [0.3, 0.7]) > 1.0
    assert je.cdf_grid([[0.5], [0.5]])[0, 0] < 0.05
    grid = je.pdf_grid([[0.3], [0.3, 0.7]])
    assert grid[0, 0] == 0.0 and grid[0, 1] > 1.0


def test_rectangle_contains_rows():
    rng = np.random.default_rng(43)
    ms = MultiSample(beta_rows(rng, 80))
    je = fit_joint(ms, 0.1, EPANECHNIKOV, BOUNDARY_KERNEL, SupportMode.proposed())
    for j, (lo, hi) in enumerate(je.rectangle):
        assert lo <= ms.rows[:, j].min()
        assert hi >= ms.rows[:, j].max()


def test_pdf_nonnegative_cdf_monotone_each_coordinate():
    rng = np.random.default_rng(44)
    for trial in range(20):
        ms = MultiSample(beta_rows(rng, 60))
        method = REFLECTION if trial % 2 == 0 else BOUNDARY_KERNEL
        je = fit_joint(ms, 0.15, EPANECHNIKOV, method, SupportMode.proposed())
        xs = np.linspace(-0.1, 1.1, 41)
        fixed = rng.uniform(0.2, 0.8)
        pts = np.column_stack([xs, np.full_like(xs, fixed)])
        pdfs = joint_pdf(je, pts)
        cdfs = joint_cdf(je, pts)
        assert np.all(pdfs >= 0)
        assert np.all(np.diff(cdfs) >= -1e-15)


def test_joint_pdf_integrates_to_one():
    rng = np.random.default_rng(45)
    ms = MultiSample(beta_rows(rng, 200))
    je = fit_joint(ms, 0.15, EPANECHNIKOV, REFLECTION, SupportMode.proposed())
    (l1, u1), (l2, u2) = je.rectangle
    ax1 = np.linspace(l1, u1, 201)
    ax2 = np.linspace(l2, u2, 201)
    P = je.pdf_grid([ax1, ax2])
    w = simpson_weights(201)
    integral = (u1 - l1) / 200 * (u2 - l2) / 200 * np.einsum("a,b,ab->", w, w, P)
    assert integral == pytest.approx(1.0, abs=0.02)


def test_independence_sanity():
    # independent uniform coordinates: joint cdf tracks the product of
    # marginal cdfs on a coarse grid (stochastic check, fixed seed)
    rng = np.random.default_rng(46)
    ms = MultiSample(beta_rows(rng, 500))
    je = fit_joint(ms, 0.1, EPANECHNIKOV, REFLECTION, SupportMode.proposed())
    axes = [np.linspace(0.0, 1.0, 21)] * 2
    J = je.cdf_grid(axes)
    m1 = je.marginals[0].cdf(axes[0])
    m2 = je.marginals[1].cdf(axes[1])
    assert np.max(np.abs(J - np.outer(m1, m2))) <= 0.1


def test_grid_methods_match_pointwise():
    rng = np.random.default_rng(47)
    ms = MultiSample(beta_rows(rng, 50))
    je = fit_joint(ms, 0.2, EPANECHNIKOV, REFLECTION, SupportMode.known(0.0, 1.0))
    ax = [np.linspace(0, 1, 7), np.linspace(0, 1, 5)]
    G = je.cdf_grid(ax)
    for i, x1 in enumerate(ax[0]):
        for k, x2 in enumerate(ax[1]):
            assert G[i, k] == pytest.approx(joint_cdf(je, [x1, x2]), abs=1e-15)


def test_config_errors():
    rng = np.random.default_rng(48)
    ms = MultiSample(beta_rows(rng, 30))
    with pytest.raises(ConfigError):
        fit_joint(ms, [0.1, 0.1, 0.1], EPANECHNIKOV, REFLECTION, SupportMode.proposed())
    with pytest.raises(ConfigError):
        fit_joint(ms, 0.1, EPANECHNIKOV, "naive", SupportMode.proposed())
    je = fit_joint(ms, 0.1, EPANECHNIKOV, REFLECTION, SupportMode.proposed())
    with pytest.raises(ConfigError):
        joint_cdf(je, [0.5])
    with pytest.raises(ConfigError):
        je.pdf_grid([np.linspace(0, 1, 5)])


@pytest.mark.parametrize("d, ok", [(12, True), (51, True), (52, False)])
def test_tensor_grid_dimension_limit(d, ok):
    # einsum labels at most 52 axes, the d coordinates and the observations
    rows = np.random.default_rng(49).uniform(0, 1, (6, d))
    je = fit_joint(MultiSample(rows), 0.2, EPANECHNIKOV, REFLECTION, SupportMode.known(-0.5, 1.5))
    axes = [np.array([0.5])] * d
    if ok:
        assert je.cdf_grid(axes).shape == (1,) * d
        assert je.cdf_grid(axes).item() == je.cdf(np.full(d, 0.5))
    else:
        with pytest.raises(ConfigError, match="51 dimensions"):
            je.pdf_grid(axes)


def test_nonfinite_points_rejected():
    # the univariate terms reject a non-finite coordinate for the joint too
    ms = MultiSample(beta_rows(np.random.default_rng(49), 30))
    je = fit_joint(ms, 0.1, EPANECHNIKOV, BOUNDARY_KERNEL, SupportMode.proposed())
    for evaluate in (joint_cdf, joint_pdf):
        with pytest.raises(DataError, match="finite"):
            evaluate(je, [0.5, np.nan])
    with pytest.raises(DataError, match="finite"):
        je.cdf_grid([np.linspace(0, 1, 3), np.array([0.5, np.inf])])


@pytest.mark.parametrize("method", [REFLECTION, BOUNDARY_KERNEL])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("chunk", [estimators.MEAN_CHUNK, 300 * BLOCK_ROWS, 300 * 5 + 3],
                         ids=["default_chunk", "block_chunk", "capped_chunk"])
def test_chunked_means_equal_product_matrix_means(method, d, chunk, monkeypatch):
    # pdf and cdf reduce one chunk of MEAN_CHUNK // n rows at a time
    # (block_chunk: one BLOCK_ROWS block; capped_chunk: 5 rows); the values
    # must be the row means of the whole per-observation product matrix, bit
    # for bit
    monkeypatch.setattr(estimators, "MEAN_CHUNK", chunk)
    rng = np.random.default_rng(50 + d)
    ms, h = MultiSample(beta_rows(rng, 300, d)), 0.13
    je = fit_joint(ms, h, EPANECHNIKOV, method, SupportMode.proposed())
    rect = np.array(je.rectangle)
    corners = np.array(list(itertools.product(*je.rectangle)))
    seams = []
    for j, (l, u) in enumerate(je.rectangle):
        for v in (l, u, l + h, u - h, np.nextafter(l + h, l), np.nextafter(u - h, u)):
            point = rng.uniform(rect[:, 0], rect[:, 1])
            point[j] = v
            seams.append(point)
    scattered = rng.uniform(rect[:, 0] - 0.2, rect[:, 1] + 0.2, (BLOCK_ROWS + 50, d))
    xs = np.vstack([corners, seams, scattered])
    for terms, evaluate, clip in ((pdf_terms, je.pdf, False), (cdf_terms, je.cdf, True)):
        prod = np.ones((xs.shape[0], ms.n))
        for j in range(d):
            prod *= terms(je.marginals[j], xs[:, j], ms.rows[:, j])
        want = np.clip(prod.mean(axis=1), 0.0, 1.0) if clip else prod.mean(axis=1)
        assert np.array_equal(evaluate(xs), want)
        assert evaluate(xs[3]) == want[3]


@pytest.mark.parametrize("method", [REFLECTION, BOUNDARY_KERNEL])
def test_point_evaluation_holds_no_full_matrix(method):
    # at m = n = 2000 one (m, n) matrix is 32 MB; the chunked reduction
    # holds a few chunks of at most 2^20 terms (8 MB) each
    rng = np.random.default_rng(60)
    ms = MultiSample(beta_rows(rng, 2000))
    je = fit_joint(ms, 0.1, EPANECHNIKOV, method, SupportMode.known(0.0, 1.0))
    xs = rng.uniform(-0.05, 1.05, (2000, 2))
    for evaluate in (je.pdf, je.cdf):
        tracemalloc.start()
        try:
            evaluate(xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6, f"{evaluate.__name__}: tracemalloc peak {peak / 1e6:.1f} MB"
