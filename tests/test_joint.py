import itertools
import math
import tracemalloc

import numpy as np
import pytest

from supdens import (
    BOUNDARY_KERNEL,
    EPANECHNIKOV,
    GAUSSIAN,
    REFLECTION,
    ConfigError,
    DataError,
    MultiSample,
    SupportMode,
    fit,
    fit_joint,
    joint_cdf,
    joint_pdf,
    lscv_bandwidth,
)
from supdens import joint
from supdens.estimators import BLOCK_ROWS, cdf_terms, pdf_terms
from supdens.quadrature import simpson_weights


def beta_rows(rng, n, d=2):
    return np.column_stack([rng.uniform(0, 1, n) for _ in range(d)])


def assert_row_means(got, products, clip=False):
    """got is within the joint's stated bound of the exact row means of the products.

    The bound is (k + 2) eps times the row's mean |product|, k the number of
    nonzero products in the row; math.fsum gives the exact sum rounded once.
    """
    n = products.shape[-1]
    rows = products.reshape(-1, n)
    want = np.array([math.fsum(row) for row in rows]) / n
    if clip:
        want = np.clip(want, 0.0, 1.0)
    bound = (np.count_nonzero(rows, axis=1) + 2) * np.finfo(float).eps * np.mean(np.abs(rows), axis=1)
    assert np.all(np.abs(np.ravel(got) - want) <= bound), np.max(np.abs(np.ravel(got) - want) - bound)


# the joint's kernels and methods; the first two keep their test ids from
# before the Gaussian reflection was added
KERNEL_METHODS = [(EPANECHNIKOV, REFLECTION), (EPANECHNIKOV, BOUNDARY_KERNEL), (GAUSSIAN, REFLECTION)]
_KERNEL_METHODS = pytest.mark.parametrize(
    "kernel, method", KERNEL_METHODS, ids=[REFLECTION, BOUNDARY_KERNEL, "gaussian_reflection"]
)


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


@_KERNEL_METHODS
def test_marginalization_identity(kernel, method):
    # every coordinate but j above its upper endpoint: the joint cdf is
    # marginal j's, summed in another order
    rng = np.random.default_rng(41)
    for d in (2, 3):
        ms = MultiSample(beta_rows(rng, 120, d))
        je = fit_joint(ms, [0.12, 0.15, 0.1][:d], kernel, method, SupportMode.proposed())
        above = np.array([u for _, u in je.rectangle]) + 7.0
        for j in range(d):
            pts = np.tile(above, (3, 1))
            pts[:, j] = [0.2, 0.5, 0.9]
            assert np.all(np.abs(joint_cdf(je, pts) - je.marginals[j].cdf(pts[:, j])) <= 1e-12)


def test_upper_corner_and_clamping():
    # the run count is exact: every term above an upper endpoint is exactly
    # 1 and every term below a lower one exactly 0, and reflection's terms at
    # its lower endpoint are exactly 0 too; at the upper corner each compact
    # kernel term is exactly 1
    rng = np.random.default_rng(42)
    for (kernel, method), d in itertools.product(KERNEL_METHODS, (2, 3)):
        ms = MultiSample(beta_rows(rng, 150, d))
        je = fit_joint(ms, 0.12, kernel, method, SupportMode.proposed())
        lower, upper = np.array(je.rectangle).T
        middle = (lower + upper) / 2.0
        ones = [upper + 0.1, upper + 1e-9]
        if kernel.compact:
            ones += [upper, np.where(np.arange(d) % 2 == 0, upper, upper + 3.0)]
        assert np.all(joint_cdf(je, np.array(ones)) == 1.0)
        for j in range(d):
            pts = np.array([middle, upper, upper + 1.0])
            pts[:, j] = lower[j]
            assert np.all(joint_cdf(je, pts) == 0.0)
            pts[:, j] = lower[j] - 0.1
            assert np.all(joint_cdf(je, pts) == 0.0) and np.all(joint_pdf(je, pts) == 0.0)
        assert joint_pdf(je, np.full(d, 2.0)) == 0.0
        grid = je.cdf_grid([np.array([lower[j], upper[j] + 1.0]) for j in range(d)]).ravel()
        assert grid[0] == 0.0 and grid[-1] == 1.0


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


@pytest.mark.parametrize("d", [12, 51, 52])
def test_tensor_grid_dimension_limit(d):
    # the grid takes any d: 52 axes were past the einsum this path replaced
    rows = np.random.default_rng(49).uniform(0, 1, (6, d))
    je = fit_joint(MultiSample(rows), 0.2, EPANECHNIKOV, REFLECTION, SupportMode.known(-0.5, 1.5))
    axes = [np.array([0.5])] * d
    for grid, terms, point in ((je.cdf_grid, cdf_terms, je.cdf), (je.pdf_grid, pdf_terms, je.pdf)):
        value = grid(axes)
        assert value.shape == (1,) * d
        products = np.prod([terms(je.marginals[j], axes[j], rows[:, j]) for j in range(d)], axis=0)
        assert_row_means(value, products, clip=terms is cdf_terms)
        assert_row_means(point(np.full(d, 0.5)), products, clip=terms is cdf_terms)


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
@pytest.mark.parametrize("chunk", [joint.CHUNK, 300 * 5, 1], ids=["default_chunk", "block_chunk", "capped_chunk"])
def test_chunked_means_equal_product_matrix_means(method, d, chunk, monkeypatch):
    # pdf and cdf take the points in chunks of about CHUNK candidates
    # (block_chunk: a few points a chunk; capped_chunk: one); the values
    # must be the row means of the whole per-observation product matrix
    # within the stated bound, and a point's value must not depend on the
    # points evaluated with it
    monkeypatch.setattr(joint, "CHUNK", chunk)
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
        got = evaluate(xs)
        assert_row_means(got, prod, clip)
        assert evaluate(xs[3]) == got[3]
        assert np.array_equal(evaluate(xs[::-1]), got[::-1])


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


def test_run_count_holds_each_points_own_run():
    # in coordinate-0 order, 200 counted points with short runs (x0 just above
    # l + h) share a chunk with a point above u, whose run holds all n ranks;
    # the count's boxes hold at most joint.CHUNK (point, rank) pairs or that
    # one point's run, where one box of the points by the union of their runs
    # would hold 4e6
    rng = np.random.default_rng(61)
    n, m = 20000, 200
    ms = MultiSample(beta_rows(rng, n))
    je = fit_joint(ms, 0.01, EPANECHNIKOV, BOUNDARY_KERNEL, SupportMode.known(0.0, 1.0))
    xs = np.vstack([np.column_stack([rng.uniform(0.0105, 0.012, m), rng.uniform(0.4, 0.6, m)]), [1.5, 0.5]])
    tracemalloc.start()
    try:
        got = je.cdf(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, f"tracemalloc peak {peak / 1e6:.1f} MB"
    sel = np.r_[0:5, m]
    products = cdf_terms(je.marginals[0], xs[sel, 0], ms.rows[:, 0]) * cdf_terms(je.marginals[1], xs[sel, 1], ms.rows[:, 1])
    assert_row_means(got[sel], products, clip=True)


def test_grids_take_their_terms_through_the_joint_module(monkeypatch):
    # the benchmark's per-layer spans and its self-test wrap `pdf_terms` and
    # `cdf_terms` where `joint` looks them up, so a grid that reached the term
    # matrices another way would leave the `joint_grid` gate and the
    # `estimators.*_terms` metrics blind to them
    rng = np.random.default_rng(62)
    je = fit_joint(MultiSample(beta_rows(rng, 200)), 0.1, EPANECHNIKOV, REFLECTION, SupportMode.known(0.0, 1.0))
    axes = [np.linspace(0.05, 0.95, 11), np.linspace(0.1, 0.9, 7)]
    before = je.cdf_grid(axes), je.pdf_grid(axes)
    for name in ("cdf_terms", "pdf_terms"):
        monkeypatch.setattr(joint, name, lambda *args, terms=getattr(joint, name): terms(*args) * (1.0 + 1e-3))
    after = je.cdf_grid(axes), je.pdf_grid(axes)
    for old, new in zip(before, after):
        # each of the two factors of every product is scaled
        assert np.all(old > 0.0) and np.allclose(new, old * (1.0 + 1e-3) ** 2, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("method", [REFLECTION, BOUNDARY_KERNEL])
def test_tensor_grid_memory(method):
    # the benchmark's grid: 201^2 at n = 2000 on beta(3,1) x beta(2,2) data
    # with h = (0.05, 0.08); each axis's term matrix is 3.2 MB, and the row
    # blocks and BLAS slices add a few blocks of BLOCK_ROWS rows
    rng = np.random.default_rng(63)
    ms = MultiSample(np.column_stack([rng.beta(3.0, 1.0, 2000), rng.beta(2.0, 2.0, 2000)]))
    je = fit_joint(ms, [0.05, 0.08], EPANECHNIKOV, method, SupportMode.proposed())
    axes = [np.linspace(l - 0.05, u + 0.05, 201) for l, u in je.rectangle]
    for grid in (je.cdf_grid, je.pdf_grid):
        tracemalloc.start()
        try:
            grid(axes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, f"{grid.__name__}: tracemalloc peak {peak / 1e6:.1f} MB"


def test_blas_products_stay_within_gemm_mnk(monkeypatch):
    # OpenBLAS splits a larger product over threads, and on a 2-CPU machine its
    # second thread made such products 10-100x slower at times (`joint.GEMM_MNK`);
    # every 2-D product of the benchmark's grid and of a Gaussian LSCV stays below it
    shapes = []

    def matmul(a, b, *args, matmul=np.matmul, **kwargs):
        shapes.append((np.shape(a), np.shape(b)))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", matmul)
    rng = np.random.default_rng(64)
    ms = MultiSample(np.column_stack([rng.beta(3.0, 1.0, 2000), rng.beta(2.0, 2.0, 2000)]))
    je = fit_joint(ms, [0.05, 0.08], EPANECHNIKOV, REFLECTION, SupportMode.known(0.0, 1.0))
    axes = [np.linspace(-0.05, 1.05, 201)] * 2
    je.cdf_grid(axes)
    je.pdf_grid(axes)
    grid_products = len(shapes)
    lscv_bandwidth(ms.coordinate(0), GAUSSIAN)
    assert 0 < grid_products < len(shapes)
    for a, b in shapes:
        (m, k), n = a[-2:], b[-1]
        assert b[-2] == k and m * k * n <= joint.GEMM_MNK, (a, b)


def test_scattered_joint_places_terms_as_the_grid_where_l_plus_h_rounds_to_l():
    # at l = 1e9 a bandwidth of 1e-8 is below half an ulp, so l + h == l and the
    # boundary kernel's middle region starts at x = l; the scattered joint takes
    # its rows from the same table as the term matrices, so it agrees with the
    # grid and the marginal there (it read 0 where they read 0.3)
    x = 1e9 + np.array([0.0, 0.0, 2.5e-8, 0.5, 1.0])
    je = fit_joint(MultiSample(np.column_stack([x, np.linspace(0.0, 1.0, 5)])), [1e-8, 0.2], EPANECHNIKOV,
                   BOUNDARY_KERNEL, [SupportMode.known(1e9, 1e9 + 1.0), SupportMode.known(-0.5, 1.5)])
    assert 1e9 + 1e-8 == 1e9
    point = np.array([[1e9, 2.0]])
    grid = je.cdf_grid([point[:, 0], point[:, 1]])
    assert je.cdf(point)[0] == grid[0, 0] == je.marginals[0].cdf(1e9) == 0.3
