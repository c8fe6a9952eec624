import warnings

import numpy as np
import pytest

from supdens import (
    BOUNDARY_KERNEL,
    EPANECHNIKOV,
    GAUSSIAN,
    NAIVE,
    REFLECTION,
    ConfigError,
    DataError,
    FittedEstimator,
    Sample,
    SupportInterval,
    evaluate_grid,
)
from supdens import estimators
from supdens.estimators import BLOCK_ROWS, cdf_terms, pdf_terms
from supdens.quadrature import composite_simpson
from test_terms_oracle import assert_window_means

UNBOUNDED = SupportInterval(-np.inf, np.inf)


def random_config(rng, method="reflection", n_max=80):
    """A random (sample, h, support) triple with the data strictly inside."""
    n = int(rng.integers(2, n_max))
    lo = rng.uniform(-3, 3)
    span = rng.uniform(0.5, 4.0)
    u = lo + span
    data = rng.uniform(lo + 0.02 * span, u - 0.02 * span, n)
    h = rng.uniform(0.1, 0.49) * span
    return Sample(data), float(h), SupportInterval(float(lo), float(u))


class TestNaive:
    def test_pointwise_examples(self):
        est = FittedEstimator(NAIVE, Sample([0.0]), 1.0, UNBOUNDED, EPANECHNIKOV)
        assert est.pdf(0.0) == pytest.approx(0.75, abs=0)
        assert est.cdf(1.0) == 1.0
        sym = FittedEstimator(NAIVE, Sample([-1.0, 1.0]), 1.0, UNBOUNDED, EPANECHNIKOV)
        assert sym.cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_bad_bandwidth(self):
        for h in (0.0, np.nan):
            with pytest.raises(ConfigError):
                FittedEstimator(NAIVE, Sample([0.0, 1.0]), h, UNBOUNDED, EPANECHNIKOV)


class TestReflection:
    def test_hand_evaluated_pdf(self):
        est = FittedEstimator(REFLECTION, Sample([0.1]), 0.5, SupportInterval(0.0, 1.0), EPANECHNIKOV)
        # (1/0.5) * [K(-0.2) + K(-3.8) + K(0.2)] = 2 * (0.72 + 0 + 0.72)
        assert est.pdf(0.0) == pytest.approx(2.88, rel=1e-14)

    def test_endpoint_exactness_random_configs(self):
        rng = np.random.default_rng(7)
        for _ in range(150):
            sample, h, support = random_config(rng)
            est = FittedEstimator(REFLECTION, sample, h, support, EPANECHNIKOV)
            assert est.cdf(support.lower) == 0.0
            assert abs(est.cdf(support.upper) - 1.0) < 1e-12

    def test_outside_support_clamped(self):
        est = FittedEstimator(REFLECTION, Sample([0.4, 0.6]), 0.2, SupportInterval(0.0, 1.0), EPANECHNIKOV)
        assert est.pdf(-0.5) == 0.0
        assert est.pdf(1.5) == 0.0
        assert est.cdf(-0.5) == 0.0
        assert est.cdf(1.5) == 1.0

    def test_normalization_by_quadrature(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            sample, h, support = random_config(rng)
            est = FittedEstimator(REFLECTION, sample, h, support, EPANECHNIKOV)
            total = composite_simpson(est.pdf, support.lower, support.upper, 2001)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_validation(self):
        s = Sample([0.2, 0.9])
        with pytest.raises(DataError):
            FittedEstimator(REFLECTION, s, 0.1, SupportInterval(0.3, 1.0), EPANECHNIKOV)
        with pytest.raises(ConfigError):
            FittedEstimator(REFLECTION, s, 0.6, SupportInterval(0.0, 1.0), EPANECHNIKOV)
        with pytest.raises(ConfigError):
            FittedEstimator(REFLECTION, s, 0.1, SupportInterval(0.0, np.inf), EPANECHNIKOV)


class TestBoundaryKernel:
    def test_right_piece_examples(self):
        est = FittedEstimator(BOUNDARY_KERNEL, Sample([0.95]), 0.2, SupportInterval(0.0, 1.0), EPANECHNIKOV)
        assert est.cdf(0.9) == pytest.approx(1.0 - 0.84375, rel=1e-12)
        assert est.pdf(0.9) == pytest.approx(2.8125, rel=1e-12)
        # derivative oracle: central difference of the cdf, step 1e-6
        step = 1e-6
        fd = (est.cdf(0.9 + step) - est.cdf(0.9 - step)) / (2 * step)
        assert est.pdf(0.9) == pytest.approx(fd, abs=1e-6)

    def test_seam_continuity_and_naive_match(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            sample, h, support = random_config(rng)
            est = FittedEstimator(BOUNDARY_KERNEL, sample, h, support, EPANECHNIKOV)
            naive = FittedEstimator(NAIVE, sample, h, UNBOUNDED, EPANECHNIKOV)
            for seam in (support.lower + h, support.upper - h):
                below = np.nextafter(seam, -np.inf)
                assert abs(est.cdf(seam) - est.cdf(below)) < 1e-12
            # at the left seam the piecewise cdf equals the naive cdf exactly
            assert est.cdf(support.lower + h) == pytest.approx(
                naive.cdf(support.lower + h), abs=1e-13
            )

    def test_cdf_normalization_identity(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            sample, h, support = random_config(rng)
            est = FittedEstimator(BOUNDARY_KERNEL, sample, h, support, EPANECHNIKOV)
            assert est.cdf(support.upper) - est.cdf(support.lower) == 1.0

    def test_endpoint_evaluation_limits(self):
        est = FittedEstimator(BOUNDARY_KERNEL, Sample([0.4, 0.6]), 0.3, SupportInterval(0.0, 1.0), EPANECHNIKOV)
        assert est.cdf(0.0) == 0.0
        assert est.cdf(1.0) == 1.0
        assert est.pdf(0.0) == 0.0
        assert est.pdf(1.0) == 0.0

    def test_pdf_next_to_a_zero_endpoint(self):
        # within a subnormal distance of l = 0 the edge scale x - l makes
        # z = (x - X_i)/(x - l) infinite: K(z) = 0 there, not 0 * inf = NaN
        est = FittedEstimator(BOUNDARY_KERNEL, Sample([0.0, 0.4, 0.6]), 0.3, SupportInterval(0.0, 1.0), EPANECHNIKOV)
        xs = np.array([5e-324, 1e-310])
        with np.errstate(over="ignore"):
            assert np.array_equal(est.pdf(xs), [0.0, 0.0])
            assert np.array_equal(pdf_terms(est, xs)[:, 1:], np.zeros((2, 2)))

    def test_requires_compact_kernel(self):
        with pytest.raises(ConfigError):
            FittedEstimator(BOUNDARY_KERNEL, Sample([0.4, 0.6]), 0.2, SupportInterval(0.0, 1.0), GAUSSIAN)


class TestConstruction:
    """FittedEstimator checks its own fields, whoever builds it."""

    def test_unknown_method(self):
        with pytest.raises(ConfigError, match="unknown method"):
            FittedEstimator("kde", Sample([0.2, 0.8]), 0.1, SupportInterval(0.0, 1.0), EPANECHNIKOV)

    @pytest.mark.parametrize("support", [(0.0, 1.0), (-np.inf, 1.0), (0.0, np.inf)])
    def test_naive_needs_the_whole_line(self, support):
        with pytest.raises(ConfigError, match="naive"):
            FittedEstimator(NAIVE, Sample([0.2, 0.8]), 0.1, SupportInterval(*support), EPANECHNIKOV)

    def test_check_order(self):
        # each call breaks its check and every later one: the first check raises
        s, half_line = Sample([0.2, 0.9]), SupportInterval(0.5, np.inf)
        with pytest.raises(ConfigError, match="compact"):
            FittedEstimator(BOUNDARY_KERNEL, s, 0.0, half_line, GAUSSIAN)
        for method in (REFLECTION, BOUNDARY_KERNEL):
            with pytest.raises(ConfigError, match="positive"):
                FittedEstimator(method, s, 0.0, half_line, EPANECHNIKOV)
            with pytest.raises(ConfigError, match="bounded"):
                FittedEstimator(method, s, 5.0, half_line, EPANECHNIKOV)
            with pytest.raises(DataError, match="not contained"):
                FittedEstimator(method, s, 5.0, SupportInterval(0.5, 1.0), EPANECHNIKOV)
            with pytest.raises(ConfigError, match="half the support"):
                FittedEstimator(method, s, 0.6, SupportInterval(0.0, 1.0), EPANECHNIKOV)

    def test_bandwidth_stored_as_float(self):
        for h, method, support in ((1, NAIVE, UNBOUNDED), (np.float32(0.25), REFLECTION, SupportInterval(0, 1))):
            est = FittedEstimator(method, Sample([0.2, 0.8]), h, support, EPANECHNIKOV)
            assert type(est.h) is float and est.h == float(h)


@pytest.mark.parametrize("method", ["naive", "reflection", "boundary_kernel"])
def test_pdf_nonnegative_and_cdf_monotone(method):
    rng = np.random.default_rng(11)
    for _ in range(200):
        sample, h, support = random_config(rng, n_max=50)
        est = FittedEstimator(method, sample, h, UNBOUNDED if method == NAIVE else support, EPANECHNIKOV)
        grid = np.linspace(support.lower - 0.5, support.upper + 0.5, 1001)
        pdf = est.pdf(grid)
        cdf = est.cdf(grid)
        assert np.all(pdf >= 0)
        assert np.all(np.diff(cdf) >= -1e-15)


@pytest.mark.parametrize("method", ["naive", "reflection"])
def test_cdf_pdf_consistency_simpson(method):
    rng = np.random.default_rng(12)
    for _ in range(20):
        sample, h, support = random_config(rng, n_max=60)
        est = FittedEstimator(method, sample, h, UNBOUNDED if method == NAIVE else support, EPANECHNIKOV)
        a = rng.uniform(support.lower, support.lower + 0.3 * support.length)
        b = rng.uniform(support.upper - 0.3 * support.length, support.upper)
        quad = composite_simpson(est.pdf, a, b, 2001)
        assert quad == pytest.approx(est.cdf(b) - est.cdf(a), abs=1e-6)


def test_bk_cdf_pdf_consistency_within_pieces():
    # the boundary-kernel pdf has genuine jumps at the seams, and its slope
    # steepens near the endpoints, so the consistency check runs piece by
    # piece on a fine grid
    rng = np.random.default_rng(13)
    for _ in range(20):
        sample, h, support = random_config(rng, n_max=60)
        est = FittedEstimator(BOUNDARY_KERNEL, sample, h, support, EPANECHNIKOV)
        l, u = support.lower, support.upper
        for a, b in [(l, l + h), (l + h, u - h), (u - h, u)]:
            # inset by one ulp so the seam nodes evaluate the piece being
            # integrated rather than its neighbour
            quad = composite_simpson(est.pdf, np.nextafter(a, b), np.nextafter(b, a), 20001)
            assert quad == pytest.approx(est.cdf(b) - est.cdf(a), abs=1e-6)


def test_boundary_bias_ordering_at_endpoint():
    # Beta(1,1), n = 2000, h = 0.1, 200 replications: the naive estimator's
    # endpoint bias is O(1); the corrected estimators' is O(h).  The
    # boundary-kernel density tends to 0 at the endpoint itself, so it is
    # compared at 1 - h/2 instead.
    n, h, reps = 2000, 0.1, 200
    support = SupportInterval(0.0, 1.0)
    acc = {"naive": [], "reflection": [], "bk_inner": [], "naive_inner": []}
    for r in range(reps):
        rng = np.random.default_rng(1000 + r)
        sample = Sample(rng.uniform(0, 1, n))
        naive = FittedEstimator(NAIVE, sample, h, UNBOUNDED, EPANECHNIKOV)
        refl = FittedEstimator(REFLECTION, sample, h, support, EPANECHNIKOV)
        bk = FittedEstimator(BOUNDARY_KERNEL, sample, h, support, EPANECHNIKOV)
        acc["naive"].append(naive.pdf(1.0))
        acc["reflection"].append(refl.pdf(1.0))
        acc["bk_inner"].append(bk.pdf(1.0 - h / 2))
        acc["naive_inner"].append(naive.pdf(1.0 - h / 2))
    bias_naive = abs(np.mean(acc["naive"]) - 1.0)
    bias_refl = abs(np.mean(acc["reflection"]) - 1.0)
    bias_bk = abs(np.mean(acc["bk_inner"]) - 1.0)
    bias_naive_inner = abs(np.mean(acc["naive_inner"]) - 1.0)
    assert bias_naive > bias_refl
    assert bias_naive_inner > bias_bk


@pytest.mark.parametrize("method,kernel", [
    ("naive", EPANECHNIKOV), ("naive", GAUSSIAN), ("reflection", EPANECHNIKOV),
    ("reflection", GAUSSIAN), ("boundary_kernel", EPANECHNIKOV),
], ids=lambda v: getattr(v, "name", v))
def test_row_blocks_match_row_by_row_terms(method, kernel):
    rng = np.random.default_rng(14)
    sample, h, support = random_config(rng)
    est = FittedEstimator(method, sample, h, UNBOUNDED if method == NAIVE else support, kernel)
    l, u = support.lower, support.upper
    edges = [l, u, l + h, u - h, np.nextafter(l + h, l), np.nextafter(u - h, u)]
    xs = np.concatenate([edges, rng.uniform(l - 0.5, u + 0.5, BLOCK_ROWS + 37)])
    for terms in (pdf_terms, cdf_terms):
        whole = terms(est, xs)
        by_row = np.vstack([terms(est, xs[k:k + 1]) for k in range(xs.size)])
        assert np.array_equal(whole, by_row)


@pytest.mark.parametrize("method,kernel", [
    ("naive", EPANECHNIKOV), ("naive", GAUSSIAN), ("reflection", EPANECHNIKOV),
    ("reflection", GAUSSIAN), ("boundary_kernel", EPANECHNIKOV),
], ids=lambda v: getattr(v, "name", v))
@pytest.mark.parametrize("chunk", [estimators.MEAN_CHUNK, 700 * BLOCK_ROWS, 700 * 5 + 3],
                         ids=["default_chunk", "block_chunk", "capped_chunk"])
def test_chunked_means_equal_term_matrix_means(method, kernel, chunk, monkeypatch):
    # pdf_terms/cdf_terms fill blocks of MEAN_CHUNK // n rows (block_chunk: one
    # BLOCK_ROWS block; capped_chunk: blocks of 5 rows), and pdf, cdf and
    # evaluate_grid sum the windows WINDOW_CHUNK = chunk / 64 entries at a time
    # (2^14 by default, then a few windows or one a chunk).  The values must
    # be the whole term matrix's row means within the bound that
    # `estimators._window_estimates` states, and for the Gaussian, whose means
    # come from a transform, within EVAL_TOL (the pdf's times h)
    monkeypatch.setattr(estimators, "MEAN_CHUNK", chunk)
    monkeypatch.setattr(estimators, "WINDOW_CHUNK", chunk >> 6)
    rng = np.random.default_rng(15)
    l, u = -0.4, 1.3
    sample, h = Sample(rng.uniform(l + 0.01, u - 0.01, 700)), 0.21
    support = SupportInterval(l, u)
    est = FittedEstimator(method, sample, h, UNBOUNDED if method == NAIVE else support, kernel)
    edges = [l, u, l + h, u - h, np.nextafter(l + h, l), np.nextafter(u - h, u)]
    xs = np.concatenate([edges, rng.uniform(l - 0.3, u + 0.3, BLOCK_ROWS + 43 - len(edges))])
    pdf_matrix, cdf_matrix = pdf_terms(est, xs), cdf_terms(est, xs)
    assert np.array_equal(pdf_matrix, np.vstack([pdf_terms(est, xs[k:k + 1]) for k in range(xs.size)]))
    pdf, cdf = est.pdf(xs), est.cdf(xs)
    if kernel is GAUSSIAN:
        assert np.all(np.abs(pdf - pdf_matrix.mean(axis=1)) * h <= estimators.EVAL_TOL)
        assert np.all(np.abs(cdf - cdf_matrix.mean(axis=1)) <= estimators.EVAL_TOL)
    else:
        assert_window_means(est, xs, pdf, pdf_matrix, True)
        assert_window_means(est, xs, cdf, cdf_matrix, False)
    grid = evaluate_grid(est, xs)
    assert np.array_equal(grid[:, 1], pdf) and np.array_equal(grid[:, 2], cdf)
    assert est.pdf(float(xs[7])) == pdf[7] and est.cdf(float(xs[7])) == cdf[7]


@pytest.mark.parametrize("method", ["naive", "reflection", "boundary_kernel"])
@pytest.mark.parametrize("terms", [pdf_terms, cdf_terms])
def test_terms_of_an_empty_column(method, terms):
    # an empty data column gives an (m, 0) matrix, and no column gives (m, n)
    sample, support = Sample([0.3, 0.5, 0.7]), SupportInterval(0.0, 1.0)
    est = FittedEstimator(method, sample, 0.2, UNBOUNDED if method == NAIVE else support, EPANECHNIKOV)
    x = np.array([0.5, -1.0, 0.1, 2.0])
    assert terms(est, x, np.array([])).shape == (4, 0)
    assert terms(est, x[:0], np.array([])).shape == (0, 0)
    assert terms(est, x).shape == (4, 3)


@pytest.mark.parametrize("method", ["naive", "reflection", "boundary_kernel"])
@pytest.mark.parametrize("which", ["pdf", "cdf"])
def test_nonfinite_points_rejected(method, which):
    sample, support = Sample([0.3, 0.5, 0.7]), SupportInterval(0.0, 1.0)
    est = FittedEstimator(method, sample, 0.2, UNBOUNDED if method == NAIVE else support, EPANECHNIKOV)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DataError, match="finite"):
            getattr(est, which)(np.array([0.5, bad]))


@pytest.mark.parametrize("kernel", [EPANECHNIKOV, GAUSSIAN])
def test_pdf_and_cdf_keep_the_shape_of_x(kernel):
    # as beta_pdf and eval_K do: the values of the flattened points, in x's
    # shape; a scalar or 0-d x gives a float (they used to return shape (6,))
    est = FittedEstimator(REFLECTION, Sample([0.2, 0.5, 0.7]), 0.2, SupportInterval(0.0, 1.0), kernel)
    x = np.linspace(-0.1, 1.1, 6)
    for f in (est.pdf, est.cdf):
        flat = f(x)
        for shape in ((2, 3), (3, 1, 2), (6,)):
            got = f(x.reshape(shape))
            assert got.shape == shape and np.array_equal(got.ravel(), flat)
        assert f(x.reshape(2, 3).tolist()).shape == (2, 3)
        assert type(f(0.4)) is float and type(f(np.array(0.4))) is float and f(0.4) == f(np.array([0.4]))[0]


class TestEvaluateGrid:
    def test_empty(self):
        est = FittedEstimator(NAIVE, Sample([0.0, 1.0]), 0.5, UNBOUNDED, EPANECHNIKOV)
        assert evaluate_grid(est, []).shape == (0, 3)

    def test_reflection_endpoints(self):
        est = FittedEstimator(REFLECTION, Sample([0.3, 0.7]), 0.2, SupportInterval(0.0, 1.0), EPANECHNIKOV)
        rows = evaluate_grid(est, [0.0, 1.0])
        assert rows[0, 2] == 0.0
        assert rows[1, 2] == pytest.approx(1.0, abs=1e-12)

    def test_single_point_matches_direct(self):
        est = FittedEstimator(NAIVE, Sample([0.3, 0.7]), 0.2, UNBOUNDED, EPANECHNIKOV)
        rows = evaluate_grid(est, [0.5])
        assert rows[0, 1] == est.pdf(0.5)
        assert rows[0, 2] == est.cdf(0.5)

    def test_rejects_nonfinite(self):
        est = FittedEstimator(NAIVE, Sample([0.3, 0.7]), 0.2, UNBOUNDED, EPANECHNIKOV)
        with pytest.raises(DataError):
            evaluate_grid(est, [0.0, np.inf])


def test_sample_validation():
    with pytest.raises(DataError):
        Sample([])
    with pytest.raises(DataError):
        Sample([1.0, np.nan])
    s = Sample([3.0, 1.0, 2.0])
    assert s.min == 1.0 and s.max == 3.0
    assert np.all(np.diff(s.values) >= 0)


def test_subnormal_scale_row_evaluates_without_warning():
    # the block at x = 5e-324, 1e-200 and 0.15 windows the columns of every
    # row, so the tiny boundary-kernel scales near 0 overflow z (5e-324) or
    # z*z inside K (1e-200) for far observations; the values are those of
    # each point on its own
    est = FittedEstimator(BOUNDARY_KERNEL, Sample([0.05, 0.1, 0.3, 0.5, 0.9]), 0.2,
                          SupportInterval(0.0, 1.0), EPANECHNIKOV)
    x = np.array([5e-324, 1e-200, 0.15])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pdf, cdf = est.pdf(x), est.cdf(x)
    assert pdf.tolist() == [0.0, 0.0, 0.7777777777777779] == [est.pdf(v) for v in x]
    assert cdf.tolist() == [0.0, 0.0, 0.3333333333333333] == [est.cdf(v) for v in x]


@pytest.mark.parametrize("kernel", [EPANECHNIKOV, GAUSSIAN])
def test_cdf_sums_skipping_the_terms_that_are_one_are_the_full_windows(kernel):
    # a cdf without the pdf writes the terms at z >= cdf_one as 1 rather than
    # evaluate them; its window sums are the ones formed with every term evaluated
    rng = np.random.default_rng(17)
    data = np.sort(rng.beta(3.0, 1.0, 3000))
    p = np.concatenate([rng.uniform(-0.5, 1.5, 200), data[::97], [data[0], data[-1]]])
    for scale in (0.002, 0.03, 0.4, rng.uniform(0.001, 0.5, p.size)):
        a, _, skipped = estimators._piece_sums(kernel, data, p, scale, 0.0, False, True)
        full_a, _, full = estimators._piece_sums(kernel, data, p, scale, 0.0, True, True)
        assert np.array_equal(a, full_a) and np.array_equal(skipped, full)
