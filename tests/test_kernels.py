import warnings
from math import ceil, log, sqrt

import mpmath
import numpy as np
import pytest

from supdens import EPANECHNIKOV, GAUSSIAN, DataError, estimators, eval_K, eval_W, get_kernel
from supdens.errors import ConfigError
from supdens.quadrature import composite_simpson


def test_epanechnikov_values():
    assert eval_K(EPANECHNIKOV, 0.0) == pytest.approx(0.75, abs=0)
    assert eval_K(EPANECHNIKOV, 1.5) == 0.0
    assert eval_W(EPANECHNIKOV, 0.0) == pytest.approx(0.5, abs=0)
    assert eval_W(EPANECHNIKOV, -1.0) == 0.0
    assert eval_W(EPANECHNIKOV, 1.0) == 1.0


@pytest.mark.parametrize("kernel", [EPANECHNIKOV, GAUSSIAN], ids=lambda k: k.name)
def test_kernel_saturates_exactly_beyond_its_saturation_radius(kernel):
    # the estimators write these constants instead of evaluating the kernel
    r = kernel.saturation
    z = np.concatenate([[r, np.nextafter(r, np.inf), np.nextafter(np.nextafter(r, np.inf), np.inf)],
                        np.linspace(r, 1e3, 200001), [1e300, np.inf]])
    for side, w in ((1.0, 1.0), (-1.0, 0.0)):
        with np.errstate(over="ignore"):  # z * z overflows to inf at 1e300
            k, kk = kernel.pdf(side * z), kernel.convolution(side * 2.0 * z)
        assert np.all(k == 0.0) and not np.any(np.signbit(k))
        assert np.all(kernel.cdf(side * z) == w)
        assert np.all(kk == 0.0) and not np.any(np.signbit(kk))
    # the radius is tight for the compact kernel and has margin for the Gaussian
    inside = np.nextafter(r, 0.0)
    assert (kernel.pdf(inside) > 0.0) == kernel.compact
    assert (kernel.convolution(np.nextafter(2.0 * r, 0.0)) > 0.0) == kernel.compact


def test_epanechnikov_w_at_half_matches_quadrature():
    # numeric integration of K up to 0.5
    expected = composite_simpson(EPANECHNIKOV.pdf, -1.0, 0.5, 20001)
    assert eval_W(EPANECHNIKOV, 0.5) == pytest.approx(0.84375, abs=1e-12)
    assert eval_W(EPANECHNIKOV, 0.5) == pytest.approx(expected, abs=1e-9)


def test_gaussian_values():
    assert eval_K(GAUSSIAN, 0.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi), rel=1e-15)
    assert eval_W(GAUSSIAN, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert eval_W(GAUSSIAN, np.inf) == 1.0
    assert eval_W(GAUSSIAN, -np.inf) == 0.0
    # the compact kernel's W clips +/-inf to exactly 1 and 0 as well
    assert eval_W(EPANECHNIKOV, np.inf) == 1.0
    assert eval_W(EPANECHNIKOV, -np.inf) == 0.0


_FUNCTIONS = [(kernel, attr) for kernel in (EPANECHNIKOV, GAUSSIAN) for attr in ("pdf", "cdf", "convolution")]


@pytest.mark.parametrize("kernel, attr", _FUNCTIONS, ids=[f"{k.name}-{a}" for k, a in _FUNCTIONS])
def test_kernel_function_contract(kernel, attr):
    # a Python scalar, a 0-d array, a list or an array of any shape in; float64
    # values of that shape in new memory out; the argument is never written
    f = getattr(kernel, attr)
    values = [-40.0, -1.5, -0.5, 0.0, 0.25, 1.0, 3.0]
    want = [float(f(np.array([v]))[0]) for v in values]
    for v, w in zip(values, want):
        for arg in (v, np.float64(v), np.array(v)):
            out = f(arg)
            assert np.shape(out) == () and np.asarray(out).dtype == np.float64
            assert float(out) == w
    assert np.array_equal(f(values), want)
    grid = np.array(values * 2).reshape(2, 7)
    for arg in (grid, grid.T, grid[:, ::2], np.array(values)):
        before = arg.copy()
        out = f(arg)
        assert np.shape(out) == arg.shape and out.dtype == np.float64
        assert np.array_equal(out, np.vectorize(lambda v: want[values.index(v)])(arg))
        assert np.array_equal(arg, before) and not np.shares_memory(out, arg)


@pytest.mark.parametrize("kernel", [EPANECHNIKOV, GAUSSIAN])
def test_kernel_integrates_to_one(kernel):
    r = kernel.support_radius if kernel.compact else 10.0
    total = composite_simpson(kernel.pdf, -r, r, 40001)
    assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("kernel", [EPANECHNIKOV, GAUSSIAN])
def test_w_symmetry_thousand_points(kernel):
    rng = np.random.default_rng(101)
    z = rng.uniform(-3, 3, 1000)
    s = np.asarray(eval_W(kernel, z)) + np.asarray(eval_W(kernel, -z))
    assert np.max(np.abs(s - 1.0)) < 1e-12


@pytest.mark.parametrize("kernel", [EPANECHNIKOV, GAUSSIAN])
def test_w_matches_quadrature_of_k(kernel):
    rng = np.random.default_rng(102)
    lo = -kernel.support_radius if kernel.compact else -9.0
    for z in rng.uniform(-1.5, 1.5, 12):
        quad = composite_simpson(kernel.pdf, lo, float(z), 40001)
        assert eval_W(kernel, float(z)) == pytest.approx(quad, abs=1e-9)


@pytest.mark.parametrize("kernel", [EPANECHNIKOV, GAUSSIAN])
def test_k_is_derivative_of_w(kernel):
    # central difference, step 1e-5, away from support edges
    rng = np.random.default_rng(103)
    z = rng.uniform(-0.9, 0.9, 200)
    step = 1e-5
    fd = (np.asarray(eval_W(kernel, z + step)) - np.asarray(eval_W(kernel, z - step))) / (2 * step)
    assert np.max(np.abs(fd - np.asarray(eval_K(kernel, z)))) < 1e-6


def test_kernel_symmetry_and_nonnegativity():
    rng = np.random.default_rng(104)
    z = rng.uniform(-4, 4, 500)
    for kernel in (EPANECHNIKOV, GAUSSIAN):
        k = np.asarray(eval_K(kernel, z))
        assert np.all(k >= 0)
        assert np.max(np.abs(k - np.asarray(eval_K(kernel, -z)))) < 1e-15


def test_lookup_and_errors():
    assert get_kernel("epanechnikov") is EPANECHNIKOV
    assert get_kernel("Gaussian") is GAUSSIAN
    with pytest.raises(ConfigError):
        get_kernel("triangular")
    with pytest.raises(DataError):
        eval_K(EPANECHNIKOV, np.inf)
    with pytest.raises(DataError):
        eval_W(GAUSSIAN, np.nan)


def test_epanechnikov_polynomial_reproduces_kernel_and_convolution():
    # the coefficients in |t| that LSCV's window sums use
    k_coeffs, kk_coeffs = EPANECHNIKOV.polynomial
    assert GAUSSIAN.polynomial is None
    t = np.linspace(0.0, 1.0, 2001)
    assert np.max(np.abs(np.polynomial.polynomial.polyval(t, k_coeffs) - EPANECHNIKOV.pdf(t))) <= 1e-15
    t = np.linspace(0.0, 2.0, 4001)
    assert np.max(np.abs(np.polynomial.polynomial.polyval(t, kk_coeffs) - EPANECHNIKOV.convolution(t))) <= 1e-15


#: The ends of Cody's ranges in |z| (`kernels._gauss_W`), each with its float neighbours.
_CODY_EDGES = [v for e in (0.67448975, sqrt(32.0), 37.5193) for v in (np.nextafter(e, 0.0), e, np.nextafter(e, np.inf))]


def _mp_values(f, z) -> np.ndarray:
    """f at each z in 50-digit arithmetic, rounded to float64."""
    with mpmath.workdps(50):
        return np.array([float(f(mpmath.mpf(float(v)))) for v in z])


def test_gaussian_w_matches_mpmath():
    # relative error within 2e-15 wherever Phi is a normal number (>= 2.3e-308),
    # absolute error within 2.3e-308 below, on a dense grid and at the ends of
    # the approximation's ranges
    z = np.concatenate([np.linspace(-39.0, 9.0, 12001), _CODY_EDGES, np.negative(_CODY_EDGES)])
    w, exact = GAUSSIAN.cdf(z), _mp_values(mpmath.ncdf, z)
    err, normal = np.abs(w - exact), exact >= 2.3e-308
    assert np.all(err[normal] <= 2e-15 * exact[normal])
    assert np.all(err[~normal] <= 2.3e-308)


def test_gaussian_w_is_monotone_symmetric_and_half_at_zero():
    z = np.sort(np.concatenate([np.linspace(-40.0, 40.0, 400001), _CODY_EDGES, np.negative(_CODY_EDGES)]))
    assert np.all(np.diff(GAUSSIAN.cdf(z)) >= 0.0)
    assert GAUSSIAN.cdf(0.0) == 0.5 and GAUSSIAN.cdf(-0.0) == 0.5
    z = np.concatenate([np.linspace(0.0, 8.0, 80001), _CODY_EDGES[:6]])
    assert np.all(np.abs(GAUSSIAN.cdf(z) + GAUSSIAN.cdf(-z) - 1.0) <= np.spacing(1.0))


@pytest.mark.parametrize("kernel", [EPANECHNIKOV, GAUSSIAN])
def test_w_is_exactly_one_from_cdf_one(kernel):
    assert kernel.cdf_one <= kernel.saturation
    z = np.concatenate([[kernel.cdf_one], np.linspace(kernel.cdf_one, kernel.saturation + 1.0, 100001), [np.inf]])
    assert np.all(kernel.cdf(z) == 1.0)


def test_gaussian_w_at_infinity_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert GAUSSIAN.cdf(np.inf) == 1.0 and GAUSSIAN.cdf(-np.inf) == 0.0
        assert GAUSSIAN.cdf(np.array([-np.inf, -1e308, 1e308, np.inf])).tolist() == [0.0, 0.0, 1.0, 1.0]


@pytest.mark.parametrize("h", [1e-3, 0.0054, 0.02, 0.1, 0.7, 3.0])
def test_gauss_sums_erfc_values_on_their_grid(h):
    # the transform's E(D) = erfc(-D)/2 is libm's erfc, within the 3 ulp of
    # erfc(-D) that `_gauss_sums` budgets, at every offset D = d w, |d| <= R,
    # that it forms at bandwidth h
    w = estimators._box_width(h) / (sqrt(2.0) * h)
    reach = ceil(sqrt(-log(estimators.EXPANSION_TOL)) / w)
    D = np.arange(-reach, reach + 1) * w
    exact = _mp_values(lambda d: mpmath.erfc(-d), D)
    assert np.all(np.abs(2.0 * estimators._gauss_E(D) - exact) <= 3.0 * np.spacing(exact))
