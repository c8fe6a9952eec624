import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from supdens import (
    BandwidthGrid,
    ConfigError,
    DataError,
    EPANECHNIKOV,
    GAUSSIAN,
    Sample,
    lscv_bandwidth,
    lscv_objective,
    sample_beta,
)
from supdens import bandwidth
from supdens.quadrature import composite_simpson

# the Epanechnikov kernel without its polynomial: LSCV then takes the row-block
# path, whose windows `test_all_pair_sums_match_full_width_oracle` checks
ALL_PAIRS_EPANECHNIKOV = dataclasses.replace(EPANECHNIKOV, polynomial=None)


def test_grid_validation():
    with pytest.raises(ConfigError):
        BandwidthGrid([])
    with pytest.raises(ConfigError):
        BandwidthGrid([0.2, 0.1])
    with pytest.raises(ConfigError):
        BandwidthGrid([0.0, 0.1])
    g = BandwidthGrid.default(Sample(np.random.default_rng(0).uniform(0, 1, 50)))
    assert g.candidates.size == 40
    assert np.all(np.diff(g.candidates) > 0)


def test_objective_rejects_nan_bandwidth():
    s = Sample(np.random.default_rng(0).uniform(0, 1, 50))
    with pytest.raises(ConfigError, match="positive"):
        lscv_objective(s, EPANECHNIKOV, np.nan)


def test_degenerate_sample_rejected():
    with pytest.raises(DataError):
        BandwidthGrid.default(Sample([0.5, 0.5, 0.5]))
    with pytest.raises(DataError):
        lscv_bandwidth(Sample([0.5, 0.5, 0.5]), EPANECHNIKOV)


def test_single_candidate_grid():
    rng = np.random.default_rng(1)
    s = Sample(rng.uniform(0, 1, 30))
    assert lscv_bandwidth(s, EPANECHNIKOV, BandwidthGrid([0.17])) == 0.17


@pytest.mark.parametrize("h", [0.4, 0.8, 1.5])
def test_gaussian_objective_matches_simpson_oracle(h):
    # brute-force quadrature of the squared density over +/- 8h beyond the data
    s = Sample([-1.0, 1.0])
    data = s.values
    n = data.size

    def fhat(x):
        return GAUSSIAN.pdf((np.asarray(x)[:, None] - data) / h).sum(axis=1) / (n * h)

    int_f2 = composite_simpson(lambda x: fhat(x) ** 2, -1.0 - 8 * h, 1.0 + 8 * h, 10001)
    loo = sum(
        GAUSSIAN.pdf(np.array([(data[i] - data[j]) / h]))[0] / ((n - 1) * h)
        for i in range(n)
        for j in range(n)
        if j != i
    )
    oracle = int_f2 - (2.0 / n) * loo
    assert lscv_objective(s, GAUSSIAN, h) == pytest.approx(oracle, abs=1e-8)


def test_epanechnikov_convolution_matches_quadrature():
    # closed-form (K*K)(t) against direct integration
    conv = EPANECHNIKOV.convolution
    for t in [0.0, 0.3, 0.9, 1.4, 1.97, 2.5]:
        direct = composite_simpson(
            lambda u: EPANECHNIKOV.pdf(u) * EPANECHNIKOV.pdf(u - t), -1.0, 1.0, 20001
        )
        assert conv(np.array([t]))[0] == pytest.approx(direct, abs=1e-10)


def test_epanechnikov_objective_matches_simpson_oracle():
    rng = np.random.default_rng(2)
    s = Sample(rng.uniform(0, 1, 25))
    data = s.values
    n = data.size
    for h in (0.1, 0.3):

        def fhat(x):
            return EPANECHNIKOV.pdf((np.asarray(x)[:, None] - data) / h).sum(axis=1) / (n * h)

        int_f2 = composite_simpson(lambda x: fhat(x) ** 2, data[0] - 2 * h, data[-1] + 2 * h, 40001)
        diff = (data[:, None] - data[None, :]) / h
        loo = (float(EPANECHNIKOV.pdf(diff).sum()) - n * 0.75) / ((n - 1) * h)
        oracle = int_f2 - (2.0 / n) * loo
        assert lscv_objective(s, EPANECHNIKOV, h) == pytest.approx(oracle, abs=1e-8)


def test_selected_h_in_sanity_band_beta11():
    s = sample_beta(1.0, 1.0, 200, 404)
    h = lscv_bandwidth(s, EPANECHNIKOV)
    assert 0.02 <= h <= 0.6


def test_selected_h_minimizes_over_grid():
    rng = np.random.default_rng(3)
    s = Sample(rng.uniform(0, 1, 60))
    grid = BandwidthGrid.default(s)
    h = lscv_bandwidth(s, EPANECHNIKOV, grid)
    best = lscv_objective(s, EPANECHNIKOV, h)
    for cand in grid.candidates:
        assert best <= lscv_objective(s, EPANECHNIKOV, float(cand)) + 1e-15


def test_scale_equivariance():
    rng = np.random.default_rng(4)
    base = rng.uniform(0, 1, 80)
    s = Sample(base)
    grid = BandwidthGrid.default(s)
    h = lscv_bandwidth(s, EPANECHNIKOV, grid)
    a = 3.5
    s2 = Sample(a * base)
    h2 = lscv_bandwidth(s2, EPANECHNIKOV, BandwidthGrid(a * grid.candidates))
    assert h2 == pytest.approx(a * h, rel=1e-12)


def test_window_path_rejects_a_range_that_overflows_in_bandwidths():
    s = Sample([0.0, 0.5, 1e308])
    with pytest.raises(DataError, match="overflows"):
        lscv_objective(s, EPANECHNIKOV, 1e-10)
    with np.errstate(over="ignore"):  # d/h overflows to inf, where K vanishes
        assert np.isfinite(lscv_objective(s, GAUSSIAN, 1e-10))


def test_needs_three_observations():
    with pytest.raises(ConfigError):
        lscv_bandwidth(Sample([0.0, 1.0]), EPANECHNIKOV)


@settings(deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 600),
    lattice=st.sampled_from([0, 7, 60, 1000]),
    shift=st.sampled_from([0.0, -3.7, 1e9, 1e12]),
)
def test_window_sums_match_all_pairs(seed, n, lattice, shift):
    # Epanechnikov LSCV from window moments against the all-pairs sums, on
    # beta(3,1) data, with ties when rounded to a lattice, and shifted.  The
    # error is relative to the grid's largest |LSCV|, the scale of the
    # benchmark gate's slack: LSCV can cross zero on the grid, where a
    # pointwise relative error means nothing.
    x = np.random.default_rng(seed).beta(3.0, 1.0, n)
    if lattice:
        x = np.round(x * lattice) / lattice
    s = Sample(x + shift)
    assume(s.std() > 0)
    cands = BandwidthGrid.default(s).candidates
    window = bandwidth._lscv(s, EPANECHNIKOV, cands)
    pairs = bandwidth._lscv(s, ALL_PAIRS_EPANECHNIKOV, cands)
    assert np.max(np.abs(window - pairs)) <= 1e-11 * np.max(np.abs(pairs))
    assert np.argmin(window) == np.argmin(pairs)


@pytest.mark.parametrize("kernel", [EPANECHNIKOV, GAUSSIAN, ALL_PAIRS_EPANECHNIKOV],
                         ids=["window", "gaussian", "all_pairs"])
@pytest.mark.parametrize("n", [3, 60, 1500])
def test_objective_is_the_value_bandwidth_compares(kernel, n):
    # lscv_objective(h) is bit for bit the value lscv_bandwidth ranks for h,
    # whichever candidates share its chunk
    s = Sample(np.random.default_rng(n).beta(3.0, 1.0, n) + 1e9 * (n == 60))
    cands = BandwidthGrid.default(s).candidates
    compared = bandwidth._lscv(s, kernel, cands)
    assert np.array_equal(compared, [lscv_objective(s, kernel, float(h)) for h in cands])
    assert lscv_bandwidth(s, kernel) == cands[np.argmin(compared)]


def test_window_lscv_memory_is_linear():
    # n = 2 * 10^4: the dense n x n matrix alone was 3.2 GB over 40 candidates
    s = sample_beta(3.0, 1.0, 20000, 11)
    tracemalloc.start()
    try:
        lscv_bandwidth(s, EPANECHNIKOV)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def full_width_pair_sums(y, kernel, hs):
    """Pair sums of K and K*K over the upper triangle, every entry of every row block evaluated."""
    n = y.size
    rows = max(1, bandwidth.CHUNK // n)
    out = np.zeros((2, hs.size))
    for i0 in range(0, n - 1, rows):
        i1 = min(i0 + rows, n - 1)
        d = y[None, i0 + 1:] - y[i0:i1, None]
        d[:, : i1 - i0][np.tri(i1 - i0, k=-1, dtype=bool)] = np.inf
        for k, h in enumerate(hs):
            z = d / h
            out[0, k] += kernel.pdf(z).sum()
            out[1, k] += kernel.convolution(z).sum()
    return out


@pytest.mark.parametrize("kernel", [GAUSSIAN, ALL_PAIRS_EPANECHNIKOV], ids=["gaussian", "all_pairs"])
@pytest.mark.parametrize("shift", [0.0, -3.7, 1e9])
@pytest.mark.parametrize("n, lattice", [(2, 0), (45, 0), (257, 40), (1100, 0), (1100, 60)])
def test_all_pair_sums_match_full_width_oracle(kernel, shift, n, lattice):
    # The windowed row blocks sum the same block arrays as the full-width
    # oracle, bit for bit.  257 and 1100 rows are not multiples of the block
    # height CHUNK // n, the lattice makes ties, and the candidates run from
    # 1e-4 of the range (a window of a few columns) to the range (all of them).
    x = np.random.default_rng(n + lattice).beta(3.0, 1.0, n)
    if lattice:
        x = np.round(x * lattice) / lattice
    y = np.sort(x + shift)
    y -= y[n // 2]
    hs = np.geomspace(1e-4, 1.0, 25) * (y[-1] - y[0])
    assert np.array_equal(bandwidth._all_pair_sums(y, kernel, hs), full_width_pair_sums(y, kernel, hs))
