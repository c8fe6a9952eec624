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

# the Gaussian, whose pair sums are totals over all pairs, as a copy with
# wrapped functions (as benchmarks/tracing.py passes kernels): LSCV dispatches
# on the spec's fields, so the copy takes the expansion too
ALL_PAIRS_GAUSSIAN = dataclasses.replace(GAUSSIAN, pdf=lambda z: GAUSSIAN.pdf(z),
                                         convolution=lambda t: GAUSSIAN.convolution(t))


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


def oracle_lscv(sample, kernel, hs):
    """LSCV from the full-width pair sums, on the data centred as `bandwidth._lscv` centres them."""
    values = sample.values
    n = values.size
    with np.errstate(over="ignore", invalid="ignore"):  # far pairs at tiny h: d/h overflows to inf
        s_k, s_kk = full_width_pair_sums(values - values[n // 2], kernel, hs)
    k0, kk0 = float(kernel.pdf(0.0)), float(kernel.convolution(0.0))
    return (n * kk0 + 2.0 * s_kk) / (n * n * hs) - (2.0 / n) * (2.0 * s_k / ((n - 1) * hs))


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
    # both kernels' pair sums place the sample in bandwidth-wide windows or boxes
    s = Sample([0.0, 0.5, 1e308])
    for kernel in (EPANECHNIKOV, GAUSSIAN):
        with pytest.raises(DataError, match="overflows"):
            lscv_objective(s, kernel, 1e-10)


def test_kernel_without_pair_sums_is_rejected():
    # a kernel with neither a polynomial nor the Gaussian's name has no pair sums;
    # the dispatch reads fields, so a copy with wrapped functions keeps its path
    s = Sample(np.random.default_rng(5).beta(3.0, 1.0, 40))
    with pytest.raises(ConfigError, match="polynomial kernel or the Gaussian"):
        lscv_bandwidth(s, dataclasses.replace(EPANECHNIKOV, polynomial=None))
    for kernel in (EPANECHNIKOV, GAUSSIAN):
        wrapped = dataclasses.replace(kernel, pdf=lambda z, f=kernel.pdf: f(z),
                                      convolution=lambda t, f=kernel.convolution: f(t))
        assert lscv_bandwidth(s, wrapped) == lscv_bandwidth(s, kernel)


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
    # Epanechnikov LSCV from window moments against the full-width pair sums,
    # on beta(3,1) data, with ties when rounded to a lattice, and shifted.  The
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
    pairs = oracle_lscv(s, EPANECHNIKOV, cands)
    assert np.max(np.abs(window - pairs)) <= 1e-11 * np.max(np.abs(pairs))
    assert np.argmin(window) == np.argmin(pairs)


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 1500),
    lattice=st.sampled_from([0, 7, 60, 1000]),
    shift=st.sampled_from([0.0, -3.7, 1e9, 1e12]),
    clusters=st.booleans(),
)
def test_gaussian_expansion_matches_full_width_oracle(seed, n, lattice, shift, clusters):
    # Gaussian LSCV from the box expansion against the full-width pair sums:
    # beta(3,1) data, lattice ties, shifts, and a third of the sample 10^6
    # away; candidates from 1e-4 of the range (a few boxes per pair) to the
    # range (one box).  Relative to the grid's largest |LSCV|, as above.
    x = np.random.default_rng(seed).beta(3.0, 1.0, n)
    if lattice:
        x = np.round(x * lattice) / lattice
    if clusters:
        x[: n // 3] += 1e6
    s = Sample(x + shift)
    assume(np.ptp(s.values) > 0)
    cands = np.geomspace(1e-4, 1.0, 12) * np.ptp(s.values)
    got, want = bandwidth._lscv(s, GAUSSIAN, cands), oracle_lscv(s, GAUSSIAN, cands)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.argmin(got) == np.argmin(want)


@pytest.mark.parametrize("kernel", [EPANECHNIKOV, GAUSSIAN, ALL_PAIRS_GAUSSIAN],
                         ids=["window", "gaussian", "all_pairs"])
@pytest.mark.parametrize("n", [3, 60, 1500])
def test_objective_is_the_value_bandwidth_compares(kernel, n):
    # lscv_objective(h) is bit for bit the value lscv_bandwidth ranks for h,
    # whichever candidates share its chunk; the wrapped copy ranks the same bits
    s = Sample(np.random.default_rng(n).beta(3.0, 1.0, n) + 1e9 * (n == 60))
    cands = BandwidthGrid.default(s).candidates
    compared = bandwidth._lscv(s, kernel, cands)
    assert np.array_equal(compared, [lscv_objective(s, kernel, float(h)) for h in cands])
    assert lscv_bandwidth(s, kernel) == cands[np.argmin(compared)]
    if kernel is ALL_PAIRS_GAUSSIAN:
        assert np.array_equal(compared, bandwidth._lscv(s, GAUSSIAN, cands))


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


def test_gaussian_lscv_memory_is_linear():
    # the box moments and each candidate's products stay O(n), as the window path's do
    s = sample_beta(3.0, 1.0, 20000, 11)
    tracemalloc.start()
    try:
        lscv_bandwidth(s, GAUSSIAN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def box_edge_bandwidths(scale):
    """h where BOX sqrt(2) h or BOX 2 h (sigma's box) is exactly a power of 2 near scale, and its neighbours."""
    p, out = 2.0 ** np.floor(np.log2(scale)), []
    for factor in (np.sqrt(2.0), 2.0):
        h = p / (bandwidth.BOX * factor)
        near = [h]
        for _ in range(3):
            near += [np.nextafter(near[0], 0.0), np.nextafter(near[-1], np.inf)]
            near.sort()
        edge = [g for g in near if bandwidth.BOX * (factor * g) == p]
        assert edge
        out += [np.nextafter(edge[0], 0.0), edge[0], np.nextafter(edge[0], np.inf)]
    return out


@pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV], ids=["gaussian", "all_pairs"])
@pytest.mark.parametrize("shift", [0.0, -3.7, 1e9])
@pytest.mark.parametrize("n, lattice", [(2, 0), (45, 0), (257, 40), (1100, 0), (1100, 60)])
def test_all_pair_sums_match_full_width_oracle(kernel, shift, n, lattice):
    # Each path's sums over all pairs against the full-width sums.  gaussian:
    # the expansion's totals T = sum over i, j of exp(-(d/sigma)^2) keep the
    # docstring's bound, every pair's term within EXPANSION_TOL, so T is within
    # EXPANSION_TOL n^2 of the full-width sums, plus their rounding.  all_pairs:
    # the window moments' S_K and S_KK over i < j, whose every term is O(1), so
    # within a few ulps a pair (1e-14 is 45).  The lattice makes ties, and the
    # candidates run from 1e-4 of the range (pairs far apart in boxes or
    # windows) to the range (one box, every pair in reach), and take in the
    # Gaussian's box-width edges, where w jumps from 1 to just above 1/2.
    x = np.random.default_rng(n + lattice).beta(3.0, 1.0, n)
    if lattice:
        x = np.round(x * lattice) / lattice
    y = np.sort(x + shift)
    y -= y[n // 2]
    span = y[-1] - y[0]
    hs = np.r_[np.geomspace(1e-4, 1.0, 25) * span, box_edge_bandwidths(1e-3 * span), box_edge_bandwidths(0.1 * span)]
    s_k, s_kk = full_width_pair_sums(y, kernel, hs)
    if kernel.polynomial is not None:
        got = bandwidth._window_pair_sums(y, kernel, hs)
        assert np.all(np.abs(got - [s_k, s_kk]) <= 1e-14 * n * n)
        return
    want = np.r_[n + 2.0 * s_k / kernel.pdf(0.0), n + 2.0 * s_kk / kernel.convolution(0.0)]
    got = bandwidth._gauss_pair_totals(y, np.r_[np.sqrt(2.0) * hs, 2.0 * hs])
    assert np.all(np.abs(got - want) <= bandwidth.EXPANSION_TOL * n * n + 1e-14 * want)


@pytest.mark.parametrize("kernel", [EPANECHNIKOV, GAUSSIAN], ids=["window", "gaussian"])
@pytest.mark.parametrize("shift", [0.0, 1e9])
@pytest.mark.parametrize("n", [3, 100, 2000])
def test_lscv_is_the_same_bits_in_any_chunk(kernel, n, shift, monkeypatch):
    # each candidate's sums are its own arithmetic, so no chunk size moves a
    # bit: the window path's candidates one a chunk, WINDOW_CHUNK entries, or
    # one chunk; the Gaussian's box pairs one product a gather, CHUNK / TERMS
    # pairs, or one gather, checked on its box-pair sums too, whose last bits
    # the totals can round away.  Nor does which candidates share a call: all
    # of them, each alone, or the odd and the even ones apart.
    sample = Sample(np.random.default_rng(n).beta(3.0, 1.0, n) + shift)
    hs = BandwidthGrid.default(sample).candidates
    cap, sizes = ("WINDOW_CHUNK", (1, bandwidth.WINDOW_CHUNK, n * hs.size)) if kernel.polynomial else (
        "CHUNK", (1, bandwidth.CHUNK, 1 << 40))
    y, s = sample.values - sample.values[n // 2], bandwidth._box_width(bandwidth.BOX * np.sqrt(2.0) * hs[0])
    got, sums = [], []
    for size in sizes:
        monkeypatch.setattr(bandwidth, cap, size)
        got.append(bandwidth._lscv(sample, kernel, hs))
        sums.append(bandwidth._offset_sums(y, s, bandwidth.OFFSETS - 1))
    assert all(np.array_equal(v, sums[0]) for v in sums[1:])
    got.append(np.concatenate([bandwidth._lscv(sample, kernel, hs[k : k + 1]) for k in range(hs.size)]))
    parted = np.empty(hs.size)
    parted[0::2], parted[1::2] = bandwidth._lscv(sample, kernel, hs[0::2]), bandwidth._lscv(sample, kernel, hs[1::2])
    got.append(parted)
    assert all(np.array_equal(v, got[0]) for v in got[1:])
    assert np.all(np.isfinite(got[0]))
