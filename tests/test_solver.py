import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from supdens import (
    BOUNDARY_KERNEL,
    EPANECHNIKOV,
    GAUSSIAN,
    NAIVE,
    REFLECTION,
    ConfigError,
    DataError,
    FittedEstimator,
    NumericError,
    Sample,
    SupportInterval,
    SupportMode,
    fit,
    solve_support,
)
from supdens import solver
from supdens.estimators import _window_estimates
from supdens.solver import _bk_extreme_cdf


def uniform_sample(rng, n, lo=0.0, hi=1.0):
    return Sample(rng.uniform(lo, hi, n))


class TestSupportMode:
    def test_constructors(self):
        assert SupportMode.proposed().kind == "proposed"
        assert SupportMode.known(0, 1).lower == 0.0
        with pytest.raises(ConfigError):
            SupportMode.known(0.0, np.inf)
        with pytest.raises(ConfigError):
            SupportMode("half_known_lower")


class TestExtremesMode:
    def test_returns_extremes_exactly(self):
        s = Sample([0.13, 0.42, 0.77, 0.91])
        for method in (REFLECTION, BOUNDARY_KERNEL):
            rep = solve_support(s, 0.1, EPANECHNIKOV, method, SupportMode.extremes())
            assert rep.l_hat == s.min
            assert rep.u_hat == s.max

    def test_bk_residuals_are_half_over_n(self):
        s = Sample([0.1, 0.4, 0.7])
        rep = solve_support(s, 0.2, EPANECHNIKOV, BOUNDARY_KERNEL, SupportMode.extremes())
        assert rep.residual_right == pytest.approx(-1.0 / 6.0, abs=1e-15)
        assert rep.residual_left == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_reflection_extremes_solve_targets_exactly(self):
        # with a compact kernel and h <= range the reflection CDF hits 0 and 1
        # at the extremes, so the extreme-based support solves targets (0, 1)
        rng = np.random.default_rng(21)
        s = uniform_sample(rng, 40)
        rep = solve_support(s, 0.1, EPANECHNIKOV, REFLECTION, SupportMode.extremes())
        assert rep.residual_left == 0.0
        assert abs(rep.residual_right) < 1e-12


class TestBoundaryKernelSolve:
    def test_right_objective_limits(self):
        s = Sample([0.2, 0.9])
        lo = 0.9 * (1 + 1e-12) + 1e-300
        assert _bk_extreme_cdf(s.values, EPANECHNIKOV, 1, lo) == 0.75  # 1 - 1/(2n), n = 2
        far = _bk_extreme_cdf(s.values, EPANECHNIKOV, 1, 0.9 + 1e6)
        assert abs(far - 0.5) < 1e-3

    def test_targets_at_n9(self):
        s = Sample(np.linspace(0.05, 0.95, 9))
        rep = solve_support(s, 0.1, EPANECHNIKOV, BOUNDARY_KERNEL, SupportMode.proposed())
        assert _bk_extreme_cdf(s.values, EPANECHNIKOV, 1, rep.u_hat) == pytest.approx(0.9, abs=1e-10)
        # The endpoint equations do not involve h.  The fitted cdf at X_(1)
        # reads the left equation once X_(1) lies in the boundary region
        # [l, l + h), which here (X_(1) - l-hat = 0.379) needs h = 0.4.
        est = FittedEstimator(BOUNDARY_KERNEL, s, 0.4, SupportInterval(rep.l_hat, rep.u_hat), EPANECHNIKOV)
        assert est.cdf(s.min) == pytest.approx(0.1, abs=1e-10)

    def test_root_matches_grid_scan_oracle(self):
        # the right objective's unique sign change located by brute scan
        s = Sample([0.1, 0.4, 0.7])
        target = 3.0 / 4.0
        us = np.arange(0.7 + 1e-6, 3.0 + 1e-6, 1e-6)
        vals = 1.0 - EPANECHNIKOV.cdf((s.values[None, :] - 0.7) / (us[:, None] - 0.7)).mean(axis=1)
        sign_change = np.nonzero(np.diff(np.sign(vals - target)))[0]
        assert sign_change.size == 1
        oracle = us[sign_change[0]]
        rep = solve_support(s, 0.2, EPANECHNIKOV, BOUNDARY_KERNEL, SupportMode.proposed())
        assert rep.u_hat == pytest.approx(oracle, abs=1e-6)

    def test_residual_contract(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            s = uniform_sample(rng, int(rng.integers(5, 200)))
            rep = solve_support(s, 0.05, EPANECHNIKOV, BOUNDARY_KERNEL, SupportMode.proposed())
            assert not rep.fallback_left and not rep.fallback_right
            assert abs(rep.residual_left) < 1e-10
            assert abs(rep.residual_right) < 1e-10
            assert rep.l_hat <= s.min < s.max <= rep.u_hat

    def test_objective_monotone_on_grid(self):
        # nonincreasing everywhere; strictly decreasing once the kernel window
        # reaches past the first interior gap
        rng = np.random.default_rng(23)
        for _ in range(100):
            s = uniform_sample(rng, 60)
            h = 0.05
            us = s.max + np.linspace(10 * h / 1000, 10 * h, 1000)
            vals = 1.0 - EPANECHNIKOV.cdf(
                (s.values[None, :] - s.max) / (us[:, None] - s.max)
            ).mean(axis=1)
            diffs = np.diff(vals)
            assert np.all(diffs <= 0)
            active = vals < vals[0]
            if active.any():
                k = int(np.argmax(active))
                assert np.all(diffs[k:] < 0)

    def test_solve_is_bandwidth_free(self):
        rng = np.random.default_rng(24)
        s = uniform_sample(rng, 80)
        r1 = solve_support(s, 0.05, EPANECHNIKOV, BOUNDARY_KERNEL, SupportMode.proposed())
        r2 = solve_support(s, 0.2, EPANECHNIKOV, BOUNDARY_KERNEL, SupportMode.proposed())
        assert r1.u_hat == pytest.approx(r2.u_hat, abs=1e-9)
        assert r1.l_hat == pytest.approx(r2.l_hat, abs=1e-9)

    def test_near_tied_maxima_shrink_the_top_sliver(self):
        # Top two points eps apart, all others farther than u-hat - X_(n) below
        # X_(n): the right equation reduces to G(-eps/delta) = (n-1)/(2(n+1))
        # for the kernel cdf G, so delta = u-hat - X_(n) is proportional to
        # eps.  The fitted cdf still puts mass 1/(n+1) on [X_(n), u-hat], and
        # by Cauchy-Schwarz any density bounded by 1 (here: uniform) then has
        # ISE >= (1/(n+1) - delta)^2 / delta on that sliver, which grows
        # without limit as eps -> 0.  This is why the boundary-kernel ISE has
        # no finite mean over random samples.
        n = 100
        base = np.linspace(0.0, 0.95, n - 1)
        c = (n - 1) / (2.0 * (n + 1))
        t = [r.real for r in np.roots([-0.25, 0.0, 0.75, 0.5 - c]) if -1 < r.real < 0][0]
        bounds = []
        for eps in (1e-4, 1e-6, 1e-8):
            s = Sample(np.append(base, base[-1] + eps))
            est, rep = fit(s, 0.1, EPANECHNIKOV, BOUNDARY_KERNEL, SupportMode.proposed())
            delta = rep.u_hat - s.max
            assert delta / eps == pytest.approx(-1.0 / t, rel=1e-5)
            mass = est.cdf(rep.u_hat) - est.cdf(s.max)
            assert mass == pytest.approx(1.0 / (n + 1), abs=1e-10)
            bounds.append((1.0 / (n + 1) - delta) ** 2 / delta)
        assert bounds[1] > 50 * bounds[0]
        assert bounds[2] > 50 * bounds[1]

    def test_half_known_modes(self):
        rng = np.random.default_rng(25)
        s = uniform_sample(rng, 60)
        rep = solve_support(s, 0.1, EPANECHNIKOV, BOUNDARY_KERNEL, SupportMode.half_known_lower(0.0))
        assert rep.l_hat == 0.0
        assert rep.iterations_left == 0
        assert rep.u_hat > s.max
        rep2 = solve_support(s, 0.1, EPANECHNIKOV, BOUNDARY_KERNEL, SupportMode.half_known_upper(1.0))
        assert rep2.u_hat == 1.0
        assert rep2.l_hat < s.min

    def test_rejects_gaussian(self):
        s = Sample([0.2, 0.8])
        with pytest.raises(ConfigError):
            solve_support(s, 0.1, GAUSSIAN, BOUNDARY_KERNEL, SupportMode.proposed())

    def test_tied_maximum_falls_back(self):
        s = Sample([0.1, 0.3, 0.9, 0.9])
        rep = solve_support(s, 0.1, EPANECHNIKOV, BOUNDARY_KERNEL, SupportMode.proposed())
        assert rep.fallback_right
        assert rep.u_hat == 0.9


class TestReflectionSolve:
    def test_residual_contract_and_ordering(self):
        rng = np.random.default_rng(26)
        ok = 0
        for _ in range(50):
            s = uniform_sample(rng, int(rng.integers(20, 200)))
            rep = solve_support(s, 0.15, EPANECHNIKOV, REFLECTION, SupportMode.proposed())
            assert rep.l_hat <= s.min and rep.u_hat >= s.max
            if not rep.fallback_right:
                assert abs(rep.residual_right) < 1e-10
                ok += 1
            if not rep.fallback_left:
                assert abs(rep.residual_left) < 1e-10
        assert ok > 25  # fallbacks are the exception at these sizes

    def test_decoupled_solves_converge_in_one_sweep(self):
        # compact kernel, h <= range/2: each side's mirrored terms across the
        # other endpoint are exactly 0 and 1, so no confirmation sweep runs
        rng = np.random.default_rng(27)
        s = uniform_sample(rng, 100)
        for mode in (SupportMode.proposed(), SupportMode.half_known_lower(-0.1), SupportMode.half_known_upper(1.1)):
            rep = solve_support(s, 0.1, EPANECHNIKOV, REFLECTION, mode)
            assert rep.outer_sweeps == 1

    def test_fallback_when_target_outside_bracket(self):
        # two far-apart points with a small bandwidth: the reflection CDF at
        # the max cannot reach n/(n+1) inside [X_(n), X_(n)+h]
        s = Sample([0.0, 1.0])
        rep = solve_support(s, 0.05, EPANECHNIKOV, REFLECTION, SupportMode.proposed())
        assert rep.fallback_right and rep.fallback_left
        assert rep.u_hat == 1.0 and rep.l_hat == 0.0


def test_reflection_solve_with_gaussian_kernel():
    # non-compact kernel: the two endpoint equations genuinely couple, so the
    # alternating solve may take more than one productive sweep
    rng = np.random.default_rng(33)
    s = uniform_sample(rng, 150)
    rep = solve_support(s, 0.08, GAUSSIAN, REFLECTION, SupportMode.proposed())
    assert rep.l_hat <= s.min and rep.u_hat >= s.max
    assert rep.outer_sweeps >= 1
    if not rep.fallback_right:
        assert abs(rep.residual_right) < 1e-10
    # at h = 0.4 the Gaussian reflection cdf's total mass falls visibly short
    # of 1, so the left equation is not the mirror of the right one; the
    # fitted cdf must still meet both targets on the original sample
    s = uniform_sample(np.random.default_rng(34), 150)
    n = s.n
    est, rep = fit(s, 0.4, GAUSSIAN, REFLECTION, SupportMode.proposed())
    if not rep.fallback_left:
        assert abs(est.cdf(s.min) - 1.0 / (n + 1)) < 1e-10
    if not rep.fallback_right:
        assert abs(est.cdf(s.max) - n / (n + 1.0)) < 1e-10


@pytest.mark.parametrize("method", [BOUNDARY_KERNEL, REFLECTION])
def test_affine_equivariance(method):
    rng = np.random.default_rng(28)
    s = uniform_sample(rng, 120)
    h = 0.1
    base = solve_support(s, h, EPANECHNIKOV, method, SupportMode.proposed())
    for a, b in [(0.5, -3.0), (2.7, 5.0)]:
        mapped = Sample(a * s.values + b)
        rep = solve_support(mapped, a * h, EPANECHNIKOV, method, SupportMode.proposed())
        assert rep.l_hat == pytest.approx(a * base.l_hat + b, abs=1e-8)
        assert rep.u_hat == pytest.approx(a * base.u_hat + b, abs=1e-8)


def _mirrored(rep):
    """The report fields expected for -X given the report for X: sides swap, signs flip."""
    return (
        -rep.u_hat, -rep.l_hat, rep.iterations_right, rep.iterations_left,
        (-rep.bracket_right[1], -rep.bracket_right[0]), (-rep.bracket_left[1], -rep.bracket_left[0]),
        rep.fallback_right, rep.fallback_left, rep.outer_sweeps,
    )


@pytest.mark.parametrize("method", [BOUNDARY_KERNEL, REFLECTION])
@settings(deadline=None)
@given(
    values=st.lists(st.sampled_from(np.round(np.linspace(0.0, 1.0, 41), 6).tolist()) | st.floats(0.0, 1.0),
                    min_size=3, max_size=80),
    frac=st.floats(0.01, 1.0),
    slack=st.floats(0.0, 0.5),
)
def test_mirror_symmetry(method, values, frac, slack):
    # solve_support(-X) mirrors solve_support(X) exactly for the compact
    # kernel: l-hat <-> -u-hat, iterations, brackets and fallbacks swap sides,
    # and half_known_lower(a) on X pairs with half_known_upper(-a) on -X
    s = Sample(values)
    assume(s.max - s.min > 1e-3)
    m = Sample(-s.values)
    h = frac * (s.max - s.min) / 2.0
    a, b = s.min - slack, s.max + slack
    for mode, mirror_mode in [
        (SupportMode.proposed(), SupportMode.proposed()),
        (SupportMode.half_known_lower(a), SupportMode.half_known_upper(-a)),
        (SupportMode.half_known_upper(b), SupportMode.half_known_lower(-b)),
    ]:
        rep = solve_support(s, h, EPANECHNIKOV, method, mode)
        mir = solve_support(m, h, EPANECHNIKOV, method, mirror_mode)
        got = (mir.l_hat, mir.u_hat, mir.iterations_left, mir.iterations_right,
               mir.bracket_left, mir.bracket_right, mir.fallback_left, mir.fallback_right, mir.outer_sweeps)
        assert got == _mirrored(rep)
        assert mir.residual_left == pytest.approx(-rep.residual_right, abs=1e-12)
        assert mir.residual_right == pytest.approx(-rep.residual_left, abs=1e-12)


# dyadic samples: multiples of 2^-10 in [0, 1], exact under the shifts and scalings below
_dyadic = st.lists(st.integers(0, 2**10), min_size=3, max_size=60).map(lambda ks: np.asarray(ks) / 2.0**10)


def _unflagged_residuals_within_tol(rep, tol=1e-10):
    return all(fb or abs(res) <= tol for res, fb in ((rep.residual_left, rep.fallback_left),
                                                      (rep.residual_right, rep.fallback_right)))


@pytest.mark.parametrize("method", [BOUNDARY_KERNEL, REFLECTION])
@settings(deadline=None)
@given(values=_dyadic, frac=st.floats(0.05, 1.0), shift=st.integers(-2**50, 2**50).map(lambda k: k / 2.0**10))
def test_translation_equivariance(method, values, frac, shift):
    # X + t is exact, so z = (X - e)/h and every step of the delta solve are
    # bit-identical; only the final e + s*h*delta rounds at the shifted scale.
    # The boundary kernel first bisects in data coordinates from
    # e + s*(|e|*1e-12 + 1e-300), which does not shift with the data, so its
    # endpoints follow the shift only within the solver tolerance: down to
    # n = 3 the equation can be flat enough near its root that |g| < 1e-10
    # spans ~1e-6 bandwidths.
    s = Sample(values)
    assume(s.max > s.min)
    h = frac * (s.max - s.min) / 2.0
    rep = solve_support(s, h, EPANECHNIKOV, method, SupportMode.proposed())
    mov = solve_support(Sample(s.values + shift), h, EPANECHNIKOV, method, SupportMode.proposed())
    slack = 1e-5 * h if method == BOUNDARY_KERNEL else 0.0
    for a, b in ((rep.l_hat, mov.l_hat), (rep.u_hat, mov.u_hat)):
        assert abs((b - shift) - a) <= slack + 2 * np.spacing(max(abs(a), abs(b)))
    assert (mov.fallback_left, mov.fallback_right) == (rep.fallback_left, rep.fallback_right)
    if method == REFLECTION:
        assert (mov.residual_left, mov.residual_right) == (rep.residual_left, rep.residual_right)
    assert _unflagged_residuals_within_tol(rep) and _unflagged_residuals_within_tol(mov)


@pytest.mark.parametrize("method", [BOUNDARY_KERNEL, REFLECTION])
@settings(deadline=None)
@given(values=_dyadic, frac=st.floats(0.05, 1.0), power=st.sampled_from([-660, 660]))
def test_scale_equivariance(method, values, frac, power):
    # scaling by a power of two is exact in every step, down to the endpoints
    s = Sample(values)
    assume(s.max > s.min)
    h = frac * (s.max - s.min) / 2.0
    c = 2.0**power
    rep = solve_support(s, h, EPANECHNIKOV, method, SupportMode.proposed())
    big = solve_support(Sample(c * s.values), c * h, EPANECHNIKOV, method, SupportMode.proposed())
    assert (big.l_hat, big.u_hat) == (c * rep.l_hat, c * rep.u_hat)
    brackets = [(c * lo, c * hi) for lo, hi in (rep.bracket_left, rep.bracket_right)]
    if method == BOUNDARY_KERNEL:
        # the inner ends of data-coordinate brackets hold e + s*(|e|*1e-12 + 1e-300),
        # whose 1e-300 does not scale
        assert (big.bracket_left[0], big.bracket_right[1]) == (brackets[0][0], brackets[1][1])
    else:
        assert [big.bracket_left, big.bracket_right] == brackets
    assert (big.residual_left, big.residual_right, big.fallback_left, big.fallback_right) == (
        rep.residual_left, rep.residual_right, rep.fallback_left, rep.fallback_right)
    assert _unflagged_residuals_within_tol(big)


@pytest.mark.parametrize("method", [BOUNDARY_KERNEL, REFLECTION])
@pytest.mark.parametrize("gap, top, h", [
    (2.2e-308, 0.025, 0.01), (2.6e-199, 0.025, 0.01), (5e-324, 0.025, 0.01),
    (5e-324, 10.0, 2.0),  # gap / h underflows to 0
])
def test_near_tied_minimum_solves(method, gap, top, h):
    # in bandwidths the boundary-kernel left equation reads
    # (W(0) + W(-gap/(h delta)) + 0)/3 = 1/4, so l-hat = -gap/|t| with W(t) = 1/4
    s = Sample([0.0, gap, top])
    rep = solve_support(s, h, EPANECHNIKOV, method, SupportMode.proposed())
    assert _unflagged_residuals_within_tol(rep)
    assert rep.l_hat <= s.min and rep.u_hat >= s.max
    if method == BOUNDARY_KERNEL:
        t = [r.real for r in np.roots([-0.25, 0.0, 0.75, 0.25]) if -1 < r.real < 0][0]
        assert not rep.fallback_left
        # a subnormal endpoint (gap 5e-324) keeps only its few significant bits
        normal = abs(gap / t) >= np.finfo(float).tiny
        assert rep.l_hat == pytest.approx(gap / t, rel=1e-6 if normal else 0.5)


@pytest.mark.parametrize("method", [BOUNDARY_KERNEL, REFLECTION])
@pytest.mark.parametrize("shift", [1e9, 1e12])
def test_shifted_sample_solves(method, shift):
    # timestamps-like data: the shifted sample is the beta sample rounded to
    # multiples of spacing(shift), and its endpoints follow within a few of those
    x = np.random.default_rng(0).beta(3.0, 1.0, 300)
    base = solve_support(Sample(x), 0.05, EPANECHNIKOV, method, SupportMode.proposed())
    rep = solve_support(Sample(x + shift), 0.05, EPANECHNIKOV, method, SupportMode.proposed())
    assert _unflagged_residuals_within_tol(rep)
    assert (rep.fallback_left, rep.fallback_right) == (base.fallback_left, base.fallback_right)
    assert not rep.fallback_right
    assert rep.l_hat - shift == pytest.approx(base.l_hat, abs=4 * np.spacing(shift))
    assert rep.u_hat - shift == pytest.approx(base.u_hat, abs=4 * np.spacing(shift))


def test_sweep_cap_raises(monkeypatch):
    # a Gaussian reflection solve that needs a second sweep to confirm that it settled
    s = uniform_sample(np.random.default_rng(27), 100)
    rep = solve_support(s, 0.1, GAUSSIAN, REFLECTION, SupportMode.proposed())
    assert not (rep.fallback_left or rep.fallback_right) and rep.outer_sweeps == 2
    monkeypatch.setattr(solver, "MAX_SWEEPS", 1)
    with pytest.raises(NumericError, match="after 1 sweeps"):
        solve_support(s, 0.1, GAUSSIAN, REFLECTION, SupportMode.proposed())


def test_nan_bandwidth_rejected():
    # NaN passes h <= 0; it used to return the sample extremes as a solved support
    s = uniform_sample(np.random.default_rng(29), 50)
    with pytest.raises(ConfigError, match="positive"):
        solve_support(s, np.nan, EPANECHNIKOV, REFLECTION, SupportMode.proposed())


def test_solver_preconditions():
    rng = np.random.default_rng(29)
    s = uniform_sample(rng, 30)
    with pytest.raises(ConfigError):
        solve_support(s, 0.1, EPANECHNIKOV, BOUNDARY_KERNEL, SupportMode.known(0, 1))
    with pytest.raises(ConfigError):
        solve_support(s, 0.1, EPANECHNIKOV, NAIVE, SupportMode.proposed())
    with pytest.raises(ConfigError):
        solve_support(s, 5.0, EPANECHNIKOV, BOUNDARY_KERNEL, SupportMode.proposed())
    with pytest.raises(ConfigError):
        solve_support(Sample([0.5]), 0.1, EPANECHNIKOV, BOUNDARY_KERNEL, SupportMode.proposed())
    # a known endpoint on the wrong side of an extreme cuts into the sample
    for method in (REFLECTION, BOUNDARY_KERNEL):
        for mode in (SupportMode.half_known_lower(0.5), SupportMode.half_known_upper(0.5),
                     SupportMode.half_known_lower(np.nextafter(s.min, 1.0)),
                     SupportMode.half_known_upper(np.nextafter(s.max, 0.0))):
            with pytest.raises(DataError, match="not contained in support"):
                solve_support(s, 0.1, EPANECHNIKOV, method, mode)


class TestFit:
    def test_naive_has_no_report_and_unbounded_support(self):
        s = Sample([0.2, 0.5, 0.8])
        est, rep = fit(s, 0.1, EPANECHNIKOV, NAIVE)
        assert rep is None
        assert est.support.lower == -np.inf and est.support.upper == np.inf
        with pytest.raises(ConfigError):
            fit(s, 0.1, EPANECHNIKOV, NAIVE, SupportMode.proposed())

    def test_known_mode_skips_solving(self):
        s = Sample([0.2, 0.5, 0.8])
        est, rep = fit(s, 0.1, EPANECHNIKOV, REFLECTION, SupportMode.known(0.0, 1.0))
        assert rep is None
        assert (est.support.lower, est.support.upper) == (0.0, 1.0)

    def test_bk_proposed_reproduces_residual(self):
        rng = np.random.default_rng(30)
        s = uniform_sample(rng, 80)
        est, rep = fit(s, 0.1, EPANECHNIKOV, BOUNDARY_KERNEL, SupportMode.proposed())
        n = s.n
        check = _bk_extreme_cdf(s.values, EPANECHNIKOV, 1, est.support.upper) - n / (n + 1.0)
        assert check == pytest.approx(rep.residual_right, abs=1e-15)
        assert abs(check) < 1e-10

    def test_reflection_extremes_support(self):
        rng = np.random.default_rng(31)
        s = uniform_sample(rng, 60)
        est, rep = fit(s, 0.1, EPANECHNIKOV, REFLECTION, SupportMode.extremes())
        assert est.support.lower == s.min
        assert est.support.upper == s.max

    def test_corrected_requires_mode(self):
        s = Sample([0.2, 0.8])
        with pytest.raises(ConfigError):
            fit(s, 0.1, EPANECHNIKOV, REFLECTION)


def test_endpoint_consistency_improves_with_n():
    # median |u_hat - 1| shrinks from n = 100 to n = 400 (uniform truth)
    errs = {}
    for n in (100, 400):
        med = []
        for r in range(200):
            rng = np.random.default_rng(10_000 + 7 * r + n)
            s = Sample(rng.uniform(0, 1, n))
            rep = solve_support(s, 0.05, EPANECHNIKOV, BOUNDARY_KERNEL, SupportMode.proposed())
            med.append(abs(rep.u_hat - 1.0))
        errs[n] = float(np.median(med))
    assert errs[400] < errs[100]


# -- look-ahead bisection ----------------------------------------------------------


def _one_point_bisect(g, lo, hi):
    """The one-point bisection loop, kept as the reference for `solver._bisect`."""
    best = (np.inf, lo)
    for it in range(1, solver.MAX_BISECT + 1):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        gm = g(mid)
        if abs(gm) < solver.TOL:
            return mid, gm, it
        best = min(best, (abs(gm), mid))
        lo, hi = (mid, hi) if gm > 0.0 else (lo, mid)
    raise NumericError(
        f"bisection did not reach tolerance {solver.TOL} in {it} iterations (best |residual| {best[0]:.3e} "
        f"at {best[1]!r}, bracket [{min(lo, hi)!r}, {max(lo, hi)!r}])"
    )


def _outcome(f):
    try:
        return f()
    except NumericError as exc:
        return str(exc)


def _walk_case(kind, lo, hi, root, slope):
    """A vectorised g with g(lo) > 0 >= g(hi): a step at root, or a line through it."""
    sign = 1.0 if lo < hi else -1.0  # reversed brackets have g increasing in x
    if kind == "step":
        return lambda x: np.where(sign * (x - root) < 0.0, 1.0, -1.0)
    return lambda x: sign * slope * (root - x)


def _check_walk(g, lo, hi, depth):
    calls = []

    def counted(x):
        calls.append(x.size)
        return g(x)

    want = _outcome(lambda: _one_point_bisect(lambda x: float(g(np.array([x]))[0]), lo, hi))
    got = _outcome(lambda: solver._bisect(counted, lo, hi, depth))
    assert got == want
    if isinstance(got, tuple):
        assert type(got[0]) is float and type(got[1]) is float
        steps = got[2]
    else:
        steps = int(got.split(" in ")[1].split()[0])
    # one call per `depth` steps, each at the 2^k - 1 midpoints of its k steps
    assert len(calls) == -(-steps // depth)
    assert calls == [2 ** min(depth, solver.MAX_BISECT - depth * c) - 1 for c in range(len(calls))]
    return got


@settings(deadline=None, max_examples=300)
@given(
    depth=st.integers(1, 6),
    kind=st.sampled_from(["step", "line"]),
    lo=st.floats(-4.0, 4.0),
    width=st.sampled_from([1.0, 1e-12, 3e-300]) | st.floats(1e-6, 10.0),
    frac=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
    slope=st.sampled_from([1.0, 1e-9, 1e12]) | st.floats(1e-11, 1e11),
    reverse=st.booleans(),
)
def test_lookahead_walk_matches_the_one_point_loop(depth, kind, lo, width, frac, slope, reverse):
    hi = lo + width
    assume(hi > lo)
    root = lo + frac * (hi - lo)
    if reverse:  # as the boundary kernel's s = -1 data-coordinate pass runs from start > far
        lo, hi = hi, lo
    g = _walk_case(kind, lo, hi, root, slope)
    assume(g(np.array([lo]))[0] > 0.0 >= g(np.array([hi]))[0])
    _check_walk(g, lo, hi, depth)


@pytest.mark.parametrize("depth", range(1, 7))
def test_lookahead_walk_exits(depth, monkeypatch):
    # the |g| < TOL exit at the first midpoint and deep in a tree
    assert _check_walk(_walk_case("line", 0.0, 1.0, 0.5, 1.0), 0.0, 1.0, depth) == (0.5, 0.0, 1)
    assert _check_walk(_walk_case("line", 2.0, 1.0, 1.3, 1.0), 2.0, 1.0, depth)[2] > 20
    # adjacent floats: a step never gets below TOL
    msg = _check_walk(_walk_case("step", 1.0, 2.0, 1.25, 1.0), 1.0, 2.0, depth)
    assert "in 53 iterations" in msg and "bracket [1.2499999999999998, 1.25]" in msg
    # the MAX_BISECT cap, also when it cuts a look-ahead call short
    msg = _check_walk(_walk_case("step", 0.0, 1.0, 1e-300, 1.0), 0.0, 1.0, depth)
    assert f"in {solver.MAX_BISECT} iterations" in msg
    monkeypatch.setattr(solver, "MAX_BISECT", 7)
    msg = _check_walk(_walk_case("step", 0.0, 1.0, 1e-300, 1.0), 0.0, 1.0, depth)
    assert "in 7 iterations" in msg


@pytest.mark.parametrize("kernel", [EPANECHNIKOV, GAUSSIAN])
@pytest.mark.parametrize("s", [1, -1])
def test_reflection_objective_is_the_window_cdf_at_the_extreme(kernel, s):
    # g(delta) = s * (Fhat(e) - target), Fhat(e) as the estimator evaluates it, bit for bit, many points a call
    data = np.sort(np.random.default_rng(8).beta(3.0, 1.0, 200))
    h, other = 0.07, data[0] - 0.02 if s > 0 else data[-1] + 0.03
    g, e, _, target, _, _ = solver._reflection_objective(data, kernel, h, s, other)
    z, o = (data - e) / h, (other - e) / h
    d = np.concatenate([[0.0, 1.0], 0.5 ** np.arange(1, 60), np.random.default_rng(9).uniform(0.0, 1.0, 40)])
    for di, gi in zip(d, g(d)):
        l, u = (o, di) if s > 0 else (-di, o)
        (cdf,) = _window_estimates(kernel, REFLECTION, z, 1.0, l, u, np.zeros(1), pdf=False)
        assert gi == s * (cdf[0] - target)


def _solve_cases():
    x = np.random.default_rng(5).beta(3.0, 1.0, 100)
    tied = np.append(x, x.max())
    cases = []
    for values in (x, x + 1e9, tied, np.random.default_rng(6).uniform(0.0, 1.0, 300)):
        s = Sample(values)
        lo, hi = s.min - 0.01, s.max + 0.01
        for method, kernel in ((BOUNDARY_KERNEL, EPANECHNIKOV), (REFLECTION, EPANECHNIKOV), (REFLECTION, GAUSSIAN)):
            for mode in (SupportMode.proposed(), SupportMode.extremes(),
                         SupportMode.half_known_lower(lo), SupportMode.half_known_upper(hi)):
                cases.append((s, kernel, method, mode))
    return cases


def test_lookahead_depth_leaves_every_report_unchanged(monkeypatch):
    # a cap of one term per call gives depth 1 everywhere: the one-point walk
    def reports():
        return [solve_support(s, 0.05, k, m, mode).to_dict() for s, k, m, mode in _solve_cases()]

    default = reports()
    assert any(r["fallback_right"] for r in default) and any(r["iterations_right"] > 20 for r in default)
    monkeypatch.setattr(solver, "LOOKAHEAD_TERMS", 1)
    assert reports() == default
    monkeypatch.setattr(solver, "LOOKAHEAD_TERMS", 1 << 16)
    assert reports() == default


def test_report_fields_are_python_numbers():
    # np.float64 in a report prints as np.float64(...) in its repr
    x = np.random.default_rng(5).beta(3.0, 1.0, 100)
    seen = set()
    for s, kernel, method, mode in _solve_cases():
        rep = solve_support(s, 0.05, kernel, method, mode)
        seen.add((mode.kind, rep.fallback_left or rep.fallback_right))
        for name, v in rep.to_dict().items():
            want = bool if name.startswith("fallback") else int if name.startswith(("iter", "outer")) else float
            assert all(type(a) is want for a in (v if isinstance(v, list) else [v])), (name, v)
        assert "np." not in repr(rep)
    assert ("proposed", True) in seen and ("extremes", False) in seen
    # the tied-maximum fallback residual, once np.float64(-9.7e-05)
    rep = solve_support(Sample(np.append(x, x.max())), 0.05, EPANECHNIKOV, BOUNDARY_KERNEL, SupportMode.proposed())
    assert rep.fallback_right and type(rep.residual_right) is float
