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
    NumericError,
    Sample,
    SupportInterval,
    SupportMode,
    fit,
    fit_boundary_kernel,
    solve_support,
)
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
        est = fit_boundary_kernel(s, 0.4, EPANECHNIKOV, SupportInterval(rep.l_hat, rep.u_hat))
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

    def test_decoupled_solves_converge_in_two_sweeps(self):
        rng = np.random.default_rng(27)
        s = uniform_sample(rng, 100)
        rep = solve_support(s, 0.1, EPANECHNIKOV, REFLECTION, SupportMode.proposed())
        assert rep.outer_sweeps <= 2

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


def _solve_outcome(sample, h, method, mode):
    """solve_support's report, or the class of the NumericError it raised."""
    try:
        return solve_support(sample, h, EPANECHNIKOV, method, mode)
    except NumericError as exc:
        return type(exc)


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
        rep = _solve_outcome(s, h, method, mode)
        mir = _solve_outcome(m, h, method, mirror_mode)
        if rep is NumericError or mir is NumericError:
            # extremes within ~1e-300 of their neighbours defeat the solver on
            # both sides alike
            assert rep is mir
            continue
        got = (mir.l_hat, mir.u_hat, mir.iterations_left, mir.iterations_right,
               mir.bracket_left, mir.bracket_right, mir.fallback_left, mir.fallback_right, mir.outer_sweeps)
        assert got == _mirrored(rep)
        assert mir.residual_left == pytest.approx(-rep.residual_right, abs=1e-12)
        assert mir.residual_right == pytest.approx(-rep.residual_left, abs=1e-12)


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
