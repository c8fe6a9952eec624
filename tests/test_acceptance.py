"""End-to-end verification sweep.

Each check prints one PASS/FAIL line (run with `pytest -s` to see them all).
The Monte Carlo comparison in criterion 5 runs at desk scale (500
replications, fixed seed) and takes a few minutes; everything else is fast.
"""

import time

import numpy as np
import pytest

from supdens import (
    BOUNDARY_KERNEL,
    EPANECHNIKOV,
    REFLECTION,
    ExperimentSpec,
    MultiSample,
    Sample,
    SupportInterval,
    SupportMode,
    fit,
    fit_boundary_kernel,
    fit_joint,
    fit_reflection,
    joint_cdf,
    lscv_bandwidth,
    run_experiment,
    sample_beta,
    solve_support,
)
from supdens.quadrature import composite_simpson, simpson_weights
from supdens.solver import _bk_extreme_cdf

SEED = 7  # preregistered seed for every stochastic check in this module


def _line(name: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def _random_config(rng, n_max=80):
    n = int(rng.integers(2, n_max))
    lo = float(rng.uniform(-3, 3))
    span = float(rng.uniform(0.5, 4.0))
    u = lo + span
    data = rng.uniform(lo + 0.02 * span, u - 0.02 * span, n)
    h = float(rng.uniform(0.1, 0.49) * span)
    return Sample(data), h, SupportInterval(lo, u)


def _random_config_smooth(rng):
    n = int(rng.integers(10, 150))
    lo = float(rng.uniform(-3, 3))
    span = float(rng.uniform(0.5, 4.0))
    u = lo + span
    data = rng.uniform(lo + 0.02 * span, u - 0.02 * span, n)
    h = float(rng.uniform(0.2, 0.49) * span)
    return Sample(data), h, SupportInterval(lo, u)


# -- criterion 1: reflection endpoint exactness ----------------------------------


def test_criterion_1_reflection_endpoint_exactness():
    rng = np.random.default_rng(SEED)
    t0 = time.time()
    worst_low = 0.0
    worst_up = 0.0
    for _ in range(1000):
        sample, h, support = _random_config(rng)
        est = fit_reflection(sample, h, EPANECHNIKOV, support)
        worst_low = max(worst_low, abs(est.cdf(support.lower)))
        worst_up = max(worst_up, abs(est.cdf(support.upper) - 1.0))
    elapsed = time.time() - t0
    ok = worst_low == 0.0 and worst_up < 1e-12 and elapsed < 10.0
    assert _line(
        "criterion-1 reflection endpoints",
        ok,
        f"max|cdf(l)|={worst_low:.3e}, max|cdf(u)-1|={worst_up:.3e}, {elapsed:.1f}s (1000 configs)",
    )


# -- criterion 2: boundary-kernel seams and derivative oracle ---------------------


def test_criterion_2_bk_seams_and_derivative():
    rng = np.random.default_rng(SEED + 1)
    t0 = time.time()
    worst_seam = 0.0
    worst_fd = 0.0
    step = 1e-6
    for _ in range(200):
        sample, h, support = _random_config(rng, n_max=60)
        est = fit_boundary_kernel(sample, h, EPANECHNIKOV, support)
        l, u = support.lower, support.upper
        for seam in (l + h, u - h):
            below = np.nextafter(seam, -np.inf)
            worst_seam = max(worst_seam, abs(est.cdf(seam) - est.cdf(below)))
        grid = np.linspace(l, u, 1001)
        keep = np.ones(grid.size, dtype=bool)
        # stay clear of the seams and of the pdf's kernel-edge kinks, where a
        # central difference straddles a slope jump
        cuts = np.concatenate(
            [
                np.array([l, l + h, u - h, u]),
                (sample.values + u) / 2.0,
                (sample.values + l) / 2.0,
                sample.values + h,
                sample.values - h,
            ]
        )
        for cut in cuts:
            keep &= np.abs(grid - cut) > 5e-6
        xs = grid[keep]
        fd = (est.cdf(xs + step) - est.cdf(xs - step)) / (2 * step)
        worst_fd = max(worst_fd, float(np.max(np.abs(fd - est.pdf(xs)))))
    elapsed = time.time() - t0
    ok = worst_seam < 1e-12 and worst_fd < 1e-6 and elapsed < 30.0
    assert _line(
        "criterion-2 boundary-kernel seams/derivative",
        ok,
        f"max seam gap={worst_seam:.3e}, max|pdf-FD|={worst_fd:.3e}, {elapsed:.1f}s (200 configs)",
    )


# -- criterion 3: normalization ---------------------------------------------------


def test_criterion_3_normalization():
    # reflection: Simpson(2001) integral of the pdf over the support within
    # 1e-6.  boundary-kernel: its pdf genuinely jumps at the seams (and, with
    # solved endpoints, concentrates mass 1/(n+1) in a sliver near u-hat), so
    # plain Simpson cannot certify it; its normalization contract is the exact
    # identity cdf(u) - cdf(l) = 1.
    rng = np.random.default_rng(SEED + 2)
    t0 = time.time()
    worst_refl = 0.0
    bk_identity_ok = True
    for k in range(200):
        # 2001 Simpson nodes resolve the kernel-edge kinks only when the
        # bandwidth spans a couple hundred node intervals, hence the floor
        sample, h, support = _random_config_smooth(rng)
        if k % 2 == 0 and h <= (sample.max - sample.min) / 2:
            refl, _ = fit(sample, h, EPANECHNIKOV, REFLECTION, SupportMode.proposed())
            bk, _ = fit(sample, h, EPANECHNIKOV, BOUNDARY_KERNEL, SupportMode.proposed())
        else:
            refl = fit_reflection(sample, h, EPANECHNIKOV, support)
            bk = fit_boundary_kernel(sample, h, EPANECHNIKOV, support)
        lo, up = refl.support.lower, refl.support.upper
        total = composite_simpson(refl.pdf, lo, up, 2001)
        worst_refl = max(worst_refl, abs(total - 1.0))
        bk_identity_ok &= (bk.cdf(bk.support.upper) - bk.cdf(bk.support.lower)) == 1.0
    elapsed = time.time() - t0
    ok = worst_refl < 1e-6 and bk_identity_ok
    assert _line(
        "criterion-3 normalization",
        ok,
        f"max|refl integral-1|={worst_refl:.3e}, bk identity exact={bk_identity_ok}, "
        f"{elapsed:.1f}s (200 configs)",
    )


# -- criterion 4: solver correctness ----------------------------------------------


def test_criterion_4_solver():
    rng = np.random.default_rng(SEED + 3)
    worst_res = 0.0
    for _ in range(50):
        s = Sample(rng.uniform(0, 1, int(rng.integers(10, 150))))
        for method in (BOUNDARY_KERNEL, REFLECTION):
            rep = solve_support(s, 0.05, EPANECHNIKOV, method, SupportMode.proposed())
            if not rep.fallback_right:
                worst_res = max(worst_res, abs(rep.residual_right))
            if not rep.fallback_left:
                worst_res = max(worst_res, abs(rep.residual_left))

    # grid-scan oracle for the boundary-kernel right equation
    s3 = Sample([0.1, 0.4, 0.7])
    us = np.arange(0.7 + 1e-6, 3.0 + 1e-6, 1e-6)
    vals = 1.0 - EPANECHNIKOV.cdf((s3.values[None, :] - 0.7) / (us[:, None] - 0.7)).mean(axis=1)
    flips = np.nonzero(np.diff(np.sign(vals - 0.75)))[0]
    oracle = us[flips[0]]
    rep3 = solve_support(s3, 0.2, EPANECHNIKOV, BOUNDARY_KERNEL, SupportMode.proposed())
    oracle_err = abs(rep3.u_hat - oracle)

    # objective limits
    s2 = Sample([0.2, 0.9])
    near = _bk_extreme_cdf(s2.values, EPANECHNIKOV, 1, 0.9 * (1 + 1e-12) + 1e-300)
    far = _bk_extreme_cdf(s2.values, EPANECHNIKOV, 1, 0.9 + 1e6)
    ok = (
        worst_res < 1e-10
        and flips.size == 1
        and oracle_err < 1e-6
        and near == 0.75
        and abs(far - 0.5) < 1e-3
    )
    assert _line(
        "criterion-4 solver",
        ok,
        f"max residual={worst_res:.2e}, oracle gap={oracle_err:.2e}, "
        f"limit(n=2)={near}, far={far:.6f}",
    )


# -- criterion 5: desk-scale comparison table -------------------------------------


# 5a and 5b compare cell *median* ISE; 5c keeps the mean.
#
# The boundary-kernel pdf is the exact derivative of its cdf (criterion 2),
# and the endpoint equation Fhat(X_(n)) = n/(n+1) leaves mass exactly 1/(n+1)
# on the sliver [X_(n), u-hat].  Its width delta is proportional to the top
# spacing X_(n) - X_(n-1) (tests/test_solver.py pins this), so by
# Cauchy-Schwarz ISE >= (1/(n+1) - delta * sup f)^2 / delta.  The top spacing
# has a density that is positive at 0, hence E[1/delta] and the expected ISE
# of bk:proposed are infinite; the same argument on [X_(n-1), X_(n)] holds for
# bk:extremes.  A cell mean of these columns is then set by its single worst
# replication, while the median is a location statistic that exists.  The
# naive estimator's ISE is bounded, so 5c compares its mean with the reference.
# PAPER.md holds only the abstract: it does not say which statistic the
# paper's table reports, nor whether its boundary density is this derivative.


@pytest.fixture(scope="module")
def table_results():
    t0 = time.time()
    out = {}
    for p, q in [(1, 1), (3, 1)]:
        spec = ExperimentSpec(p=p, q=q, ns=(100, 300), reps=500, seed=SEED)
        out[(p, q)] = run_experiment(spec)
    out["elapsed"] = time.time() - t0
    return out


def _stats(res, n, label):
    c = res.cell(n, label)
    return f"{label} median={c.median_ise:.4f} mean={c.mean_ise:.4f}"


def _worst(res, n, label):
    c = res.cell(n, label)
    return f"{label} worst (seed={res.spec.seed}, n={n}, r={c.worst_rep}) ISE={c.max_ise:.4g}"


def test_criterion_5a_orderings(table_results):
    failures = []
    details = []
    for p, q in [(1, 1), (3, 1)]:
        res = table_results[(p, q)]
        for n in (100, 300):
            hat = res.cell(n, "bk:proposed").median_ise
            ext = res.cell(n, "bk:extremes").median_ise
            naive = res.cell(n, "naive").median_ise
            details.append(
                f"beta({p},{q}) n={n}: "
                + ", ".join(_stats(res, n, lab) for lab in ("bk:proposed", "bk:extremes", "naive"))
                + "; "
                + ", ".join(_worst(res, n, lab) for lab in ("bk:proposed", "bk:extremes"))
            )
            if not hat < ext:
                failures.append(f"beta({p},{q})/n={n}: bk proposed {hat:.4f} !< extremes {ext:.4f}")
            if not hat < naive:
                failures.append(f"beta({p},{q})/n={n}: bk proposed {hat:.4f} !< naive {naive:.4f}")
    ok = not failures and table_results["elapsed"] < 600.0
    assert _line(
        "criterion-5a table orderings (median ISE)",
        ok,
        "; ".join(details) + (f" | elapsed {table_results['elapsed']:.0f}s")
        + ("" if not failures else " | " + " ; ".join(failures)),
    )


def test_criterion_5b_magnitude_ratio(table_results):
    res = table_results[(3, 1)]
    hat = res.cell(300, "bk:proposed").median_ise
    naive = res.cell(300, "naive").median_ise
    ratio = hat / naive
    ok = ratio <= 0.5
    assert _line(
        "criterion-5b beta(3,1) n=300 median ISE ratio",
        ok,
        f"bk proposed {hat:.5f} / naive {naive:.5f} = {ratio:.3f} (required <= 0.5); "
        f"{_stats(res, 300, 'bk:proposed')}, {_stats(res, 300, 'naive')}; "
        f"{_worst(res, 300, 'bk:proposed')}",
    )


def test_criterion_5c_naive_magnitude(table_results):
    # The reference 0.0234 matches a fixed bandwidth h = 0.19 (mean ISE 0.0237 at
    # seed 7), about twice the mean bandwidth of 0.096 that least-squares
    # cross-validation selects here; PAPER.md does not give the bandwidth
    # rule of the paper's simulation, so this check fails until it does.
    res = table_results[(1, 1)]
    naive = res.cell(300, "naive").mean_ise
    lo, hi = 0.0234 * 0.65, 0.0234 * 1.35
    ok = lo <= naive <= hi
    assert _line(
        "criterion-5c beta(1,1) n=300 naive ISE",
        ok,
        f"mean={naive:.5f}, required in [{lo:.5f}, {hi:.5f}]; {_stats(res, 300, 'naive')}"
        + ("" if ok else "; the reference matches a fixed h = 0.19, about twice the LSCV "
           "bandwidths used here, and PAPER.md does not give the paper's bandwidth rule"),
    )


# -- criterion 6: endpoint consistency ---------------------------------------------


def test_criterion_6_consistency():
    med_u = {}
    med_x = {}
    for n in (100, 400):
        u_err = []
        x_err = []
        for r in range(200):
            s = sample_beta(1.0, 1.0, n, (SEED, n, r))
            rep = solve_support(s, 0.02, EPANECHNIKOV, BOUNDARY_KERNEL, SupportMode.proposed())
            u_err.append(abs(rep.u_hat - 1.0))
            x_err.append(abs(s.max - 1.0))
        med_u[n] = float(np.median(u_err))
        med_x[n] = float(np.median(x_err))
    ratio_u = med_u[400] / med_u[100]
    ratio_x = med_x[400] / med_x[100]
    ok = med_u[400] < med_u[100] and ratio_x < ratio_u + 0.1
    assert _line(
        "criterion-6 consistency",
        ok,
        f"med|u^-1|: {med_u[100]:.5f}->{med_u[400]:.5f} (ratio {ratio_u:.3f}); "
        f"med|X(n)-1|: {med_x[100]:.5f}->{med_x[400]:.5f} (ratio {ratio_x:.3f})",
    )


# -- criterion 7: multivariate ------------------------------------------------------


def test_criterion_7_multivariate():
    t0 = time.time()
    c1 = sample_beta(1.0, 1.0, 200, (SEED, 71)).values
    c2 = sample_beta(1.0, 1.0, 200, (SEED, 72)).values
    rng = np.random.default_rng(SEED)
    rows = np.column_stack([c1[rng.permutation(200)], c2])
    ms = MultiSample(rows)
    hs = [lscv_bandwidth(ms.coordinate(j), EPANECHNIKOV) for j in range(2)]
    je = fit_joint(ms, hs, EPANECHNIKOV, REFLECTION, SupportMode.proposed())

    # marginalization identity, both methods
    worst_marg = 0.0
    for method in (REFLECTION, BOUNDARY_KERNEL):
        est = (
            je
            if method == REFLECTION
            else fit_joint(ms, hs, EPANECHNIKOV, BOUNDARY_KERNEL, SupportMode.proposed())
        )
        (l1, u1), (l2, u2) = est.rectangle
        for xj in (0.25, 0.5, 0.8):
            worst_marg = max(
                worst_marg,
                abs(joint_cdf(est, [xj, u2 + 9.0]) - est.marginals[0].cdf(xj)),
                abs(joint_cdf(est, [u1 + 9.0, xj]) - est.marginals[1].cdf(xj)),
            )

    (l1, u1), (l2, u2) = je.rectangle
    corner = joint_cdf(je, [u1, u2])

    ax1 = np.linspace(l1, u1, 401)
    ax2 = np.linspace(l2, u2, 401)
    P = je.pdf_grid([ax1, ax2])
    w = simpson_weights(401)
    integral = (u1 - l1) / 400 * (u2 - l2) / 400 * float(np.einsum("a,b,ab->", w, w, P))
    elapsed = time.time() - t0
    ok = worst_marg < 1e-12 and corner >= 1.0 - 1e-6 and abs(integral - 1.0) <= 0.02 and elapsed < 60.0
    assert _line(
        "criterion-7 multivariate",
        ok,
        f"marginalization={worst_marg:.2e}, corner cdf={corner:.9f}, "
        f"pdf integral={integral:.5f}, {elapsed:.1f}s",
    )


# -- criterion 8: determinism --------------------------------------------------------


def test_criterion_8_determinism():
    s1 = sample_beta(2.0, 3.0, 64, SEED)
    s2 = sample_beta(2.0, 3.0, 64, SEED)
    samples_equal = np.array_equal(s1.values, s2.values)
    spec = ExperimentSpec(p=1, q=1, ns=(25,), reps=3, seed=SEED, quad_nodes=501)
    r1 = run_experiment(spec)
    r2 = run_experiment(spec)
    tables_equal = r1.table_csv() == r2.table_csv()
    cells_equal = all(
        a.mean_ise == b.mean_ise and a.sem == b.sem for a, b in zip(r1.cells, r2.cells)
    )
    ok = samples_equal and tables_equal and cells_equal
    assert _line(
        "criterion-8 determinism",
        ok,
        f"samples identical={samples_equal}, tables byte-identical={tables_equal}",
    )
