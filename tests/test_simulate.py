import numpy as np
import pytest

from supdens import (
    EPANECHNIKOV,
    GAUSSIAN,
    NAIVE,
    REFLECTION,
    ConfigError,
    ExperimentSpec,
    FittedEstimator,
    MethodSpec,
    Sample,
    SupportInterval,
    TABLE_METHODS,
    beta_pdf,
    boundary_ise,
    fit,
    lscv_bandwidth,
    run_experiment,
    sample_beta,
)
from supdens.simulate import _gauss_legendre, _pieces

UNBOUNDED = SupportInterval(-np.inf, np.inf)


class TestBetaPdf:
    def test_uniform(self):
        xs = np.array([-0.5, 0.0, 0.3, 1.0, 1.5])
        assert np.allclose(beta_pdf(1, 1, xs), [0, 1, 1, 1, 0])

    def test_beta31_at_one(self):
        assert beta_pdf(3, 1, 1.0) == pytest.approx(3.0, rel=1e-14)
        assert beta_pdf(3, 1, 0.5) == pytest.approx(3 * 0.25, rel=1e-14)

    def test_beta33_flat_at_one(self):
        assert beta_pdf(3, 3, 1.0) == 0.0
        # numeric derivative at 1- tends to 0
        eps = 1e-6
        slope = (beta_pdf(3, 3, 1.0) - beta_pdf(3, 3, 1.0 - eps)) / eps
        assert abs(slope) < 1e-3

    def test_integrates_to_one(self):
        from supdens.quadrature import composite_simpson

        for p, q in [(1, 1), (3, 1), (3, 3), (2.5, 1.7)]:
            total = composite_simpson(lambda x: np.asarray(beta_pdf(p, q, x)), 0, 1, 20001)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_invalid_shapes(self):
        with pytest.raises(ConfigError):
            beta_pdf(0.0, 1.0, 0.5)

    @pytest.mark.parametrize("p, q, name", [(np.nan, 1.0, "p"), (np.inf, 2.0, "p"), (1.0, np.nan, "q"),
                                            (2.0, np.inf, "q")])
    def test_nonfinite_shapes_named(self, p, q, name):
        # NaN passes p <= 0, and inf is positive; every entry point names the shape
        for call in (lambda: beta_pdf(p, q, 0.5), lambda: sample_beta(p, q, 10, 0),
                     lambda: ExperimentSpec(p=p, q=q)):
            with pytest.raises(ConfigError, match=f"beta shape {name} must be positive and finite"):
                call()


class TestSampleBeta:
    def test_determinism(self):
        a = sample_beta(2.0, 3.0, 50, 99)
        b = sample_beta(2.0, 3.0, 50, 99)
        assert np.array_equal(a.values, b.values)

    def test_support(self):
        s = sample_beta(0.7, 2.0, 1000, 5)
        assert s.min >= 0.0 and s.max <= 1.0

    def test_mean_clt_band(self):
        s = sample_beta(1.0, 1.0, 100_000, 1234)
        assert abs(float(np.mean(s.values)) - 0.5) < 0.005

    def test_tuple_seed_gives_distinct_streams(self):
        a = sample_beta(1.0, 1.0, 20, (7, 0))
        b = sample_beta(1.0, 1.0, 20, (7, 1))
        assert not np.array_equal(a.values, b.values)


class TestBoundaryIse:
    def test_zero_when_est_equals_truth(self):
        rng = np.random.default_rng(50)
        s = Sample(rng.uniform(0, 1, 60))
        est = FittedEstimator(NAIVE, s, 0.1, UNBOUNDED, EPANECHNIKOV)
        ise = boundary_ise(est, lambda xs: est.pdf(xs), 1.0, 0.1)
        assert ise == pytest.approx(0.0, abs=1e-12)

    def test_constant_offset_gives_c_squared_length(self):
        rng = np.random.default_rng(51)
        s = Sample(rng.uniform(0, 1, 60))
        h = 0.1
        est = FittedEstimator(NAIVE, s, h, UNBOUNDED, EPANECHNIKOV)
        # the jumps sit at u0 - h and u0, where the region is cut
        c, a, b = 0.3, 1.0 - h, 1.0

        def truth(xs):
            return est.pdf(xs) - c * ((xs >= a) & (xs <= b))

        ise = boundary_ise(est, truth, 1.0, h)
        assert ise == pytest.approx(c * c * h, rel=1e-12)

    def test_single_observation_closed_form(self):
        # (9/(16h)) * integral of (1 - t^2)^2 over t = (x - 0.95)/h in [-1/2, 1]
        est = FittedEstimator(NAIVE, Sample([0.95]), 0.1, UNBOUNDED, EPANECHNIKOV)
        ise = boundary_ise(est, lambda xs: xs * 0.0, 1.0, 0.1)
        assert ise == pytest.approx(5.37890625, rel=1e-14)

    def test_nan_bandwidth_rejected(self):
        est = FittedEstimator(NAIVE, Sample([0.2, 0.6]), 0.1, UNBOUNDED, EPANECHNIKOV)
        with pytest.raises(ConfigError, match="positive"):
            boundary_ise(est, lambda xs: xs * 0.0, 1.0, np.nan)

    def test_region_covers_estimator_support(self):
        s = Sample([0.2, 0.6, 0.9])
        h = 0.2
        est = FittedEstimator(REFLECTION, s, h, SupportInterval(0.0, 1.4), EPANECHNIKOV)
        # truth vanishing outside [0, 1]: everything the estimator puts beyond
        # must be charged
        ise_wide = boundary_ise(est, lambda xs: np.asarray(beta_pdf(1, 1, xs)), 1.0, h)
        assert ise_wide > 0

    @pytest.mark.parametrize(
        "p, q, n, r, label, want",
        [
            (3, 1, 100, 201, "bk:proposed", 11.135461056),
            (3, 1, 100, 201, "bk:extremes", 211.96195027),
            (1, 1, 300, 481, "bk:extremes", 5.8950612306),
            (1, 1, 300, 488, "bk:extremes", 0.28509480508),
        ],
    )
    def test_boundary_kernel_near_pole_replications(self, p, q, n, r, label, want):
        # criterion-5 replications (seed 7) whose top order statistics nearly
        # tie, so the edge terms go like 1/(u - x) close to the endpoint
        assert _table_replication_ise(p, q, n, r, label) == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("p, q, n", [(3, 1, 300), (1, 1, 100), (2, 2, 1000)])
    def test_boundary_kernel_edge_pieces_agree_with_64_nodes(self, p, q, n):
        # 16 nodes on the edge pieces near the pole, 4 on the narrow ones and
        # on the polynomial pieces, against 64 on every edge piece
        narrow = 0
        for r in range(6):
            sample = sample_beta(p, q, n, (7, n, r))
            h = lscv_bandwidth(sample, EPANECHNIKOV)
            truth = lambda xs: beta_pdf(p, q, xs)  # noqa: E731
            for ms in TABLE_METHODS[1:3]:
                est, _ = fit(sample, h, EPANECHNIKOV, ms.method, ms.mode)
                lo, hi, near = _pieces(est, 1.0, h)
                l, u = est.support.lower, est.support.upper
                mid = 0.5 * (lo + hi)
                edge = ((mid > l) & (mid < l + h)) | ((mid > u - h) & (mid < u))
                narrow += np.count_nonzero(edge & ~near)

                def sq_error(xs):
                    return (est.pdf(xs) - truth(xs)) ** 2

                want = _gauss_legendre(sq_error, (lo[~edge], hi[~edge], 4), (lo[edge], hi[edge], 64))
                assert boundary_ise(est, truth, 1.0, h) == pytest.approx(want, rel=1e-11)
        assert narrow > 0

    def test_worst_boundary_kernel_replication(self):
        # beta(1,1), n = 300: r = 481 sets the bk:extremes maximum, not r = 488
        assert _table_replication_ise(1, 1, 300, 481, "bk:extremes") > _table_replication_ise(
            1, 1, 300, 488, "bk:extremes"
        )


def _table_replication_ise(p, q, n, r, label):
    """Boundary ISE of one criterion-5 replication: seed (7, n, r), LSCV bandwidth."""
    sample = sample_beta(p, q, n, (7, n, r))
    h = lscv_bandwidth(sample, EPANECHNIKOV)
    ms = {m.label: m for m in TABLE_METHODS}[label]
    est, _ = fit(sample, h, EPANECHNIKOV, ms.method, ms.mode)
    return boundary_ise(est, lambda xs: beta_pdf(p, q, xs), 1.0, h)


class TestRunExperiment:
    def test_single_replication_deterministic(self):
        spec = ExperimentSpec(p=1, q=1, ns=(30,), reps=1, seed=42)
        r1 = run_experiment(spec)
        r2 = run_experiment(spec)
        assert r1.table_csv() == r2.table_csv()
        for c1, c2 in zip(r1.cells, r2.cells):
            assert c1.mean_ise == c2.mean_ise

    def test_mean_ise_decreases_with_n(self):
        # stable methods at a desk scale; seed fixed
        methods = (MethodSpec("naive"), TABLE_METHODS[3], TABLE_METHODS[4])
        spec = ExperimentSpec(p=1, q=1, ns=(50, 200), methods=methods, reps=150, seed=3)
        res = run_experiment(spec)
        for m in methods:
            assert res.cell(200, m.label).mean_ise < res.cell(50, m.label).mean_ise

    def test_split_halves_agree_within_3_sem(self):
        base = dict(p=1.0, q=1.0, ns=(60,), methods=(MethodSpec("naive"),), reps=60)
        r1 = run_experiment(ExperimentSpec(seed=11, **base))
        r2 = run_experiment(ExperimentSpec(seed=12, **base))
        c1, c2 = r1.cells[0], r2.cells[0]
        combined = np.hypot(c1.sem, c2.sem)
        assert abs(c1.mean_ise - c2.mean_ise) <= 3.0 * combined

    def test_fixed_bandwidth_policy(self):
        spec = ExperimentSpec(p=3, q=1, ns=(40,), reps=3, seed=1, bandwidth=0.15)
        res = run_experiment(spec)
        assert all(c.mean_ise >= 0 for c in res.cells)

    def test_fallbacks_counted_and_kept(self):
        # tiny n with modest bandwidth: reflection solves fall back sometimes
        spec = ExperimentSpec(p=1, q=1, ns=(8,), methods=(TABLE_METHODS[3],), reps=40,
                              seed=2)
        res = run_experiment(spec)
        cell = res.cells[0]
        assert cell.reps == 40
        assert cell.fallbacks >= 0

    def test_cell_distribution_and_worst_replication(self):
        # every replication rebuilt from its (seed, n, r) seed reproduces the
        # cell's mean, median, maximum and the index of the worst one
        spec = ExperimentSpec(p=3, q=1, ns=(40,), methods=TABLE_METHODS[:3], reps=7, seed=5)
        res = run_experiment(spec)
        truth = lambda xs: beta_pdf(3, 1, xs)
        rows = np.zeros((len(spec.methods), spec.reps))
        for r in range(spec.reps):
            sample = sample_beta(3, 1, 40, (spec.seed, 40, r))
            h = lscv_bandwidth(sample, EPANECHNIKOV)
            for k, ms in enumerate(spec.methods):
                est, _ = fit(sample, h, EPANECHNIKOV, ms.method, ms.mode)
                rows[k, r] = boundary_ise(est, truth, 1.0, h)
        for k, ms in enumerate(spec.methods):
            cell = res.cell(40, ms.label)
            assert cell.mean_ise == np.mean(rows[k])
            assert cell.median_ise == np.median(rows[k])
            assert cell.worst_rep == int(np.argmax(rows[k]))
            assert cell.max_ise == rows[k, cell.worst_rep]
        detail = res.detail_json()["cells"][0]
        assert {"median_ise", "max_ise", "worst_rep"} <= set(detail)

    def test_table_csv_shape(self):
        spec = ExperimentSpec(p=1, q=1, ns=(20, 30), reps=2, seed=0)
        res = run_experiment(spec)
        lines = res.table_csv().strip().split("\n")
        assert lines[0] == "distribution,n," + ",".join(m.label for m in TABLE_METHODS)
        assert len(lines) == 3
        assert lines[1].startswith("beta(1,1),20,")

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(reps=0)
        with pytest.raises(ConfigError):
            ExperimentSpec(bandwidth="plugin")
        with pytest.raises(ConfigError):
            ExperimentSpec(ns=(1,))
        with pytest.raises(ConfigError):
            ExperimentSpec(seed=-1)

    def test_nan_bandwidth_rejected(self):
        # NaN passes h <= 0; it used to reach run_experiment and fail in np.arange
        with pytest.raises(ConfigError, match="positive"):
            ExperimentSpec(bandwidth=np.nan)

    def test_boundary_kernel_columns_need_a_compact_kernel(self):
        # checked when the spec is made, not after the first replication's LSCV
        with pytest.raises(ConfigError, match=r"no bk:proposed, bk:extremes columns \(see --methods\)"):
            ExperimentSpec(kernel=GAUSSIAN)
        methods = tuple(m for m in TABLE_METHODS if m.method != "boundary_kernel")
        res = run_experiment(ExperimentSpec(ns=(30,), reps=2, kernel=GAUSSIAN, methods=methods))
        assert [c.method for c in res.cells] == ["naive", "refl:proposed", "refl:extremes"]
