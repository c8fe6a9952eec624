"""The three benchmark workloads: inputs, one op, and the op's checks.

Inputs come from numpy generators seeded by the run's seed; supdens only
sees the generated inputs (except in `mc_table`, whose samples are drawn by
`run_experiment` itself).  Every call into supdens goes through a module
attribute looked up at call time, so the spans installed by `tracing.py`
see it.

A workload cycles over a fixed list of op kinds; the runner stops only at
the end of a cycle, so every run holds each kind equally often.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

from gate import (
    BANDWIDTH_RTOL,
    CDF_SLACK,
    ENDPOINT_HTOL,
    ISE_CHECKED_METHODS,
    ISE_RTOL,
    MARGINAL_ATOL,
    VALUE_ATOL,
    VALUE_RTOL,
    Gate,
    check_cdf_values,
    check_lscv_argmin,
    check_solve_report,
    exact_boundary_ise,
    finite_nonneg,
    interior,
    probe_indices,
)

DEFAULT_SEED = 0


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()[:32]


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _parse_csv(raw: bytes) -> np.ndarray:
    """A CSV with one header line, as an (rows, columns) float array."""
    header, _, body = raw.decode("utf-8").partition("\n")
    cols = header.count(",") + 1
    values = np.array(body.replace("\n", ",").rstrip(",").split(","), dtype=float)
    return values.reshape(-1, cols)


def _write_column_csv(path: str, values: np.ndarray) -> None:
    # 17 significant digits round-trip every double, so the CLI reads back
    # exactly the floats the benchmark holds.
    np.savetxt(path, values, fmt="%.17g", delimiter=",")


class _Workload:
    kinds: tuple = ()

    def __init__(self, supdens, size: str, seed: int, tmp: str) -> None:
        self.sd = supdens
        self.seed = seed
        self.tmp = tmp

    def kind(self, k: int) -> str:
        return self.kinds[k % len(self.kinds)][0]

    def _cli(self, argv: list) -> tuple:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = self.sd.cli.run_cli(argv)
        return rc, err.getvalue().strip()

    def _path(self, name: str) -> str:
        return os.path.join(self.tmp, name)


class McTable(_Workload):
    """One `run_experiment` call on one (distribution, n) cell of the table."""

    name = "mc_table"
    work_unit = "replications"
    kinds = tuple(
        (f"beta({p:g},{q:g})/n={n}", p, q, n) for (p, q) in ((1.0, 1.0), (3.0, 1.0)) for n in (100, 300)
    )

    def __init__(self, supdens, size, seed, tmp) -> None:
        super().__init__(supdens, size, seed, tmp)
        self.reps = 10 if size == "full" else 2

    def _spec_seed(self, k: int) -> int:
        return self.seed * 1_000_003 + k

    def run(self, k: int):
        _, p, q, n = self.kinds[k % len(self.kinds)]
        sim = self.sd.simulate
        spec = sim.ExperimentSpec(
            p=p, q=q, ns=(n,), methods=sim.TABLE_METHODS, reps=self.reps,
            kernel=self.sd.kernels.EPANECHNIKOV, bandwidth="lscv", seed=self._spec_seed(k),
        )
        return sim.run_experiment(spec)

    def work(self, out) -> float:
        return float(self.reps)

    def digest(self, out) -> str:
        return _digest(out.table_csv().encode(), json.dumps(out.detail_json(), sort_keys=True).encode())

    def reference(self, refs: dict, k: int):
        ops = refs.get("ops", [])
        return ops[k] if k < len(ops) else None

    def check(self, gate: Gate, k: int, out, ref) -> dict:
        _, p, q, n = self.kinds[k % len(self.kinds)]
        labels = [m.label for m in self.sd.simulate.TABLE_METHODS]
        gate.require([c.method for c in out.cells] == labels, f"cells {[c.method for c in out.cells]}")
        for c in out.cells:
            gate.require(c.n == n and c.reps == self.reps, f"{c.method}: cell n={c.n} reps={c.reps}")
            gate.require(finite_nonneg(c.mean_ise), f"{c.method}: mean ISE {c.mean_ise!r}")
            gate.require(finite_nonneg(c.sem), f"{c.method}: ISE sem {c.sem!r}")
            gate.require(0 <= c.fallbacks <= c.reps, f"{c.method}: {c.fallbacks} fallbacks")
        return self._check_replications(gate, k, p, q, n, {c.method: c.mean_ise for c in out.cells}, ref)

    def _check_replications(self, gate: Gate, k, p, q, n, mean_ise: dict, ref) -> dict:
        """Rebuild every replication of the cell through the separate fit path.

        Each replication's LSCV bandwidth must be the argmin of the LSCV
        objective, and the cell's mean ISE must match the exact integral of
        the refitted estimates.  Replication 0's endpoints and pdf/cdf values
        are also checked at the tighter tolerances against the reference.
        """
        sd = self.sd
        kernel = sd.kernels.EPANECHNIKOV
        truth = lambda xs: sd.simulate.beta_pdf(p, q, xs)  # noqa: E731
        methods = [m for m in sd.simulate.TABLE_METHODS if m.method in ISE_CHECKED_METHODS]
        exact = {m.label: [] for m in methods}
        summary = {}
        for r in range(self.reps):
            sample = sd.simulate.sample_beta(p, q, n, (self._spec_seed(k), n, r))
            h = sd.bandwidth.lscv_bandwidth(sample, kernel)
            check_lscv_argmin(gate, sd.bandwidth, sample, kernel, h, f"replication {r}")
            for m in methods:
                est, _ = sd.solver.fit(sample, h, kernel, m.method, m.mode)
                exact[m.label].append(exact_boundary_ise(est, truth, 1.0, h))
            if r == 0:
                summary = self._check_first_replication(gate, sample, h, ref)
        for label, values in exact.items():
            gate.close(mean_ise.get(label, math.nan), np.mean(values), ISE_RTOL, 0.0,
                       f"{label} mean ISE vs exact integral", reference=False)
        return summary

    def _check_first_replication(self, gate: Gate, sample, h: float, ref) -> dict:
        sd = self.sd
        kernel = sd.kernels.EPANECHNIKOV
        summary = {"bandwidth": h}
        if ref is not None:
            gate.close(h, ref["bandwidth"], BANDWIDTH_RTOL, 0.0, "replication 0 bandwidth")
        for method in (sd.estimators.REFLECTION, sd.estimators.BOUNDARY_KERNEL):
            est, report = sd.solver.fit(sample, h, kernel, method, sd.solver.SupportMode.proposed())
            lo, hi = report.l_hat, report.u_hat
            check_solve_report(gate, report.to_dict(), f"replication 0 {method}")
            if method == sd.estimators.REFLECTION:
                ends = est.cdf(np.array([lo, hi]))
                gate.require(ends[0] == 0.0 and ends[1] == 1.0, f"reflection cdf at endpoints {ends.tolist()}")
            mref = None if ref is None else ref[method]
            xs = np.linspace(lo + h, hi - h, 7) if mref is None else np.asarray(mref["xs"])
            pdf, cdf = est.pdf(xs), est.cdf(xs)
            check_cdf_values(gate, pdf, cdf, f"replication 0 {method}")
            if mref is not None:
                gate.close([lo, hi], mref["endpoints"], 0.0, ENDPOINT_HTOL * h, f"{method} endpoints")
                gate.close(np.column_stack([pdf, cdf]), mref["values"], VALUE_RTOL, VALUE_ATOL, f"{method} pdf/cdf")
            summary[method] = {
                "endpoints": [lo, hi], "xs": xs.tolist(), "values": np.column_stack([pdf, cdf]).tolist(),
            }
        return summary


class FitEvalLarge(_Workload):
    """`supdens fit --bandwidth lscv` then `supdens eval` on one n = 2000 sample."""

    name = "fit_eval_large"
    work_unit = "fit+eval pairs"
    kinds = (
        ("epan-refl", "epanechnikov", "reflection"),
        ("epan-bk", "epanechnikov", "boundary-kernel"),
        ("gauss-refl", "gaussian", "reflection"),
    )
    # Data shifted by 1e9 (timestamps, say): the solver raises NumericError
    # on it at the commit that introduced this benchmark (ROADMAP item 4).
    # Run once per run after the timed loop, outside the gated op count.
    defect = ("epan-bk+1e9", "epanechnikov", "boundary-kernel")
    SHIFT = 1e9
    GRID = (-0.1, 1.1)

    def __init__(self, supdens, size, seed, tmp) -> None:
        super().__init__(supdens, size, seed, tmp)
        n = 2000 if size == "full" else 300
        self.points = 4001 if size == "full" else 401
        rng = np.random.default_rng([seed, 1])
        self.x = rng.beta(3.0, 1.0, n)
        self.x_shift = self.x + self.SHIFT
        _write_column_csv(self._path("data.csv"), self.x)
        _write_column_csv(self._path("data-shift.csv"), self.x_shift)
        self.last = {}

    def _grid(self, shifted: bool) -> tuple:
        off = self.SHIFT if shifted else 0.0
        return self.GRID[0] + off, self.GRID[1] + off

    def run(self, k: int):
        return self._run(self.kinds[k % len(self.kinds)])

    def run_defect(self):
        return self._run(self.defect)

    def _run(self, kind: tuple) -> dict:
        name, kernel, method = kind
        shifted = kind is self.defect
        lo, hi = self._grid(shifted)
        data = self._path("data-shift.csv" if shifted else "data.csv")
        model, grid = self._path("model.json"), self._path("grid.csv")
        for path in (model, grid):
            if os.path.exists(path):
                os.remove(path)
        rc_fit, err = self._cli([
            "fit", "--input", data, "--kernel", kernel, "--method", method,
            "--mode", "proposed", "--bandwidth", "lscv", "--output", model,
        ])
        rc_eval = None
        if rc_fit == 0:
            # "--grid -0.1:..." would parse as a flag; the "=" form is required.
            rc_eval, err = self._cli(["eval", "--model", model, f"--grid={lo!r}:{hi!r}:{self.points}", "--output", grid])
        return {"kind": kind, "rc_fit": rc_fit, "rc_eval": rc_eval, "stderr": err, "model": model, "grid": grid}

    def work(self, out) -> float:
        return 1.0

    def digest(self, out) -> str:
        parts = [_read_bytes(p) for p in (out["model"], out["grid"]) if os.path.exists(p)]
        return _digest(*parts)

    def reference(self, refs: dict, k: int):
        return refs.get(self.kind(k))

    def check(self, gate: Gate, k, out, ref) -> dict:
        name, kernel, method = out["kind"]
        shifted = out["kind"] is self.defect
        x = self.x_shift if shifted else self.x
        if not gate.require(out["rc_fit"] == 0, f"{name}: fit exited {out['rc_fit']}: {out['stderr']}"):
            return {}
        with open(out["model"], "r", encoding="utf-8") as fh:
            model = json.load(fh)
        h = model["bandwidth"]
        lo, hi = model["support"]["lower"], model["support"]["upper"]
        gate.require(math.isfinite(h) and h > 0.0, f"{name}: bandwidth {h!r}")
        sample = self.sd.estimators.Sample(model["sample"])
        check_lscv_argmin(gate, self.sd.bandwidth, sample, self.sd.kernels.get_kernel(kernel), h, name)
        gate.require(lo <= x.min() and hi >= x.max(), f"{name}: support [{lo}, {hi}] misses the sample")
        check_solve_report(gate, model["solve_report"], name)
        if not gate.require(out["rc_eval"] == 0, f"{name}: eval exited {out['rc_eval']}: {out['stderr']}"):
            return {}
        rows = _parse_csv(_read_bytes(out["grid"]))
        xs = np.linspace(*self._grid(shifted), self.points)
        if not gate.require(rows.shape == (self.points, 3), f"{name}: grid CSV shape {rows.shape}"):
            return {}
        gate.require(np.array_equal(rows[:, 0], xs), f"{name}: grid x column differs from the requested grid")
        check_cdf_values(gate, rows[:, 1], rows[:, 2], name)
        gate.require(bool(np.all(np.diff(rows[:, 2]) >= -CDF_SLACK)), f"{name}: cdf decreases along the grid")
        if method == "reflection":
            est = self.sd.estimators.FittedEstimator(
                self.sd.estimators.REFLECTION, sample, h,
                self.sd.estimators.SupportInterval(lo, hi), self.sd.kernels.get_kernel(kernel),
            )
            ends = est.cdf(np.array([lo, hi]))
            gate.require(ends[0] == 0.0, f"{name}: reflection cdf(l) = {ends[0]!r}")
            if kernel == "epanechnikov":  # exact 1 needs a compact kernel
                gate.require(ends[1] == 1.0, f"{name}: reflection cdf(u) = {ends[1]!r}")
        if shifted:
            self._check_translation(gate, h, lo, hi)
        elif ref is not None:
            gate.close(h, ref["bandwidth"], BANDWIDTH_RTOL, 0.0, f"{name} bandwidth")
            gate.close([lo, hi], ref["endpoints"], 0.0, ENDPOINT_HTOL * ref["bandwidth"], f"{name} endpoints")
            idx = ref["probe_rows"]
            gate.close(rows[idx, 1:], ref["probe_values"], VALUE_RTOL, VALUE_ATOL, f"{name} pdf/cdf at probe rows")
        idx = probe_indices(interior(xs, lo, hi, h)) if ref is None else ref["probe_rows"]
        summary = {"bandwidth": h, "endpoints": [lo, hi], "probe_rows": idx, "probe_values": rows[idx, 1:].tolist()}
        if name == "epan-bk":
            self.last = summary
        return summary

    def _check_translation(self, gate: Gate, h, lo, hi) -> None:
        """The shifted fit must be the unshifted bk fit moved by SHIFT.

        Shifting by 1e9 rounds the data to multiples of 1.2e-7, which moves
        the sample sd (and so the LSCV candidates) by about 1e-7 relative and
        the endpoints by about 1e-7 absolute: 5% on h stays below one grid
        step and 1e-3 h on the endpoints is far above the rounding.
        """
        if not self.last:
            return
        base = self.last
        gate.close(h, base["bandwidth"], 0.05, 0.0, "shifted bandwidth")
        gate.close([lo - self.SHIFT, hi - self.SHIFT], base["endpoints"], 0.0, 1e-3 * base["bandwidth"], "shifted endpoints")


class JointGrid(_Workload):
    """`supdens joint` on a 201^2 grid, then joint pdf/cdf at scattered points."""

    name = "joint_grid"
    work_unit = "grid ops"
    kinds = (("reflection", "reflection"), ("boundary-kernel", "boundary_kernel"))
    H = (0.05, 0.08)
    RANGE = (-0.05, 1.05)

    def __init__(self, supdens, size, seed, tmp) -> None:
        super().__init__(supdens, size, seed, tmp)
        n = 2000 if size == "full" else 300
        self.count = 201 if size == "full" else 41
        m = 2000 if size == "full" else 200
        rng = np.random.default_rng([seed, 2])
        self.data = np.column_stack([rng.beta(3.0, 1.0, n), rng.beta(2.0, 2.0, n)])
        self.points = rng.uniform(*self.RANGE, size=(m, 2))
        self.axis = np.linspace(*self.RANGE, self.count)
        _write_column_csv(self._path("data.csv"), self.data)

    def run(self, k: int) -> dict:
        cli_method, method = self.kinds[k % len(self.kinds)]
        sd = self.sd
        grid, report = self._path("grid.csv"), self._path("report.json")
        for path in (grid, report):
            if os.path.exists(path):
                os.remove(path)
        rc, err = self._cli([
            "joint", "--input", self._path("data.csv"), "--method", cli_method, "--mode", "proposed",
            "--kernel", "epanechnikov", "--bandwidth", ",".join(repr(h) for h in self.H),
            f"--grid={self.RANGE[0]!r}:{self.RANGE[1]!r}:{self.count}", "--output", grid, "--report", report,
        ])
        est = sd.joint.fit_joint(
            sd.joint.MultiSample(self.data), list(self.H), sd.kernels.EPANECHNIKOV, method,
            sd.solver.SupportMode.proposed(),
        )
        pdf = sd.joint.joint_pdf(est, self.points)
        cdf = sd.joint.joint_cdf(est, self.points)
        return {"kind": cli_method, "rc": rc, "stderr": err, "grid": grid, "report": report,
                "est": est, "pdf": pdf, "cdf": cdf}

    def work(self, out) -> float:
        return 1.0

    def digest(self, out) -> str:
        parts = [_read_bytes(p) for p in (out["grid"], out["report"]) if os.path.exists(p)]
        return _digest(*parts, out["pdf"].tobytes(), out["cdf"].tobytes())

    def reference(self, refs: dict, k: int):
        return refs.get(self.kind(k))

    def check(self, gate: Gate, k, out, ref) -> dict:
        name, est = out["kind"], out["est"]
        rect = [list(pair) for pair in est.rectangle]
        check_cdf_values(gate, out["pdf"], out["cdf"], f"{name} points")
        for report in est.reports:
            check_solve_report(gate, report.to_dict(), f"{name} library fit")
        (l1, u1), (l2, u2) = rect
        corners = self.sd.joint.joint_cdf(est, np.array([[u1, u2], [l1, u2], [u1, l2]]))
        gate.require(corners.tolist() == [1.0, 0.0, 0.0], f"{name}: cdf at corners {corners.tolist()}")
        for j in range(2):
            xs = np.linspace(rect[j][0] + self.H[j], rect[j][1] - self.H[j], 5)
            pts = np.empty((xs.size, 2))
            pts[:, j] = xs
            pts[:, 1 - j] = rect[1 - j][1]
            gate.close(self.sd.joint.joint_cdf(est, pts), est.marginals[j].cdf(xs), 0.0, MARGINAL_ATOL,
                       f"{name}: joint cdf vs marginal {j + 1}", reference=False)
        if not gate.require(out["rc"] == 0, f"{name}: joint exited {out['rc']}: {out['stderr']}"):
            return {}
        with open(out["report"], "r", encoding="utf-8") as fh:
            report = json.load(fh)
        gate.require(report["bandwidths"] == list(self.H), f"{name}: report bandwidths {report['bandwidths']}")
        gate.require(report["rectangle"] == rect, f"{name}: CLI rectangle {report['rectangle']} vs library {rect}")
        for rep in report["reports"]:
            check_solve_report(gate, rep, f"{name} CLI fit")
        rows = _parse_csv(_read_bytes(out["grid"]))
        c = self.count
        if not gate.require(rows.shape == (c * c, 4), f"{name}: grid CSV shape {rows.shape}"):
            return {}
        gate.require(
            np.array_equal(rows[:, 0], np.repeat(self.axis, c)) and np.array_equal(rows[:, 1], np.tile(self.axis, c)),
            f"{name}: grid coordinates differ from the requested axes",
        )
        check_cdf_values(gate, rows[:, 2], rows[:, 3], f"{name} grid")
        cdf = rows[:, 3].reshape(c, c)
        gate.require(
            bool(np.all(np.diff(cdf, axis=0) >= -CDF_SLACK) and np.all(np.diff(cdf, axis=1) >= -CDF_SLACK)),
            f"{name}: grid cdf decreases along an axis",
        )
        inside = interior(rows[:, 0], l1, u1, self.H[0]) & interior(rows[:, 1], l2, u2, self.H[1])
        inside_pts = interior(self.points[:, 0], l1, u1, self.H[0]) & interior(self.points[:, 1], l2, u2, self.H[1])
        values = np.column_stack([out["pdf"], out["cdf"]])
        if ref is not None:
            htol = ENDPOINT_HTOL * np.array([[self.H[0]] * 2, [self.H[1]] * 2])
            gate.require(bool(np.all(np.abs(np.array(rect) - ref["rectangle"]) <= htol)),
                         f"{name}: rectangle {rect} vs reference {ref['rectangle']}", reference=True)
            gate.close(rows[ref["probe_rows"], 2:], ref["probe_row_values"], VALUE_RTOL, VALUE_ATOL,
                       f"{name} grid pdf/cdf at probe rows")
            gate.close(values[ref["probe_points"]], ref["probe_point_values"], VALUE_RTOL, VALUE_ATOL,
                       f"{name} pdf/cdf at probe points")
        row_idx = probe_indices(inside) if ref is None else ref["probe_rows"]
        pt_idx = probe_indices(inside_pts) if ref is None else ref["probe_points"]
        return {
            "rectangle": rect,
            "probe_rows": row_idx, "probe_row_values": rows[row_idx, 2:].tolist(),
            "probe_points": pt_idx, "probe_point_values": values[pt_idx].tolist(),
        }


WORKLOADS = {w.name: w for w in (McTable, FitEvalLarge, JointGrid)}
