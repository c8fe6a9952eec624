"""Span tracing of the supdens modules, installed from outside the package.

`install` replaces each traced public function at every module attribute
through which callers reach it (for example `pdf_terms` in both
`supdens.estimators` and `supdens.joint`), wraps the methods of
`JointEstimator`, and swaps the public `KernelSpec`s for timed copies whose
K, W and K*K record a span per call.  Wrappers call the original with the
same arguments and return its result untouched, so tracing changes no
output bit.

Spans are kept in memory as parallel arrays (name id, parent, start, end,
work) plus a few named counters, written out once with `Tracer.save`, and
turned into per-layer metrics by `layer_metrics`, which derives busy and
self time from the saved spans.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from array import array

import numpy as np

LAYERS = ("simulate", "quadrature", "estimators", "kernels", "bandwidth", "solver", "joint", "cli")


class Tracer:
    """In-memory span recorder; `paused` makes every wrapper a plain call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self.paused = False

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + float(value)

    def wrap(self, name: str, fn, work=None, on_error=None):
        """Return a traced stand-in for fn.

        work(args, kwargs, result) gives the span's work count; on_error(exc)
        runs when fn raises.  Both run after the span is closed.
        """
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.work.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.end[idx] = clock()
                self._stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            self.end[idx] = clock()
            self._stack.pop()
            if work is not None:
                self.work[idx] = work(args, kwargs, out)
            return out

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def save(self, path: str) -> None:
        np.savez(
            path,
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            work=np.frombuffer(self.work, dtype=np.float64),
            names=np.array(json.dumps(self.names)),
            counters=np.array(json.dumps(self.counters)),
        )


def _size(args, kwargs, out) -> float:
    return float(np.size(out))


def arg_size(args, kwargs, out) -> float:
    return float(np.size(args[0]))


def install(tracer: Tracer, supdens) -> None:
    """Wrap the public entry points of every supdens module with spans."""
    from supdens import bandwidth, cli, estimators, joint, kernels, quadrature, simulate, solver

    modules = (supdens, bandwidth, cli, estimators, joint, kernels, quadrature, simulate, solver)

    def lscv_pairs(args, kwargs, out) -> float:
        sample = args[0]
        grid = args[2] if len(args) > 2 else kwargs.get("grid")
        if grid is None:
            grid = bandwidth.BandwidthGrid.default(sample)
        return float(sample.n) ** 2 * grid.candidates.size

    def lscv_objective_pairs(args, kwargs, out) -> float:
        return float(args[0].n) ** 2

    def solve_counts(args, kwargs, report) -> float:
        tracer.count("solver.bisect_iterations", report.iterations_left + report.iterations_right)
        tracer.count("solver.outer_sweeps", report.outer_sweeps)
        tracer.count("solver.fallbacks", int(report.fallback_left) + int(report.fallback_right))
        return 0.0

    def solve_error(exc) -> None:
        tracer.count("solver.errors", 1)

    def cli_bytes(args, kwargs, rc) -> float:
        argv = list(args[0])
        written = 0
        for flag in ("--output", "--report"):
            if flag in argv:
                path = argv[argv.index(flag) + 1]
                if path != "-" and os.path.exists(path):
                    written += os.path.getsize(path)
        return float(written)

    def joint_terms(args, kwargs, out) -> float:
        # output points times observations: the product-form terms summed
        return float(np.size(out)) * args[0].data.n

    targets = {
        simulate.run_experiment: ("simulate.run_experiment", None, None),
        simulate.sample_beta: ("simulate.sample_beta", None, None),
        simulate.boundary_ise: ("simulate.boundary_ise", None, None),
        simulate.beta_pdf: ("simulate.beta_pdf", None, None),
        quadrature.composite_simpson: ("quadrature.composite_simpson", None, None),
        estimators.pdf_terms: ("estimators.pdf_terms", _size, None),
        estimators.cdf_terms: ("estimators.cdf_terms", _size, None),
        estimators.evaluate_grid: ("estimators.evaluate_grid", None, None),
        bandwidth.lscv_bandwidth: ("bandwidth.lscv_bandwidth", lscv_pairs, None),
        bandwidth.lscv_objective: ("bandwidth.lscv_objective", lscv_objective_pairs, None),
        solver.solve_support: ("solver.solve_support", solve_counts, solve_error),
        solver.fit: ("solver.fit", None, None),
        joint.fit_joint: ("joint.fit_joint", None, None),
        joint.joint_pdf: ("joint.points", joint_terms, None),
        joint.joint_cdf: ("joint.points", joint_terms, None),
        cli.run_cli: ("cli.run_cli", cli_bytes, None),
    }
    wrapped = {id(fn): tracer.wrap(name, fn, work, err) for fn, (name, work, err) in targets.items()}

    # Timed copies of the public kernels, reached through module attributes
    # and through get_kernel (which the CLI uses).
    timed = {}
    for spec in (kernels.EPANECHNIKOV, kernels.GAUSSIAN):
        conv = spec.convolution
        timed[id(spec)] = dataclasses.replace(
            spec,
            pdf=tracer.wrap("kernels.K", spec.pdf, arg_size),
            cdf=tracer.wrap("kernels.W", spec.cdf, arg_size),
            convolution=None if conv is None else tracer.wrap("kernels.KK", conv, arg_size),
        )
    original_get_kernel = kernels.get_kernel

    def get_kernel(name):
        spec = original_get_kernel(name)
        return timed.get(id(spec), spec)

    wrapped[id(original_get_kernel)] = get_kernel
    wrapped.update(timed)

    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped:
                setattr(mod, attr, wrapped[id(value)])

    JE = joint.JointEstimator
    JE.pdf = tracer.wrap("joint.points", JE.pdf, joint_terms)
    JE.cdf = tracer.wrap("joint.points", JE.cdf, joint_terms)
    JE.pdf_grid = tracer.wrap("joint.grid", JE.pdf_grid, joint_terms)
    JE.cdf_grid = tracer.wrap("joint.grid", JE.cdf_grid, joint_terms)


# -- derivation ------------------------------------------------------------------

# (metric name, unit, how to derive it).  Every value is divided by the number
# of ops attempted in the run, so runs of different length compare directly.
PER_LAYER = (
    [(f"{layer}.self_s", "s/op", ("module_self", layer)) for layer in LAYERS]
    + [
        ("simulate.boundary_ise.busy_s", "s/op", ("busy", "simulate.boundary_ise")),
        ("simulate.boundary_ise.self_s", "s/op", ("self", "simulate.boundary_ise")),
        ("simulate.sample_beta.busy_s", "s/op", ("busy", "simulate.sample_beta")),
        ("quadrature.composite_simpson.self_s", "s/op", ("self", "quadrature.composite_simpson")),
        ("estimators.pdf_terms.busy_s", "s/op", ("busy", "estimators.pdf_terms")),
        ("estimators.cdf_terms.busy_s", "s/op", ("busy", "estimators.cdf_terms")),
        ("estimators.terms_evaluated", "terms/op", ("work", ("estimators.pdf_terms", "estimators.cdf_terms"))),
        ("estimators.bytes_computed", "B/op", ("kernel_bytes", "estimators")),
        ("kernels.K.calls", "calls/op", ("calls", "kernels.K")),
        ("kernels.K.evals", "evals/op", ("work", ("kernels.K",))),
        ("kernels.K.busy_s", "s/op", ("busy", "kernels.K")),
        ("kernels.W.calls", "calls/op", ("calls", "kernels.W")),
        ("kernels.W.evals", "evals/op", ("work", ("kernels.W",))),
        ("kernels.W.busy_s", "s/op", ("busy", "kernels.W")),
        ("kernels.KK.calls", "calls/op", ("calls", "kernels.KK")),
        ("kernels.KK.evals", "evals/op", ("work", ("kernels.KK",))),
        ("kernels.KK.busy_s", "s/op", ("busy", "kernels.KK")),
        ("bandwidth.lscv_bandwidth.calls", "calls/op", ("calls", "bandwidth.lscv_bandwidth")),
        ("bandwidth.lscv_bandwidth.busy_s", "s/op", ("busy", "bandwidth.lscv_bandwidth")),
        ("bandwidth.pairs_evaluated", "pairs/op", ("work", ("bandwidth.lscv_bandwidth", "bandwidth.lscv_objective"))),
        ("bandwidth.bytes_computed", "B/op", ("kernel_bytes", "bandwidth")),
        ("solver.solve_support.busy_s", "s/op", ("busy", "solver.solve_support")),
        ("solver.bisect_iterations", "iters/op", ("counter", "solver.bisect_iterations")),
        ("solver.outer_sweeps", "sweeps/op", ("counter", "solver.outer_sweeps")),
        ("solver.fallbacks", "count/op", ("counter", "solver.fallbacks")),
        ("solver.errors", "count/op", ("counter", "solver.errors")),
        ("joint.fit_joint.busy_s", "s/op", ("busy", "joint.fit_joint")),
        ("joint.grid.busy_s", "s/op", ("busy", "joint.grid")),
        ("joint.points.busy_s", "s/op", ("busy", "joint.points")),
        ("joint.terms_evaluated", "terms/op", ("work", ("joint.grid", "joint.points"))),
        ("cli.run_cli.self_s", "s/op", ("self", "cli.run_cli")),
        ("cli.bytes_written", "B/op", ("work", ("cli.run_cli",))),
    ]
)


def layer_metrics(path: str, ops: int) -> dict:
    """Per-layer metrics (value per attempted op, unit) from a saved span file."""
    with np.load(path) as z:
        name_id, parent = z["name_id"], z["parent"]
        dur = z["end"] - z["start"]
        work = z["work"]
        names = json.loads(str(z["names"]))
        counters = json.loads(str(z["counters"]))
    count = len(dur)
    span_name = [names[i] for i in name_id]

    # Self time: a span's duration minus the durations of its direct children
    # (single-threaded, so children never overlap).
    child = np.zeros(count)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    # Busy time and work count only the outermost span of each name, so nested
    # calls of the same function (joint_pdf -> JointEstimator.pdf) are not doubled.
    outermost = np.ones(count, dtype=bool)
    # The nearest enclosing bandwidth or estimators span owns kernel work.
    owner = [""] * count
    for i in range(count):
        p = parent[i]
        name = span_name[i]
        layer = name.split(".", 1)[0]
        owner[i] = layer if layer in ("bandwidth", "estimators") else (owner[p] if p >= 0 else "")
        while p >= 0:
            if span_name[p] == name:
                outermost[i] = False
                break
            p = parent[p]

    span_name = np.array(span_name, dtype=object)
    layer_of = np.array([n.split(".", 1)[0] for n in span_name], dtype=object)
    owner = np.array(owner, dtype=object)
    is_kernel = layer_of == "kernels"

    def derive(kind, arg) -> float:
        if kind == "module_self":
            return float(self_time[layer_of == arg].sum())
        if kind == "self":
            return float(self_time[span_name == arg].sum())
        if kind == "busy":
            return float(dur[(span_name == arg) & outermost].sum())
        if kind == "calls":
            return float(np.count_nonzero(span_name == arg))
        if kind == "work":
            return float(work[np.isin(span_name, arg) & outermost].sum())
        if kind == "kernel_bytes":
            return 8.0 * float(work[is_kernel & (owner == arg)].sum())
        if kind == "counter":
            return float(counters.get(arg, 0.0))
        raise ValueError(kind)

    per_op = max(ops, 1)
    return {name: {"value": derive(*how) / per_op, "unit": unit} for name, unit, how in PER_LAYER}
