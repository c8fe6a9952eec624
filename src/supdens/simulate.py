"""Monte Carlo harness: beta sampling, boundary-region ISE, method comparison.

The experiment draws beta samples, selects one bandwidth per replication
(shared by every compared method), fits each configured (method, mode) pair,
and integrates the squared density error over the boundary region
[u0 - h, U], where u0 is the true upper endpoint and U lies beyond every
integrand's support.  The integral is exact piece by piece: `boundary_ise`
cuts the region where the fitted estimate jumps or kinks, so the naive and
reflection integrands are polynomials on each piece and the boundary-kernel
ones are smooth, and puts Gauss-Legendre nodes on each piece.  Replication r
of a run uses an independent generator seeded from (seed, n, r), so results
are reproducible bit-for-bit and independent of execution order.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np

from .bandwidth import lscv_bandwidth
from .errors import ConfigError, DataError
from .estimators import BOUNDARY_KERNEL, NAIVE, REFLECTION, FittedEstimator, Sample
from .kernels import EPANECHNIKOV, KernelSpec
from .solver import SupportMode, fit

__all__ = [
    "beta_pdf",
    "sample_beta",
    "boundary_ise",
    "MethodSpec",
    "ExperimentSpec",
    "CellResult",
    "ExperimentResult",
    "run_experiment",
    "TABLE_METHODS",
]


def beta_pdf(p: float, q: float, x) -> float | np.ndarray:
    """Density of Beta(p, q) on [0, 1], zero outside."""
    if p <= 0 or q <= 0:
        raise ConfigError("beta shape parameters must be positive")
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(arr)
    m = (arr >= 0.0) & (arr <= 1.0)
    if m.any():
        xm = arr[m]
        lognorm = math.lgamma(p + q) - math.lgamma(p) - math.lgamma(q)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = np.exp(lognorm) * xm ** (p - 1.0) * (1.0 - xm) ** (q - 1.0)
        out[m] = val
    return float(out[0]) if np.ndim(x) == 0 else out


def sample_beta(p: float, q: float, n: int, seed) -> Sample:
    """n beta draws via the gamma-ratio construction, fully determined by seed.

    seed may be an integer or a tuple of integers (entropy for the stream).
    """
    if p <= 0 or q <= 0:
        raise ConfigError("beta shape parameters must be positive")
    if n < 2:
        raise ConfigError("need at least two draws")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    g1 = rng.gamma(p, size=n)
    g2 = rng.gamma(q, size=n)
    denom = g1 + g2
    if np.any(denom == 0.0):
        raise DataError("degenerate gamma draws; shape parameters too extreme")
    return Sample(g1 / denom)


def _estimator_upper_end(est: FittedEstimator) -> float:
    if np.isfinite(est.support.upper):
        return est.support.upper
    r = est.kernel.support_radius
    reach = r if np.isfinite(r) else 8.0
    return est.sample.max + reach * est.h


#: Gauss-Legendre nodes on a piece where the squared error is a polynomial
#: (exact to degree 7), and on a graded boundary-kernel edge piece, where it
#: is rational with its pole at the endpoint at least one piece length away.
_POLY_NODES = 4
_EDGE_NODES = 16


@lru_cache(maxsize=None)
def _legendre_rule(nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed on first use."""
    return np.polynomial.legendre.leggauss(nodes)


def _pieces(est: FittedEstimator, u0: float, h: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lo, hi, graded): the pieces of [u0 - h, U], and which are boundary-kernel edge pieces.

    Cuts: u0, the finite support ends and the naive kinks X_i -+ r*h (r the
    kernel's radius, 1 for the Gaussian); for reflection their mirror images
    2e - X_i -+ r*h; for the boundary kernel the seams l + h, u - h and the
    edge breakpoints (X_i + r*e)/(1 + r).  An edge piece scales by the
    distance w to its endpoint e, so X_i -+ r*h are no kinks there and the
    terms go like 1/w: cuts at e -+ h*2^-k, down to the nearest
    observation's breakpoint (the estimate is 0 beyond it), keep w within a
    factor 2 on each piece.  A uniform grid keeps every piece within h/2.
    """
    x, bw = est.sample.values, est.h
    l, u = est.support.lower, est.support.upper
    a, b = u0 - h, max(u0, _estimator_upper_end(est)) + 2.0 * h
    r = est.kernel.support_radius
    reach = r * bw if est.kernel.compact else bw
    ends = [e for e in (l, u) if np.isfinite(e)]
    kinks = np.concatenate([x - reach, x + reach])
    cuts = [np.arange(a, b, 0.5 * bw), [b, u0], ends]
    if est.method == BOUNDARY_KERNEL:
        cuts.append(kinks[(kinks > l + bw) & (kinks < u - bw)])
        for e, s in ((l, 1.0), (u, -1.0)):  # s points from e into the support
            breaks = (x + r * e) / (1.0 + r)
            cuts += [[e + s * bw], breaks[s * (breaks - e) < bw]]
            inside = x[s * (x - e) > 0.0]
            if inside.size:
                stop = float(np.min(np.abs(inside - e))) / (1.0 + r)
                step = 0.5 * bw
                while step >= stop:
                    cuts.append([e + s * step])
                    step *= 0.5
    else:
        cuts.append(kinks)
        if est.method == REFLECTION:
            cuts += [2.0 * e - kinks for e in ends]
    edges = np.unique(np.clip(np.concatenate(cuts), a, b))
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    graded = np.zeros(mid.shape, dtype=bool)
    if est.method == BOUNDARY_KERNEL:
        graded = ((mid > l) & (mid < l + bw)) | ((mid > u - bw) & (mid < u))
    return lo, hi, graded


def _gauss_legendre(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray, nodes: int) -> float:
    """Sum over the pieces [lo, hi] of the `nodes`-point Gauss-Legendre integrals of f."""
    t, w = _legendre_rule(nodes)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    fx = f((mid[:, None] + half[:, None] * t).ravel())
    return float((fx.reshape(-1, t.size) @ w) @ half)


def boundary_ise(
    est: FittedEstimator,
    truth: Callable[[np.ndarray], np.ndarray],
    u0: float,
    h: float,
) -> float:
    """Integrated squared density error over the boundary region [u0 - h, U].

    U = max(u0, estimator's upper support end) + 2h, beyond which both the
    estimate and the truth vanish.  The region is cut where the estimate
    jumps or kinks (see `_pieces`), and each piece gets 4 Gauss-Legendre
    nodes, or 16 on a graded boundary-kernel edge piece.

    `truth` must be smooth on the region except at u0, as a beta density
    is.  For integer beta shapes with p + q <= 5 and the Epanechnikov
    kernel, the naive and reflection integrands are polynomials of degree
    <= 6 on each piece, so the integral is exact up to rounding.  The
    boundary kernel's agrees with 64 nodes on the same pieces to about
    1e-11 relative, and with the Gaussian kernel naive and reflection agree
    with 32 nodes on pieces of h/8 to about 1e-9 relative.
    """
    if not h > 0:  # NaN too
        raise ConfigError("bandwidth must be positive")
    lo, hi, graded = _pieces(est, u0, h)

    def sq_error(xs: np.ndarray) -> np.ndarray:
        d = est.pdf(xs) - np.asarray(truth(xs), dtype=float)
        return d * d

    return _gauss_legendre(sq_error, lo[~graded], hi[~graded], _POLY_NODES) + _gauss_legendre(
        sq_error, lo[graded], hi[graded], _EDGE_NODES
    )


@dataclass(frozen=True)
class MethodSpec:
    """A compared estimator: method name plus support mode (None for naive)."""

    method: str
    mode: Optional[SupportMode] = None

    @property
    def label(self) -> str:
        if self.method == NAIVE:
            return "naive"
        short = {"boundary_kernel": "bk", "reflection": "refl"}[self.method]
        return f"{short}:{self.mode.kind}"


TABLE_METHODS: Tuple[MethodSpec, ...] = (
    MethodSpec(NAIVE),
    MethodSpec(BOUNDARY_KERNEL, SupportMode.proposed()),
    MethodSpec(BOUNDARY_KERNEL, SupportMode.extremes()),
    MethodSpec(REFLECTION, SupportMode.proposed()),
    MethodSpec(REFLECTION, SupportMode.extremes()),
)


@dataclass(frozen=True)
class ExperimentSpec:
    """Configuration of one Monte Carlo comparison run."""

    p: float = 1.0
    q: float = 1.0
    ns: Tuple[int, ...] = (50, 100, 300)
    methods: Tuple[MethodSpec, ...] = TABLE_METHODS
    reps: int = 500
    kernel: KernelSpec = EPANECHNIKOV
    bandwidth: float | str = "lscv"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise ConfigError("need at least one replication")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if any(n < 2 for n in self.ns):
            raise ConfigError("sample sizes must be at least 2")
        if self.p <= 0 or self.q <= 0:
            raise ConfigError("beta shape parameters must be positive")
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "lscv":
                raise ConfigError(f"bandwidth policy must be 'lscv' or a number, got {self.bandwidth!r}")
        elif not self.bandwidth > 0:  # NaN too
            raise ConfigError("fixed bandwidth must be positive")

    @property
    def distribution_label(self) -> str:
        return f"beta({self.p:g},{self.q:g})"


@dataclass(frozen=True)
class CellResult:
    """Boundary ISE of one method at one (distribution, n) cell.

    Besides the mean and its standard error, a cell records the median and
    the largest per-replication ISE; `worst_rep` is the replication r that
    set the maximum, so the sample seeded by (seed, n, worst_rep) reproduces
    it.
    """

    distribution: str
    n: int
    method: str
    mean_ise: float
    sem: float
    reps: int
    fallbacks: int
    median_ise: float
    max_ise: float
    worst_rep: int


@dataclass(frozen=True)
class ExperimentResult:
    spec: ExperimentSpec
    cells: Tuple[CellResult, ...]

    def cell(self, n: int, label: str) -> CellResult:
        for c in self.cells:
            if c.n == n and c.method == label:
                return c
        raise KeyError(f"no cell for n={n}, method={label!r}")

    def table_csv(self) -> str:
        """Wide table: one row per (distribution, n), one column per method."""
        labels = [m.label for m in self.spec.methods]
        lines = ["distribution,n," + ",".join(labels)]
        for n in self.spec.ns:
            vals = [format(self.cell(n, lab).mean_ise, ".17g") for lab in labels]
            lines.append(f"{self.spec.distribution_label},{n}," + ",".join(vals))
        return "\n".join(lines) + "\n"

    def detail_json(self) -> dict:
        return {
            "distribution": self.spec.distribution_label,
            "reps": self.spec.reps,
            "seed": self.spec.seed,
            "bandwidth": self.spec.bandwidth,
            "kernel": self.spec.kernel.name,
            "cells": [{k: v for k, v in asdict(c).items() if k != "distribution"} for c in self.cells],
        }


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run the full comparison; deterministic for a fixed spec."""
    truth = lambda xs: beta_pdf(spec.p, spec.q, xs)
    cells = []
    for n in spec.ns:
        ises = np.zeros((len(spec.methods), spec.reps))
        fallbacks = np.zeros(len(spec.methods), dtype=int)
        for r in range(spec.reps):
            sample = sample_beta(spec.p, spec.q, n, (spec.seed, n, r))
            if spec.bandwidth == "lscv":
                h = lscv_bandwidth(sample, spec.kernel)
            else:
                h = float(spec.bandwidth)
            for k, ms in enumerate(spec.methods):
                est, report = fit(sample, h, spec.kernel, ms.method, ms.mode)
                if report is not None and (report.fallback_left or report.fallback_right):
                    fallbacks[k] += 1
                ises[k, r] = boundary_ise(est, truth, 1.0, h)
        for k, ms in enumerate(spec.methods):
            row = ises[k]
            sem = float(np.std(row, ddof=1) / np.sqrt(spec.reps)) if spec.reps > 1 else 0.0
            worst = int(np.argmax(row))
            cells.append(
                CellResult(
                    distribution=spec.distribution_label,
                    n=n,
                    method=ms.label,
                    mean_ise=float(np.mean(row)),
                    sem=sem,
                    reps=spec.reps,
                    fallbacks=int(fallbacks[k]),
                    median_ise=float(np.median(row)),
                    max_ise=float(row[worst]),
                    worst_rep=worst,
                )
            )
    return ExperimentResult(spec, tuple(cells))
