"""Least-squares cross-validation bandwidth selection for the naive estimator.

LSCV(h) = integral of fhat^2 - (2/n) sum_i fhat_{-i}(X_i), where fhat is the
naive kernel density estimate at bandwidth h and fhat_{-i} leaves observation
i out (normalized by n-1).  The squared-density integral is the double sum
(1/(n^2 h)) sum_ij (K*K)((X_i - X_j)/h) over the kernel's closed-form
convolution K*K, which both kernels carry.  The selected bandwidth is the grid
candidate minimizing LSCV, ties broken toward the smaller candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .estimators import Sample
from .kernels import KernelSpec

__all__ = ["BandwidthGrid", "lscv_bandwidth", "lscv_objective"]


@dataclass(frozen=True)
class BandwidthGrid:
    """Sorted positive bandwidth candidates."""

    candidates: np.ndarray

    def __init__(self, candidates) -> None:
        arr = np.asarray(candidates, dtype=float).ravel()
        if arr.size == 0:
            raise ConfigError("bandwidth grid must be nonempty")
        if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
            raise ConfigError("bandwidth candidates must be positive and finite")
        if np.any(np.diff(arr) <= 0):
            raise ConfigError("bandwidth candidates must be strictly increasing")
        arr.flags.writeable = False
        object.__setattr__(self, "candidates", arr)

    @classmethod
    def default(cls, sample: Sample, points: int = 40) -> "BandwidthGrid":
        """40 log-spaced candidates over [0.05*sd*n^(-1/5), sd].

        The lower bound carries the n^(-1/5) pilot factor so small candidates
        exist at large n; the upper bound is additionally capped at just under
        half the sample range so corrected fits stay feasible.
        """
        sd = sample.std()
        if sd <= 0:
            raise DataError("sample is degenerate (zero variance); no bandwidth scale")
        n = sample.n
        lo = 0.05 * sd * n ** (-0.2)
        hi = min(sd, 0.499 * (sample.max - sample.min))
        if hi <= lo:
            hi = 2.0 * lo
        return cls(np.geomspace(lo, hi, points))


def _lscv(dist: np.ndarray, h: float, kernel: KernelSpec) -> float:
    """LSCV(h) from the pairwise differences dist[i, j] = X_i - X_j."""
    n = dist.shape[0]
    scaled = dist / h
    int_f2 = float(kernel.convolution(scaled).sum()) / (n * n * h)
    k0 = float(kernel.pdf(np.zeros(1))[0])
    loo_sum = (float(kernel.pdf(scaled).sum()) - n * k0) / ((n - 1) * h)
    return int_f2 - (2.0 / n) * loo_sum


def lscv_objective(sample: Sample, kernel: KernelSpec, h: float) -> float:
    """The LSCV criterion at one bandwidth (needs n >= 2 for leave-one-out)."""
    if h <= 0:
        raise ConfigError("bandwidth must be positive")
    data = sample.values
    if data.size < 2:
        raise ConfigError("the LSCV objective needs at least two observations")
    return _lscv(data[:, None] - data[None, :], h, kernel)


def lscv_bandwidth(sample: Sample, kernel: KernelSpec, grid: BandwidthGrid | None = None) -> float:
    """Select the grid candidate minimizing LSCV; ties go to the smaller h."""
    if sample.n < 3:
        raise ConfigError("LSCV needs at least three observations")
    if sample.std() <= 0:
        raise DataError("sample is degenerate (zero variance)")
    if grid is None:
        grid = BandwidthGrid.default(sample)
    data = sample.values
    dist = data[:, None] - data[None, :]
    best_h = grid.candidates[0]
    best_val = np.inf
    for h in grid.candidates:
        val = _lscv(dist, h, kernel)
        if val < best_val:
            best_val = val
            best_h = h
    return float(best_h)
