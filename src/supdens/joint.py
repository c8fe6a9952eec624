"""Joint density/CDF estimation on an unknown hyper-rectangle.

Each coordinate is fitted by the univariate pipeline (boundary-corrected
estimator plus endpoint solving), and the marginals are combined through the
product form

    cdf(x) = (1/n) sum_i prod_j Wterm_j(x_j, X_{j,i}),
    pdf(x) = (1/n) sum_i prod_j wterm_j(x_j, X_{j,i}),

where Wterm_j / wterm_j are the per-observation CDF/PDF kernel terms of the
chosen corrected marginal method on its resolved interval.  Because each
per-observation CDF term saturates to exactly 1 at the coordinate's upper
endpoint (and 0 below the lower one), sending all coordinates but one above
their endpoints reproduces the remaining marginal exactly, and the joint CDF
hits 1 at the estimated upper corner.

Joint values at scattered points reduce through the univariate estimators'
chunked row means (`estimators._row_means`): each chunk of rows is the
per-observation product of the marginals' terms, so no (m, n) matrix is held.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, DataError
from .estimators import BOUNDARY_KERNEL, REFLECTION, FittedEstimator, Sample, _row_means, cdf_terms, pdf_terms
from .kernels import KernelSpec
from .solver import SolveReport, SupportMode, fit as fit_univariate

__all__ = ["MultiSample", "JointEstimator", "fit_joint", "joint_cdf", "joint_pdf"]


@dataclass(frozen=True)
class MultiSample:
    """n observations of d coordinates, all finite."""

    rows: np.ndarray

    def __init__(self, rows) -> None:
        arr = np.asarray(rows, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DataError("multivariate sample must be a nonempty (n, d) array")
        if not np.all(np.isfinite(arr)):
            raise DataError("multivariate sample values must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "rows", arr)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]

    def coordinate(self, j: int) -> Sample:
        return Sample(self.rows[:, j])


@dataclass(frozen=True)
class JointEstimator:
    """Product-type combination of boundary-corrected marginal estimators.

    The marginals share the observation index: marginal j is fitted on the
    j-th coordinate of the same rows, and the product couples the terms
    per observation.  Immutable after fit; evaluation is thread-safe.
    """

    data: MultiSample
    marginals: Tuple[FittedEstimator, ...]
    reports: Tuple[Optional[SolveReport], ...]

    @property
    def d(self) -> int:
        return len(self.marginals)

    @property
    def rectangle(self) -> Tuple[Tuple[float, float], ...]:
        return tuple((m.support.lower, m.support.upper) for m in self.marginals)

    def cdf(self, x) -> float | np.ndarray:
        return _match_shape(np.clip(self._means(cdf_terms, x), 0.0, 1.0), x)

    def pdf(self, x) -> float | np.ndarray:
        return _match_shape(self._means(pdf_terms, x), x)

    def _means(self, terms, x) -> np.ndarray:
        """Row means of the per-observation products of the marginals' terms at the points x."""
        pts = _as_points(x, self.d)
        cols = self.data.rows

        def block(rows):
            # starting from the first factor, not from ones, is exact: 1.0 * t == t
            out = terms(self.marginals[0], pts[rows, 0], cols[:, 0])
            for j in range(1, self.d):
                out *= terms(self.marginals[j], pts[rows, j], cols[:, j])
            return out

        return _row_means(block, pts.shape[0], self.data.n)

    def cdf_grid(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        """Joint CDF on the tensor grid spanned by per-coordinate axes."""
        return self._grid(axes, "cdf")

    def pdf_grid(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        """Joint PDF on the tensor grid spanned by per-coordinate axes."""
        return self._grid(axes, "pdf")

    def _grid(self, axes: Sequence[np.ndarray], which: str) -> np.ndarray:
        if len(axes) != self.d:
            raise ConfigError(f"expected {self.d} axes, got {len(axes)}")
        fn = cdf_terms if which == "cdf" else pdf_terms
        mats = [fn(self.marginals[j], axes[j], self.data.rows[:, j]) for j in range(self.d)]
        letters = "abcdefghijk"
        if self.d > len(letters):
            raise ConfigError("tensor grids supported up to 11 dimensions")
        sub = ",".join(f"{letters[j]}z" for j in range(self.d)) + "->" + letters[: self.d]
        out = np.einsum(sub, *mats) / self.data.n
        if which == "cdf":
            out = np.clip(out, 0.0, 1.0)
        return out


def _as_points(x, d: int) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        if arr.size != d:
            raise ConfigError(f"point has {arr.size} coordinates, estimator has {d}")
        arr = arr.reshape(1, d)
    elif arr.ndim == 2:
        if arr.shape[1] != d:
            raise ConfigError(f"points have {arr.shape[1]} coordinates, estimator has {d}")
    else:
        raise ConfigError("points must be a d-vector or an (m, d) array")
    return arr


def _match_shape(out: np.ndarray, x):
    arr = np.asarray(x)
    if arr.ndim == 1:
        return float(out[0])
    return out


def fit_joint(
    data: MultiSample,
    h,
    kernel: KernelSpec,
    method: str,
    mode: SupportMode | Sequence[SupportMode],
) -> JointEstimator:
    """Fit every coordinate by the univariate pipeline and combine them.

    h is a scalar shared by all coordinates or one bandwidth per coordinate;
    mode likewise.  d = 1 reduces exactly to the univariate estimator.
    """
    if method not in (REFLECTION, BOUNDARY_KERNEL):
        raise ConfigError(f"joint estimation uses reflection/boundary_kernel, got {method!r}")
    hs = np.asarray(h, dtype=float).ravel()
    if hs.size == 1:
        hs = np.repeat(hs, data.d)
    if hs.size != data.d:
        raise ConfigError(f"expected 1 or {data.d} bandwidths, got {hs.size}")
    modes = [mode] * data.d if isinstance(mode, SupportMode) else list(mode)
    if len(modes) != data.d:
        raise ConfigError(f"expected 1 or {data.d} support modes, got {len(modes)}")
    marginals = []
    reports = []
    for j in range(data.d):
        est, rep = fit_univariate(data.coordinate(j), float(hs[j]), kernel, method, modes[j])
        marginals.append(est)
        reports.append(rep)
    return JointEstimator(data, tuple(marginals), tuple(reports))


def joint_cdf(est: JointEstimator, x) -> float | np.ndarray:
    """Product-form joint CDF at x (a d-vector or (m, d) array)."""
    return est.cdf(x)


def joint_pdf(est: JointEstimator, x) -> float | np.ndarray:
    """Product-form joint PDF at x; zero outside the estimated rectangle."""
    return est.pdf(x)
