"""Symmetric kernel functions K, their integrals W, their convolutions K*K,
and support radii.

Two kernels are provided: Epanechnikov (compact support, the default for all
boundary-corrected estimators) and Gaussian.  A ``KernelSpec`` is immutable
after construction and safe to share across threads.

Conventions:
    K(z) >= 0, K(z) = K(-z), integral of K over its support is 1.
    W(z)  = integral of K from -inf to z, so W(0) = 1/2 and W(z)+W(-z) = 1.
    (K*K)(t) = integral of K(v) K(v - t) dv, in closed form for every kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtr

from .errors import ConfigError, DataError

__all__ = [
    "KernelSpec",
    "EPANECHNIKOV",
    "GAUSSIAN",
    "get_kernel",
    "eval_K",
    "eval_W",
]

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_2_SQRT_PI = 2.0 * np.sqrt(np.pi)


def _epan_K(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    return 0.75 * np.maximum(0.0, 1.0 - z * z)


def _epan_W(z: np.ndarray) -> np.ndarray:
    # Horner form 0.5 + z*(0.75 - 0.25*z*z) hits exactly 0.0 / 1.0 at z = -1 / +1,
    # which the reflection estimator's endpoint identities rely on.
    z = np.asarray(z, dtype=float)
    zc = np.clip(z, -1.0, 1.0)
    return 0.5 + zc * (0.75 - 0.25 * zc * zc)


def _epan_KK(t: np.ndarray) -> np.ndarray:
    # Convolution (K*K)(t) = int K(u) K(u - t) du, closed form on |t| <= 2.
    a = np.abs(np.asarray(t, dtype=float))
    out = np.zeros_like(a)
    m = a <= 2.0
    am = a[m]
    out[m] = (3.0 / 160.0) * (2.0 - am) ** 3 * (am * am + 6.0 * am + 4.0)
    return out


def _gauss_K(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    return np.exp(-0.5 * z * z) / _SQRT_2PI


def _gauss_W(z: np.ndarray) -> np.ndarray:
    return ndtr(np.asarray(z, dtype=float))


def _gauss_KK(t: np.ndarray) -> np.ndarray:
    # Convolution (K*K)(t) = exp(-t^2/4) / (2 sqrt(pi)), the N(0, 2) density.
    t = np.asarray(t, dtype=float)
    return np.exp(-0.25 * t * t) / _2_SQRT_PI


@dataclass(frozen=True)
class KernelSpec:
    """A symmetric kernel: name, density K, integral W, support radius, K*K.

    ``support_radius`` is the half-width of supp(K); ``np.inf`` for the
    Gaussian.  ``convolution`` is always set: the closed-form K*K that
    least-squares cross-validation sums.
    """

    name: str
    pdf: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray]
    support_radius: float
    convolution: Callable[[np.ndarray], np.ndarray]

    @property
    def compact(self) -> bool:
        return np.isfinite(self.support_radius)


EPANECHNIKOV = KernelSpec(
    name="epanechnikov",
    pdf=_epan_K,
    cdf=_epan_W,
    support_radius=1.0,
    convolution=_epan_KK,
)

GAUSSIAN = KernelSpec(
    name="gaussian",
    pdf=_gauss_K,
    cdf=_gauss_W,
    support_radius=np.inf,
    convolution=_gauss_KK,
)

_BY_NAME = {
    "epanechnikov": EPANECHNIKOV,
    "epan": EPANECHNIKOV,
    "gaussian": GAUSSIAN,
}


def get_kernel(name: str) -> KernelSpec:
    """Look a kernel up by name ("epanechnikov" or "gaussian")."""
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise ConfigError(f"unknown kernel: {name!r}") from None


def eval_K(spec: KernelSpec, z) -> float | np.ndarray:
    """Evaluate the kernel density K at z.  z must be finite."""
    arr = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DataError("eval_K requires finite arguments")
    out = spec.pdf(arr)
    return float(out) if np.isscalar(z) or arr.ndim == 0 else out


def eval_W(spec: KernelSpec, z) -> float | np.ndarray:
    """Evaluate the kernel integral W at z.  z may be +/-inf."""
    arr = np.asarray(z, dtype=float)
    if np.any(np.isnan(arr)):
        raise DataError("eval_W requires non-NaN arguments")
    if spec.compact:
        out = spec.cdf(np.nan_to_num(arr, posinf=spec.support_radius, neginf=-spec.support_radius))
    else:
        out = spec.cdf(arr)
    return float(out) if np.isscalar(z) or arr.ndim == 0 else out
