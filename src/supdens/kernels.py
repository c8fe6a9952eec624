"""Symmetric kernel functions K, their integrals W, their convolutions K*K,
support radii and saturation radii.

Two kernels are provided: Epanechnikov (compact support, the default for all
boundary-corrected estimators) and Gaussian.  A ``KernelSpec`` is immutable
after construction and safe to share across threads.

Conventions:
    K(z) >= 0, K(z) = K(-z), integral of K over its support is 1.
    W(z)  = integral of K from -inf to z, so W(0) = 1/2 and W(z)+W(-z) = 1.
    (K*K)(t) = integral of K(v) K(v - t) dv, in closed form for every kernel.

On its support the Epanechnikov kernel is a polynomial in |t|:

    K(t)     = (3/4)(1 - t^2)                        on |t| <= 1,
    (K*K)(t) = (3/160)(32 - 40 t^2 + 20 |t|^3 - |t|^5)  on |t| <= 2,

so sums of K and K*K over a sorted sample reduce to window moments (see
`bandwidth`).

The Gaussian W is SciPy's `ndtr`, from `scipy.special`, which `_special`
imports on first use: it is over half of a fresh `supdens` process's start-up
(about 0.3 of 0.5 s, and 25 MB of resident memory, on a 2-CPU x86_64 VM), and
an Epanechnikov run, the default, never calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from importlib import import_module
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "KernelSpec",
    "EPANECHNIKOV",
    "GAUSSIAN",
    "get_kernel",
    "kernel_names",
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


def _exp_square(t, c: float, divisor: float) -> np.ndarray:
    """exp((c * t) * t) / divisor, in that operation order, in one fresh array."""
    t = np.asarray(t, dtype=float)
    out = np.multiply(c, t, out=np.empty_like(t))
    np.multiply(out, t, out=out)
    np.exp(out, out=out)
    return np.divide(out, divisor, out=out)


def _gauss_K(z: np.ndarray) -> np.ndarray:
    return _exp_square(z, -0.5, _SQRT_2PI)


@cache
def _special():
    """`scipy.special`, imported on the first call (see the module docstring)."""
    return import_module("scipy.special")


def _gauss_W(z: np.ndarray) -> np.ndarray:
    return _special().ndtr(np.asarray(z, dtype=float))


def _gauss_KK(t: np.ndarray) -> np.ndarray:
    # Convolution (K*K)(t) = exp(-t^2/4) / (2 sqrt(pi)), the N(0, 2) density.
    return _exp_square(t, -0.25, _2_SQRT_PI)


@dataclass(frozen=True)
class KernelSpec:
    """A symmetric kernel: name, density K, integral W, radii, K*K.

    ``support_radius`` is the half-width of supp(K); ``np.inf`` for the
    Gaussian.  ``saturation`` is the radius beyond which the kernel's float64
    values are exactly constant: at |z| >= saturation it must return K = 0 and
    W = 0 (z < 0) or 1 (z > 0).  The estimators write those constants without
    evaluating the kernel there.  For a compact kernel it is the support
    radius.  The Gaussian's terms vanish in float64 only through underflow:
    scanning the floats, the last nonzero K is at z = 38.5755, the last
    nonzero W below 0 at z = -37.6771 and the last W below 1 at z = 8.2924.
    Its saturation is 39, where the true K is 10^-330.7 and W(-39) is
    10^-332.3, orders of magnitude below half the smallest subnormal
    (10^-323.6), and 1 - W(39) is far below half an ulp of 1; so any
    faithfully rounded exp and ndtr return exactly 0 or 1 there.
    ``convolution`` is always set: the closed-form K*K that
    least-squares cross-validation sums.  ``polynomial``, when set, holds the
    coefficients in |t|, lowest degree first, of K on |t| <= support_radius
    and of K*K on |t| <= 2 * support_radius; the Gaussian has none.

    ``pdf``, ``cdf`` and ``convolution`` take a Python scalar, a list or an
    array of any shape and return float64 values of that shape in new memory;
    they never write into their argument.
    """

    name: str
    pdf: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray]
    support_radius: float
    saturation: float
    convolution: Callable[[np.ndarray], np.ndarray]
    polynomial: Optional[Tuple[Tuple[float, ...], Tuple[float, ...]]] = None

    @property
    def compact(self) -> bool:
        return np.isfinite(self.support_radius)


EPANECHNIKOV = KernelSpec(
    name="epanechnikov",
    pdf=_epan_K,
    cdf=_epan_W,
    support_radius=1.0,
    saturation=1.0,
    convolution=_epan_KK,
    polynomial=((0.75, 0.0, -0.75), (0.6, 0.0, -0.75, 0.375, 0.0, -0.01875)),
)

GAUSSIAN = KernelSpec(
    name="gaussian",
    pdf=_gauss_K,
    cdf=_gauss_W,
    support_radius=np.inf,
    saturation=39.0,
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


def kernel_names() -> list:
    """The kernels' names, which `get_kernel` takes."""
    return sorted({spec.name for spec in _BY_NAME.values()})


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
    out = spec.cdf(arr)
    return float(out) if np.isscalar(z) or arr.ndim == 0 else out
