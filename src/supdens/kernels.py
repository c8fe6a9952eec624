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

The Gaussian W is Cody's rational Chebyshev approximation of the normal
CDF Phi (W. J. Cody, Math. Comp. 23 (1969); ACM TOMS Algorithm 715, 1993, the
form R's `pnorm` uses), ported to NumPy in `_gauss_W` with R's order of
operations.  It has three ranges in y = |z|: 1/2 + z P(z^2)/Q(z^2) for
y <= 0.67448975, and exp(-z^2/2) R for the tails, R a ratio of degree-8
polynomials in y up to sqrt(32) and (1/sqrt(2 pi) - r P(r)/Q(r))/y with
r = 1/z^2 below 37.5193.  exp(-z^2/2) is formed as
exp(-a^2/2) exp(-(y - a)(y + a)/2), a = trunc(16 y)/16, so its argument
carries no rounding error of size z^2 eps.  Beyond 37.5193 W is exactly 0 or
1.  Against 50-digit `mpmath` values its relative error was at most 6.6e-16
on a dense grid of [-37.5, 9] (SciPy's `ndtr`, used before, reaches 2.4e-13
in the lower tail); the tests hold it below 2e-15 wherever Phi(z) >=
2.3e-308.  So the package needs NumPy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt
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


#: Cody's constants, each list in Horner order: (numerator, denominator) of the
#: centre (in z^2, times z), the middle tails (in y) and the far tails (in 1/z^2).
_CODY_CENTRE = (
    (0.065682337918207449113, 2.2352520354606839287, 161.02823106855587881, 1067.6894854603709582,
     18154.981253343561249),
    (1.0, 47.20258190468824187, 976.09855173777669322, 10260.932208618978205, 45507.789335026729956),
)
_CODY_MIDDLE = (
    (1.0765576773720192317e-8, 0.39894151208813466764, 8.8831497943883759412, 93.506656132177855979,
     597.27027639480026226, 2494.5375852903726711, 6848.1904505362823326, 11602.651437647350124,
     9842.7148383839780218),
    (1.0, 22.266688044328115691, 235.38790178262499861, 1519.377599407554805, 6485.558298266760755,
     18615.571640885098091, 34900.952721145977266, 38912.003286093271411, 19685.429676859990727),
)
_CODY_FAR = (
    (0.02307344176494017303, 0.21589853405795699, 0.1274011611602473639, 0.022235277870649807,
     0.001421619193227893466, 2.9112874951168792e-5),
    (1.0, 1.28426009614491121, 0.468238212480865118, 0.0659881378689285515, 0.00378239633202758244,
     7.29751555083966205e-5),
)
#: The ranges' upper ends in |z|: the quartile 0.67448975, sqrt(32), and the
#: point beyond which W is exactly 0 or 1.  Above ONE, 1 - Phi(-z) rounds to
#: exactly 1 as well, so Cody's lower-tail routine returns 1 there.
_CENTRE, _MIDDLE, _FAR, _ONE = 0.67448975, sqrt(32.0), 37.5193, 8.2924
#: The three ranges' Horner constants, [step, numerator or denominator,
#: range]; a range with fewer steps starts with constants 0, which keep its
#: sums exactly 0 until its own constants begin.
_CODY_STEPS = np.array(
    [[[0.0] * (9 - len(r[i])) + list(r[i]) for r in (_CODY_CENTRE, _CODY_MIDDLE, _CODY_FAR)] for i in (0, 1)]
).transpose(2, 0, 1).copy()
#: Elements per pass of `_gauss_W`, which bounds its working arrays: the
#: fastest of 2^11 to 2^15 on a 2-CPU x86_64 VM (32 ns an element for
#: arguments uniform on [-39, 39], against 34 at 2^12 and 36 at 2^14).
W_BLOCK = 1 << 13


def _gauss_W(z) -> np.ndarray:
    """Phi(z) by Cody's approximation (see the module docstring), W_BLOCK elements at a time."""
    z = np.asarray(z, dtype=float)
    out = np.empty(z.shape)
    flat, dest = z.reshape(-1), out.reshape(-1)
    for i in range(0, flat.size, W_BLOCK):
        _cody_phi(flat[i : i + W_BLOCK], dest[i : i + W_BLOCK])
    return out


def _cody_phi(x: np.ndarray, out: np.ndarray) -> None:
    """Phi at the 1-d x, written into out, with the operations of R's `pnorm_both`.

    Each range runs on its own elements and the rest are the constants 0 or
    1 (NaN stays NaN).  The ranges' elements are laid end to end, centre,
    middle, far, and share one Horner loop; the middle and far ranges share
    one exp(-z^2/2).  No exp result is subnormal, where exp costs a hundred
    times more.
    """
    y = np.abs(x)
    np.heaviside(x, 0.5, out)
    ranges = (
        (y <= _CENTRE).nonzero()[0],
        ((y > _CENTRE) & (y <= _MIDDLE)).nonzero()[0],
        ((y > _MIDDLE) & (x > -_FAR) & (x < _ONE)).nonzero()[0],
    )
    at = np.concatenate(ranges)
    if not at.size:
        return
    k1, k2, k = ranges[0].size, ranges[0].size + ranges[1].size, at.size
    xs = x[at]
    # the Horner variable, z^2, |z| or 1/z^2, for the numerators and then the denominators
    v = np.empty(2 * k)
    np.abs(xs, v[:k])
    np.multiply(xs[:k1], xs[:k1], v[:k1])
    r = v[k2:k]
    np.divide(1.0, np.multiply(r, r, r), r)
    v[k:] = v[:k]
    steps = np.repeat(_CODY_STEPS, [part.size for part in ranges], axis=2).reshape(len(_CODY_STEPS), 2 * k)
    acc = np.multiply(steps[0], v, steps[0])
    for step in steps[1:-1]:
        np.multiply(np.add(acc, step, acc), v, acc)
    np.add(acc, steps[-1], acc)
    # centre: 1/2 + z P/Q; far: temp = (1/sqrt(2 pi) - r P/Q) / |z|
    num = acc[:k]
    np.multiply(num[:k1], xs[:k1], num[:k1])
    np.multiply(num[k2:], r, num[k2:])
    temp = np.divide(num, acc[k:], num)
    out[ranges[0]] = np.add(0.5, temp[:k1])
    yt, temp = np.abs(xs[k1:]), temp[k1:]
    far = temp[k2 - k1 :]
    np.divide(np.subtract(1.0 / sqrt(2.0 * pi), far, far), yt[k2 - k1 :], far)
    # Phi(-|z|) = exp(-a^2/2) exp(-(|z| - a)(|z| + a)/2) temp, a = trunc(16 |z|)/16
    a = np.trunc(np.multiply(yt, 16.0))
    np.multiply(a, 0.0625, a)
    g = np.empty((2,) + a.shape)
    np.multiply(a, a, g[0])
    np.multiply(np.subtract(yt, a, g[1]), np.add(yt, a, a), g[1])
    np.exp(np.multiply(g, -0.5, g), g)
    lower = np.multiply(np.multiply(g[0], g[1], g[0]), temp, temp)
    out[at[k1:]] = np.subtract(1.0, lower, lower, where=xs[k1:] > 0.0)


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
    nonzero W below 0 at z = -37.5193, where Cody's approximation stops
    (W there is 2.2e-308, the smallest normal number), and the last W below
    1 at z = 8.2924.  Its saturation is 39, where the true K is 10^-330.7 and
    W(-39) is 10^-332.3, orders of magnitude below half the smallest
    subnormal (10^-323.6), and 1 - W(39) is far below half an ulp of 1; so
    any faithfully rounded exp and Phi return exactly 0 or 1 there.
    ``cdf_one`` is the z, at most the saturation, from which W is exactly 1:
    the support radius of a compact kernel, and 8.2924 for the Gaussian,
    whose W is exactly 1 from there although K is not 0; the estimators
    write those cdf terms rather than evaluate them (`estimators._piece_sums`).
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
    cdf_one: float
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
    cdf_one=1.0,
    polynomial=((0.75, 0.0, -0.75), (0.6, 0.0, -0.75, 0.375, 0.0, -0.01875)),
)

GAUSSIAN = KernelSpec(
    name="gaussian",
    pdf=_gauss_K,
    cdf=_gauss_W,
    support_radius=np.inf,
    saturation=39.0,
    convolution=_gauss_KK,
    cdf_one=_ONE,
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
