"""Least-squares cross-validation bandwidth selection for the naive estimator.

LSCV(h) = integral of fhat^2 - (2/n) sum_i fhat_{-i}(X_i), where fhat is the
naive kernel density estimate at bandwidth h and fhat_{-i} leaves observation
i out (normalized by n-1).  The squared-density integral is the double sum
(1/(n^2 h)) sum_ij (K*K)((X_i - X_j)/h) over the kernel's closed-form
convolution K*K, which both kernels carry.  The selected bandwidth is the grid
candidate minimizing LSCV, ties broken toward the smaller candidate.

A bandwidth policy, "lscv" or a positive real number (a fixed h), is checked
by `check_policy` and applied by `select_bandwidth`, and by nothing else.

No n x n matrix is built; the kernel decides how the pair sums are formed
(times on beta(3,1) samples, 40 candidates, a 2-CPU x86_64 VM):

- one that is a polynomial on its support (Epanechnikov) sums exact window
  moments over the sorted sample: O(n) per candidate, 0.012-0.017 s at
  n = 10^3, 0.12-0.15 s at 10^4 and 1.4-1.7 s at 10^5;
- the Gaussian sums exp(-(d/sigma)^2) over all pairs, sigma = sqrt(2) h for K
  and 2 h for K*K, by a fast Gauss transform (Greengard & Strain 1991; Raykar
  & Duraiswami 2006 select bandwidths with it), each pair's term within 1e-15:
  0.01 s at n = 100, 0.07 s at 10^4 and 0.5 s at 10^5.  Its box moments,
  Hermite recurrence and term counts are those of the Gaussian evaluation's
  transform (`estimators._gauss_sums`);
- any other kernel is a ConfigError.

A chunk of candidates holds about WINDOW_CHUNK entries, n per candidate, in
the window path, whose three dozen working arrays of that length then stay
near the L2 cache; and about CHUNK entries, n plus TERMS moments per box per
candidate, in the Gaussian's.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, log, sqrt

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, DataError
from .estimators import _WIDEST, CHUNK, EXPANSION_TOL, WINDOW_CHUNK, Sample, _box_moments, _box_width, _chunks, _hermite
from .kernels import KernelSpec

__all__ = ["BandwidthGrid", "check_policy", "lscv_bandwidth", "lscv_objective", "select_bandwidth"]

#: Candidates in the default LSCV bandwidth grid.
DEFAULT_POINTS = 40


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
    def default(cls, sample: Sample) -> "BandwidthGrid":
        """DEFAULT_POINTS log-spaced candidates over [0.05*sd*n^(-1/5), sd].

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
        return cls(np.geomspace(lo, hi, DEFAULT_POINTS))


#: Gaussian pair sums (`_gauss_pair_totals`): boxes at most BOX sigma wide, whose
#: moments need TERMS terms, and GEMM_ROWS boxes per product, which start no BLAS threads.
BOX, GEMM_ROWS = 1.0, 8
TERMS = int(np.searchsorted(_WIDEST, BOX))


def _horner_steps(coeffs: tuple) -> list:
    """Per power q of a, highest first: (c_(m+q) C(m+q, m), m) for each nonzero c_(m+q).

    Every step holds m = degree - q, whose coefficient is the leading one.
    """
    return [[(coeffs[m + q] * comb(m + q, m), m) for m in range(len(coeffs) - q) if coeffs[m + q]]
            for q in range(len(coeffs) - 1, -1, -1)]


def _window_pair_sums(y: np.ndarray, kernel: KernelSpec, hs: np.ndarray) -> np.ndarray:
    """Pair sums of K and K*K for a kernel that is a polynomial on its support.

    y is sorted and hs is a chunk of bandwidths.  In units t = y/h the
    blocks [b, b + 1) have centres b + 1/2, and u_i = t_i - (b_i + 1/2) lies in
    [-1/2, 1/2).  The pairs j > i within reach R of i fall in at most ceil(R) + 1
    consecutive nonempty blocks.  On the segment in block b_i + delta,
    t_j - t_i = a + u_j with a = delta - u_i, so sum_k c_k (t_j - t_i)^k is
    sum_p a^p sum_m c_(m+p) C(m+p, m) M_m over the moments M_m = sum u_j^m of
    the segment, which prefix sums give in O(1).  Every term is O(1) in t.

    K and K*K walk the same segment starts, so they share each start's a and
    prefix sums; only the ends differ.  The arithmetic of each (candidate, i)
    entry is its own, so a candidate's sums are the same bits whatever shares
    its chunk.
    """
    c, n = hs.size, y.size
    t = y / hs[:, None]
    b = np.floor(t)
    u = t - b - 0.5
    degree = max(len(p) for p in kernel.polynomial) - 1
    # prefix[m, k, j] = sum of u[k, :j] ** m, one row of n + 1 per candidate;
    # the powers are formed in place and summed there
    prefix = np.empty((degree + 1, c, n + 1))
    prefix[:, :, 0] = 0.0
    prefix[0, :, 1:] = np.arange(1, n + 1)
    powers = prefix[1:, :, 1:]
    powers[0] = u
    for m in range(1, degree):
        np.multiply(powers[m - 1], u, out=powers[m])
    np.cumsum(powers, axis=2, out=powers)
    offset = np.arange(c)[:, None] * (n + 1)
    # end[k, i]: one past the last element of i's block (the padded column n maps to n), as a flat index
    starts = np.where(b[:, 1:] != b[:, :-1], np.arange(1, n), n)
    end = np.concatenate([np.minimum.accumulate(starts[:, ::-1], axis=1)[:, ::-1], np.full((c, 2), n)], axis=1) + offset
    bp = np.concatenate([b, b[:, -1:]], axis=1)
    # segment starts, ends and prefix sums are gathered along one axis by 1-D flat indices
    lo = (np.arange(1, n + 1) + offset).ravel()
    prefix, end, bp, b, u = prefix.reshape(degree + 1, -1), end.ravel(), bp.ravel(), b.ravel(), u.ravel()
    polys = []  # per polynomial: coefficient count, Horner steps, w, segments, total
    for coeffs, reach in zip(kernel.polynomial, (1.0, 2.0)):
        reach *= kernel.support_radius
        # w[k, i]: one past the last j with y_j <= y_i + reach * h_k, as a flat index
        w = (np.searchsorted(y, y + reach * hs[:, None], side="right") + offset).ravel()
        polys.append((len(coeffs), _horner_steps(coeffs), w, int(np.ceil(reach)) + 1, np.zeros(c * n)))
    # working arrays, allocated once; take writes into them unbuffered in mode
    # "clip", which clips nothing, as every index is in range
    seg, term, tmp = np.empty((3, c * n))
    moments, gathered = np.empty((2, degree + 1, c * n))
    for k in range(max(segments for _, _, _, segments, _ in polys)):
        rows = max(ncoef for ncoef, _, _, segments, _ in polys if k < segments)
        at_lo = np.take(prefix[:rows], lo, axis=1, out=gathered[:rows], mode="clip")
        block_end, block = np.take(end, lo), np.take(bp, lo)
        a = block - b - u
        for ncoef, steps, w, segments, total in polys:
            if k >= segments:
                continue
            hi = np.maximum(np.minimum(block_end, w), lo)
            np.take(prefix[:ncoef], hi, axis=1, out=moments[:ncoef], mode="clip")
            np.subtract(moments[:ncoef], at_lo[:ncoef], out=moments[:ncoef])
            # Horner in a over the shifted coefficients sum_m c_(m+q) C(m+q, m) M_m,
            # each sum over m from the left
            for q, scaled in enumerate(steps):
                acc = term if q else seg
                for j, (s, m) in enumerate(scaled):
                    if j:
                        acc += np.multiply(moments[m], s, out=tmp)
                    else:
                        np.multiply(moments[m], s, out=acc)
                if q:
                    seg *= a
                    seg += term
            total += seg
        lo = block_end
    return np.array([total.reshape(c, n).sum(axis=1) for *_, total in polys])


def _gauss_pair_totals(y: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """T = sum over all i, j of exp(-((y_i - y_j)/sigma)^2) at each sigma of a chunk, y sorted.

    Boxes are s wide, the largest power of 2 at most BOX sigma: their edges k s
    are exact, w = s/sigma is in (BOX/2, BOX] and u = (y - (k + 1/2) s)/sigma in
    [-w/2, w/2).  For i in a box and j in the box d above, (y_j - y_i)/sigma =
    D + e, D = d w, |e| < w, and exp(-(D + e)^2) = sum_m g_m(D) e^m with
    g_m = (d/dD)^m exp(-D^2) / m!; so a box pair sums to sum_(a+c<p) (-1)^a
    M_a M'_c (a+c)! g_(a+c)(D) over the box moments M_a = sum u^a / a!.
    Error bound: by Cramér's inequality |H_p(x)| exp(-x^2/2) <= 1.09 2^(p/2)
    sqrt(p!), the remainder g_p(xi) e^p is at most 1.09 (sqrt(2) w)^p / sqrt(p!),
    and p is the least count keeping that within EXPANSION_TOL (36 at w = 1).
    Box pairs more than R apart hold points more than R w apart and are
    dropped, R the least with exp(-(R w)^2) <= EXPANSION_TOL.  So every pair's
    term is within EXPANSION_TOL = 1e-15.  Each sigma's products run over its
    own boxes in fixed blocks, whatever shares its chunk.
    """
    c, n = sigmas.size, y.size
    s = _box_width(BOX * sigmas)[:, None]
    w = s[:, 0] / sigmas
    terms, reach = np.searchsorted(_WIDEST, w), np.ceil(sqrt(-log(EXPANSION_TOL)) / w).astype(np.intp)
    starts, box, moments = _box_moments(y, s, sigmas[:, None], TERMS)
    owner = starts // n
    # herm[m, k, d] = (-1)^m m! g_m(d w_k) = H_m(D) exp(-D^2), zero for m >= TERMS
    D = np.arange(reach.max() + 1) * w[:, None]
    herm = np.concatenate([_hermite(D, TERMS), np.zeros((TERMS - 1,) + D.shape)])
    herm[np.arange(2 * TERMS - 1)[:, None] >= terms] = 0.0  # so the products keep a + c < p
    # box pairs lo < hi of one sigma, at most its reach apart, ordered by hi
    near = [np.flatnonzero((owner[e:] == owner[:-e]) & (box[e:] - box[:-e] <= reach[owner[e:]]))
            for e in range(1, reach.max() + 1)]
    hi = np.concatenate([lo + e for e, lo in enumerate(near, 1)])
    order = np.argsort(hi, kind="stable")
    lo, hi = np.concatenate(near)[order], hi[order]
    offset, bounds = (box[hi] - box[lo]).astype(np.intp), np.searchsorted(owner, np.arange(c + 1))
    spans = np.minimum(reach, box[bounds[1:] - 1] - box[bounds[:-1]]).astype(np.intp) + 1
    signed = moments * (-1.0) ** np.arange(TERMS)  # (-1)^a (a+c)! g_(a+c) = (-1)^c herm[a+c]
    out = np.zeros(c)
    for k in range(c):
        p, b0, b1, span = terms[k], bounds[k], bounds[k + 1], spans[k]
        # hankel[c, d p + a] = herm[a+c, k, d]: a view striding m for both c and a, copied by the reshape
        hankel = as_strided(herm[:, k], (p, span, p), np.take(herm.strides, [0, 2, 0])).reshape(p, -1)
        rows = max(1, CHUNK // (GEMM_ROWS * hankel.shape[1])) * GEMM_ROWS
        for j0 in range(b0, b1, rows):
            j1 = min(j0 + rows, b1)
            blocks = np.concatenate([signed[j0:j1, :p], np.zeros(((j0 - j1) % GEMM_ROWS, p))])
            # local[j, d, a] = sum_c (-1)^a M_c (a+c)! g_(a+c)(d w) over box j's moments
            local = np.matmul(blocks.reshape(-1, GEMM_ROWS, p), hankel).reshape(-1, span, p)
            pair = slice(*np.searchsorted(hi, (j0, j1)))
            out[k] += np.sum(moments[j0:j1, :p] * local[: j1 - j0, 0])
            out[k] += 2.0 * np.sum(moments[lo[pair], :p] * local[hi[pair] - j0, offset[pair]])
    return out


def _lscv(sample: Sample, kernel: KernelSpec, hs: np.ndarray) -> np.ndarray:
    """LSCV at each bandwidth of hs, from the pair sums and the closed-form diagonal.

    With S_K = sum_{i<j} K(d_ij/h) and S_KK = sum_{i<j} (K*K)(d_ij/h),
    LSCV(h) = (n (K*K)(0) + 2 S_KK) / (n^2 h) - 4 S_K / (n (n-1) h); the
    Gaussian's totals give n (K*K)(0) + 2 S_KK = (K*K)(0) T_KK and
    2 S_K = K(0) (T_K - n).  Each candidate's arithmetic is its own, so
    lscv_objective(h) is bit for bit the value lscv_bandwidth ranks.
    """
    values = sample.values
    n = values.size
    # centred at the median: the window path rounds t = y/h, so a pair's
    # difference carries an error of about eps*|y|/h, smallest where the data are
    y = values - values[n // 2]
    with np.errstate(over="ignore"):
        spread = 2.0 * (y[-1] - y[0]) / hs.min()  # Gaussian boxes can be h/sqrt(2) wide
    if not np.isfinite(spread):
        raise DataError("the sample range in bandwidths overflows; the pair sums need it finite")
    chunked = lambda f, xs, cost, cap: np.concatenate([f(xs[i:j]) for i, j in _chunks(cost, cap)], axis=-1)  # noqa: E731
    k0, kk0 = (float(f(np.zeros(1))[0]) for f in (kernel.pdf, kernel.convolution))
    if kernel.polynomial is not None:
        s_k, s_kk = chunked(lambda c: _window_pair_sums(y, kernel, c), hs, np.full(hs.size, n), WINDOW_CHUNK)
        int_f2 = (n * kk0 + 2.0 * s_kk) / (n * n * hs)
        loo = 2.0 * s_k / ((n - 1) * hs)
    elif kernel.name == "gaussian":  # K(z) = K(0) exp(-(z/sqrt 2)^2), (K*K)(t) = (K*K)(0) exp(-(t/2)^2)
        sigmas = np.r_[sqrt(2.0) * hs, 2.0 * hs]
        s = _box_width(BOX * sigmas)
        boxes = np.minimum(n, np.floor(y[-1] / s) - np.floor(y[0] / s) + 1)  # at most, per sigma
        t_k, t_kk = chunked(lambda c: _gauss_pair_totals(y, c), sigmas, n + TERMS * boxes, CHUNK).reshape(2, -1)
        int_f2 = kk0 * t_kk / (n * n * hs)
        loo = k0 * (t_k - n) / ((n - 1) * hs)
    else:
        raise ConfigError(f"LSCV needs a polynomial kernel or the Gaussian, not {kernel.name!r}")
    return int_f2 - (2.0 / n) * loo


def lscv_objective(sample: Sample, kernel: KernelSpec, h: float) -> float:
    """The LSCV criterion at one bandwidth (needs n >= 2 for leave-one-out)."""
    if not h > 0:  # NaN too
        raise ConfigError("bandwidth must be positive")
    if sample.n < 2:
        raise ConfigError("the LSCV objective needs at least two observations")
    return float(_lscv(sample, kernel, np.array([float(h)]))[0])


def lscv_bandwidth(sample: Sample, kernel: KernelSpec, grid: BandwidthGrid | None = None) -> float:
    """Select the grid candidate minimizing LSCV; ties go to the smaller h."""
    if sample.n < 3:
        raise ConfigError("LSCV needs at least three observations")
    if sample.std() <= 0:
        raise DataError("sample is degenerate (zero variance)")
    if grid is None:
        grid = BandwidthGrid.default(sample)
    return float(grid.candidates[np.argmin(_lscv(sample, kernel, grid.candidates))])


def check_policy(policy):
    """The bandwidth policy, checked: "lscv", or a positive real number or its text, returned as a float."""
    if policy == "lscv":
        return policy
    try:
        h = float(policy)
    except (TypeError, ValueError):
        raise ConfigError(f"bandwidth policy must be 'lscv' or a number, got {policy!r}") from None
    if not h > 0:  # NaN too
        raise ConfigError("fixed bandwidth must be positive")
    return h


def select_bandwidth(sample: Sample, kernel: KernelSpec, policy) -> float:
    """The bandwidth the policy gives the sample: the LSCV choice, or the fixed number."""
    policy = check_policy(policy)
    return lscv_bandwidth(sample, kernel) if policy == "lscv" else policy
