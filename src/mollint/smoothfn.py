"""Smooth plateau windows and Beurling-Selberg interval majorants.

PlateauWindow is the canonical C-infinity bump built from exp(-1/x) ramps:
0 outside its support, 1 on its plateau.  MajorantKernel realizes the
band-limited majorant of an interval indicator,

    K(x) = B(delta (x - a))/2 + B(delta (b - x))/2,

with B the Beurling function, so that K >= indicator([a,b]), the transform
vanishes for |x| > delta, and K^(0) = b - a + 1/delta.

Note on B: the series is evaluated in the numerically stable form

    B(z) = 2 z sinc(z)^2 + sum_{n=0}^{M} sinc(z-n)^2
           - sum_{n=1}^{M} sinc(z+n)^2 + tail(M, z)

(sinc(z) = sin(pi z)/(pi z)), which is the classical partial-fraction
expansion with the (sin pi z / pi)^2 prefactor absorbed termwise; the tail
beyond the truncation order M is added via the midpoint estimate, accurate
to O(1/M^3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .arith import BERNOULLI


class WindowContractError(ValueError):
    """Plateau/support geometry violates the window contract."""


class AccuracyError(RuntimeError):
    """Quadrature failed to reach the requested accuracy."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved {achieved:.3e})")
        self.achieved = achieved


# ---------------------------------------------------------------------------
# plateau windows
# ---------------------------------------------------------------------------

def _smooth_step(u):
    """Canonical C-infinity step: 0 at u<=0, 1 at u>=1, exp(-1/x) based.

    Satisfies step(u) + step(1-u) = 1, so the ramp midpoint is exactly 1/2.
    """
    u = np.asarray(u, dtype=float)
    lo = u <= 0.0
    hi = u >= 1.0
    mid = ~(lo | hi)
    out = np.where(hi, 1.0, 0.0)
    um = np.clip(u, 1e-12, 1.0 - 1e-12)
    a = np.exp(-1.0 / um)
    b = np.exp(-1.0 / (1.0 - um))
    out = np.where(mid, a / (a + b), out)
    return out


@dataclass(frozen=True)
class PlateauWindow:
    """Smooth window: 1 on [p0, p1], 0 outside [s0, s1], smooth ramps between."""

    support: tuple[float, float]
    plateau: tuple[float, float]

    def __call__(self, x):
        s0, s1 = self.support
        p0, p1 = self.plateau
        x = np.asarray(x, dtype=float)
        val = np.ones(x.shape, dtype=float)
        if p0 > s0:
            ramp = (x - s0) / (p0 - s0)
            val = np.minimum(val, _smooth_step(ramp))
        else:
            val = np.where(x < s0, 0.0, val)
        if s1 > p1:
            ramp = (s1 - x) / (s1 - p1)
            val = np.minimum(val, _smooth_step(ramp))
        else:
            val = np.where(x > s1, 0.0, val)
        val = np.where((x < s0) | (x > s1), 0.0, val)
        if val.ndim == 0:
            return float(val)
        return val


def make_plateau(support: tuple[float, float],
                 plateau: tuple[float, float]) -> PlateauWindow:
    """Window equal to 1 on ``plateau``, 0 outside ``support``.

    One ramp may degenerate (plateau touching the support edge); both
    degenerating would give a non-smooth indicator and is rejected.
    """
    s0, s1 = support
    p0, p1 = plateau
    if not (s0 <= p0 <= p1 <= s1):
        raise WindowContractError(
            f"plateau {plateau} not inside support {support}"
        )
    if p0 - s0 <= 0 and s1 - p1 <= 0:
        raise WindowContractError("both ramps degenerate: not smooth")
    return PlateauWindow(support=(float(s0), float(s1)),
                         plateau=(float(p0), float(p1)))


def _check_finite(x) -> None:
    if not np.all(np.isfinite(x)):
        raise ValueError("arguments must be finite")


# Composite Gauss-Legendre for window transforms: _WT_ORDER nodes per panel,
# and on each piece of the support split at the plateau ends, _WT_PANELS
# panels plus one per oscillation of exp(-2 pi i v x).  The exp(-1/u) ramps
# need no more panels when they are narrower, since each ramp is one piece.
# Against QUADPACK's oscillatory rule (QAWO) on seven windows at
# 0 <= x <= 400 the error is at rounding level (<= 6e-15), and so is the
# half-resolution estimate.
_WT_ORDER = 16
_WT_PANELS = 16
_WT_MAX_PANELS = 1 << 16   # per piece: |x| times piece length below ~65,000
_WT_CHUNK = 1 << 22        # matrix entries per block of frequencies


def _plateau_rule(w: PlateauWindow, x_max: float, div: int):
    """Nodes and weights of the composite rule at 1/div of full resolution."""
    gx, gw = leggauss(_WT_ORDER)
    cuts = np.unique([*w.support, *w.plateau])
    nodes, weights = [], []
    for a, b in zip(cuts[:-1], cuts[1:]):
        n = _WT_PANELS + math.ceil(x_max * (b - a))
        if n > _WT_MAX_PANELS:
            raise AccuracyError(
                f"window transform at |x| = {x_max:g} needs {n} panels, "
                f"more than {_WT_MAX_PANELS}", math.inf)
        n //= div
        h = (b - a) / n
        offsets = np.arange(n)[:, None] + 0.5 * (1.0 + gx)
        nodes.append((a + h * offsets).ravel())
        weights.append(np.tile(0.5 * h * gw, n))
    return np.concatenate(nodes), np.concatenate(weights)


def _plateau_transform(w: PlateauWindow, xs: np.ndarray, power: int,
                       tol: float) -> np.ndarray:
    """integral of w(v)^power exp(-2 pi i v x) dv at each x of ``xs``.

    Composite Gauss-Legendre with the difference against a half-resolution
    run as the error estimate; AccuracyError when it exceeds ``tol``.
    """
    xs = np.asarray(xs, dtype=float)
    _check_finite(xs)
    x_max = float(np.max(np.abs(xs), initial=0.0))
    runs = []
    for div in (1, 2):
        nodes, weights = _plateau_rule(w, x_max, div)
        g = weights * np.asarray(w(nodes)) ** power
        out = np.empty(xs.size, dtype=complex)
        step = max(1, _WT_CHUNK // nodes.size)
        for lo in range(0, xs.size, step):
            out[lo:lo + step] = np.exp(
                -2j * math.pi * np.outer(xs[lo:lo + step], nodes)) @ g
        runs.append(out)
    achieved = float(np.max(np.abs(runs[0] - runs[1]), initial=0.0))
    if achieved > tol:
        raise AccuracyError("window transform quadrature did not converge",
                            achieved)
    return runs[0]


def window_fourier(f: PlateauWindow, x: float,
                   tol: float = 1e-10) -> complex:
    """f^(x) = integral of f(v) exp(-2 pi i v x) dv by composite
    Gauss-Legendre; AccuracyError if the estimated error exceeds ``tol``."""
    return complex(_plateau_transform(f, [x], 1, tol)[0])


# ---------------------------------------------------------------------------
# Beurling function
# ---------------------------------------------------------------------------

def _beurling_b_arr(x: np.ndarray, trunc: int) -> np.ndarray:
    shape = np.shape(x)
    x = np.asarray(x, dtype=float).reshape(-1)
    _check_finite(x)
    out = 2.0 * x * np.sinc(x) ** 2
    ns = np.arange(0, trunc + 1, dtype=float)
    step = max(1, int(4e6 // max(len(ns), 1)))
    for lo in range(0, x.size, step):
        chunk = x[lo:lo + step]
        diff = np.sinc(chunk[:, None] - ns[None, :]) ** 2
        s = diff.sum(axis=1)
        s -= (np.sinc(chunk[:, None] + ns[None, 1:]) ** 2).sum(axis=1)
        out[lo:lo + len(chunk)] += s
    # midpoint tail estimate for both series beyond trunc
    m = trunc + 0.5
    sin2 = (np.sin(math.pi * x) / math.pi) ** 2
    out += sin2 * (1.0 / (m - x) - 1.0 / (m + x))
    return out.reshape(shape)


def beurling_b(x, trunc: int = 10_000):
    """Beurling's majorant of sgn: entire, B(x) >= sgn(x), integral of
    B - sgn over the line equal to 1.  Truncation order ``trunc`` with an
    analytic tail correction; valid for |x| < trunc."""
    if trunc < 10:
        raise ValueError("trunc must be >= 10")
    arr = _beurling_b_arr(np.asarray(x, dtype=float), trunc)
    if arr.ndim == 0:
        return float(arr)
    return arr


# ---------------------------------------------------------------------------
# interval majorant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MajorantKernel:
    """Band-limited majorant of the indicator of [a, b] at bandwidth delta."""

    interval: tuple[float, float]
    delta: float
    trunc: int

    def __call__(self, x):
        a, b = self.interval
        x = np.asarray(x, dtype=float)
        val = 0.5 * _beurling_b_arr(self.delta * (x - a), self.trunc) \
            + 0.5 * _beurling_b_arr(self.delta * (b - x), self.trunc)
        if val.ndim == 0:
            return float(val)
        return val


def majorant_make(interval: tuple[float, float], delta: float,
                  trunc: int = 10_000) -> MajorantKernel:
    """K(x) = B(delta(x-a))/2 + B(delta(b-x))/2 for the interval [a, b]."""
    a, b = interval
    if not a < b:
        raise ValueError(f"need a < b, got {interval}")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if trunc < 10:
        raise ValueError("trunc must be >= 10")
    return MajorantKernel(interval=(float(a), float(b)), delta=float(delta),
                          trunc=int(trunc))


# Fourier transform of B - sgn, split as sinc^2 (transform: triangle
# function, handled exactly) plus an odd remainder integrated numerically.
# The remainder E(u) = B(u) - 1 - sinc(u)^2 on u > 0 has the closed form
#
#     E(u) = (sin pi u / pi)^2 (2/u - 1/u^2 - 2 psi'(u+1))
#
# (the series tail summed exactly by the trigamma function), which decays
# like u^-3, so the truncated quadrature below is accurate to ~1e-12.
_DHAT_U = 2000.0          # quadrature range for the odd remainder
_DHAT_PANEL = 0.25        # panel width (resolves the sin(2 pi u) oscillation)
_DHAT_ORDER = 8


# psi'(x) for x >= 10 from A&S 6.4.12:
#     psi'(x) ~ 1/x + 1/(2x^2) + sum_k B_2k / x^(2k+1),
# truncated after B_26, whose term is below 1e-20 relative at x = 10.
_TRIGAMMA_X = 10.0
_TRIGAMMA_B = np.array(BERNOULLI[26:1:-2])   # B_26, B_24, ..., B_2


def trigamma(x) -> np.ndarray:
    """psi'(x) for x > 0: the recurrence psi'(x) = psi'(x+1) + 1/x^2 up to
    x >= 10, then the asymptotic series.  Relative error below 1e-15."""
    x = np.array(x, dtype=float)
    _check_finite(x)
    if np.any(x <= 0.0):
        raise ValueError("trigamma needs x > 0")
    acc = np.zeros_like(x)
    for _ in range(math.ceil(_TRIGAMMA_X - np.min(x, initial=_TRIGAMMA_X))):
        small = x < _TRIGAMMA_X
        acc += np.where(small, 1.0 / x ** 2, 0.0)
        x = np.where(small, x + 1.0, x)
    z = 1.0 / (x * x)
    ser = np.zeros_like(x)
    for b in _TRIGAMMA_B:
        ser = (ser + b) * z
    return acc + 1.0 / x + 0.5 * z + ser / x


@lru_cache(maxsize=4)
def _dhat_grid(u_range: float = _DHAT_U):
    """GL nodes/weights on [0, u_range] and E(u) = B(u) - 1 - sinc(u)^2 there."""
    gl_x, gl_w = leggauss(_DHAT_ORDER)
    edges = np.arange(0.0, u_range + _DHAT_PANEL / 2, _DHAT_PANEL)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * _DHAT_PANEL
    nodes = (mid[:, None] + half * gl_x[None, :]).ravel()
    weights = (half * gl_w)[None, :].repeat(len(mid), axis=0).ravel()
    s2 = (np.sin(math.pi * nodes) / math.pi) ** 2
    e_vals = s2 * (2.0 / nodes - 1.0 / nodes ** 2
                   - 2.0 * trigamma(nodes + 1.0))
    return nodes, weights, e_vals


def _dhat(xi: np.ndarray) -> np.ndarray:
    """Transform of D = B - sgn at frequencies xi: triangle + odd remainder."""
    xi = np.asarray(xi, dtype=float)
    nodes, weights, e_vals = _dhat_grid()
    tri = np.clip(1.0 - np.abs(xi), 0.0, None)
    # E is odd, so its transform is -2i * int_0^inf E(u) sin(2 pi u xi) du
    osc = np.sin(2.0 * math.pi * np.outer(xi, nodes))
    e_hat = -2j * (osc * (weights * e_vals)[None, :]).sum(axis=1)
    return tri + e_hat


def majorant_hat(K: MajorantKernel, x) -> float | np.ndarray:
    """Fourier transform of K, reported for the kernel recentered at the
    interval midpoint (a real, even function of x).

    K^(0) = b - a + 1/delta exactly; the transform vanishes (to truncation
    slack) for |x| > delta.
    """
    a, b = K.interval
    c = 0.5 * (a + b)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    _check_finite(x_arr)
    # indicator part, recentered: int_{-L/2}^{L/2} e^{-2 pi i v x} dv
    L = b - a
    chi = L * np.sinc(L * x_arr)
    dh_plus = _dhat(x_arr / K.delta)
    dh_minus = np.conj(dh_plus)  # D real: D^(-xi) = conj(D^(xi))
    phase_a = np.exp(2j * math.pi * (c - a) * x_arr)
    phase_b = np.exp(-2j * math.pi * (b - c) * x_arr)
    val = chi + (phase_a * dh_plus + phase_b * dh_minus) / (2.0 * K.delta)
    # recentered kernel is real and even; the imaginary part is roundoff
    out = np.real(val)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(out[0])
    return out
