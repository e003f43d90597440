"""Smooth plateau windows and Beurling-Selberg interval majorants.

PlateauWindow is the canonical C-infinity bump built from exp(-1/x) ramps:
0 outside its support, 1 on its plateau.  MajorantKernel realizes the
band-limited majorant of an interval indicator,

    K(x) = B(delta (x - a))/2 + B(delta (b - x))/2,

with B the Beurling function, so that K >= indicator([a,b]), the transform
vanishes exactly for |x| >= delta, and K^(0) = b - a + 1/delta.  B and the
transform of B - sgn are evaluated from Vaaler's closed forms (J. D. Vaaler,
Bull. AMS 12 (1985) 183-216), to rounding level at every finite argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .arith import BERNOULLI
from .zeta import pointwise_sum


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
        if s1 > p1:
            ramp = (s1 - x) / (s1 - p1)
            val = np.minimum(val, _smooth_step(ramp))
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

    Composite Gauss-Legendre, summed by ``zeta.pointwise_sum`` with
    lam = 2 pi v, with the difference against a half-resolution run as the
    error estimate; AccuracyError when it exceeds ``tol``.
    """
    xs = np.asarray(xs, dtype=float)
    _check_finite(xs)
    x_max = float(np.max(np.abs(xs), initial=0.0))
    runs = []
    for div in (1, 2):
        nodes, weights = _plateau_rule(w, x_max, div)
        g = weights * np.asarray(w(nodes)) ** power
        runs.append(pointwise_sum(2.0 * math.pi * nodes, g, xs))
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


def _beurling_b_arr(x) -> np.ndarray:
    """B(u) = 1 + (sin pi u / pi)^2 (2/u - 2 psi'(1+u)) for u >= 0 and
    B(-u) = 2 sinc(u)^2 - B(u), written with t = sinc(u) so that u = 0
    needs no special case."""
    x = np.asarray(x, dtype=float)
    _check_finite(x)
    u = np.abs(x)
    t2 = np.sinc(u) ** 2
    pos = 1.0 + t2 * u * (2.0 - 2.0 * u * trigamma(1.0 + u))
    return np.where(x < 0.0, 2.0 * t2 - pos, pos)


def beurling_b(x):
    """Beurling's majorant of sgn: entire of exponential type 2 pi,
    B(x) >= sgn(x), integral of B - sgn over the line equal to 1.
    Vaaler's closed form, accurate to rounding for every finite x."""
    arr = _beurling_b_arr(x)
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

    def __call__(self, x):
        a, b = self.interval
        x = np.asarray(x, dtype=float)
        val = 0.5 * _beurling_b_arr(self.delta * (x - a)) \
            + 0.5 * _beurling_b_arr(self.delta * (b - x))
        if val.ndim == 0:
            return float(val)
        return val


def majorant_make(interval: tuple[float, float], delta: float, *,
                  trunc=None) -> MajorantKernel:
    """K(x) = B(delta(x-a))/2 + B(delta(b-x))/2 for the interval [a, b].

    K >= indicator([a, b]) everywhere, and its transform vanishes exactly
    for |x| >= delta, which must be positive and finite.  ``trunc`` is
    accepted and ignored: B has no truncation order.  The keyword stays
    only because the benchmark's ``majorant.plancherel`` operation still
    passes it.
    """
    a, b = interval
    if not a < b:
        raise ValueError(f"need a < b, got {interval}")
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    return MajorantKernel(interval=(float(a), float(b)), delta=float(delta))


# Fourier transform of D = B - sgn, D^(xi) = int D(u) e^{-2 pi i u xi} du,
# in closed form from Vaaler's B:
#
#     D^(xi) = (1 - |xi|)(1 - i(cot pi xi - 1/(pi xi)))   0 < |xi| < 1,
#     D^(0) = 1,   D^(xi) = i/(pi xi)                      |xi| >= 1.
#
# cot x - 1/x = sum_{k>=1} (-4)^k B_2k x^(2k-1)/(2k)! replaces the
# cancelling difference for |x| < 1/2, summed to k = 13 (B_26); the first
# omitted term is about 1e-21 relative there.
_COT_SERIES = np.array([(-4.0) ** k * BERNOULLI[2 * k] / math.factorial(2 * k)
                        for k in range(13, 0, -1)])


def _dhat(xi) -> np.ndarray:
    """Transform of D = B - sgn at frequencies xi."""
    xi = np.asarray(xi, dtype=float)
    out = np.empty(xi.shape, dtype=complex)
    band = np.abs(xi) < 1.0
    out[~band] = 1j / (math.pi * xi[~band])
    x = xi[band]
    c = np.empty_like(x)            # cot(pi x) - 1/(pi x)
    near0 = np.abs(x) < 0.5 / math.pi
    z = math.pi * x[near0]
    ser = np.zeros_like(z)
    for coef in _COT_SERIES:
        ser = ser * z * z + coef
    c[near0] = ser * z
    # cot(pi x) has period 1 and x - rint(x) is exact (Sterbenz), so the
    # reduced argument keeps cot's digits as |x| -> 1
    y = x[~near0]
    c[~near0] = 1.0 / np.tan(math.pi * (y - np.rint(y))) - 1.0 / (math.pi * y)
    out[band] = (1.0 - np.abs(x)) * (1.0 - 1j * c)
    return out


def majorant_hat(K: MajorantKernel, x) -> float | np.ndarray:
    """Fourier transform of K, reported for the kernel recentered at the
    interval midpoint (a real, even function of x).

    K^(0) = b - a + 1/delta exactly; the transform vanishes exactly for
    |x| >= delta (the computed value is at rounding level there).
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
