"""Statistics over zero ordinates: well-spaced subsets, the pair-correlation
function

    F(alpha, T) = (2 pi / (T log T)) sum_{T<=g,g'<=2T} T^{i alpha (g-g')} w(g-g'),
    w(x) = 4/(4+x^2),

Gonek power sums, the Plancherel-majorant inequality, and the right-hand
sides of the two lower-bound formulas that get compared against the measured
mollified moment.

Pair sums include the diagonal (w(0) = 1 per zero) and are restricted to
|g - g'| <= pair_cutoff with the omitted tail estimated from the quadratic
decay of w and the average zero density, reported rather than hidden.  F on
an alpha grid and the Plancherel sum go through ``zeta.progression_sum``,
the Gonek sums through ``zeta.pointwise_sum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arith import sieve_upto, von_mangoldt
from .moments import _composite_gl
from .smoothfn import (MajorantKernel, PlateauWindow, _plateau_transform,
                       majorant_hat)
from .zeta import ZeroTable, pointwise_sum, progression_sum

DEFAULT_PAIR_CUTOFF = 200.0


class CoverageError(ValueError):
    """Zero table does not (verifiably) cover the requested window."""


class ContractError(ValueError):
    """A hypothesis of the inequality being checked fails numerically."""


@dataclass(frozen=True)
class WellSpacedSet:
    """Greedy maximal delta-spaced subsequence of a zero table."""

    ordinates: np.ndarray = field(repr=False)
    delta: float
    parent_count: int

    @property
    def count(self) -> int:
        return len(self.ordinates)


@dataclass(frozen=True)
class PairCorrelation:
    """F(alpha, T) sampled on a grid, with the pair-cutoff tail reported."""

    T: float
    alphas: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    pair_cutoff: float
    tail_estimate: float


def wellspaced_subset(Z: ZeroTable, delta: float) -> WellSpacedSet:
    """Left-to-right greedy selection: keep an ordinate iff it lies at least
    ``delta`` above the last kept one.  Greedy is optimal for this
    interval-scheduling-shaped problem (verified by exhaustive search on
    small instances in the tests)."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if len(Z.ordinates) == 0:
        raise ValueError("zero table is empty")
    kept = [float(Z.ordinates[0])]
    for g in Z.ordinates[1:]:
        if g - kept[-1] >= delta:
            kept.append(float(g))
    return WellSpacedSet(ordinates=np.asarray(kept), delta=float(delta),
                         parent_count=len(Z.ordinates))


def _window_ordinates(Z: ZeroTable, T: float,
                      override: bool = False) -> np.ndarray:
    lo, hi = T, 2.0 * T
    if not override:
        t0, t1 = Z.height_range
        if t0 > lo or t1 < hi:
            raise CoverageError(
                f"table covers [{t0:g}, {t1:g}], window needs [{lo:g}, {hi:g}]")
        if not Z.claimed_complete:
            raise CoverageError(
                "zero table does not claim completeness over its range; "
                "pass override=True to proceed anyway")
    g = Z.ordinates
    return g[(g >= lo) & (g <= hi)]


def _pair_diffs(g: np.ndarray, cutoff: float) -> np.ndarray:
    """Differences g[j] - g[i] <= cutoff over the pairs i < j of the ascending
    g, ordered by i then j (diagonal left to callers): ``searchsorted`` finds
    a run of j a little past the cutoff, and the exact test trims it."""
    first = np.arange(1, len(g) + 1)                  # j starts at i + 1
    reach = g + cutoff * (1.0 + 1e-12) + 1e-12 * np.abs(g)
    counts = np.searchsorted(g, reach, side="right") - first
    j = np.arange(counts.sum()) + np.repeat(first - np.cumsum(counts) + counts,
                                            counts)
    d = g[j] - np.repeat(g, counts)
    return d[d <= cutoff]


def _pair_tail_estimate(T: float, cutoff: float) -> float:
    """Bound on the omitted |g-g'| > cutoff mass: w(x) <= 4/x^2 and about
    (log T/2pi) zeros per unit height."""
    logT = math.log(T)
    return (2.0 * math.pi / (T * logT)) * 2.0 * (T * logT / (2.0 * math.pi)) \
        * (4.0 / cutoff) * (logT / (2.0 * math.pi))


def pair_correlation(Z: ZeroTable, T: float, alpha: float,
                     pair_cutoff: float = DEFAULT_PAIR_CUTOFF,
                     override: bool = False) -> float:
    """F(alpha, T) over zeros in [T, 2T], diagonal included."""
    return float(pair_correlation_grid(Z, T, [alpha], pair_cutoff,
                                       override).values[0])


def pair_correlation_grid(Z: ZeroTable, T: float, alphas,
                          pair_cutoff: float = DEFAULT_PAIR_CUTOFF,
                          override: bool = False) -> PairCorrelation:
    """F on equally spaced alphas (a linspace, or one alpha; ValueError
    otherwise): the cross term over the pair differences d is the real part
    of one ``progression_sum`` with lam = d log T and amp = w(d)."""
    if not pair_cutoff >= 50:
        raise ValueError(f"pair_cutoff must be >= 50, got {pair_cutoff}")
    alphas = np.asarray(alphas, dtype=float)
    P = alphas.size
    h = (alphas[-1] - alphas[0]) / (P - 1) if P > 1 else 0.0
    if alphas.ndim != 1 or P == 0 or not np.all(np.isfinite(alphas)) \
            or np.max(np.abs(alphas[0] + h * np.arange(P) - alphas)) \
            > 1e-14 * max(1.0, np.max(np.abs(alphas))):
        raise ValueError("alphas must be a finite, equally spaced grid")
    g = _window_ordinates(Z, T, override)
    diffs = _pair_diffs(g, pair_cutoff)
    logT = math.log(T)
    cross = progression_sum(logT * diffs, 4.0 / (4.0 + diffs ** 2),
                            alphas[:1], h, P)[:, 0].real
    vals = 2.0 * math.pi / (T * logT) * (len(g) + 2.0 * cross)
    return PairCorrelation(T=T, alphas=alphas, values=vals,
                           pair_cutoff=pair_cutoff,
                           tail_estimate=_pair_tail_estimate(T, pair_cutoff))


def integral_hF(Z: ZeroTable, T: float, h0: PlateauWindow, grid: int,
                pair_cutoff: float = DEFAULT_PAIR_CUTOFF,
                override: bool = False) -> float:
    """Trapezoidal int h0(alpha) F(alpha, T) d alpha over h0's support."""
    if grid < 2:
        raise ValueError("grid must be >= 2")
    a0, a1 = h0.support
    alphas = np.linspace(a0, a1, grid)
    F = pair_correlation_grid(Z, T, alphas, pair_cutoff,
                              override=override).values
    return float(np.trapezoid(h0(alphas) * F, alphas))


def gonek_sum(Z: ZeroTable, n: int, T: float,
              override: bool = False) -> tuple[complex, float]:
    """(empirical, predicted) for the zero power sum at n:

        empirical = sum_{T <= g <= 2T} n^{-1/2} e^{-i g log n}
        predicted = -(T / 2 pi) Lambda(n) / n.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    g = _window_ordinates(Z, T, override)
    emp = complex(pointwise_sum(g, n ** -0.5, [math.log(n)])[0])
    pred = -(T / (2.0 * math.pi)) * von_mangoldt(n, sieve_upto(n)) / n
    return emp, pred


def propA_rhs(S: WellSpacedSet, T: float, theta: float, A: float) -> float:
    """Card(S) / ((T/2pi) log T) / (1 + theta + 1/A), the idealized
    lower-bound value attached to a 2 pi A / log T well-spaced zero set."""
    if A <= 0:
        raise ValueError("A must be positive")
    expected_delta = 2.0 * math.pi * A / math.log(T)
    if abs(S.delta - expected_delta) > 1e-9:
        raise ContractError(
            f"set spacing delta={S.delta!r} does not match "
            f"2 pi A / log T = {expected_delta!r}")
    dens = S.count / ((T / (2.0 * math.pi)) * math.log(T))
    return dens / (1.0 + theta + 1.0 / A)


def thm3_rhs(Z: ZeroTable, T: float, theta: float, eps: float, grid: int,
             pair_cutoff: float = DEFAULT_PAIR_CUTOFF,
             override: bool = False) -> float:
    """(1/2 + int_1^{1+theta+eps} F(alpha, T) d alpha)^{-1} (trapezoidal),
    for eps > 0 as in Theorem 3."""
    if grid < 2:
        raise ValueError("grid must be >= 2")
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    alphas = np.linspace(1.0, 1.0 + theta + eps, grid)
    F = pair_correlation_grid(Z, T, alphas, pair_cutoff,
                              override=override).values
    return 1.0 / (0.5 + float(np.trapezoid(F, alphas)))


def _khat_pairs(K, diffs: np.ndarray) -> np.ndarray:
    """Transform of the majorant at pair differences, including the phase
    that undoes the midpoint recentering of majorant_hat."""
    if isinstance(K, MajorantKernel):
        a, b = K.interval
        c = 0.5 * (a + b)
        return np.cos(2.0 * math.pi * c * diffs) * majorant_hat(K, diffs)
    if isinstance(K, PlateauWindow):
        # K means the squared window.  The pair sum is real: opposite-sign
        # differences pair up, so only the cosine part is needed.
        return _plateau_transform(K, diffs, 2, 1e-10).real
    raise TypeError("K must be a MajorantKernel or a PlateauWindow (squared)")


def _k_value(K, x: np.ndarray) -> np.ndarray:
    if isinstance(K, MajorantKernel):
        return np.asarray(K(x), dtype=float)
    return np.asarray(K(x), dtype=float) ** 2


def plancherel_bound_check(S, f: PlateauWindow, K, vgrid: int
                           ) -> tuple[float, float]:
    """Check int |sum_g e^{-2 pi i g v}|^2 |f(v)|^2 dv <= sum_{g,g'} Khat(g-g').

    ``S`` is a WellSpacedSet or ZeroTable (its ordinates are used); ``K``
    majorizes f^2 (verified on a grid first; violation is a contract error
    naming the offending point).  Returns (lhs, rhs).
    """
    g = np.asarray(S.ordinates, dtype=float)
    if len(g) == 0:
        raise ValueError("no ordinates")
    # contract: K >= f^2 on a probing grid over f's support (and beyond)
    s0, s1 = f.support
    pad = 0.1 * (s1 - s0)
    probe = np.linspace(s0 - pad, s1 + pad, 2001)
    gap = _k_value(K, probe) - np.asarray(f(probe)) ** 2
    if np.min(gap) < -1e-12:
        x_bad = float(probe[int(np.argmin(gap))])
        raise ContractError(
            f"K >= f^2 fails at v={x_bad!r} (deficit {float(np.min(gap)):g})")
    # lhs by composite Gauss-Legendre, one progression sum per offset
    def integrand(t0: np.ndarray, h: float, P: int) -> np.ndarray:
        v = t0[None, :] + h * np.arange(P)[:, None]
        ssum = progression_sum(2.0 * math.pi * g, 1.0, t0, h, P)
        return np.abs(ssum) ** 2 * np.asarray(f(v)) ** 2

    lhs = _composite_gl(integrand, s0, s1, vgrid)
    # rhs: double sum of Khat over pair differences (diagonal + 2x upper)
    off = 2.0 * math.fsum(_khat_pairs(K, _pair_diffs(np.sort(g), math.inf)))
    diag = len(g) * float(_khat_pairs(K, np.asarray([0.0]))[0])
    return float(lhs), float(diag + off)
