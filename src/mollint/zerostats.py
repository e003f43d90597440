"""Statistics over zero ordinates: well-spaced subsets, the pair-correlation
function

    F(alpha, T) = (2 pi / (T log T)) sum_{T<=g,g'<=2T} T^{i alpha (g-g')} w(g-g'),
    w(x) = 4/(4+x^2),

Gonek power sums, the Plancherel-majorant inequality, and the right-hand
sides of the two lower-bound formulas that get compared against the measured
mollified moment.

Pair sums include the diagonal (w(0) = 1 per zero) and are restricted to
|g - g'| <= pair_cutoff.  F on an alpha grid reports an estimate of the
omitted tail, from the quadratic decay of w and the average zero density;
Theorem 3's integral of F is summed term by term in closed form, and its
omitted tail is bounded from the table's densest unit interval.  F on an
alpha grid and the Plancherel sum go through ``zeta.progression_sum``, the
Gonek sums through ``zeta.pointwise_sum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import zeta
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
    """F(alpha, T) sampled on a grid, with an estimate of the pair-cutoff
    tail reported."""

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


def _pair_diff_blocks(g: np.ndarray, cutoff: float):
    """Differences g[j] - g[i] <= cutoff over the pairs i < j of the ascending
    g, ordered by i then j (diagonal left to callers), in blocks of whole rows
    i of at most ``zeta.OUTER_BLOCK`` candidate pairs (one row if it alone
    holds more): ``searchsorted`` finds a run of j a little past the cutoff,
    and the exact test trims it."""
    first = np.arange(1, len(g) + 1)                  # j starts at i + 1
    reach = g + cutoff * (1.0 + 1e-12) + 1e-12 * np.abs(g)
    counts = np.searchsorted(g, reach, side="right") - first
    ends = np.cumsum(counts)
    lo = 0
    while lo < len(g):
        hi = max(lo + 1, int(np.searchsorted(
            ends, ends[lo] - counts[lo] + zeta.OUTER_BLOCK, side="right")))
        c = counts[lo:hi]
        j = np.arange(c.sum()) + np.repeat(first[lo:hi] - np.cumsum(c) + c, c)
        d = g[j] - np.repeat(g[lo:hi], c)
        yield d[d <= cutoff]
        lo = hi


def _pair_diffs(g: np.ndarray, cutoff: float) -> np.ndarray:
    """Every block of ``_pair_diff_blocks`` in one array."""
    return np.concatenate([np.empty(0), *_pair_diff_blocks(g, cutoff)])


def _pair_tail_estimate(T: float, cutoff: float) -> float:
    """Estimate of the omitted |g-g'| > cutoff mass: w(x) <= 4/x^2 and about
    (log T/2pi) zeros per unit height."""
    logT = math.log(T)
    return (2.0 * math.pi / (T * logT)) * 2.0 * (T * logT / (2.0 * math.pi)) \
        * (4.0 / cutoff) * (logT / (2.0 * math.pi))


def _check_pair_cutoff(pair_cutoff: float) -> None:
    if not pair_cutoff >= 50:
        raise ValueError(f"pair_cutoff must be >= 50, got {pair_cutoff}")


def _check_positive(name: str, value: float) -> None:
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be > 0 and finite, got {value}")


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
    _check_pair_cutoff(pair_cutoff)
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
    lower-bound value attached to a 2 pi A / log T well-spaced zero set,
    for theta > 0."""
    _check_positive("theta", theta)
    if A <= 0:
        raise ValueError("A must be positive")
    expected_delta = 2.0 * math.pi * A / math.log(T)
    if abs(S.delta - expected_delta) > 1e-9:
        raise ContractError(
            f"set spacing delta={S.delta!r} does not match "
            f"2 pi A / log T = {expected_delta!r}")
    dens = S.count / ((T / (2.0 * math.pi)) * math.log(T))
    return dens / (1.0 + theta + 1.0 / A)


def thm3_rhs(Z: ZeroTable, T: float, theta: float, eps: float,
             pair_cutoff: float = DEFAULT_PAIR_CUTOFF,
             override: bool = False) -> tuple[float, float, float]:
    """(rhs, pair_tail, rhs_unfav) of Theorem 3, for theta > 0 and eps > 0:
    rhs = (1/2 + I)^{-1}, I = int_a^b F(alpha, T) d alpha over [a, b] =
    [1, 1 + theta + eps], with each pair's cosine integrated exactly:

        I = (2 pi / (T L)) (N (b - a)
                            + 2 sum_d w(d) (sin(b d L) - sin(a d L)) / (d L)),

    L = log T, N the zeros in [T, 2T], d over their differences <= C =
    pair_cutoff, summed in blocks of whole rows of pairs.  ``pair_tail``
    bounds what the pairs beyond C add to I: each term is at most
    8 / (d^3 L), and for each g the g' with d in (C + k, C + k + 1] number at
    most M1, the most zeros in any closed unit interval of the window, so

        pair_tail = (2 pi / (T L)) 2 N M1 (8 / L) (1/C^3 + 1/(2 C^2)).

    ``rhs_unfav`` = (1/2 + I - pair_tail)^{-1} is the rhs at the unfavourable
    end of the tail (inf if that denominator is not positive).
    """
    _check_positive("theta", theta)
    _check_positive("eps", eps)
    _check_pair_cutoff(pair_cutoff)
    g = _window_ordinates(Z, T, override)
    L = math.log(T)
    a, b = 1.0, 1.0 + theta + eps
    cross = 0.0
    for d in _pair_diff_blocks(g, pair_cutoff):
        x = L * d
        term = np.sin(b * x)
        term -= np.sin(a * x)
        term *= 4.0 / ((4.0 + d * d) * x)             # w(d) / (d L)
        cross += float(term.sum())
    scale = 2.0 * math.pi / (T * L)
    integral = scale * (len(g) * (b - a) + 2.0 * cross)
    # a little past g + 1, so rounding never drops a zero at distance 1
    m1 = int(np.max(np.searchsorted(g, g + 1.0 + 1e-12 * np.abs(g), "right")
                    - np.arange(len(g)), initial=0))
    C = pair_cutoff
    tail = scale * 2.0 * len(g) * m1 * (8.0 / L) * (C ** -3 + 0.5 * C ** -2)
    den = 0.5 + integral - tail
    return 1.0 / (0.5 + integral), tail, 1.0 / den if den > 0 else math.inf


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
