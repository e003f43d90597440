"""Statistics over zero ordinates: well-spaced subsets, the pair-correlation
function

    F(alpha, T) = (2 pi / (T log T)) sum_{T<=g,g'<=2T} T^{i alpha (g-g')} w(g-g'),
    w(x) = 4/(4+x^2),

Gonek power sums, the Plancherel-majorant inequality, and the right-hand
sides of the two lower-bound formulas that get compared against the measured
mollified moment.

Pair sums over w run over every pair, the diagonal included, by
Montgomery's identity (Proc. Sympos. Pure Math. 24, 1973): w is the Fourier
transform of e^{-2|u|}, so each is an integral of that kernel against
|S(x)|^2, S(x) = sum_g e^{i x g}, by one quadrature with an error bound
(``_s2_rule``).  S and the Plancherel sum go through
``zeta.progression_sum``, the Gonek sums through ``zeta.pointwise_sum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import zeta
from .arith import sieve_upto, von_mangoldt
from .moments import (_GL_ERROR_TAYLOR, _SPECTRUM_BINS, QUAD_TARGET,
                      _alias_max, _composite_gl, _gl_error_max, _gl_values)
from .smoothfn import (MajorantKernel, PlateauWindow, _plateau_transform,
                       majorant_hat)
from .zeta import ZeroTable, pointwise_sum, progression_sum


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
    """F(alpha, T) sampled on a grid, with a bound on the error of each
    value (``_s2_rule``)."""

    T: float
    alphas: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    error_bound: float


def wellspaced_subset(Z: ZeroTable, delta: float) -> WellSpacedSet:
    """Left-to-right greedy selection: keep an ordinate iff it lies at least
    ``delta`` above the last kept one.  Greedy is optimal for this
    interval-scheduling-shaped problem (verified by exhaustive search on
    small instances in the tests)."""
    _check_positive("delta", delta)
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
    if not zeta.T_FLOOR <= T < math.inf:
        raise ValueError(f"T must be finite and >= {zeta.T_FLOOR}, got {T}")
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
    g = g[(g >= lo) & (g <= hi)]
    if len(g) == 0:
        raise CoverageError(f"no zero of the table in [{lo:g}, {hi:g}]")
    return g


def _pair_diffs(g: np.ndarray) -> np.ndarray:
    """Differences g[j] - g[i] over the pairs i < j, ordered by i then j."""
    i, j = np.triu_indices(len(g), 1)
    return g[j] - g[i]


def _s2_rule(g: np.ndarray, c0: float, u: float, J: int, scale: float,
             mass: float) -> tuple[np.ndarray, np.ndarray, float]:
    """(x, v, bound): the nodes x, a (panels, GL_ORDER) array ascending in C
    order, of a composite GL_ORDER-node Gauss-Legendre rule with the kinks
    c0 + j u (j < J) on panel ends; v = scale w |S(x)|^2, w the weights and
    S(x) = sum_g e^{i x g}; and a bound on |sum f v - scale int f |S|^2 dx|
    for every f in [0, 1] with int f = mass that is made of terms on runs
    of whole panels (constants of total size at most 1, multiples of
    e^{+-2x} of total largest size at most 2) and is at most e^{-2d} at a
    distance d past the kinks.

    |S|^2 sums e^{i x d} over the N^2 differences d, counted by lag in the
    autocorrelation of the histogram of the g.  A panel of half-width r errs
    on e^{i nu x} by r e(nu r) times a phase (``moments._gl_error``), and an
    exponential term makes nu = d -+ 2i, where e is bounded by its Taylor
    table with absolute coefficients (within 1e-33 up to |nu r| = 2 pi, as
    each coefficient left out is at most 2/(2k)!).  Over P panels the phases
    add up to at most min(P, 1/|sin d r|), times cosh(2r) at an exponential
    term's largest size (a geometric series).  The panels, h = u/m wide,
    reach D past the kinks, the least multiple of h with scale N^2 e^{-2D}
    (|S|^2 <= N^2 there) at most QUAD_TARGET/2, and m is the least count,
    by bisection, whose bound meets QUAD_TARGET.  The rounding of S,
    eps = (1e-14 + 5 u Phi) N per value (``zeta.progression_sum``), adds
    2 eps sqrt(scale mass sum v) + scale mass eps^2 by Cauchy-Schwarz.
    """
    N = len(g)
    delta = (g[-1] - g[0]) / _SPECTRUM_BINS or 1.0
    hist = np.bincount(np.rint((g - g[0]) / delta).astype(np.intp))
    lags = 2.0 * np.correlate(hist, hist, "full")[len(hist) - 1:]
    lags[0] /= 2.0                           # the other lags count both signs
    # a pair at lag l differs by |d| within (l - 1, l + 1) delta, widened by
    # 0.001 delta for the rounding of the bins
    nu = (np.arange(len(lags)) + 1.001) * delta
    nu_lo = np.maximum(nu - 2.002 * delta, 0.0)
    d_cut = 0.5 * math.log(max(2.0 * scale * N * N / QUAD_TARGET, 1.0))

    def plan(m: int) -> tuple[float, float, int, int]:
        h = u / m
        k = max(1, math.ceil(d_cut / h))
        P = m * (J - 1) + 2 * k
        r = 0.5 * h
        z2 = r * r * (nu * nu + 4.0)                # |d -+ 2i|^2 r^2
        e_cx = np.where(z2 <= 4.0 * math.pi ** 2, 1e-33 + z2 ** 8
                        * np.polyval(np.abs(_GL_ERROR_TAYLOR[::-1]), z2),
                        math.inf)
        kern = r * _alias_max(nu_lo * r, nu * r, P) \
            * (_gl_error_max(nu * r) + 2.0 * math.cosh(2.0 * r) * e_cx)
        # margin for the rounding of the nonnegative sum
        return scale * (float(lags @ kern) * (1.0 + 1e-11)
                        + N * N * math.exp(-2.0 * k * h)), h, k, P

    lo, hi = 0, max(1, math.ceil(0.25 * u * nu[-1]))     # r d = 2 at hi
    while plan(hi)[0] > QUAD_TARGET:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if plan(mid)[0] <= QUAD_TARGET else (mid, hi)
    bound, h, k, P = plan(hi)
    x0 = c0 - k * h
    lam = g - 0.5 * (g[0] + g[-1])          # |S| is unchanged; smaller phases
    x = []

    def s2(t0: np.ndarray, h: float, n: int) -> np.ndarray:
        x.append(t0 + h * np.arange(n)[:, None])
        s = progression_sum(lam, 1.0, t0, h, n)
        return s.real ** 2 + s.imag ** 2

    v = scale * _gl_values(s2, x0, h, P)
    phi = max(abs(x0), abs(x0 + P * h)) * float(np.max(np.abs(lam)))
    eps = (1e-14 + 5.0 * 2.0 ** -53 * phi) * N
    bound += 2.0 * eps * math.sqrt(scale * mass * v.sum()) \
        + scale * mass * eps * eps
    return np.concatenate(x), v, bound


def _check_positive(name: str, value: float) -> None:
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be > 0 and finite, got {value}")


def pair_correlation(Z: ZeroTable, T: float, alpha: float, *,
                     override: bool = False) -> float:
    """F(alpha, T) over zeros in [T, 2T], diagonal included."""
    return float(pair_correlation_grid(Z, T, [alpha],
                                       override=override).values[0])


def pair_correlation_grid(Z: ZeroTable, T: float, alphas, *,
                          override: bool = False) -> PairCorrelation:
    """F on equally spaced alphas (a linspace of distinct points, or one
    alpha; ValueError otherwise) by Montgomery's identity: F(alpha_j) =
    (2 pi / (T L)) int e^{-2|x - c_j|} |S(x)|^2 dx, c_j = alpha_j L, the
    kinks of ``_s2_rule``.  Between them the kernel is one exponential, so a
    forward and a backward recursion apply it in O(nodes + grid)."""
    alphas = np.asarray(alphas, dtype=float)
    P = alphas.size
    step = (alphas[-1] - alphas[0]) / (P - 1) if P > 1 else 0.0
    if alphas.ndim != 1 or P == 0 or not np.all(np.isfinite(alphas)) \
            or (P > 1 and step == 0.0) \
            or np.max(np.abs(alphas[0] + step * np.arange(P) - alphas)) \
            > 1e-14 * max(1.0, np.max(np.abs(alphas))):
        raise ValueError("alphas must be a finite, equally spaced grid")
    g = _window_ordinates(Z, T, override)
    L = math.log(T)
    u = L * abs(step) or 1.0                # one alpha: any panel width
    c = L * min(alphas[0], alphas[-1]) + u * np.arange(P)
    x, v, bound = _s2_rule(g, c[0], u, P, 2.0 * math.pi / (T * L), 1.0)
    x, v = x.ravel(), v.ravel()
    s = np.searchsorted(c, x)               # the kink above each node
    runs = np.r_[0, np.searchsorted(x, c)]  # the nodes between kinks
    # the kernel below each kink from the run below it, above from above
    left = np.add.reduceat(
        np.exp(2.0 * (x - c[np.minimum(s, P - 1)])) * v, runs)[:P]
    right = np.add.reduceat(
        np.exp(2.0 * (c[np.maximum(s - 1, 0)] - x)) * v, runs)[1:]
    decay = math.exp(-2.0 * u)
    for j in range(1, P):
        left[j] += decay * left[j - 1]
        right[P - 1 - j] += decay * right[P - j]
    vals = left + right
    return PairCorrelation(T=T, alphas=alphas, error_bound=bound,
                           values=vals[::-1] if step < 0 else vals)


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
    for theta > 0, A > 0 and finite T >= ``zeta.T_FLOOR``."""
    _check_positive("theta", theta)
    _check_positive("A", A)
    zeta._check_floor(T, "T")
    expected_delta = 2.0 * math.pi * A / math.log(T)
    if not abs(S.delta - expected_delta) <= 1e-9:
        raise ContractError(
            f"set spacing delta={S.delta!r} does not match "
            f"2 pi A / log T = {expected_delta!r}")
    dens = S.count / ((T / (2.0 * math.pi)) * math.log(T))
    return dens / (1.0 + theta + 1.0 / A)


def thm3_rhs(Z: ZeroTable, T: float, theta: float, eps: float, *,
             override: bool = False) -> tuple[float, float, float]:
    """(rhs, integral_error, rhs_unfav) of Theorem 3, for theta > 0 and
    eps > 0: rhs = (1/2 + I)^{-1}, I = int_a^b F(alpha, T) d alpha over
    [a, b] = [1, 1 + theta + eps], every pair included.  By Montgomery's
    identity, with L = log T, A = a L and B = b L,

        I = (2 pi / (T L^2)) int |S(x)|^2 k(x) dx,
        k(x) = int_A^B e^{-2|x-y|} dy,

    k of mass B - A.  A and B are kinks of ``_s2_rule``, whose bound is
    ``integral_error``; ``rhs_unfav`` = (1/2 + I - integral_error)^{-1}
    (inf if not positive) is the rhs at its unfavourable end.
    """
    _check_positive("theta", theta)
    _check_positive("eps", eps)
    g = _window_ordinates(Z, T, override)
    L = math.log(T)
    A, B = L, (1.0 + theta + eps) * L
    x, v, err = _s2_rule(g, A, B - A, 2, 2.0 * math.pi / (T * L * L), B - A)
    # k = G(B - x) - G(A - x), G(t) = sign(t) (1 - e^{-2|t|})/2 the integral
    # of e^{-2|s|} over [0, t]; past A or B the two G cancel, and their
    # rounding moves I by at most u sum v
    G = lambda t: -0.5 * np.sign(t) * np.expm1(-2.0 * np.abs(t))
    # one offset at a time, so that each temporary holds one node per panel
    integral = math.fsum(float(np.sum((G(B - xk) - G(A - xk)) * vk))
                         for xk, vk in zip(x.T, v.T))
    den = 0.5 + integral - err
    return 1.0 / (0.5 + integral), err, 1.0 / den if den > 0 else math.inf


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
    naming the offending point); the lhs rule has ``vgrid`` panels.
    Returns (lhs, rhs).
    """
    g = np.asarray(S.ordinates, dtype=float)
    if len(g) == 0:
        raise ValueError("no ordinates")
    if not np.all(np.isfinite(g)):
        raise ValueError("ordinates must be finite")
    if not (isinstance(vgrid, (int, np.integer)) and vgrid >= 1):
        raise ValueError(f"vgrid must be an integer >= 1, got {vgrid!r}")
    # contract: K >= f^2 on a probing grid over f's support (and beyond)
    s0, s1 = f.support
    pad = 0.1 * (s1 - s0)
    probe = np.linspace(s0 - pad, s1 + pad, 2001)
    gap = _k_value(K, probe) - np.asarray(f(probe)) ** 2
    if np.min(gap) < -1e-12:
        x_bad = float(probe[int(np.argmin(gap))])
        raise ContractError(
            f"K >= f^2 fails at v={x_bad!r} (deficit {float(np.min(gap)):g})")
    # lhs by composite Gauss-Legendre: one progression sum per block of panels
    def integrand(t0: np.ndarray, h: float, P: int) -> np.ndarray:
        v = t0[None, :] + h * np.arange(P)[:, None]
        ssum = progression_sum(2.0 * math.pi * g, 1.0, t0, h, P)
        return np.abs(ssum) ** 2 * np.asarray(f(v)) ** 2

    lhs = _composite_gl(integrand, s0, s1, vgrid)
    # rhs: double sum of Khat over pair differences (diagonal + 2x upper)
    off = 2.0 * math.fsum(_khat_pairs(K, _pair_diffs(np.sort(g))))
    diag = len(g) * float(_khat_pairs(K, np.asarray([0.0]))[0])
    return float(lhs), float(diag + off)
