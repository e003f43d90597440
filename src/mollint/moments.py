"""Quadrature for the mollified second moment

    I(M) = (1/T) int_T^{2T} |1 - zeta(1/2+it) M(1/2+it)|^2 dt,

plus the coefficient-side trivial lower bound, the predicted moment as a
brute-force gcd double sum (the oracle partner of the O(N log N) lattice
route ``quadform.propB_value``; both forms come from the one O(N^2) pass
``quadform._gcd_sums`` over a gcd table written by common multiples once
per N), and the weighted (Cauchy-kernel) moment over the whole line.

The panel count of ``mollified_moment`` comes from an a priori bound on
the composite rule's error, built from the integrand's spectrum: the
smallest count whose bound meets QUAD_TARGET, found by ``_least_count``
(the search ``zerostats`` shares for its |S|^2 rule) from the resolution
floor of 4 panels per mean zero gap 2 pi / log T.  |1 - zeta M|^2 is a sum
of exponentials e^{-i nu t}, nu = lam_j - lam_k over the frequencies
lam = log(n m) of zeta's Euler-Maclaurin sum (n < N) and of M (m <= N_M),
plus the boundary terms, exponentials at log(N m) with a slowly varying
amplitude.  On one exponential the rule errs by r e(nu r) per panel of
half-width r, e(x) ~ 2.2e-18 x^16 (Davis & Rabinowitz, Methods of
Numerical Integration, 1984), and the panels add up to at most
min(P, 1/|sin nu r|) times that, which grows only where nu r nears a
multiple of pi (aliasing; Trefethen & Weideman, SIAM Rev. 56, 2014).  The
bound weighs the |c| mass of every pair by that kernel, through
histograms of the mass by frequency.  A count given by the caller whose
bound misses the target raises ResolutionError unless ``force`` is set;
the reported ``estimated_error`` is the bound at the count used: one pass
of the rule, no second evaluation of zeta or M.  ``baez_duarte_moment``
keeps the resolution floor as its default count.

For each Gauss-Legendre offset the nodes of the composite rule form an
arithmetic progression in the panel index, so both Dirichlet series on them
go through the one progression kernel ``zeta.progression_sum`` (a type-1
NUFFT): zeta's Euler-Maclaurin main sum by ``zeta_on_grid``, and the
mollifier M(1/2+it) with lam = log n and amp = a(n) n^{-1/2}.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import zeta
from .arith import BERNOULLI, fsum
from .dirichlet import DirichletPoly, evaluate_poly_many
from .quadform import PROPB_C, _gcd_sums
from .zeta import EM_K, _em_n_cap, zeta_critical_many

GL_ORDER = 8
# |beta_k| = |B_2k|/(2k)!, k = 1..EM_K
_BETA = np.array([abs(BERNOULLI[2 * k]) / math.factorial(2 * k)
                  for k in range(1, EM_K + 1)])
# The composite rule's target: 1e-13 times an a priori proxy of 1 for the
# moment, which is 1 for the empty mollifier and above 1 for the mollifiers
# built here (about 2 for L_theta and the minimizer, about log T for M = 1).
QUAD_TARGET = 1e-13
# e(x) = 2 sin(x)/x - sum_k w_k cos(x x_k), the GL_ORDER-point rule's error
# on e^{-ixt} over [-1, 1], in x^16, x^18, ..., x^58 (the first eight Taylor
# coefficients vanish): (-1)^k [2/(2k+1) - sum_i w_i x_i^{2k}] / (2k)!, from
# mpmath at 50 digits, rounded to double.  On [0, 2 pi] the first term left
# out is below 1e-27 of e; the closed form cancels to rounding below
# x ~ 1.3, where e ~ 2.2e-18 x^16.
_GL_ERROR_TAYLOR = np.array([
    2.2247658899772702e-18, -3.079110685933454e-20, 2.0185863636256718e-22,
    -8.380946096348227e-25, 2.4854281225844147e-27, -5.628407797486021e-30,
    1.0159495128701642e-32, -1.5063159499713452e-35, 1.8759691849477388e-38,
    -1.9967996725724173e-41, 1.8419543509044801e-44, -1.4894228488352072e-47,
    1.065880432475633e-50, -6.805993222859689e-54, 3.9050391120414386e-57,
    -2.0257315711838703e-60, 9.552525413915242e-64, -4.114638201586971e-67,
    1.625931816097005e-70, -5.917340807236492e-74, 1.9904161605320853e-77,
    -6.208098289275724e-81,
])
# e rises from e(0) = 0 on [0, _GL_ERROR_RISE]; its first maximum is 1.44
# at x = 18.87.  Beyond, |e| <= 2 |sin x|/x + sum_k w_k.
_GL_ERROR_RISE = 18.5
# Bins of the frequency histograms on [0, log(N N_M)].
_SPECTRUM_BINS = 512
# Lags of the frequency correlations per block of the Bernstein term.
_LAG_BLOCK = 64
# Strip half-widths y = q r of the Bernstein ellipses about a panel of
# half-width r.
_STRIP_Q = np.geomspace(0.125, 2048.0, 57)


class ResolutionError(ValueError):
    """Panel count refused: below 1, below the resolution floor
    (``baez_duarte_moment``), or with a quadrature error bound that misses
    QUAD_TARGET (``mollified_moment``)."""


@dataclass(frozen=True)
class QuadratureRecord:
    """Panels of the composite rule, and an a priori bound on its error
    (``_quadrature_bound``), not a difference from a second run."""

    panel_count: int
    estimated_error: float


@dataclass(frozen=True)
class MomentReport:
    """Result of one moment quadrature run."""

    value: float
    quadrature: QuadratureRecord
    mollifier_label: str


def resolution_floor(T: float) -> int:
    """4 panels per mean zero gap on [T, 2T]: the panel count of
    ``baez_duarte_moment`` by default, and where ``mollified_moment``
    starts its search for the least count its error bound allows."""
    return int(math.ceil(4.0 * T * math.log(T) / (2.0 * math.pi)))


def _panels(panels: int | None, force: bool, name: str, height: float) -> int:
    """The panel count of ``baez_duarte_moment``: ``panels``, by default
    the resolution floor at ``height``; fewer raise ResolutionError unless
    ``force``, and fewer than 1 always."""
    floor = resolution_floor(height)
    _check_panels(panels)
    if panels is not None and panels < floor and not force:
        raise ResolutionError(
            f"panels={panels} below resolution floor {floor} for "
            f"{name}={height:g}; pass force=True to override")
    return floor if panels is None else panels


def _check_panels(panels: int | None) -> None:
    if panels is not None and panels < 1:
        raise ResolutionError(f"panels={panels} must be at least 1")


def _residual_sq(M: DirichletPoly | None, t0: np.ndarray, h: float,
                 P: int) -> np.ndarray:
    """|1 - zeta M|^2 at the nodes t0[k] + j h, j < P."""
    if M is None:
        return np.ones((P, len(t0)))
    n = np.arange(1, M.length_N + 1, dtype=float)
    mv = zeta.progression_sum(np.log(n), M.coeffs[1:] * n ** -0.5, t0, h, P)
    return np.abs(1.0 - zeta.zeta_on_grid(t0, h, P) * mv) ** 2


@functools.cache
def _gl_rule() -> tuple[np.ndarray, np.ndarray]:
    """The GL_ORDER nodes and weights on [-1, 1], made on first use:
    ``leggauss`` loads LAPACK, about 0.7 MB that a process which never
    takes a moment does not pay.  Callers do not write to them."""
    return leggauss(GL_ORDER)


def _gl_blocks(f, a: float, h: float, panels: int):
    """The weighted values of the composite GL_ORDER-point Gauss-Legendre
    rule on panels of width h from a, as a generator of (n, GL_ORDER)
    blocks of whole panels of at most ``zeta.OUTER_BLOCK`` nodes: offset
    k has a node at t0[k] + j h in panel j, t0[k] = a + h (1 + x_k) / 2,
    and ``f(t0 + p0 h, h, n)`` is the integrand on panels p0 .. p0 + n - 1."""
    gx, gw = _gl_rule()
    t0 = a + 0.5 * h * (1.0 + gx)
    n = max(1, zeta.OUTER_BLOCK // GL_ORDER)
    return (f(t0 + p0 * h, h, min(n, panels - p0)) * (0.5 * h * gw)
            for p0 in range(0, panels, n))


def _gl_values(f, a: float, h: float, panels: int) -> np.ndarray:
    """``_gl_blocks`` as one (panels, GL_ORDER) array."""
    return np.concatenate(list(_gl_blocks(f, a, h, panels)))


def _composite_gl(f, a: float, b: float, panels: int) -> float:
    """``_gl_blocks`` on ``panels`` equal panels of [a, b], each block
    reduced to its per-panel sums as it is made, then one fsum over the
    blocks: one block is held at a time."""
    blocks = _gl_blocks(f, a, (b - a) / panels, panels)
    return math.fsum(itertools.chain.from_iterable(
        memoryview(v.sum(axis=1)) for v in blocks))


def _gl_error(x: np.ndarray) -> np.ndarray:
    """e(x) for x >= 0: the Taylor table on [0, 2 pi], the closed form
    above."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    low = x <= 2.0 * math.pi
    x2 = x[low] ** 2
    acc = np.full(x2.shape, _GL_ERROR_TAYLOR[-1])
    for c in _GL_ERROR_TAYLOR[-2::-1]:
        acc *= x2
        acc += c
    out[low] = acc * x2 ** 8
    xh = x[~low]
    gx, gw = _gl_rule()
    out[~low] = 2.0 * np.sin(xh) / xh - np.cos(np.multiply.outer(xh, gx)) @ gw
    return out


def _gl_error_max(x: np.ndarray) -> np.ndarray:
    """An upper bound on max |e| over [0, x] for x >= 0: e(x) with a margin
    for rounding where e rises, 2 + 2/_GL_ERROR_RISE beyond."""
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, 2.0 + 2.0 / _GL_ERROR_RISE)
    rise = x <= _GL_ERROR_RISE
    e = _gl_error(x[rise])
    out[rise] = np.where(x[rise] <= 2.0 * math.pi, e * (1.0 + 1e-12),
                         e + 1e-14)
    return out


def _alias_max(x_lo: np.ndarray, x_hi: np.ndarray, P: int) -> np.ndarray:
    """max of min(P, 1/|sin x|) over [x_lo, x_hi], 0 <= x_lo <= x_hi: P
    where the interval holds a multiple of pi, else the larger end value
    (1/|sin| is convex between its poles)."""
    pole = np.floor(x_hi / math.pi) >= np.ceil(x_lo / math.pi)
    low = np.minimum(np.abs(np.sin(x_lo)), np.abs(np.sin(x_hi)))
    with np.errstate(divide="ignore"):
        return np.where(pole, float(P), np.minimum(float(P), 1.0 / low))


def _gl_panel_bound(r: float, y: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Bound on the GL_ORDER-point Gauss-Legendre error over a panel of
    half-width r, for f analytic with |f| <= m[i] on the strip
    |Im t| <= y[i] about the panel.

    The Bernstein ellipse with rho = y/r + sqrt((y/r)^2 + 1) reaches
    |Im t| = y and lies in the strip.  Trefethen (SIAM Rev. 50, 2008,
    Thm 4.5) bounds the (n+1)-point rule, exact to degree 2n + 1, by
    (64/15) m rho^{-2n} / (rho^2 - 1) on [-1, 1]; here n = GL_ORDER - 1,
    and the panel's length scales it by r.
    """
    q = y / r
    rho = q + np.sqrt(q * q + 1.0)
    return r * (64.0 / 15.0) * m * rho ** (-2 * (GL_ORDER - 1)) \
        / (rho * rho - 1.0)


def _boundary_sup(T: float, N: int, a: np.ndarray,
                  y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on |A| and |A'| for Re t in [T - a, 2T + a], |Im t| <= y,
    a < T, where zeta_on_grid's boundary and tail terms at truncation N
    are A(t) e^{-it log N}:

        A(t) = N^{-1/2} [1/2 + N/(s-1)
                         + sum_{k<=EM_K} beta_k prod_{j<2k-1} (s+j)/N],

    s = 1/2 + it, beta_k = B_{2k}/(2k)!.  Each |s + j| and |s - 1| is at
    least T - a, and |s + j| at most |1/2 + y + j + i(2T + a)|.
    """
    lo = T - a
    j = np.arange(2 * EM_K - 1)[:, None]
    prod = np.cumprod(np.hypot(0.5 + y + j, 2.0 * T + a) / N, axis=0)[::2]
    term = _BETA[:, None] * prod
    amp = 0.5 + N / lo + term.sum(axis=0)
    der = N / (lo * lo) + (2.0 * j[:EM_K] + 1.0).T @ term / lo
    return amp / math.sqrt(N), der.ravel() / math.sqrt(N)


def _top_node(T: float, panels: int) -> float:
    """The largest node of the composite rule on [T, 2T], as ``_gl_values``
    and ``zeta_on_grid`` compute it in a rule of one block, and to rounding
    in a rule of more."""
    h = T / panels
    return T + 0.5 * h * (1.0 + _gl_rule()[0][-1]) + h * (panels - 1)


def _spectrum(M: DirichletPoly, N: int) -> tuple:
    """(delta, R_main, R_cross, R_bnd): the |c| mass of |1 - zeta M|^2 by
    frequency, for zeta at Euler-Maclaurin truncation N.

    1 - zeta M is sum_j c_j e^{-i lam_j t} + A(t) e^{-it log N} sum_m
    (-b_m) e^{-it log m}, b_m = a(m) m^{-1/2}, with c = 1 at lam = 0 and
    c = -n^{-1/2} b_m at lam = log(n m), n < N.  Each frequency is rounded
    to the nearest multiple of delta = log(N N_M) / _SPECTRUM_BINS; the
    histogram of the c (``main``) is zeta's convolved with M's, and that of
    the boundary terms (``bnd``) is M's moved by log N.  R_main, R_cross
    and R_bnd are the correlations main-main, main-bnd and M-M, folded onto
    lags l >= 0: each pair of terms lies at |nu| within (l + 2) delta of
    its lag.  Every sum has nonnegative terms.
    """
    m = np.flatnonzero(M.coeffs[1:]) + 1
    b = np.abs(M.coeffs[m]) * m ** -0.5
    delta = math.log(N * M.length_N) / _SPECTRUM_BINS
    size = _SPECTRUM_BINS + 3
    bins = lambda lam: np.rint(np.asarray(lam) / delta).astype(np.intp)
    n = np.arange(1, N, dtype=float)
    hz = np.bincount(bins(np.log(n)), n ** -0.5, size)
    hm = np.bincount(bins(np.log(m)), b, size)
    bnd = np.bincount(bins(np.log(m)) + bins(math.log(N)), b, size)
    main = np.convolve(hz, hm[:bins(math.log(M.length_N)) + 1])[:size]
    main[0] += 1.0

    return delta, _fold(main, main), _fold(main, bnd), _fold(hm, hm)


def _fold(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The correlation of u and v, of one length, folded onto lags l >= 0:
    at l > 0 the sum of the values at l and -l."""
    c = np.correlate(u, v, "full")
    n = len(v)
    return c[n - 1:] + np.r_[0.0, c[:n - 1][::-1]]


def _spectral_bound(T: float, panels: int, N: int, spec: tuple) -> float:
    """The quadrature bound from ``_spectrum``'s correlations at P panels
    of half-width r = T/(2P).

    On e^{-i nu t} the rule errs by r e(nu r) e^{-i nu m_p} on the panel
    with midpoint m_p, and |sum_p e^{-i nu m_p}| <= min(P, 1/|sin nu r|):
    at lag l the kernel r |e| min(P, 1/|sin|) is taken at its largest over
    |nu| <= (l + 2) delta.  A boundary term g(t) e^{-i nu t}, with g = conj
    A for the cross terms and |A|^2 for the boundary's own, is split on each
    panel as g(m_p) e^{-i nu t} plus (g - g(m_p)) e^{-i nu t}.  By Abel
    summation the first sums to at most (sup|g| + T sup|g'|) times that
    kernel; the second errs by at most ``_gl_panel_bound`` with
    sup|g - g(m_p)| <= sqrt(r^2 + y^2) sup|g'| on the ellipse, times
    e^{|nu| y}, taken per block of _LAG_BLOCK lags at the block's top.
    """
    delta, r_main, r_cross, r_bnd = spec
    r = 0.5 * T / panels
    # lag l holds |nu| in [l - 2, l + 2] delta, widened by 0.001 delta for
    # the rounding of log and of the division by delta
    nu = (np.arange(len(r_main)) + 2.001) * delta
    x_lo = np.maximum(nu - 4.002 * delta, 0.0) * r
    kern = r * _gl_error_max(nu * r) * _alias_max(x_lo, nu * r, panels)
    y = _STRIP_Q * r
    semi = np.hypot(r, y)
    fit = semi < 0.5 * T
    if not fit.any():
        return math.inf
    y, semi = y[fit], semi[fit]
    # on the real axis first, then on each strip about the panels
    amp, der = _boundary_sup(T, N, np.r_[0.0, semi], np.r_[0.0, y])
    (amp, amp_y), (der, der_y) = (amp[0], amp[1:]), (der[0], der[1:])
    total = r_main @ kern \
        + (2.0 * (amp + T * der) * r_cross
           + (amp * amp + 2.0 * T * amp * der) * r_bnd) @ kern
    starts = np.arange(0, len(r_main), _LAG_BLOCK)
    top = nu[np.minimum(starts + _LAG_BLOCK, len(nu)) - 1]
    with np.errstate(over="ignore"):
        grow = semi * np.exp(np.multiply.outer(top, y))
    bern = lambda g1: np.min(_gl_panel_bound(r, y, g1 * grow), axis=1)
    total += panels * (
        2.0 * np.add.reduceat(r_cross, starts) @ bern(der_y)
        + np.add.reduceat(r_bnd, starts) @ bern(2.0 * amp_y * der_y))
    # margin for the rounding of the nonnegative sums
    return float(total / T * (1.0 + 1e-11))


def _quadrature_bound(T: float, M: DirichletPoly | None, panels: int,
                      spectra: dict | None = None) -> float:
    """A priori bound on |composite rule - I(M)| for ``panels`` panels,
    from the spectrum of the integrand (``_spectral_bound``); 0 for
    M = None, whose integrand is the constant 1.  ``spectra`` caches
    ``_spectrum`` by truncation N across calls.  Rounding and zeta's own
    Euler-Maclaurin truncation error are not in it.
    """
    if M is None:
        return 0.0
    N = _em_n_cap(_top_node(T, panels))
    spectra = {} if spectra is None else spectra
    if N not in spectra:
        spectra[N] = _spectrum(M, N)
    return _spectral_bound(T, panels, N, spectra[N])


def _least_count(bound, start: int) -> tuple[int, float]:
    """(n, bound(n)): the least count n >= 1 whose ``bound`` meets
    QUAD_TARGET, for a bound that falls as n grows.

    From ``start`` the count doubles while its bound misses the target.
    The bracket lo < n <= hi (the bound misses the target at lo, meets it
    at hi) is then narrowed by secant steps on log bound against log n,
    from the last two counts bounded (from hi with slope 16 at the start,
    for e(x) ~ x^16), each clamped inside the bracket; where the slope is
    not positive or a bound is not finite the step bisects.  Each step
    shrinks the bracket, so the loop ends.
    """
    lo, hi = 0, max(1, start)
    b_hi = bound(hi)
    while b_hi > QUAD_TARGET:
        lo, hi = hi, 2 * hi
        b_hi = bound(hi)
    last, b_last, slope = hi, b_hi, 16.0
    while hi - lo > 1:
        if slope > 0.0:
            guess = math.ceil(last * (b_last / QUAD_TARGET) ** (1.0 / slope))
        else:
            guess = (lo + hi) // 2
        n = min(max(guess, lo + 1), hi - 1)
        b = bound(n)
        if b <= QUAD_TARGET:
            hi, b_hi = n, b
        else:
            lo = n
        finite = 0.0 < min(b, b_last) and max(b, b_last) < math.inf
        slope = math.log(b / b_last) / math.log(last / n) if finite else 0.0
        last, b_last = n, b
    return hi, b_hi


def mollified_moment(T: float, M: DirichletPoly | None,
                     panels: int | None = None,
                     force: bool = False) -> MomentReport:
    """Composite Gauss-Legendre value of I(M) over [T, 2T].

    ``M = None`` means the empty mollifier (integrand identically 1).
    ``panels`` defaults to the smallest count whose quadrature bound meets
    QUAD_TARGET, searched from the resolution floor; a given count whose
    bound misses the target raises ResolutionError unless ``force`` is set.
    The estimated error recorded is the bound ``_quadrature_bound`` at the
    count used, from the one pass.  With a mollifier, 2T above zeta.T_CAP
    raises DomainError before any work.
    """
    if not math.isfinite(T):
        raise ValueError(f"T must be finite, got {T}")
    if T < 50:
        raise ValueError("T must be >= 50")
    if M is not None and 2.0 * T > zeta.T_CAP:
        raise zeta.DomainError(f"T={T:g}: 2T is above T_CAP = {zeta.T_CAP:g}")
    _check_panels(panels)
    if panels is None:
        spectra: dict = {}
        panels, bound = _least_count(
            lambda P: _quadrature_bound(T, M, P, spectra), resolution_floor(T))
    else:
        bound = _quadrature_bound(T, M, panels)
        if bound > QUAD_TARGET and not force:
            raise ResolutionError(
                f"panels={panels}: quadrature bound {bound:.3g} misses the "
                f"target {QUAD_TARGET:g} for T={T:g}; pass force=True to "
                f"override")
    f = lambda t0, h, P: _residual_sq(M, t0, h, P)
    value = _composite_gl(f, T, 2.0 * T, panels) / T
    rec = QuadratureRecord(panel_count=panels, estimated_error=bound)
    label = M.label if M is not None else "none"
    return MomentReport(value=value, quadrature=rec, mollifier_label=label)


def trivial_bound(F: DirichletPoly, T: float) -> float:
    """sum_{n <= T} |f(n)|^2 / n for the coefficients f of F = 1 - zeta M.

    The implied constant of the underlying lower bound is taken as 1; this
    is a comparison statistic, not a certified bound.
    """
    cap = min(F.length_N, int(T))
    n = np.arange(1, cap + 1, dtype=float)
    return fsum(np.abs(F.coeffs[1:cap + 1]) ** 2 / n)


def bch_predicted(T: float, a: DirichletPoly) -> float:
    """Predicted moment as the gcd quadratic form

        sum_{m,n<=N} a(m) conj(a(n))/[m,n]
            * (log(T (m,n)^2 / (2 pi m n)) + 2 log 2 + 2 gamma - 1)  -  1,

    summed by brute force: log(c T) times the gram double sum, minus the
    log-weighted one, from the O(N^2) gcd pass ``quadform._gcd_sums``
    (capped at quadform.DIRECT_CAP).  Hermitian, so the real part is
    returned.
    """
    gram, logf = _gcd_sums(a)
    return math.log(PROPB_C * T) * gram.real - logf.real - 1.0


def baez_duarte_moment(M: DirichletPoly | None, t_cap: float,
                       panels: int | None = None,
                       force: bool = False) -> tuple[float, float]:
    """int_{|t| <= t_cap} |(1 - zeta(1/2+it) M(1/2+it)) / (1/2+it)|^2 dt,
    symmetric quadrature, plus a crude reported tail bound

        int_{|t| > t_cap} (1 + |zeta M|)^2 / (1/4 + t^2) dt

    estimated from the endpoint magnitude.  Returns (value, tail_bound);
    the tail is reported, never added.  ``panels`` defaults to the
    resolution floor at height t_cap; fewer raise ResolutionError unless
    ``force`` is set.  With a mollifier, t_cap above zeta.T_CAP raises
    DomainError before any work.
    """
    if not math.isfinite(t_cap):
        raise ValueError(f"t_cap must be finite, got {t_cap}")
    if t_cap < 100:
        raise ValueError("t_cap must be >= 100")
    if M is not None and t_cap > zeta.T_CAP:
        raise zeta.DomainError(f"t_cap={t_cap:g} > T_CAP = {zeta.T_CAP:g}")
    panels = _panels(panels, force, "t_cap", t_cap)

    def integrand(t0: np.ndarray, h: float, P: int) -> np.ndarray:
        ts = t0[None, :] + h * np.arange(P)[:, None]
        return _residual_sq(M, t0, h, P) / (0.25 + ts ** 2)

    value = _composite_gl(integrand, -t_cap, t_cap, panels)
    # crude tail: (1 + |zeta M|)^2 at +-t_cap as an envelope times the exact
    # Cauchy tail integral 2 * (pi/2 - arctan(2 t_cap)) / ... with weight 2
    if M is None:
        env = 1.0
    else:
        zm = zeta_critical_many(np.asarray([t_cap, -t_cap]))
        mv = evaluate_poly_many(M, 0.5, np.asarray([t_cap, -t_cap]))
        env = float(np.max((1.0 + np.abs(zm * mv)) ** 2))
    tail = env * 2.0 * (math.pi / 2.0 - math.atan(2.0 * t_cap)) * 2.0
    return value, tail


def cauchy_window_integral(t_cap: float) -> float:
    """Closed form int_{-X}^{X} dt/(1/4 + t^2) = 4 arctan(2X) (oracle for
    the M = 0 weighted moment)."""
    return 4.0 * math.atan(2.0 * t_cap)
