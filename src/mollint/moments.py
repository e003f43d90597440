"""Quadrature for the mollified second moment

    I(M) = (1/T) int_T^{2T} |1 - zeta(1/2+it) M(1/2+it)|^2 dt,

plus the coefficient-side trivial lower bound, the predicted moment as a
brute-force gcd double sum (the oracle partner of the O(N log N) lattice
route ``quadform.propB_value``; both forms come from the one O(N^2) pass
``quadform._gcd_sums``, whose gcd table is built once per N), and the
weighted (Cauchy-kernel) moment over the whole line.

The integrand oscillates on the mean zero-gap scale 2 pi / log T, so the
engine enforces a resolution floor of >= 4 panels per mean gap; dropping
below it silently biases the moment low (aliasing), hence the explicit
``force`` escape hatch rather than a default.  The reported
``estimated_error`` is an a priori bound on the composite rule's error,
from the Bernstein-ellipse bound for Gauss-Legendre (Trefethen, SIAM Rev.
50, 2008, Thm 4.5) and a majorant of the integrand on a strip about the
real axis: one pass of the rule, no second evaluation of zeta or M.

For each Gauss-Legendre offset the nodes of the composite rule form an
arithmetic progression in the panel index, so both Dirichlet series on them
go through the one progression kernel ``zeta.progression_sum`` (a type-1
NUFFT): zeta's Euler-Maclaurin main sum by ``zeta_on_grid``, and the
mollifier M(1/2+it) with lam = log n and amp = a(n) n^{-1/2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .arith import BERNOULLI
from .dirichlet import DirichletPoly, evaluate_poly_many
from .quadform import PROPB_C, _gcd_sums
from .zeta import (EM_K, _em_n_cap, progression_sum, zeta_critical_many,
                   zeta_on_grid)

GL_ORDER = 8
# Strip half-widths y (|Im t| <= y) over which the quadrature bound is
# minimised: six a octave from 1/64 to 4.
_STRIP_Y = np.geomspace(1.0 / 64.0, 4.0, 49)


class ResolutionError(ValueError):
    """Quadrature resolution below the anti-aliasing floor."""


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
    """Minimum panel count for [T, 2T]: 4 panels per mean zero gap."""
    return int(math.ceil(4.0 * T * math.log(T) / (2.0 * math.pi)))


def _panels(panels: int | None, force: bool, name: str, height: float) -> int:
    """``panels``, by default the resolution floor at ``height``; fewer
    raise ResolutionError unless ``force``, and fewer than 1 always."""
    floor = resolution_floor(height)
    if panels is not None and panels < 1:
        raise ResolutionError(f"panels={panels} must be at least 1")
    if panels is not None and panels < floor and not force:
        raise ResolutionError(
            f"panels={panels} below resolution floor {floor} for "
            f"{name}={height:g}; pass force=True to override")
    return floor if panels is None else panels


def _residual_sq(M: DirichletPoly | None, t0: np.ndarray, h: float,
                 P: int) -> np.ndarray:
    """|1 - zeta M|^2 at the nodes t0[k] + j h, j < P."""
    if M is None:
        return np.ones((P, len(t0)))
    n = np.arange(1, M.length_N + 1, dtype=float)
    mv = progression_sum(np.log(n), M.coeffs[1:] * n ** -0.5, t0, h, P)
    return np.abs(1.0 - zeta_on_grid(t0, h, P) * mv) ** 2


def _composite_gl(f, a: float, b: float, panels: int) -> float:
    """Composite GL_ORDER-point Gauss-Legendre rule on ``panels`` equal
    panels of [a, b].

    Offset k of the rule puts one node in every panel, at
    t0[k] + j h with t0[k] = a + h (1 + x_k) / 2 and h the panel width, so
    ``f(t0, h, panels)`` returns the integrand as a (panels, GL_ORDER) array.
    """
    gx, gw = leggauss(GL_ORDER)
    h = (b - a) / panels
    vals = f(a + 0.5 * h * (1.0 + gx), h, panels)
    # compensated reduction: per-panel partial sums, then fsum
    partial = (vals * (0.5 * h * gw)[None, :]).sum(axis=1)
    return math.fsum(partial)


def _strip_majorant(T: float, M: DirichletPoly | None,
                    y: np.ndarray) -> np.ndarray:
    """For a 1-D array y, B(y) >= |1 - zeta M| at every t with
    |Im t| <= y[i] and T - y[i] <= Re t <= 2T + y[i], for the integrand as
    evaluated: zeta by Euler-Maclaurin at any truncation N that
    ``zeta_on_grid`` takes for nodes in [T, 2T], M as its Dirichlet
    polynomial.

    At s = 1/2 + it, Re s >= sigma = 1/2 - y and |Im s| >= T - y.  Then
    |sum_{n<N} n^{-s}| <= 1 + (N^{1-sigma} - 1)/(1 - sigma), the boundary
    terms are at most N^{1-sigma}/(T - y) + N^{-sigma}/2, tail term k at
    most |beta_k| N^{1-sigma-2k} prod_{j<2k-1} |1/2 + y + j + i(2T + y)|,
    and |M| <= sum |a(n)| n^{-1/2+y}; each power of N is taken at the
    worse end of [N(T), N(2T)].
    """
    y = np.asarray(y, dtype=float)
    if M is None:
        return np.ones_like(y)
    sigma = 0.5 - y
    n_lo, n_hi = float(_em_n_cap(T)), float(_em_n_cap(2.0 * T))
    worst = lambda p: np.maximum(n_lo ** p, n_hi ** p)
    z = 1.0 + (n_hi ** (1.0 - sigma) - 1.0) / (1.0 - sigma) \
        + n_hi ** (1.0 - sigma) / (T - y) + 0.5 * worst(-sigma)
    height = 2.0 * T + y
    prod = np.hypot(0.5 + y, height)
    for k in range(1, EM_K + 1):
        if k > 1:
            prod = prod * np.hypot(y + 2 * k - 2.5, height) \
                * np.hypot(y + 2 * k - 1.5, height)
        beta = abs(BERNOULLI[2 * k]) / math.factorial(2 * k)
        z = z + beta * prod * worst(1.0 - sigma - 2 * k)
    a = np.abs(M.coeffs[1:])
    n = np.arange(1, M.length_N + 1, dtype=float)
    m = np.array([a @ n ** (yk - 0.5) for yk in y])
    return 1.0 + z * m


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


def _quadrature_bound(T: float, M: DirichletPoly | None, panels: int) -> float:
    """A priori bound on |composite rule - I(M)| for ``panels`` panels.

    The integrand F(t) conj(F(conj t)), F = 1 - zeta M, is |1 - zeta M|^2
    on the real axis and analytic but at t = +-i/2, the poles of the
    boundary term N^{1-s}/(s-1), far from [T, 2T].  On the strip
    |Im t| <= y it is at most B(y)^2 (``_strip_majorant``), so each panel
    of half-width r errs by at most ``_gl_panel_bound(r, y, B(y)^2)``.
    Summed over the panels, divided by T and minimised over y in _STRIP_Y.
    Rounding and zeta's own Euler-Maclaurin truncation error are not in it.
    """
    r = 0.5 * T / panels
    b = _strip_majorant(T, M, _STRIP_Y)
    per_panel = _gl_panel_bound(r, _STRIP_Y, b * b)
    return float(np.min(per_panel)) * panels / T


def mollified_moment(T: float, M: DirichletPoly | None,
                     panels: int | None = None,
                     force: bool = False) -> MomentReport:
    """Composite Gauss-Legendre value of I(M) over [T, 2T].

    ``M = None`` means the empty mollifier (integrand identically 1).
    ``panels`` defaults to the resolution floor; passing fewer panels raises
    ResolutionError unless ``force`` is set.  The estimated error recorded is
    the a priori quadrature bound ``_quadrature_bound``, from the one pass.
    """
    if not math.isfinite(T):
        raise ValueError(f"T must be finite, got {T}")
    if T < 50:
        raise ValueError("T must be >= 50")
    panels = _panels(panels, force, "T", T)
    f = lambda t0, h, P: _residual_sq(M, t0, h, P)
    value = _composite_gl(f, T, 2.0 * T, panels) / T
    rec = QuadratureRecord(panel_count=panels,
                           estimated_error=_quadrature_bound(T, M, panels))
    label = M.label if M is not None else "none"
    return MomentReport(value=value, quadrature=rec, mollifier_label=label)


def trivial_bound(F: DirichletPoly, T: float) -> float:
    """sum_{n <= T} |f(n)|^2 / n for the coefficients f of F = 1 - zeta M.

    The implied constant of the underlying lower bound is taken as 1; this
    is a comparison statistic, not a certified bound.
    """
    cap = min(F.length_N, int(T))
    n = np.arange(1, cap + 1, dtype=float)
    return math.fsum(np.abs(F.coeffs[1:cap + 1]) ** 2 / n)


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
    ``force`` is set.
    """
    if not math.isfinite(t_cap):
        raise ValueError(f"t_cap must be finite, got {t_cap}")
    if t_cap < 100:
        raise ValueError("t_cap must be >= 100")
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
