"""Quadrature for the mollified second moment

    I(M) = (1/T) int_T^{2T} |1 - zeta(1/2+it) M(1/2+it)|^2 dt,

plus the coefficient-side trivial lower bound, the predicted closed form of
the moment as a gcd quadratic form, and the weighted (Cauchy-kernel) moment
over the whole line.

The integrand oscillates on the mean zero-gap scale 2 pi / log T, so the
engine enforces a resolution floor of >= 4 panels per mean gap; dropping
below it silently biases the moment low (aliasing), hence the explicit
``force`` escape hatch rather than a default.

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

from .arith import EULER_GAMMA
from .dirichlet import DirichletPoly, evaluate_poly_many
from .zeta import progression_sum, zeta_critical_many, zeta_on_grid

GL_ORDER = 8

# O(N^2) cap for the predicted-moment double sum.
BCH_CAP = 5000


class ResolutionError(ValueError):
    """Quadrature resolution below the anti-aliasing floor."""


@dataclass(frozen=True)
class QuadratureRecord:
    panel_count: int
    points_per_panel: int
    estimated_error: float


@dataclass(frozen=True)
class MomentReport:
    """Result of one moment quadrature run."""

    T: float
    theta: float
    value: float
    quadrature: QuadratureRecord
    mollifier_label: str


def resolution_floor(T: float) -> int:
    """Minimum panel count for [T, 2T]: 4 panels per mean zero gap."""
    return int(math.ceil(4.0 * T * math.log(T) / (2.0 * math.pi)))


def _residual_sq(M: DirichletPoly | None, t0: np.ndarray, h: float,
                 P: int) -> np.ndarray:
    """|1 - zeta M|^2 at the nodes t0[k] + j h, j < P."""
    if M is None:
        return np.ones((P, len(t0)))
    n = np.arange(1, M.length_N + 1, dtype=float)
    mv = progression_sum(np.log(n), M.coeffs[1:] * n ** -0.5, t0, h, P)
    return np.abs(1.0 - zeta_on_grid(t0, h, P) * mv) ** 2


def _composite_gl(f, a: float, b: float, panels: int,
                  order: int = GL_ORDER) -> float:
    """Composite Gauss-Legendre rule on ``panels`` equal panels of [a, b].

    Offset k of the rule puts one node in every panel, at
    t0[k] + j h with t0[k] = a + h (1 + x_k) / 2 and h the panel width, so
    ``f(t0, h, panels)`` returns the integrand as a (panels, order) array.
    """
    gx, gw = leggauss(order)
    h = (b - a) / panels
    vals = f(a + 0.5 * h * (1.0 + gx), h, panels)
    # compensated reduction: per-panel partial sums, then fsum
    partial = (vals * (0.5 * h * gw)[None, :]).sum(axis=1)
    return math.fsum(partial)


def mollified_moment(T: float, M: DirichletPoly | None,
                     panels: int | None = None, nodes: int = GL_ORDER,
                     theta: float = 0.0,
                     force: bool = False) -> MomentReport:
    """Composite Gauss-Legendre value of I(M) over [T, 2T].

    ``M = None`` means the empty mollifier (integrand identically 1).
    ``panels`` defaults to the resolution floor; passing fewer panels raises
    ResolutionError unless ``force`` is set.  The estimated error recorded is
    the difference against a half-resolution run.
    """
    if not math.isfinite(T):
        raise ValueError(f"T must be finite, got {T}")
    if T < 50:
        raise ValueError("T must be >= 50")
    floor = resolution_floor(T)
    if panels is None:
        panels = floor
    if panels < floor and not force:
        raise ResolutionError(
            f"panels={panels} below resolution floor {floor} for T={T:g}; "
            "pass force=True to override")
    f = lambda t0, h, P: _residual_sq(M, t0, h, P)
    full = _composite_gl(f, T, 2.0 * T, panels, nodes) / T
    half = _composite_gl(f, T, 2.0 * T, max(1, panels // 2), nodes) / T
    rec = QuadratureRecord(panel_count=panels, points_per_panel=nodes,
                           estimated_error=abs(full - half))
    label = M.label if M is not None else "none"
    return MomentReport(T=T, theta=theta, value=full, quadrature=rec,
                        mollifier_label=label)


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
            * (log(T (m,n)^2 / (2 pi m n)) + 2 log 2 + 2 gamma - 1)  -  1.

    Brute-force O(N^2) double sum, capped at BCH_CAP; hermitian, so the
    imaginary parts cancel pairwise and the real part is returned.
    """
    N = a.length_N
    if N > BCH_CAP:
        raise ValueError(f"bch_predicted capped at N={BCH_CAP}, got {N}")
    c = a.coeffs[1:]
    idx = np.arange(1, N + 1, dtype=np.int64)
    const = math.log(T / (2.0 * math.pi)) + 2.0 * math.log(2.0) \
        + 2.0 * EULER_GAMMA - 1.0
    parts: list[float] = []
    chunk = max(1, int(4e6 // N))
    for lo in range(0, N, chunk):
        d = idx[lo:lo + chunk]
        g = np.gcd.outer(d, idx)
        lcm = (d[:, None] // g) * idx[None, :]
        # log(T (m,n)^2/(2 pi m n)) = log(T/2pi) - log([m,n]/(m,n))
        w = const - (np.log(lcm.astype(float))
                     - np.log(g.astype(float)))
        block = (c[lo:lo + chunk, None] * np.conj(c)[None, :]) / lcm * w
        parts.append(float(block.real.sum()))
    return math.fsum(parts) - 1.0


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
    floor = resolution_floor(t_cap)
    if panels is None:
        panels = floor
    if panels < floor and not force:
        raise ResolutionError(
            f"panels={panels} below resolution floor {floor} for "
            f"t_cap={t_cap:g}; pass force=True to override")

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
