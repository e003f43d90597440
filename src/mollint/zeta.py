"""Critical-line zeta evaluation and zero location.

Two pointwise evaluation backends:

* Euler-Maclaurin (``em``): O(t) work per point, accurate to ~1e-10 for
  10 <= t <= 1e5.  Default for all heights used by the acceptance runs.
* Riemann-Siegel (``rs``): main sum plus first correction term, O(sqrt(t))
  work, error ~ (t/2pi)^(-5/4).  Used above RS_CROSSOVER, which only
  ``_plan_key`` reads.  Its C0 and C1 are polynomials from one Taylor table
  of Psi, which is entire: no p is guarded.

and one grid path, ``zeta_on_grid(t0, h, P)``, for families of arithmetic
progressions t0[k] + j h, j < P, such as the nodes of a composite quadrature
rule: Euler-Maclaurin with one truncation N for the whole family.  Every
Euler-Maclaurin path adds the boundary and EM_K tail terms to its main sum
by ``_em_add_boundary``: one nested pass of real arithmetic, about 10 EM_K
operations and one cos and sin per height, over blocks of at most
GRID_CHUNK heights.

Sums sum_n a_n e^{-i t lam_n} have two kernels: ``progression_sum`` at
heights along a progression, a type-1 non-uniform FFT, O(N + P log P) per
offset instead of O(N P) (the grid's main sum, the mollifier on its nodes,
the zero finder's scan, F(alpha, T), the Plancherel sum; fast Gaussian
gridding, two exps per source and no index reduced mod the grid), and
``pointwise_sum`` at scattered heights, O(N) per height (the pointwise
Euler-Maclaurin and Riemann-Siegel main sums, Dirichlet polynomials at many
heights, the window transforms, the Gonek sums).  Only the moments of the
refinement brackets (``_sum_moments``) and the compensated single-height
sums of ``dirichlet`` keep their own loops.

Every cos and sin in this module (of the kernels' phases t lam_n, the
boundary terms' t log N, theta and the bracket tables' c log p) comes from
one tangent of the half angle, ``_cos_sin``.  On a 2-core AVX-512 Xeon
with numpy 2.4.6, where float64 np.tan is vectorised, it costs less than
np.cos and np.sin together (BENCH_30.json); on a build where only sin and
cos are vectorised the saving is unmeasured.  The phases are rounded as
np.cos and np.sin would round them, and the half-angle formulas add at
most about 2 ulp per term, inside the 1e-14 term of the kernels' error
bounds, which stand as stated.

Hardy's Z(t) = exp(i theta(t)) zeta(1/2 + it) is the real-valued zero
detector.  Each height has one plan key (``_plan_key``): 0 up to
RS_CROSSOVER, where Z comes from the Euler-Maclaurin main sum, and
nu = floor(sqrt(t/2pi)) above it, where it comes from the Riemann-Siegel
main sum over n <= nu.  ``hardy_z_many`` and ``zeta_critical_many`` sum
each run of one key of their sorted heights by ``pointwise_sum``
(``_pointwise``).  Ordinates are located by a sign-change scan of Z on a
linspace grid, whose runs of one key are progressions and so go through
``progression_sum``.  The brackets are the scan's sign changes plus those
of a finer scan of each dip, a sample where |Z| falls and rises again with
no sign change (a close pair the scan stepped over).  All of them are
refined in one pass.  Each bracket whose ends share a key gets a Taylor
expansion of its main sum about its midpoint (O(n K) once, then O(K) per
Illinois step), with one table of n^{-ic} per bracket built from cos and
sin at the primes alone, and its ordinate is the secant estimate from that
expansion's Z.  Brackets across the crossover or a jump of nu, and brackets
too wide for Horner's rule to hold the expansion's rounding to that of
pointwise Z, are refined by Illinois steps on the pointwise backends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.fft import fft

from .arith import BERNOULLI, sieve_build

T_FLOOR = 10.0
TWO_PI = 2.0 * math.pi

# Euler-Maclaurin truncation: N = EM_N_FACTOR * t terms, EM_K tail corrections.
EM_N_FACTOR = 0.6
EM_N_MIN = 24
EM_K = 12
# A pointwise Euler-Maclaurin block spans heights within this ratio.
EM_BLOCK_RATIO = 1.1
# Entries of one block: points x terms of a pointwise sum, or GL rule nodes.
OUTER_BLOCK = 4_000_000

# Heights above which Z and zeta come from the Riemann-Siegel main sum; read
# only by _plan_key, through which Z and pointwise zeta route every height.
RS_CROSSOVER = 1.0e5
# Heights above which Z and zeta are refused: pointwise_sum's phase rounding
# 5 u t log nu sum_{n<=nu} n^(-1/2) (u = 2^-53, nu = floor(sqrt(t/2pi)))
# first exceeds the Riemann-Siegel bound at the crossover,
# (RS_CROSSOVER/2pi)^(-5/4) = 5.6e-6, at t = 1.706e7.
T_CAP = 1.7e7

# Gaussian gridding for progression_sum: spread points per side of a source,
# fine-grid points per output mode, sources per batch (also the heights per
# block of the Euler-Maclaurin boundary terms).  For zeta on the
# T = 2000 and 1e4 quadrature nodes, 10 spread points leave 8e-9 against the
# direct sum, 12 leave 1e-10, and 14 and up reach its rounding level
# (9e-12 and 1.2e-10); 16 keeps a margin.
GRID_MSP = 16
GRID_OVERSAMPLE = 2
GRID_CHUNK = 1 << 14


class DomainError(ValueError):
    """Argument below the asymptotic-series validity floor."""


class ZeroTableError(ValueError):
    """Malformed zero-table file."""


def _check_floor(t: float, name: str = "t") -> None:
    if not T_FLOOR <= t < math.inf:
        raise DomainError(
            f"{name}={t} outside the validity range [{T_FLOOR}, inf)")


def _check_heights(t: np.ndarray) -> None:
    if not np.all(np.abs(t) <= T_CAP):
        raise DomainError(f"heights must be finite, |t| <= T_CAP = {T_CAP:g}")


def _cos_sin(ph: np.ndarray):
    """(cos ph, sin ph) from t = tan(ph/2): with d = 2/(1 + t^2),
    cos ph = d - 1 and sin ph = t d.

    ph/2 is exact, so ph is rounded as by np.cos and np.sin.  No double
    lies within 1e-19 of an odd multiple of pi/2, so |t| < 1e19 and t^2
    does not overflow.  ph is overwritten and becomes the sine, so two
    arrays of the shape of ph are held.
    """
    t = ph
    t *= 0.5
    np.tan(t, out=t)
    d = t * t
    d += 1.0
    np.divide(2.0, d, out=d)
    t *= d
    d -= 1.0
    return d, t


# ---------------------------------------------------------------------------
# Riemann-Siegel theta
# ---------------------------------------------------------------------------

def rs_theta(t: float) -> float:
    """theta(t) = arg Gamma(1/4 + it/2) - (t/2) log pi, asymptotic form.

    Accurate to better than 1e-8 for t >= 10.
    """
    _check_floor(t)
    return _rs_theta_arr(np.asarray([t], dtype=float))[0]


def _rs_theta_arr(t: np.ndarray) -> np.ndarray:
    return (
        t / 2.0 * np.log(t / TWO_PI)
        - t / 2.0
        - math.pi / 8.0
        + 1.0 / (48.0 * t)
        + 7.0 / (5760.0 * t**3)
        + 31.0 / (80640.0 * t**5)
    )


# ---------------------------------------------------------------------------
# Euler-Maclaurin evaluation of zeta(1/2 + it)
# ---------------------------------------------------------------------------

def _em_add_boundary(total: np.ndarray, t: np.ndarray,
                     n_cap: int) -> np.ndarray:
    """Add the Euler-Maclaurin boundary and tail terms at truncation N to the
    main sum sum_{n<N} n^{-s} at heights t (1-D or 2-D, the shape of
    total), in place, and return it.

    The terms N^{-s}/2 + N^{1-s}/(s-1) + sum_{k<=EM_K} beta_k
    s(s+1)...(s+2k-2) N^{1-s-2k}, beta_k = B_{2k}/(2k)!, are
    N^{-1/2} e^{-it log N} F with

        F = 1/2 + N/(s-1) + beta_1 (s/N) [1 + r_2 q_2 (1 + ... r_K q_K)],

    r_k = beta_k / (beta_{k-1} N^2) and q_k = (s+2k-3)(s+2k-2)
    = (a b - t^2) + i (a + b) t, a = 2k - 5/2, b = 2k - 3/2.  F is evaluated
    from the innermost factor outward on real Re/Im arrays, with
    1/(s-1) = (-1/2 - it)/(1/4 + t^2): about 10 real operations per node
    and k, one ``_cos_sin`` per node.  The nodes go in blocks of whole
    rows of at most GRID_CHUNK heights, so the extra memory is a few
    blocks, and each value is elementwise, so no value depends on the
    blocking.
    """
    nf = float(n_cap)
    beta = [BERNOULLI[2 * k] / math.factorial(2 * k) for k in range(EM_K + 1)]
    # (r_k, a_k b_k, a_k + b_k), innermost k = EM_K first
    steps = [(beta[k] / (beta[k - 1] * nf * nf), (2 * k - 2.5) * (2 * k - 1.5),
              4 * k - 4.0) for k in range(EM_K, 1, -1)]
    log_n, b1 = math.log(nf), beta[1] / nf
    tr, out = (t, total) if t.ndim == 2 else (t[:, None], total[:, None])
    rows = max(1, GRID_CHUNK // max(tr.shape[1], 1))
    for lo in range(0, len(tr), rows):
        tb = tr[lo:lo + rows]
        tt = tb * tb
        r, ab, apb = steps[0]
        gr, gi = (ab - tt) * r + 1.0, tb * (apb * r)
        for r, ab, apb in steps[1:]:
            # g <- 1 + r q g
            qr = (ab - tt) * r
            qi = tb * (apb * r)
            x = qr * gr
            x -= qi * gi
            x += 1.0
            gi *= qr
            gi += qi * gr
            gr = x
        # F = 1/2 + N/(s-1) + beta_1 (s/N) g
        d = nf / (tt + 0.25)
        fr = 0.5 * gr
        fr -= tb * gi
        fr *= b1
        fr -= 0.5 * d
        fr += 0.5
        fi = 0.5 * gi
        fi += tb * gr
        fi *= b1
        fi -= tb * d
        # N^{-1/2} e^{-it log N} F
        c, sn = _cos_sin(tb * log_n)
        c *= nf**-0.5
        sn *= nf**-0.5
        blk = out[lo:lo + rows]
        blk.real += c * fr + sn * fi
        blk.imag += c * fi - sn * fr
    return total


def _em_n_cap(t_max: float) -> int:
    """The Euler-Maclaurin truncation N for heights up to t_max."""
    return max(EM_N_MIN, int(EM_N_FACTOR * t_max) + 1)


# ---------------------------------------------------------------------------
# Euler-Maclaurin on arithmetic progressions: type-1 NUFFT main sum
# ---------------------------------------------------------------------------

def _fft_size(n: int) -> int:
    """Smallest 5-smooth integer >= n, a fast length for np.fft: the least
    q 2^k >= n over the q = 3^b 5^c below the power of 2 that covers n, in
    Python ints (n may be a numpy integer)."""
    n = max(int(n), 1)
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        q = p5
        while q < best:
            best = min(best, q << ((n - 1) // q).bit_length())
            q *= 3
        p5 *= 5
    return best


def progression_sum(lam, amp, t0, h: float, P: int) -> np.ndarray:
    """sum_n amp[n] e^{-i (t0[k] + j h) lam[n]} for j < P, as a (P, len(t0))
    array, in O(len(lam) + P log P) per offset.

    With j0 = P//2 and x_n = h lam_n, column k is sum_n c_n e^{-i (j-j0) x_n}
    with c_n = amp[n] e^{-i (t0[k] + j0 h) lam_n}: a type-1 NUFFT in the
    modes j - j0 by Gaussian gridding (Greengard & Lee, SIAM Rev. 46, 2004;
    cf. Odlyzko & Schoenhage, Trans. AMS 309, 1988).  Each source is spread
    onto 2 GRID_MSP points of a periodic fine grid (the pattern is shared by
    all offsets), the grid is transformed by one FFT per offset, and the
    Gaussian is divided out by e^{tau (j - j0)^2}.

    The spreading is fast Gaussian gridding (ibid., sec. 3): with
    c = dx^2/4tau and a source at m0 + f grid points, 0 <= f < 1, the
    weight e^{-(s-f)^2 c} at s = 1 - GRID_MSP .. GRID_MSP is E1 E2^s E3_s,
    E1 = e^{-f^2 c}, E2 = e^{2fc}, E3_s = e^{-s^2 c}.  That is two exps per
    source, powers of E2 by doubling, and 2 GRID_MSP constants per call.
    The weights go to column m0 + s + GRID_MSP - 1 of a grid 2 GRID_MSP
    wider than size, through one real ``bincount`` each for the real and
    imaginary parts, with no index reduced mod size.  After the last batch
    each overhang column e is folded onto point (e - GRID_MSP + 1) mod size,
    a period at a time, so grids narrower than 2 GRID_MSP fold too.

    The factors e^{-i t_c lam_n} of each offset's centre t_c are real
    cos/sin pairs from ``_cos_sin``.

    Error: at most (1e-14 + 5 u Phi) sum|amp|, u = 2^-53, Phi the largest
    |(t0[k] + j h) lam_n|: the gridding (measured 4e-15 for P = 1 to 1e4)
    plus the phase rounding that a direct sum in doubles shares (measured
    0.02-0.1 u Phi on random amplitudes, 4.6e-13 at P = 1e4, Phi = 7.2e4).
    ``_cos_sin``'s 2 ulp per factor sit inside the 1e-14 term, so the bound
    stands as stated.
    """
    if P < 1:
        raise ValueError(f"P must be >= 1, got {P}")
    lam = np.asarray(lam, dtype=float).ravel()
    amp = np.broadcast_to(amp, lam.shape)
    j0 = P // 2
    size = _fft_size(GRID_OVERSAMPLE * P)
    ratio = size / P
    tau = math.pi * GRID_MSP / (P * P * ratio * (ratio - 0.5))
    dx = TWO_PI / size
    c = dx * dx / (4.0 * tau)
    e3 = np.exp(-c * np.arange(1 - GRID_MSP, GRID_MSP + 1) ** 2)
    centre = np.asarray(t0, dtype=float).ravel() + j0 * h
    width = size + 2 * GRID_MSP
    grid = np.zeros((len(centre), width), dtype=complex)
    for lo in range(0, len(lam), GRID_CHUNK):
        x, a = lam[lo:lo + GRID_CHUNK], amp[lo:lo + GRID_CHUNK]
        ar, ai = a.real, a.imag
        u = np.mod(h * x, TWO_PI) / dx         # source positions, grid units
        m0 = np.floor(u)
        f = u - m0
        # w_s = E1 E2^s E3_s in row s + GRID_MSP - 1; once r rows are
        # filled, the next r are the first r times E2^r
        w = np.empty((2 * GRID_MSP, len(x)))
        w[0] = np.exp(-c * f * (f + 2.0 * (GRID_MSP - 1)))
        e2, r = np.exp(2.0 * c * f), 1
        while r < len(w):
            m = min(r, len(w) - r)
            np.multiply(w[:m], e2, out=w[r:r + m])
            e2, r = e2 * e2, r + m
        w *= e3[:, None]
        # extended-grid column m0 + s + GRID_MSP - 1, folded below
        idx = (m0.astype(np.intp) + np.arange(2 * GRID_MSP)[:, None]).ravel()
        for k, tc in enumerate(centre):
            # a e^{-i tc x} = a (cos - i sin)
            vr, vi = _cos_sin(tc * x)
            vr, vi = ar * vr + ai * vi, ai * vr - ar * vi
            row = grid[k]
            row.real += np.bincount(idx, (w * vr).ravel(), width)
            row.imag += np.bincount(idx, (w * vi).ravel(), width)
    # fold the overhang: column e is grid point (e - GRID_MSP + 1) mod size,
    # one period of the grid at a time
    body = grid[:, GRID_MSP - 1:GRID_MSP - 1 + size]
    for lo in range(GRID_MSP - 1 + size, width, size):
        seg = grid[:, lo:lo + size]
        body[:, :seg.shape[1]] += seg
    for hi in range(GRID_MSP - 1, 0, -size):
        seg = grid[:, max(hi - size, 0):hi]
        body[:, size - seg.shape[1]:] += seg
    modes = np.arange(P) - j0
    spec = fft(body, axis=1)[:, modes % size]
    deconv = math.sqrt(math.pi / tau) / size * np.exp(modes * modes * tau)
    return (spec * deconv[None, :]).T


def pointwise_sum(lam, amp, t) -> np.ndarray:
    """sum_n amp[n] e^{-i t[k] lam[n]} at each height t[k], in the shape of
    t: the scattered-height sibling of ``progression_sum``.

    The phases come in blocks of whole rows of at most OUTER_BLOCK entries
    (or one row); their cos and sin, from ``_cos_sin`` in the phases' own
    buffer, are multiplied by Re amp and Im amp and each row is summed by
    itself, so no value depends on the blocking.
    Error: at most (1e-14 + 5 u Phi) sum|amp|, u = 2^-53, Phi the largest
    |t[k] lam[n]|, as for ``progression_sum``: the phase rounding both
    share, plus the rounding of the pairwise row sums; ``_cos_sin``'s
    2 ulp per term sit inside the 1e-14 term, so the bound stands as stated.
    """
    lam = np.asarray(lam, dtype=float).ravel()
    amp = np.broadcast_to(amp, lam.shape)
    ar = np.real(amp)
    ai = np.imag(amp) if np.iscomplexobj(amp) else None
    t = np.asarray(t, dtype=float)
    flat = t.ravel()
    out = np.empty(flat.size, dtype=complex)
    rows = max(1, OUTER_BLOCK // max(len(lam), 1))
    for lo in range(0, flat.size, rows):
        blk = slice(lo, lo + rows)
        c, s = _cos_sin(np.outer(flat[blk], lam))
        out.real[blk] = (c * ar).sum(axis=1)
        out.imag[blk] = -(s * ar).sum(axis=1)
        if ai is not None:
            out.real[blk] += (s * ai).sum(axis=1)
            out.imag[blk] += (c * ai).sum(axis=1)
        del c, s    # before the next block's phases and cosines are formed
    return out.reshape(t.shape)


# ---------------------------------------------------------------------------
# Riemann-Siegel Z and the pointwise evaluators
# ---------------------------------------------------------------------------

# Psi(1/2 + x) = -cos(2 pi (x^2 - 5/16)) / cos(2 pi x) in x^0, x^2, ..., x^48,
# from mpmath.taylor at 50 digits, rounded to double.  Psi is entire (each
# zero of the denominator is one of the numerator), so on |x| <= 1/2 the first
# term left out is 1e-24 in Psi and 1e-18 in Psi'''.
_RS_PSI_TAYLOR = np.array([
    0.3826834323650898, 1.7489618723100817, 2.118025207685496,
    -0.8707216670511481, -3.4733112243465167, -1.6626947308999325,
    1.216731288919232, 1.3014304161007977, 0.03051102182736167,
    -0.3755803051545095, -0.1085784416564066, 0.051832902999549624,
    0.029999480619902277, -0.0022759396706125644, -0.004382647416580339,
    -0.0004064230183729847, 0.0004006097785422114, 8.971057991388841e-05,
    -2.3025650027239108e-05, -9.380006601906792e-06, 6.323514947609108e-07,
    6.551022819231502e-07, 2.210523745552697e-08, -3.322316176445629e-08,
    -3.734910989933656e-09,
])
# C1(1/2 + x) / x = -Psi'''(1/2 + x) / (96 pi^2 x) in x^0, x^2, ..., x^44
_RS_C1_TAYLOR = np.array([
    -c * (2 * k) * (2 * k - 1) * (2 * k - 2) / (96.0 * math.pi**2)
    for k, c in enumerate(_RS_PSI_TAYLOR) if k >= 2])


def _rs_coefficients(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C0(p) = Psi(p) and C1(p) = -Psi'''(p) / (96 pi^2), by Horner's rule
    in (p - 1/2)^2: one path for every p in [0, 1), 1/4 and 3/4 included."""
    x = p - 0.5
    x2 = x * x
    P = np.polynomial.polynomial
    return P.polyval(x2, _RS_PSI_TAYLOR), x * P.polyval(x2, _RS_C1_TAYLOR)


def _rs_correction(t: np.ndarray) -> np.ndarray:
    """The Riemann-Siegel remainder of Z(t) after the main sum, to first
    order: (-1)^(nu-1) a^(-1/2) (C0(p) + C1(p)/a), a = sqrt(t/2pi),
    nu = floor(a), p = a - nu, with C0 and C1 from one Taylor table of Psi,
    ``_RS_PSI_TAYLOR`` (Edwards, Riemann's Zeta Function, 7.4)."""
    a = np.sqrt(t / TWO_PI)
    nu = np.floor(a).astype(int)
    c0, c1 = _rs_coefficients(a - nu)
    return np.where(nu % 2 == 1, 1.0, -1.0) * a**-0.5 * (c0 + c1 / a)


def _plan_key(t: np.ndarray) -> np.ndarray:
    """The main sum that serves Z at each height: 0 up to RS_CROSSOVER
    (Euler-Maclaurin), nu = floor(sqrt(t/2pi)) above it (Riemann-Siegel)."""
    t = np.asarray(t, dtype=float)
    return np.where(t <= RS_CROSSOVER, 0,
                    np.floor(np.sqrt(t / TWO_PI)).astype(int))


def _runs(key: np.ndarray):
    """The (start, end) of each run of equal entries of key, in order."""
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    return zip(starts, np.append(starts[1:], len(key)))


def _z_from_sum(s: np.ndarray, t: np.ndarray, n_cap: int) -> np.ndarray:
    """Z(t) from the main sum s at heights t: the Euler-Maclaurin sum over
    n < n_cap plus its boundary terms (added to s in place), or for
    n_cap = 0 the Riemann-Siegel sum over n <= nu, doubled, plus its
    correction."""
    c, sn = _cos_sin(_rs_theta_arr(t))
    if n_cap:
        s = _em_add_boundary(s, t, n_cap)
    z = c * s.real - sn * s.imag
    return z if n_cap else 2.0 * z + _rs_correction(t)


def _pointwise(t: np.ndarray, as_zeta: bool) -> np.ndarray:
    """Z(t), or zeta(1/2 + it) if as_zeta, at heights t >= 0 of any shape.

    The sorted heights split into runs of one ``_plan_key``.  A
    Riemann-Siegel run is one ``pointwise_sum`` over n <= nu, so a value
    depends on its height alone.  The Euler-Maclaurin run goes in blocks
    from the lowest height t_lo up to EM_BLOCK_RATIO max(t_lo,
    EM_N_MIN/EM_N_FACTOR), each one ``pointwise_sum`` over n < N at the
    truncation N of its top height, so a point does at most about
    EM_BLOCK_RATIO times its own work.  Z comes from ``_z_from_sum``; zeta
    is the Euler-Maclaurin sum plus its boundary terms, or e^{-i theta} Z.
    """
    flat = np.ravel(t)
    order = np.argsort(flat)
    ts = flat[order]
    key = _plan_key(ts)
    out = np.empty(len(ts), dtype=complex if as_zeta else float)
    for lo, end in _runs(key):
        while lo < end:
            hi, n_cap = end, 0
            if not key[lo]:
                top = EM_BLOCK_RATIO * max(ts[lo], EM_N_MIN / EM_N_FACTOR)
                hi = min(end, int(np.searchsorted(ts, top, side="right")))
                n_cap = _em_n_cap(ts[hi - 1])
            ns = np.arange(1, n_cap or key[lo] + 1, dtype=float)
            blk = ts[lo:hi]
            s = pointwise_sum(np.log(ns), ns ** -0.5, blk)
            if as_zeta and n_cap:
                out[order[lo:hi]] = _em_add_boundary(s, blk, n_cap)
            elif as_zeta:
                z = _z_from_sum(s, blk, 0)
                c, sn = _cos_sin(_rs_theta_arr(blk))
                out.real[order[lo:hi]] = c * z
                out.imag[order[lo:hi]] = -sn * z
            else:
                out[order[lo:hi]] = _z_from_sum(s, blk, n_cap)
            lo = hi
    return out.reshape(np.shape(t))


def hardy_z_many(t: np.ndarray) -> np.ndarray:
    """Z(t) for an array of heights in [10, T_CAP], choosing the backend per
    height (above T_CAP phase rounding outgrows the crossover's error)."""
    t = np.asarray(t, dtype=float)
    _check_heights(t)
    if np.any(t < T_FLOOR):
        raise DomainError("all heights must be >= 10")
    return _pointwise(t, False)


def hardy_z(t: float) -> float:
    """Hardy's Z(t); real, with |Z(t)| = |zeta(1/2+it)|."""
    _check_floor(t)
    return float(hardy_z_many(np.asarray([t]))[0])


def zeta_critical_many(t: np.ndarray) -> np.ndarray:
    """zeta(1/2 + it) for an array of real heights, |t| <= T_CAP (negative
    heights via the reflection zeta(1/2 - it) = conj(zeta(1/2 + it)))."""
    t = np.asarray(t, dtype=float)
    _check_heights(t)
    out = _pointwise(np.abs(t), True)
    neg = t < 0
    out[neg] = np.conj(out[neg])
    return out


def zeta_critical(t: float) -> complex:
    """zeta(1/2 + it), Euler-Maclaurin below the crossover height and
    Riemann-Siegel (exp(-i theta) Z) above it."""
    return complex(zeta_critical_many(np.asarray([t]))[0])


def zeta_on_grid(t0, h: float, P: int) -> np.ndarray:
    """zeta(1/2 + i(t0[k] + j h)) for j < P, as a (P, len(t0)) array.

    Euler-Maclaurin with one truncation N = max(EM_N_MIN,
    floor(EM_N_FACTOR max|t|) + 1) for the whole family, at every height
    (no Riemann-Siegel switch; any sign, since s - 1 != 0 on the critical
    line).  The main sum goes through ``progression_sum`` with lam = log n
    and amp = n^{-1/2}, the boundary and tail terms are added pointwise by
    ``_em_add_boundary``: O(N + P log P) per offset instead of O(N P).
    Agrees with the pointwise direct sum to about 1e-11 at T = 2000.
    """
    t0 = np.asarray(t0, dtype=float).ravel()
    _check_heights(np.append(t0, h))
    ts = t0[None, :] + h * np.arange(P)[:, None]
    _check_heights(ts)
    n_cap = _em_n_cap(np.max(np.abs(ts), initial=0.0))
    n = np.arange(1, n_cap, dtype=float)
    main = progression_sum(np.log(n), n ** -0.5, t0, float(h), P)
    return _em_add_boundary(main, ts, n_cap)


# ---------------------------------------------------------------------------
# zero counting and location
# ---------------------------------------------------------------------------

def count_zeros_rvm(T: float) -> float:
    """Riemann-von Mangoldt smooth main term for N(T)."""
    _check_floor(T, "T")
    x = T / TWO_PI
    return x * math.log(x) - x + 7.0 / 8.0


@dataclass(frozen=True, eq=False)
class ZeroTable:
    """Sorted zero ordinates over a height range.

    ``claimed_complete`` is set only when the count over the height range
    agrees with the Riemann-von Mangoldt estimate within its error envelope.
    """

    ordinates: np.ndarray
    height_range: tuple[float, float]
    claimed_complete: bool
    diagnostics: tuple[str, ...] = field(default=())

    def __post_init__(self):
        o = np.asarray(self.ordinates, dtype=float)
        if len(o) > 1 and not np.all(np.diff(o) > 0):
            raise ZeroTableError("ordinates must be strictly increasing")
        t0, t1 = self.height_range
        if len(o) and (o[0] < t0 or o[-1] > t1):
            raise ZeroTableError("ordinates outside declared height range")
        object.__setattr__(self, "ordinates", o)

    def __len__(self) -> int:
        return len(self.ordinates)


# RVM fluctuation envelope used for the completeness verdict; |S(t)| stays
# well below this for all heights the library supports.
RVM_ENVELOPE = 1.5


def _rvm_estimate(t0: float, t1: float) -> float:
    """N(t1) - N(t0) by ``count_zeros_rvm``, the heights clipped at
    T_FLOOR (there are no zeros below it)."""
    return count_zeros_rvm(max(t1, T_FLOOR)) \
        - count_zeros_rvm(max(t0, T_FLOOR))


def _rvm_check(ordinates: np.ndarray, t0: float, t1: float):
    """(complete, diagnostics) of the zeros ``ordinates`` in (t0, t1]:
    complete iff their count is within RVM_ENVELOPE of ``_rvm_estimate``;
    else the count and the estimate, after the gaps wider than 2.5x the
    mean if the count is short."""
    t0, t1 = max(t0, T_FLOOR), max(t1, T_FLOOR)
    n = len(ordinates)
    expected = _rvm_estimate(t0, t1)
    if abs(n - expected) <= RVM_ENVELOPE:
        return True, ()
    diagnostics = []
    if n < expected - RVM_ENVELOPE:
        edges = np.concatenate(([t0], ordinates, [t1]))
        mean_gap = (t1 - t0) / max(n, 1)
        diagnostics = [f"suspect gap [{edges[i]:.6f}, {edges[i + 1]:.6f}]"
                       for i in np.flatnonzero(np.diff(edges) > 2.5 * mean_gap)]
    diagnostics.append(f"count {n} vs RVM estimate {expected:.2f}")
    return False, tuple(diagnostics)


# Width of the final sign-change brackets of the zero finder.
ZERO_TOL = 1e-10


def _taylor_order(x) -> np.ndarray:
    """The least K with x^(K+1)/(K+1)! <= 2^-53, elementwise, so that
    |e^{iy} - sum_{k<=K} (iy)^k/k!| <= |y|^(K+1)/(K+1)! is at most 2^-53
    for every phase |y| <= x.  The term is formed by recurrence, so it
    stays below e^x and is finite for every x < 700."""
    x = np.asarray(x, dtype=float)
    K = np.zeros(x.shape, dtype=int)
    term = x.copy()                   # x^(K+1)/(K+1)!
    while (big := term > 2.0 ** -53).any():
        K += big
        term[big] *= x[big] / (K[big] + 1)
    return K


def _sum_moments(centre: np.ndarray, top: int, K: int) -> np.ndarray:
    """m_k(c) = sum_{n<=top} n^{-1/2} (log n)^k/k! n^{-ic} for k <= K at each
    centre c, as a (len(centre), K + 1) complex array.

    The table n^{-ic} is laid out (top, centres), its rows ordered by
    Omega(n), the number of prime factors with multiplicity.  cos and sin
    (``_cos_sin``) are taken at the primes p <= top only; the row of each
    composite n is the product of the rows of spf(n) and n/spf(n), one
    lower level, so each level is one vectorised complex product (spf from
    an uncached ``sieve_build``: ``sieve_upto`` would evict its caller's
    sieve).  The centres go in blocks of at most GRID_CHUNK table entries,
    one buffer reused, so the table stays in cache.  The moments are then
    one real product per centre, the (K + 1, top) weights times its
    (top, 2) row of Re and Im, batched by ``np.matmul`` but each of the
    same shape, so no centre's moments depend on the others in the call.
    """
    spf = sieve_build(max(top, 2)).spf[:top + 1]
    n = np.arange(1, top + 1)
    omega, m = np.zeros(top, dtype=int), n.copy()
    while (more := m > 1).any():
        omega += more
        m[more] //= spf[m[more]]
    ns = n[np.argsort(omega, kind="stable")]
    row = np.empty(top + 1, dtype=np.intp)
    row[ns] = np.arange(top)
    level = np.searchsorted(omega[ns - 1], np.arange(omega.max() + 2))
    factor, cofactor = row[spf[ns]], row[ns // spf[ns]]
    logn = np.log(ns.astype(float))
    w = np.empty((K + 1, top))
    w[0] = ns ** -0.5
    for k in range(1, K + 1):
        w[k] = w[k - 1] * logn / k
    out = np.empty((len(centre), K + 1), dtype=complex)
    cols = max(1, GRID_CHUNK // top)
    buf = np.empty((top, min(cols, len(centre))), dtype=complex)
    buf[0] = 1.0
    for lo in range(0, len(centre), cols):
        c = centre[lo:lo + cols]
        table = buf[:, :len(c)]
        p = slice(level[1], level[2])
        cs, sn = _cos_sin(np.outer(logn[p], c))
        table[p].real = cs
        table[p].imag = -sn
        for s, e in zip(level[2:-1], level[3:]):
            np.multiply(table[factor[s:e]], table[cofactor[s:e]],
                        out=table[s:e])
        rows = table.T.copy().view(float).reshape(len(c), top, 2)
        out[lo:lo + len(c)] = np.matmul(w, rows).view(complex)[..., 0]
    return out


@dataclass(frozen=True, eq=False)
class _BracketTaylor:
    """Z(t) on refinement brackets [lo, hi] whose ends share a
    ``_plan_key``, from the Taylor expansion in t of each bracket's main
    sum S about its midpoint c (Odlyzko & Schoenhage, Trans. AMS 309, 1988):

        S(c + d) = sum_{k<=K} m_k (-i d)^k,   Z = _z_from_sum(S, c + d, N),

    m_k from ``_sum_moments``.  A bracket of key 0 sums n < n_cap, one
    Euler-Maclaurin truncation for the call (the scan's rule, from its
    highest end), and takes the Euler-Maclaurin boundary terms; a bracket
    above the crossover sums n <= nu and takes the Riemann-Siegel
    correction.  K is the ``_taylor_order`` of the widest half-width times
    the log of the largest n, so the main sum's truncation is at most
    2^-53 sum n^{-1/2}; the error against ``hardy_z_many`` is the phase
    rounding both carry (c log n here, t log n there) plus Horner's
    rounding, which ``_refine_scan`` keeps below it.  O(K) per height after
    O(n K) per bracket, against O(n) cosines per height pointwise.  A
    height maps to the bracket with the largest lo <= t, and its value
    depends only on that bracket, n_cap and K.
    """

    lo: np.ndarray        # ascending
    centre: np.ndarray
    moments: np.ndarray   # (brackets, K + 1)
    n_cap: int

    @classmethod
    def build(cls, lo: np.ndarray, hi: np.ndarray,
              n_cap: int) -> "_BracketTaylor":
        order = np.argsort(lo)
        lo, hi = lo[order], hi[order]
        centre = 0.5 * (lo + hi)
        key = _plan_key(lo)
        top = np.where(key == 0, n_cap - 1, key)     # last n of each sum
        K = int(_taylor_order(0.5 * np.max(hi - lo) * math.log(top.max())))
        # lo ascends, so each key is one run
        moments = np.concatenate([_sum_moments(centre[a:b], int(top[a]), K)
                                  for a, b in _runs(key)])
        return cls(lo, centre, moments, n_cap)

    def __call__(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        j = np.searchsorted(self.lo, t, side="right") - 1
        x = -1j * (t - self.centre[j])
        m = self.moments[j]
        s = m[:, -1]
        for k in range(m.shape[1] - 2, -1, -1):
            s = s * x + m[:, k]
        em = _plan_key(t) == 0
        z = np.empty(t.shape)
        z[em] = _z_from_sum(s[em], t[em], self.n_cap)
        z[~em] = _z_from_sum(s[~em], t[~em], 0)
        return z


def _refine_zeros(lo: np.ndarray, hi: np.ndarray, zlo: np.ndarray,
                  zhi: np.ndarray, z=None) -> np.ndarray:
    """Lockstep Illinois steps (Dowell & Jarratt, BIT 11, 1971) on the
    sign-change brackets [lo, hi] of Z, with Z = zlo, zhi at the ends.

    Z is evaluated by ``z``, by default the module's ``hardy_z_many`` as bound
    at call time.  Each round puts one new point in every open bracket: the
    regula falsi point of the end values, where an end kept a second time in a
    row has its value halved.  Brent's minimum step keeps the point at least
    max(0.4 ZERO_TOL, one ulp) inside the bracket, so an estimate that has
    converged steps across the zero and closes the bracket; a point that is
    still not strictly inside falls back to the midpoint.  All open brackets
    share one call of ``z`` per round.  A bracket is done once it is no wider
    than ZERO_TOL or its midpoint rounds onto an end: above 2^19 the float
    spacing exceeds 1e-10, so a one-ulp bracket can be wider than ZERO_TOL and
    never shrink.  Returns the secant estimate from the values of ``z`` at the
    final ends, clipped to the bracket.
    """
    z = hardy_z_many if z is None else z
    a, b = lo.astype(float), hi.astype(float)
    za, zb = zlo.astype(float), zhi.astype(float)    # Z at the ends
    fa, fb = za.copy(), zb.copy()                    # Illinois-weighted
    moved = np.zeros(len(a), dtype=np.int8)          # end moved last: +1 a, -1 b
    while True:
        mid = 0.5 * (a + b)
        k = np.nonzero((b - a > ZERO_TOL) & (a < mid) & (mid < b))[0]
        if len(k) == 0:
            break
        ak, bk = a[k], b[k]
        c = ak + fa[k] / (fa[k] - fb[k]) * (bk - ak)
        d = np.maximum(0.4 * ZERO_TOL, np.spacing(bk))
        c = np.clip(c, ak + d, bk - d)
        c = np.where((ak < c) & (c < bk), c, mid[k])
        zc = z(c)
        to_a = np.sign(zc) == np.sign(za[k])
        ia, ib = k[to_a], k[~to_a]
        # Illinois: an end that stays put a second time has its value halved
        fb[ia[moved[ia] == 1]] *= 0.5
        fa[ib[moved[ib] == -1]] *= 0.5
        moved[ia], moved[ib] = 1, -1
        a[ia], za[ia], fa[ia] = c[to_a], zc[to_a], zc[to_a]
        b[ib], zb[ib], fb[ib] = c[~to_a], zc[~to_a], zc[~to_a]
        # an exact zero closes its bracket at c
        hit = zc == 0.0
        a[k[hit]], za[k[hit]] = c[hit], 0.0
    # an exact zero leaves a = b and za = zb = 0
    dz = np.where(za != zb, za - zb, 1.0)
    return np.clip(a + za / dz * (b - a), a, b)


def _z_on_scan_grid(t0: float, t1: float, step: float):
    """The scan grid linspace(t0, t1, n), spacing h <= step, and Z on it.

    The grid splits into runs of one ``_plan_key``, each the progression
    grid[lo] + j h, h = (t1 - t0)/(n - 1), and a run's main sum goes through
    ``progression_sum`` with lam = log n and amp = n^{-1/2}: over n < N up
    to RS_CROSSOVER, N the Euler-Maclaurin truncation of the run's top
    height, and over n <= nu above it.  Z then comes from ``_z_from_sum``,
    with the Euler-Maclaurin boundary terms or the Riemann-Siegel C0/C1
    correction added pointwise.
    """
    n = max(2, int(math.ceil((t1 - t0) / step)) + 1)
    grid, h = np.linspace(t0, t1, n), (t1 - t0) / (n - 1)
    key = _plan_key(grid)
    z = np.empty(n)
    for lo, hi in _runs(key):
        n_cap = 0 if key[lo] else _em_n_cap(grid[hi - 1])
        ns = np.arange(1, n_cap or key[lo] + 1, dtype=float)
        main = progression_sum(np.log(ns), ns**-0.5, [grid[lo]], h, hi - lo)
        z[lo:hi] = _z_from_sum(main[:, 0], grid[lo:hi], n_cap)
    return grid, z


def _sign_changes(grid: np.ndarray, z: np.ndarray):
    """The brackets (lo, hi, zlo, zhi) of the sign changes of z on grid."""
    i = np.nonzero(np.sign(z[:-1]) * np.sign(z[1:]) < 0)[0]
    return grid[i], grid[i + 1], z[i], z[i + 1]


def _refine_scan(brackets) -> np.ndarray:
    """Ordinates in the brackets (lo, hi, zlo, zhi) of Z.

    * Ends of one ``_plan_key``: lockstep Illinois on the ``_BracketTaylor``
      expansions of these brackets, the Euler-Maclaurin ones at the
      truncation N of the highest Euler-Maclaurin end.  The ordinate is
      the secant estimate from that evaluator's Z, of opposite signs, at
      the ends of a bracket no wider than ZERO_TOL (or one ulp).
    * Brackets across the crossover or a jump of nu, and brackets whose
      Horner rounding, about (2K + 2) u e^{r log n} sum n^{-1/2} at
      half-width r, K = ``_taylor_order(r log n)`` and n the last term of
      the main sum, exceeds the phase rounding 5 u t log n sum n^{-1/2}
      that pointwise Z carries: pointwise Illinois steps.  Default scans
      have r log n <= 0.25.
    """
    lo, hi, zlo, zhi = brackets
    key = _plan_key(lo)
    same = key == _plan_key(hi)
    n_cap = _em_n_cap(np.max(hi[same & (key == 0)], initial=0.0))
    log_n = np.log(np.where(key == 0, n_cap - 1, key))
    x, phase = 0.5 * (hi - lo) * log_n, 5.0 * lo * log_n
    on = same & (x <= np.log(0.5 * phase))
    on[on] = (2 * _taylor_order(x[on]) + 2) * np.exp(x[on]) <= phase[on]
    roots = np.empty(len(lo))
    if on.any():
        z = _BracketTaylor.build(lo[on], hi[on], n_cap)
        roots[on] = _refine_zeros(lo[on], hi[on], zlo[on], zhi[on], z=z)
    off = ~on
    roots[off] = _refine_zeros(lo[off], hi[off], zlo[off], zhi[off])
    return roots


def _dip_gaps(grid: np.ndarray, z: np.ndarray) -> list:
    """The grid steps (a, b) beside each dip of z: a sample whose |z| is
    below that of both neighbours, all three of one sign.  An end sample is
    a dip when |z| rises from it into the window.  No step beside a dip
    holds a sign change of z."""
    same = np.sign(z[1:]) == np.sign(z[:-1])
    d = np.diff(np.abs(z))
    dip = np.append(True, same & (d < 0)) & np.append(same & (d > 0), True)
    i = np.flatnonzero(dip)
    return list(zip(grid[np.maximum(i - 1, 0)],
                    grid[np.minimum(i + 1, len(grid) - 1)]))


def _rescan(gaps, step: float) -> list:
    """The sign-change brackets on a scan of spacing <= step of each gap."""
    return [_sign_changes(*_z_on_scan_grid(a, b, step)) for a, b in gaps]


def find_zeros(t0: float, t1: float, scan_step: float | None = None) -> ZeroTable:
    """All critical-line ordinates in [t0, t1] by sign-change scanning.

    Scans Z on a grid of step <= 0.5/log(t1) (``_z_on_scan_grid``).  The
    brackets are the scan's sign changes plus those a scan at step/8
    (``_rescan``) finds in the grid steps beside each dip (``_dip_gaps``),
    where |Z| falls and rises again with no sign change, as over a close
    pair the scan stepped over.  All of them go through one
    ``_refine_scan``.  Each ordinate is the secant estimate from Z of
    opposite signs at the ends of a bracket no wider than ZERO_TOL = 1e-10
    (or one ulp).  On both sides of the crossover that Z is the
    ``_BracketTaylor`` expansion of the bracket's main sum, within the
    phase rounding of pointwise Z; brackets across the crossover or a jump
    of nu, and brackets too wide for the expansion, use pointwise Z.

    ``_rvm_check`` then decides ``claimed_complete`` and the diagnostics.
    """
    if not (T_FLOOR <= t0 < t1 <= T_CAP):
        raise DomainError(
            f"need {T_FLOOR} <= t0 < t1 <= {T_CAP:g}, got ({t0}, {t1})")
    step = scan_step if scan_step is not None else 0.5 / math.log(t1)
    if not 0.0 < step < math.inf:
        raise ValueError(f"scan_step must be positive and finite, got {step}")
    grid, z = _z_on_scan_grid(t0, t1, step)
    found = _rescan(_dip_gaps(grid, z), step / 8.0)
    brackets = tuple(np.concatenate(x)
                     for x in zip(_sign_changes(grid, z), *found))
    zeros = np.sort(_refine_scan(brackets))
    complete, diagnostics = _rvm_check(zeros, t0, t1)
    return ZeroTable(
        ordinates=zeros,
        height_range=(t0, t1),
        claimed_complete=complete,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# zero-table files: UTF-8 text, one ascending decimal ordinate per line
# ---------------------------------------------------------------------------

def import_zero_table(path, t_min: float, t_max: float) -> ZeroTable:
    """Parse a one-ordinate-per-line text file, filtered to [t_min, t_max]
    (ZeroTableError unless t_min <= t_max; t_max = inf selects all above).
    A line that is not a finite number, or not above the line before it, is
    a ZeroTableError naming path:line.  Completeness is ``_rvm_check``'s; an
    empty or unbounded selection is never complete."""
    if not t_min <= t_max:
        raise ZeroTableError(f"need t_min <= t_max, got [{t_min}, {t_max}]")
    ordinates: list[float] = []
    prev = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                val = float(line)
            except ValueError as exc:
                raise ZeroTableError(f"{path}:{lineno}: not a number: {line!r}") from exc
            if not math.isfinite(val):
                raise ZeroTableError(f"{path}:{lineno}: not finite: {line!r}")
            if prev is not None and val <= prev:
                raise ZeroTableError(
                    f"{path}:{lineno}: ordinate {val} not above previous {prev}"
                )
            prev = val
            if t_min <= val <= t_max:
                ordinates.append(val)
    arr = np.asarray(ordinates, dtype=float)
    complete, diagnostics = False, ()
    if not len(arr):
        diagnostics = ("empty selection",)
    elif t_max < math.inf:
        # an unbounded selection is never complete
        complete, diagnostics = _rvm_check(arr, t_min, t_max)
    return ZeroTable(
        ordinates=arr,
        height_range=(t_min, t_max),
        claimed_complete=complete,
        diagnostics=diagnostics,
    )


def write_zero_table(table: ZeroTable, path) -> None:
    """Persist in the same one-ordinate-per-line format import expects."""
    text = "".join(f"{g:.9f}\n" for g in table.ordinates.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
