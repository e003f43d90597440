"""Critical-line zeta evaluation and zero location.

Two pointwise evaluation backends:

* Euler-Maclaurin (``em``): O(t) work per point, accurate to ~1e-10 for
  10 <= t <= 1e5.  Default for all heights used by the acceptance runs.
* Riemann-Siegel (``rs``): main sum plus first correction term, O(sqrt(t))
  work, error ~ (t/2pi)^(-5/4).  Used for fast scanning at large heights.

and one grid path, ``zeta_on_grid(t0, h, P)``, for families of arithmetic
progressions t0[k] + j h, j < P, such as the nodes of a composite quadrature
rule: Euler-Maclaurin with one truncation N for the whole family, whose main
sum goes through ``progression_sum``.  That is the package's one kernel for
sums sum_n a_n e^{-i(t0 + j h) lam_n} along a progression (also the
mollifier, F(alpha, T) and the Plancherel sum), a type-1 non-uniform FFT:
O(N + P log P) per offset instead of the pointwise O(N P).

Hardy's Z(t) = exp(i theta(t)) zeta(1/2 + it) is the real-valued zero
detector.  Ordinates are located by a sign-change scan of Z on a linspace
grid, which is one progression and so goes through ``zeta_on_grid`` below
the crossover, and lockstep Illinois refinement of the brackets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.fft import fft

from .arith import BERNOULLI

T_FLOOR = 10.0
TWO_PI = 2.0 * math.pi

# Euler-Maclaurin truncation: N = EM_N_FACTOR * t terms, EM_K tail corrections.
EM_N_FACTOR = 0.6
EM_N_MIN = 24
EM_K = 12

# Heights above which hardy_z_many switches to the Riemann-Siegel backend.
RS_CROSSOVER = 1.0e5

# Gaussian gridding for progression_sum: spread points per side of a source,
# fine-grid points per output mode, sources per batch.  For zeta on the
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


def _check_floor(t: float) -> None:
    if t < T_FLOOR:
        raise DomainError(f"t={t} below validity floor {T_FLOOR}")


def _check_finite(t: np.ndarray) -> None:
    if not np.all(np.isfinite(t)):
        raise DomainError("heights must be finite")


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

def _zeta_em_block(t: np.ndarray, n_cap: int) -> np.ndarray:
    """zeta(1/2 + it) for an array of heights sharing one truncation N."""
    ns = np.arange(1, n_cap, dtype=float)
    logn = np.log(ns)
    amp = ns**-0.5
    total = np.zeros(t.shape, dtype=complex)
    # chunk over n to bound the outer-product size
    step = max(1, int(4e6 // max(len(t), 1)))
    for lo in range(0, len(ns), step):
        hi = lo + step
        total += (amp[lo:hi][None, :] *
                  np.exp(-1j * np.outer(t, logn[lo:hi]))).sum(axis=1)
    return _em_add_boundary(total, t, n_cap)


def _em_add_boundary(total: np.ndarray, t: np.ndarray,
                     n_cap: int) -> np.ndarray:
    """Add the Euler-Maclaurin boundary and tail terms at truncation N to the
    main sum sum_{n<N} n^{-s}, in place, and return it."""
    s = 0.5 + 1j * t
    nf = float(n_cap)
    n_ms = nf**-0.5 * np.exp(-1j * t * math.log(nf))  # N^{-s}
    total += 0.5 * n_ms
    total += nf * n_ms / (s - 1.0)
    # tail corrections: B_{2k}/(2k)! * s(s+1)...(s+2k-2) * N^{1-s-2k}
    poch = np.ones_like(total)
    fact = 1.0
    for k in range(1, EM_K + 1):
        if k == 1:
            poch = poch * s
        else:
            poch = poch * (s + (2 * k - 3)) * (s + (2 * k - 2)) / (nf * nf)
        fact *= (2 * k) * (2 * k - 1)
        total += (BERNOULLI[2 * k] / fact) * poch * n_ms / nf
    return total


def _zeta_em(t: np.ndarray) -> np.ndarray:
    """Vectorized Euler-Maclaurin zeta(1/2+it); groups heights by truncation."""
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape, dtype=complex)
    order = np.argsort(t)
    ts = t[order]
    lo = 0
    while lo < len(ts):
        n_cap = max(EM_N_MIN, int(EM_N_FACTOR * ts[lo]) + 1)
        # all heights that this truncation still covers (N >= factor*t)
        hi = int(np.searchsorted(ts, n_cap / EM_N_FACTOR, side="right"))
        hi = max(hi, lo + 1)
        block = ts[lo:hi]
        n_blk = max(EM_N_MIN, int(EM_N_FACTOR * block[-1]) + 1)
        for clo in range(lo, hi, 256):
            chunk = ts[clo:min(clo + 256, hi)]
            out[order[clo:clo + len(chunk)]] = _zeta_em_block(chunk, n_blk)
        lo = hi
    return out


# ---------------------------------------------------------------------------
# Euler-Maclaurin on arithmetic progressions: type-1 NUFFT main sum
# ---------------------------------------------------------------------------

def _fft_size(n: int) -> int:
    """Smallest 5-smooth integer >= n, a fast length for np.fft."""
    m = n
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


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

    Error: at most (1e-14 + 5 u Phi) sum|amp|, u = 2^-53, Phi the largest
    |(t0[k] + j h) lam_n|: the gridding (measured 4e-15 for P = 1 to 1e4)
    plus the phase rounding that a direct sum in doubles shares (measured
    0.02-0.1 u Phi on random amplitudes, 4.6e-13 at P = 1e4, Phi = 7.2e4).
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
    spread = np.arange(-GRID_MSP + 1, GRID_MSP + 1)
    centre = np.asarray(t0, dtype=float).ravel() + j0 * h
    grid = np.zeros((len(centre), size), dtype=complex)
    for lo in range(0, len(lam), GRID_CHUNK):
        x, a = lam[lo:lo + GRID_CHUNK], amp[lo:lo + GRID_CHUNK]
        u = np.mod(h * x, TWO_PI) / dx         # source positions, grid units
        m0 = np.floor(u)
        w = np.exp(-((spread[None, :] - (u - m0)[:, None]) * dx) ** 2
                   / (4.0 * tau)).ravel()
        idx = ((m0.astype(np.int64)[:, None] + spread[None, :]) % size).ravel()
        for k, tc in enumerate(centre):
            cw = np.repeat(a * np.exp(-1j * tc * x), 2 * GRID_MSP) * w
            grid[k] += np.bincount(idx, cw.real, size)
            grid[k] += 1j * np.bincount(idx, cw.imag, size)
    modes = np.arange(P) - j0
    spec = fft(grid, axis=1)[:, modes % size]
    deconv = math.sqrt(math.pi / tau) / size * np.exp(modes * modes * tau)
    return (spec * deconv[None, :]).T


# ---------------------------------------------------------------------------
# Riemann-Siegel Z
# ---------------------------------------------------------------------------

def _rs_psi(p: np.ndarray) -> np.ndarray:
    """Psi(p) = cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p), singularities guarded."""
    c = np.cos(TWO_PI * p)
    # removable singularities at p = 1/4, 3/4: nudge off the node
    bad = np.abs(c) < 1e-8
    p = np.where(bad, p + 1e-6, p)
    c = np.where(bad, np.cos(TWO_PI * p), c)
    return np.cos(TWO_PI * (p * p - p - 0.0625)) / c


def _rs_psi3(p: np.ndarray) -> np.ndarray:
    """Third derivative of Psi by central differences (h^4 stencil)."""
    h = 0.01
    return (
        -_rs_psi(p - 3 * h) + 8 * _rs_psi(p - 2 * h) - 13 * _rs_psi(p - h)
        + 13 * _rs_psi(p + h) - 8 * _rs_psi(p + 2 * h) + _rs_psi(p + 3 * h)
    ) / (8 * h**3)


def _z_rs(t: np.ndarray) -> np.ndarray:
    """Riemann-Siegel Z(t): main sum plus first correction term."""
    t = np.asarray(t, dtype=float)
    a = np.sqrt(t / TWO_PI)
    nu = np.floor(a).astype(int)
    p = a - nu
    theta = _rs_theta_arr(t)
    out = np.zeros(t.shape, dtype=float)
    nmax = int(nu.max())
    ns = np.arange(1, nmax + 1, dtype=float)
    logn = np.log(ns)
    amp = ns**-0.5
    phases = np.cos(theta[:, None] - np.outer(t, logn)) * amp[None, :]
    mask = ns[None, :] <= nu[:, None]
    out = 2.0 * (phases * mask).sum(axis=1)
    c0 = _rs_psi(p)
    c1 = -_rs_psi3(p) / (96.0 * math.pi**2)
    corr = c0 + c1 / a
    out += np.where(nu % 2 == 1, 1.0, -1.0) * a**-0.5 * corr
    return out


# ---------------------------------------------------------------------------
# public evaluators
# ---------------------------------------------------------------------------

def hardy_z_many(t: np.ndarray) -> np.ndarray:
    """Z(t) for an array of heights, choosing the backend per height."""
    t = np.asarray(t, dtype=float)
    _check_finite(t)
    if np.any(t < T_FLOOR):
        raise DomainError("all heights must be >= 10")
    out = np.empty(t.shape, dtype=float)
    em = t <= RS_CROSSOVER
    if em.any():
        z = _zeta_em(t[em])
        out[em] = np.real(np.exp(1j * _rs_theta_arr(t[em])) * z)
    if (~em).any():
        out[~em] = _z_rs(t[~em])
    return out


def hardy_z(t: float) -> float:
    """Hardy's Z(t); real, with |Z(t)| = |zeta(1/2+it)|."""
    _check_floor(t)
    return float(hardy_z_many(np.asarray([t]))[0])


def zeta_critical_many(t: np.ndarray) -> np.ndarray:
    """zeta(1/2 + it) for an array of real heights (any sign; negative
    heights via the reflection zeta(1/2 - it) = conj(zeta(1/2 + it)))."""
    t = np.asarray(t, dtype=float)
    _check_finite(t)
    at = np.abs(t)
    out = np.empty(t.shape, dtype=complex)
    em = at <= RS_CROSSOVER
    if em.any():
        out[em] = _zeta_em(at[em])
    if (~em).any():
        th = _rs_theta_arr(at[~em])
        out[~em] = np.exp(-1j * th) * _z_rs(at[~em])
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
    and amp = n^{-1/2}, the boundary and tail terms are added pointwise:
    O(N + P log P) per offset instead of O(N P).  Agrees with the pointwise
    direct sum to about 1e-11 at T = 2000.
    """
    t0 = np.asarray(t0, dtype=float).ravel()
    _check_finite(np.append(t0, h))
    ts = t0[None, :] + h * np.arange(P)[:, None]
    _check_finite(ts)
    n_cap = max(EM_N_MIN,
                int(EM_N_FACTOR * np.max(np.abs(ts), initial=0.0)) + 1)
    n = np.arange(1, n_cap, dtype=float)
    main = progression_sum(np.log(n), n ** -0.5, t0, float(h), P)
    return _em_add_boundary(main, ts, n_cap)


# ---------------------------------------------------------------------------
# zero counting and location
# ---------------------------------------------------------------------------

def count_zeros_rvm(T: float) -> float:
    """Riemann-von Mangoldt smooth main term for N(T)."""
    if T < T_FLOOR:
        raise DomainError(f"T={T} below validity floor {T_FLOOR}")
    x = T / TWO_PI
    return x * math.log(x) - x + 7.0 / 8.0


@dataclass(frozen=True)
class ZeroTable:
    """Sorted zero ordinates with provenance.

    ``claimed_complete`` is set only when the count over the height range
    agrees with the Riemann-von Mangoldt estimate within its error envelope.
    """

    ordinates: np.ndarray
    source: str  # "computed" | "imported"
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

    def select(self, t0: float, t1: float) -> np.ndarray:
        o = self.ordinates
        return o[(o >= t0) & (o <= t1)]


# RVM fluctuation envelope used for the completeness verdict; |S(t)| stays
# well below this for all heights the library supports.
RVM_ENVELOPE = 1.5


def _refine_zeros(lo: np.ndarray, hi: np.ndarray, zlo: np.ndarray,
                  zhi: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Lockstep Illinois steps (Dowell & Jarratt, BIT 11, 1971) on the
    sign-change brackets [lo, hi] of Z, with Z = zlo, zhi at the ends.

    Each round puts one new point in every open bracket: the regula falsi
    point of the end values, where an end kept a second time in a row has
    its value halved.  Brent's minimum step keeps the point at least
    max(0.4 tol, one ulp) inside the bracket, so an estimate that has
    converged steps across the zero and closes the bracket; a point that is
    still not strictly inside falls back to the midpoint.  All open brackets
    share one ``hardy_z_many`` call per round.  A bracket is done once it is
    no wider than ``tol`` or its midpoint rounds onto an end: above 2^19 the
    float spacing exceeds 1e-10, so a one-ulp bracket can be wider than
    ``tol`` and never shrink.  Returns the secant estimate from the true Z
    values at the final ends, clipped to the bracket.
    """
    a, b = lo.astype(float), hi.astype(float)
    za, zb = zlo.astype(float), zhi.astype(float)    # Z at the ends
    fa, fb = za.copy(), zb.copy()                    # Illinois-weighted
    moved = np.zeros(len(a), dtype=np.int8)          # end moved last: +1 a, -1 b
    while True:
        mid = 0.5 * (a + b)
        k = np.nonzero((b - a > tol) & (a < mid) & (mid < b))[0]
        if len(k) == 0:
            break
        ak, bk = a[k], b[k]
        c = ak + fa[k] / (fa[k] - fb[k]) * (bk - ak)
        d = np.maximum(0.4 * tol, np.spacing(bk))
        c = np.clip(c, ak + d, bk - d)
        c = np.where((ak < c) & (c < bk), c, mid[k])
        zc = hardy_z_many(c)
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


def _z_on_scan_grid(t0: float, t1: float,
                    step: float) -> tuple[np.ndarray, np.ndarray]:
    """The scan grid linspace(t0, t1, n), spacing h <= step, and Z on it.

    The grid is the progression t0 + j h, h = (t1 - t0)/(n - 1).  Heights up
    to RS_CROSSOVER take zeta from ``zeta_on_grid([t0], h, P)`` times
    e^{i theta}; heights above it take pointwise Riemann-Siegel from
    ``hardy_z_many``, the same backend split as ``hardy_z_many`` itself.
    """
    n = max(2, int(math.ceil((t1 - t0) / step)) + 1)
    grid = np.linspace(t0, t1, n)
    z = np.empty(n)
    m = int(np.count_nonzero(grid <= RS_CROSSOVER))
    if m:
        zeta = zeta_on_grid([t0], (t1 - t0) / (n - 1), m)[:, 0]
        z[:m] = np.real(np.exp(1j * _rs_theta_arr(grid[:m])) * zeta)
    if m < n:
        z[m:] = hardy_z_many(grid[m:])
    return grid, z


def _scan_sign_changes(t0: float, t1: float, step: float) -> np.ndarray:
    grid, z = _z_on_scan_grid(t0, t1, step)
    idx = np.nonzero(np.sign(z[:-1]) * np.sign(z[1:]) < 0)[0]
    if len(idx) == 0:
        return np.empty(0)
    return _refine_zeros(grid[idx], grid[idx + 1], z[idx], z[idx + 1])


def _wide_gaps(zeros: np.ndarray, t0: float, t1: float, factor: float):
    """The gaps (a, b) of t0 < zeros < t1 wider than factor x the mean."""
    edges = np.concatenate(([t0], zeros, [t1]))
    mean_gap = (t1 - t0) / max(len(zeros), 1)
    i = np.nonzero(np.diff(edges) > factor * mean_gap)[0]
    return list(zip(edges[i], edges[i + 1]))


def find_zeros(t0: float, t1: float, scan_step: float | None = None) -> ZeroTable:
    """All critical-line ordinates in [t0, t1] by sign-change scanning.

    Scans Z on a grid of step <= 0.5/log(t1), refines each sign change by
    lockstep Illinois steps to a bracket of width 1e-10, then checks the
    count against the Riemann-von Mangoldt estimate.  If the count falls
    short, suspect gaps are rescanned at 8x resolution; a table that still
    fails the count check carries ``claimed_complete=False`` plus
    diagnostics naming the suspect gaps.
    """
    if not (T_FLOOR <= t0 < t1 < math.inf):
        raise DomainError(f"need {T_FLOOR} <= t0 < t1 < inf, got ({t0}, {t1})")
    step = scan_step if scan_step is not None else 0.5 / math.log(t1)
    if not 0.0 < step < math.inf:
        raise ValueError(f"scan_step must be positive and finite, got {step}")
    zeros = _scan_sign_changes(t0, t1, step)
    expected = count_zeros_rvm(t1) - count_zeros_rvm(t0)
    diagnostics: list[str] = []
    if len(zeros) < expected - 0.5 and len(zeros) > 0:
        # rescan the widest gaps at higher resolution (possible close pairs)
        extra = [_scan_sign_changes(a, b, step / 8.0)
                 for a, b in _wide_gaps(zeros, t0, t1, 1.5)]
        if extra:
            zeros = np.sort(np.concatenate([zeros] + extra))
            zeros = zeros[np.concatenate(([True], np.diff(zeros) > 1e-8))]
    complete = abs(len(zeros) - expected) <= RVM_ENVELOPE
    if not complete:
        diagnostics = [f"suspect gap [{a:.6f}, {b:.6f}]"
                       for a, b in _wide_gaps(zeros, t0, t1, 2.5)]
        diagnostics.append(
            f"count {len(zeros)} vs RVM estimate {expected:.2f}"
        )
    return ZeroTable(
        ordinates=zeros,
        source="computed",
        height_range=(t0, t1),
        claimed_complete=complete,
        diagnostics=tuple(diagnostics),
    )


# ---------------------------------------------------------------------------
# zero-table files: UTF-8 text, one ascending decimal ordinate per line
# ---------------------------------------------------------------------------

def import_zero_table(path, t_min: float, t_max: float) -> ZeroTable:
    """Parse a one-ordinate-per-line text file, filtered to [t_min, t_max]."""
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
            if prev is not None and val <= prev:
                raise ZeroTableError(
                    f"{path}:{lineno}: ordinate {val} not above previous {prev}"
                )
            prev = val
            if t_min <= val <= t_max:
                ordinates.append(val)
    arr = np.asarray(ordinates, dtype=float)
    diagnostics: tuple[str, ...] = ()
    complete = False
    if len(arr):
        expected = count_zeros_rvm(max(t_max, T_FLOOR)) - count_zeros_rvm(max(t_min, T_FLOOR))
        complete = abs(len(arr) - expected) <= RVM_ENVELOPE
    else:
        diagnostics = ("empty selection",)
    return ZeroTable(
        ordinates=arr,
        source="imported",
        height_range=(t_min, t_max),
        claimed_complete=complete,
        diagnostics=diagnostics,
    )


def write_zero_table(table: ZeroTable, path) -> None:
    """Persist in the same one-ordinate-per-line format import expects."""
    with open(path, "w", encoding="utf-8") as fh:
        for g in table.ordinates:
            fh.write(f"{g:.9f}\n")
