"""Dirichlet polynomials: mollifier construction, smoothed-zeta coefficients,
exact multiplicative convolution, and critical-line evaluation.

A DirichletPoly is a dense coefficient vector a(1..N).  Evaluation at one
height uses compensated summation so that identities asserted at 1e-12 are
not at the mercy of naive accumulation order; evaluation at many heights
goes through the scattered-height kernel ``zeta.pointwise_sum``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .arith import fsum, mobius_table, sieve_upto
from .smoothfn import PlateauWindow, WindowContractError
from .zeta import pointwise_sum

# Dense polynomials longer than this are refused: convolutions, coefficient
# files and the quadratic-form minimizer (dense storage blows up).
MAX_CONV_LENGTH = 20_000_000
# Rows of coefficient CSV formatted and written at a time.
EXPORT_ROWS = 1 << 14


class PolyLengthError(ValueError):
    """Requested polynomial length exceeds the configured cap."""


@dataclass(frozen=True, eq=False)
class DirichletPoly:
    """Coefficients a(1..N) of sum a(n) n^{-s}, stored densely.

    ``coeffs[n]`` is a(n); index 0 is unused and kept at 0.
    """

    coeffs: np.ndarray = field(repr=False)
    label: str = ""

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise ValueError("coeffs must hold a(1)")

    @property
    def length_N(self) -> int:
        """N, the largest n with a stored coefficient."""
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> complex:
        if not 1 <= n <= self.length_N:
            return 0.0 + 0.0j
        return complex(self.coeffs[n])


def make_poly(coeffs_1_to_n, label: str = "") -> DirichletPoly:
    """Build a polynomial from a sequence of coefficients for n = 1..N."""
    arr = np.asarray(coeffs_1_to_n, dtype=complex)
    full = np.zeros(len(arr) + 1, dtype=complex)
    full[1:] = arr
    return DirichletPoly(coeffs=full, label=label)


def delta_poly() -> DirichletPoly:
    """The identity element: a(1) = 1 and nothing else."""
    return make_poly([1.0], label="delta")


def build_L_theta(T: float, theta: float) -> DirichletPoly:
    """Truncated Moebius mollifier with linear taper:

        coefficient at n is mu(n) (1 - log n / log T^theta),  n <= T^theta.
    """
    if not 10 <= T < math.inf:
        raise ValueError(f"T must be finite and >= 10, got {T}")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    x = T ** theta
    if x < 2:
        raise ValueError("T^theta must be >= 2")
    N = int(math.floor(x))
    mu = mobius_table(N, sieve_upto(N)).astype(float)
    n = np.arange(0, N + 1, dtype=float)
    n[0] = 1.0
    taper = 1.0 - np.log(n) / (theta * math.log(T))
    coeffs = np.zeros(N + 1, dtype=complex)
    coeffs[1:] = mu[1:] * taper[1:]
    return DirichletPoly(coeffs=coeffs,
                         label=f"L_theta(T={T:g},theta={theta:g})")


def zeta_window_coeffs(T: float, epsilon: float,
                       w: PlateauWindow) -> DirichletPoly:
    """Coefficients w(n/T1) with T1 = T^(1+epsilon): the smoothed main sum
    whose evaluation approximates zeta on the critical line for t in [T, 2T].
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    t1 = T ** (1.0 + epsilon)
    if t1 < 2:
        raise ValueError("T^(1+epsilon) must be >= 2")
    s0, s1 = w.support
    if not (s0 <= 0.0 and s1 <= 1.0 + 1e-12):
        raise WindowContractError(
            f"window support {w.support} must sit inside [0, 1]")
    if abs(w(0.0) - 1.0) > 1e-12:
        raise WindowContractError("window must have w(0) = 1")
    probe = w(np.linspace(0.0, 1.0, 257))
    if np.any(probe < -1e-12) or np.any(probe > 1.0 + 1e-12):
        raise WindowContractError("window must satisfy 0 <= w <= 1")
    N = int(math.floor(t1))
    if N > MAX_CONV_LENGTH:
        raise PolyLengthError(f"smoothed zeta length {N} exceeds cap")
    n = np.arange(0, N + 1, dtype=float)
    coeffs = np.zeros(N + 1, dtype=complex)
    coeffs[1:] = w(n[1:] / t1)
    return DirichletPoly(coeffs=coeffs,
                         label=f"zeta_window(T={T:g},eps={epsilon:g})")


def dirichlet_convolve(A: DirichletPoly, M: DirichletPoly) -> DirichletPoly:
    """Exact multiplicative (Dirichlet) convolution:

        b(n) = sum_{d e = n} A(d) M(e),   n <= A.length_N * M.length_N.

    No truncation: the product polynomial is represented in full.
    """
    out_len = A.length_N * M.length_N
    if out_len > MAX_CONV_LENGTH:
        raise PolyLengthError(
            f"convolution length {out_len} exceeds cap {MAX_CONV_LENGTH}")
    out = np.zeros(out_len + 1, dtype=complex)
    # iterate over the shorter polynomial for the O(sum N/d) inner updates
    short, long_ = (A, M) if A.length_N <= M.length_N else (M, A)
    for d in range(1, short.length_N + 1):
        c = short.coeffs[d]
        if c == 0:
            continue
        out[d::d][:long_.length_N] += c * long_.coeffs[1:]
    return DirichletPoly(coeffs=out, label=f"({A.label})*({M.label})")


@lru_cache(maxsize=16)
def _log_table(N: int) -> np.ndarray:
    """log n for n = 0..N (index 0 unused); cached per length."""
    n = np.arange(0, N + 1, dtype=float)
    n[0] = 1.0
    return np.log(n)


def _csum(terms: np.ndarray) -> complex:
    """Compensated (exact-ish) complex summation via math.fsum."""
    return complex(fsum(terms.real), fsum(terms.imag))


def evaluate_poly(A: DirichletPoly, sigma: float, t: float) -> complex:
    """A(sigma + it) = sum a(n) n^{-sigma} e^{-i t log n}, compensated."""
    logn = _log_table(A.length_N)[1:]
    amp = np.exp(-sigma * logn)
    terms = A.coeffs[1:] * amp * np.exp(-1j * t * logn)
    return _csum(terms)


def evaluate_poly_many(A: DirichletPoly, sigma: float, ts) -> np.ndarray:
    """A(sigma + it) at many t values, in the shape of ts, through
    ``zeta.pointwise_sum`` (use evaluate_poly when 1e-12-level
    reproducibility is asserted)."""
    logn = _log_table(A.length_N)[1:]
    return pointwise_sum(logn, A.coeffs[1:] * np.exp(-sigma * logn), ts)


def windowed_sum(A: DirichletPoly, f: PlateauWindow, u: float) -> complex:
    """sum a(n) n^{-iu} f(log n / 2 pi): the coefficient-side realization of
    smoothing A(it) against the transform of f centered at u.

    When f is identically 1 on [log 1/2pi, log N/2pi] this is the same
    floating-point sum as evaluate_poly(A, 0, u) (reproducing identity).
    """
    logn = _log_table(A.length_N)[1:]
    wvals = f(logn / (2.0 * math.pi))
    terms = A.coeffs[1:] * np.exp(-1j * u * logn) * wvals
    return _csum(terms)


def one_minus(A: DirichletPoly) -> DirichletPoly:
    """Coefficients of 1 - A(s) (used for F = 1 - zeta*M)."""
    out = -A.coeffs.copy()
    out[1] += 1.0
    return DirichletPoly(coeffs=out, label=f"1-({A.label})")


def export_coeffs(A: DirichletPoly, path: str) -> None:
    """Write coefficients as CSV with header n,re,im, EXPORT_ROWS rows at
    a time.

    The bytes are those csv.writer writes for the rows [n, repr(re),
    repr(im)]: a float's repr never needs quoting, and every line ends in
    "\r\n".  Each block is one %-template over its interleaved cells; a
    block whose imaginary parts all have the bits of +0.0 prints them as
    the constant "0.0".  What remains is the repr of each float, most of
    the time of a long export."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("n,re,im\r\n")
        for lo in range(1, A.length_N + 1, EXPORT_ROWS):
            blk = A.coeffs[lo:lo + EXPORT_ROWS]
            k = len(blk)
            cols = [range(lo, lo + k), blk.real.tolist()]
            row = "%d,%r,0.0\r\n"
            if blk.imag.view(np.int64).any():
                cols.append(blk.imag.tolist())
                row = "%d,%r,%r\r\n"
            cells = [None] * (len(cols) * k)
            for j, col in enumerate(cols):
                cells[j::len(cols)] = col
            fh.write((row * k) % tuple(cells))


def import_coeffs(path: str, label: str = "") -> DirichletPoly:
    """Read a CSV written by export_coeffs (columns n, re, im, header row);
    an index below 1, repeated or above MAX_CONV_LENGTH, or a non-finite
    re or im, is refused before the array is sized."""
    rows: dict[int, complex] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:3]] != ["n", "re", "im"]:
            raise ValueError(f"{path}: expected header n,re,im")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                n = int(row[0])
                c = complex(float(row[1]), float(row[2]))
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}:{lineno}: bad coefficient row") from exc
            if n < 1 or n in rows:
                raise ValueError(f"{path}:{lineno}: index {n} is below 1 "
                                 "or repeated")
            if n > MAX_CONV_LENGTH:
                raise PolyLengthError(f"{path}:{lineno}: index {n} exceeds "
                                      f"cap {MAX_CONV_LENGTH}")
            if not np.isfinite(c):
                raise ValueError(f"{path}:{lineno}: non-finite coefficient")
            rows[n] = c
    if not rows:
        raise ValueError(f"{path}: no coefficients")
    coeffs = np.zeros(max(rows) + 1, dtype=complex)
    coeffs[list(rows)] = list(rows.values())
    return DirichletPoly(coeffs=coeffs, label=label or f"file:{path}")
