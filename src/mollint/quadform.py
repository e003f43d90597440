"""The gcd quadratic form sum a(d) conj(a(e)) / [d,e], its exact
diagonalization, the closed-form minimizer, and the companion log-weighted
form with its S1/S2/S3 decomposition.

Notation (all sums over indices <= N):

    G     = sum mu(n)^2 / phi(n)
    y(l)  = sum_{d : d l <= N} a(d l) / d
    z(l)  = mu(l) l / (G phi(l))

Key identities realized here, each with a brute-force partner for testing:

    sum_{d,e} a(d) conj(a(e)) / [d,e] = sum_l phi(l)/l^2 |y(l)|^2
                                      = 1/G + sum_l phi(l)/l^2 |y(l)-z(l)|^2
                                        (the latter requires a(1) = 1)

and, for the log-weighted form, with g = (n log n) * mu the Moebius inverse
of n log n, so that (d,e) log (d,e) = sum_{l | (d,e)} g(l),

    sum_{d,e} a(d) conj(a(e)) / [d,e] log([d,e]/(d,e))
        = 2 Re sum_l phi(l)/l^2 y_log(l) conj(y(l)) - 2 sum_l g(l)/l^2 |y(l)|^2

where y_log is y for the coefficients a(n) log n.  The brute-force partner
of both forms is the O(N^2) pass ``_gcd_sums``: a gcd table G written by
common multiples and, with b(n) = a(n)/n, the row products G [b, b log n]
and (g log g) b, fsummed against b, with no N x N weight matrix.  Both
diagonalizations sum over the divisor lattice {(d, l) : d l <= N},
O(N log N) pairs, split by Dirichlet's hyperbola method into strided rows
d <= sqrt(N) and one running sum per l <= sqrt(N) (``_lattice_sums``).
Also realized on that pass: the prime-power telescoping of the log form.
Every identity is asserted at 1e-10; compensated summation throughout is
what makes that a reasonable contract.

The per-length tables mu, phi(l)/l^2, G and z are built once per N by
``_tables``, and g by ``_g_table``; both read mu, phi and the primes from
``arith.sieve_upto(N)`` for the N of the arguments (N, or a.length_N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import EULER_GAMMA, fsum, mobius_table, phi_table, sieve_upto
from .dirichlet import (MAX_CONV_LENGTH, DirichletPoly, PolyLengthError,
                        make_poly)

# The O(N^2) gcd double sums are refused above this length.
DIRECT_CAP = 5000

# Pairs held at once by the blocked gcd double-sum pass (the lattice pass
# forms none; its l = 1 step gathers up to N terms).  On a 2-core Xeon, 2^16
# (0.5 MB a float array) runs `quadform propb --N 4000` as fast as 2^18 and
# twice as fast as 4,000,000, at a VmHWM of 70 MB against 74 and 160 MB.
PAIR_BLOCK = 1 << 16


class CoefficientContractError(ValueError):
    """Coefficient sequence violates an identity's hypothesis (e.g. a(1) != 1)."""


class IdentityError(ArithmeticError):
    """An exact identity failed beyond the rounding tolerance."""


@lru_cache(maxsize=1)
def _tables(N: int) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """(mu, wt, G, z) for length N, as read-only float arrays, kept for the
    next call with the same N: mu(n) and z(l) = mu(l) l / (G phi(l)) at
    index n (index 0 unused), the diagonal weight wt = phi(l)/l^2 at
    index l - 1, and G = sum mu(n)^2/phi(n), compensated."""
    sieve = sieve_upto(N)
    mu = mobius_table(N, sieve).astype(float)
    phi = phi_table(N, sieve)
    wt = phi[1:] / np.arange(1.0, N + 1) ** 2
    G = fsum(mu[1:] ** 2 / phi[1:])
    z = np.zeros(N + 1, dtype=float)
    z[1:] = mu[1:] * np.arange(1.0, N + 1) / (G * phi[1:])
    for arr in (mu, wt, z):
        arr.setflags(write=False)
    return mu, wt, G, z


def big_G(N: int) -> float:
    """G = sum_{n<=N} mu(n)^2/phi(n), compensated."""
    return _tables(N)[2]


def _lattice_sums(N: int, rows: np.ndarray, v: np.ndarray, w) -> np.ndarray:
    """s(l) = sum_{d in rows, d l <= N} w(d, v[d l]) for l = 0..N, in the
    dtype of v (float or complex); ``w(d, values)`` returns the terms of
    row d at the given values, for an int d or an array of d.

    ``rows`` is an ascending array of d >= 1.  Dirichlet's hyperbola split
    at r = isqrt(N): each row d <= r adds its terms to s(1..N/d) in one
    strided step, in ascending d, as a loop over d would; then each
    l <= N/(r+1) adds its terms with d > r by one np.add.accumulate seeded
    with s(l).  So every s(l) is summed from 0 in ascending d, bit for bit
    as the loop, in about 2 sqrt(N) steps.  No block of pairs is formed,
    but the step at l = 1 gathers up to N terms.
    """
    r = math.isqrt(N)
    s = np.zeros(N + 1, dtype=np.result_type(v, 1.0))
    k = int(np.searchsorted(rows, r, side="right"))
    for d in rows[:k].tolist():
        m = N // d
        s[1:m + 1] += w(d, v[d::d][:m])
    tall = rows[k:]
    ends = np.searchsorted(tall, N // np.arange(1, N // (r + 1) + 1), "right")
    for ell, end in enumerate(ends.tolist(), start=1):
        d = tall[:end]
        t = np.concatenate(([s[ell]], w(d, v[d * ell])))
        s[ell] = np.add.accumulate(t, out=t)[-1]
    return s


def _over_d(d, c: np.ndarray) -> np.ndarray:
    """The terms c/d of y, as c * (1/d).  numpy's complex c / d takes the
    same products (up to the sign of a zero term, which the sums from +0
    absorb), and this spelling serves real c too."""
    return c * (1.0 / d)


def y_vector(a: DirichletPoly) -> np.ndarray:
    """y(l) = sum_{d l <= N} a(d l)/d for l = 1..N (index 0 unused).

    O(N log N): one pass over the divisor lattice.
    """
    N = a.length_N
    return _lattice_sums(N, np.arange(1, N + 1), a.coeffs, _over_d)


def z_vector(N: int) -> np.ndarray:
    """z(l) = mu(l) l / (G phi(l)) for l = 1..N (index 0 unused)."""
    return _tables(N)[3].copy()


@lru_cache(maxsize=1)
def _gcd_table(N: int) -> np.ndarray:
    """gcd(m, n) for 0 <= m, n <= N as a read-only int16 array.

    From the definition: every entry starts at 1 (row and column 0 at
    gcd(0, n) = n), and t[g::g, g::g] = g for g = 2..N ascending, so the
    last write at (m, n) is the greatest common divisor.  Integer work
    only, and no sieve: the table is an oracle of its own.  int16 holds
    every entry while N < 2**15 (DIRECT_CAP is far below).
    """
    t = np.ones((N + 1, N + 1), dtype=np.int16)
    t[0] = t[:, 0] = np.arange(N + 1)
    for g in range(2, N + 1):
        t[g::g, g::g] = g
    t.setflags(write=False)
    return t


def _gcd_sums(a: DirichletPoly,
              with_log: bool = True) -> tuple[complex, complex | None]:
    """The O(N^2) double sums of a(d) conj(a(e)) / [d,e] with weights 1
    and log([d,e]/(d,e)) = log d + log e - 2 log g, g = gcd(d, e); the
    latter is None without ``with_log``.

    With b(n) = a(n)/n and G the gcd table (``_gcd_table``), the products
    P = G [b, b log n] and Q = (g log g) b give the gram form
    sum_d b(d) conj(P_0(d)) and the log form
    sum_d b(d) conj(log d P_0(d) + P_1(d) - 2 Q(d)).  Per block of whole
    rows (at most PAIR_BLOCK pairs, or one row) G is converted to float
    and g log g gathered, then each row takes one product with
    [Re b, Im b, Re b log n, Im b log n] (np.matmul over the stack of rows,
    one BLAS call a row), so it is summed in the same order at any block
    size (one matmul of the whole block is not).  ``fsum`` adds the row
    partials of the real and imaginary parts, in real arithmetic.  The
    whole square is summed, so the imaginary parts of these Hermitian
    forms are computed, not zero by construction.

    The one brute-force gcd pass of the package, the oracle of every
    lattice route; refused above DIRECT_CAP.
    """
    N = a.length_N
    if N > DIRECT_CAP:
        raise CoefficientContractError(
            f"O(N^2) gcd sums capped at N={DIRECT_CAP}, got {N}")
    table = _gcd_table(N)
    n = np.arange(1.0, N + 1)
    logs = np.log(n)
    b = a.coeffs[1:] / n
    bt = np.array([b.real, b.imag, b.real * logs, b.imag * logs])
    glogg = np.concatenate(([0.0], n * logs))  # g log g at index g
    rows = max(1, min(N, PAIR_BLOCK // N))
    buf = np.zeros((2, rows, N))  # the same product with or without logs
    prods = np.empty((N, 4, 2))
    for lo in range(0, N, rows):
        g = table[lo + 1:lo + rows + 1, 1:]
        k = len(g)
        buf[0, :k] = g
        if with_log:  # mode "clip" writes out unbuffered; every g is in range
            np.take(glogg, g, out=buf[1, :k], mode="clip")
        np.matmul(bt, buf[:, :k].transpose(1, 2, 0), out=prods[lo:lo + k])
    p = prods[:, ::2] + 1j * prods[:, 1::2]  # [[P_0, Q], [P_1, -]] a row

    def form(x: np.ndarray) -> complex:
        # sum_d b(d) conj(x(d)): fsum of real products, no complex multiply
        return complex(fsum(np.r_[b.real * x.real, b.imag * x.imag]),
                       fsum(np.r_[b.imag * x.real, -b.real * x.imag]))

    logf = form(logs * p[:, 0, 0] + p[:, 1, 0] - 2.0 * p[:, 0, 1]) \
        if with_log else None
    return form(p[:, 0, 0]), logf


def _gram_diagonal(y: np.ndarray) -> float:
    """sum_l phi(l)/l^2 |y(l)|^2 for y = y_vector(a)."""
    return fsum(_tables(len(y) - 1)[1] * np.abs(y[1:]) ** 2)


def gram_form(a: DirichletPoly, mode: str = "diagonal") -> float:
    """The quadratic form sum_{d,e<=N} a(d) conj(a(e)) / [d,e].

    mode "direct": brute-force O(N^2) double sum (capped at DIRECT_CAP).
    mode "diagonal": the exact diagonalization sum_l phi(l)/l^2 |y(l)|^2.
    """
    if mode == "direct":
        return _gcd_sums(a, with_log=False)[0].real
    if mode == "diagonal":
        return _gram_diagonal(y_vector(a))
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class QuadFormDecomposition:
    """Diagonalized form data: form = 1/G + residual when a(1) = 1."""

    N: int
    G: float
    residual: float
    form: float


def diag_residual(a: DirichletPoly) -> QuadFormDecomposition:
    """Exact decomposition form = 1/G + sum phi(l)/l^2 |y(l)-z(l)|^2.

    Requires a(1) = 1 (otherwise the cross term does not telescope and the
    identity is false); asserts the identity at 1e-10 relative.
    """
    return _decomposition(a, y_vector(a))


def _decomposition(a: DirichletPoly, y: np.ndarray) -> QuadFormDecomposition:
    """diag_residual(a) from y = y_vector(a)."""
    if abs(a.coeff(1) - 1.0) > 1e-12:
        raise CoefficientContractError(
            f"identity requires a(1) = 1, got {a.coeff(1)}")
    N = a.length_N
    _, wt, G, z = _tables(N)
    residual = fsum(wt * np.abs(y[1:] - z[1:]) ** 2)
    form = _gram_diagonal(y)
    lhs, rhs = form, 1.0 / G + residual
    if abs(lhs - rhs) > 1e-10 * max(1.0, abs(lhs)):
        raise IdentityError(
            f"diagonalization identity failed: form={lhs!r} vs 1/G+res={rhs!r}")
    return QuadFormDecomposition(N=N, G=G, residual=residual, form=form)


def minimizer_coeffs(N: int) -> DirichletPoly:
    """The unique coefficient sequence with y = z (the form's minimizer):

        a(n) = sum_{d <= N/n} mu(d) z(n d) / d.

    Postcondition: y_vector(result) reproduces z to 1e-12.
    """
    return _minimizer(N)[0]


def _minimizer(N: int) -> tuple[DirichletPoly, np.ndarray]:
    """minimizer_coeffs(N) with the y it built; refused below 1 and above
    MAX_CONV_LENGTH before any table is built.  The coefficients are real,
    so y is too: the real part of y_vector(a), whose imaginary part is
    zero."""
    if N < 1:
        raise PolyLengthError(f"minimizer length {N} is below 1")
    if N > MAX_CONV_LENGTH:
        raise PolyLengthError(
            f"minimizer length {N} exceeds cap {MAX_CONV_LENGTH}")
    mu, _, _, z = _tables(N)
    # one lattice pass over the squarefree d
    acc = _lattice_sums(N, np.flatnonzero(mu), z,
                        lambda d, x: (mu[d] / d) * x)
    a = make_poly(acc[1:], label=f"minimizer(N={N})")
    # y_vector(a), in real arithmetic
    y = _lattice_sums(N, np.arange(1, N + 1), acc, _over_d)
    err = float(np.max(np.abs(y[1:] - z[1:])))
    if err > 1e-12:
        raise IdentityError(f"minimizer postcondition failed: |y - z| = {err:g}")
    return a, y


def _minimize(N: int) -> tuple[DirichletPoly, QuadFormDecomposition]:
    """minimizer_coeffs(N) and its diag_residual, sharing y."""
    a, y = _minimizer(N)
    return a, _decomposition(a, y)


def _g_table(N: int) -> np.ndarray:
    """g(n) = sum_{l | n} mu(n/l) l log l for n = 1..N (index 0 unused), so
    that m log m = sum_{l | m} g(l), in the closed form

        g(n) = phi(n) (log n + sum_{p | n} log p / (p - 1)),

    with the prime sum built by one strided pass over the primes p <= N.
    """
    s = np.zeros(N + 1)
    for p in sieve_upto(N).primes().tolist():
        s[p::p] += math.log(p) / (p - 1)
    g = np.zeros(N + 1)
    g[1:] = phi_table(N, sieve_upto(N))[1:] * (np.log(np.arange(1.0, N + 1))
                                               + s[1:])
    return g


def _log_diagonal(a: DirichletPoly, y: np.ndarray) -> float:
    """The diagonalized log form, given y = y_vector(a)."""
    N = a.length_N
    ell = np.arange(1.0, N + 1)
    y_log = y_vector(make_poly(a.coeffs[1:] * np.log(ell)))
    cross = _tables(N)[1] * (y_log[1:] * np.conj(y[1:])).real
    diag = _g_table(N)[1:] / ell ** 2 * np.abs(y[1:]) ** 2
    return 2.0 * fsum(np.concatenate((cross, -diag)))


def log_form(a: DirichletPoly, mode: str = "direct") -> float:
    """The log-weighted form sum a(d) conj(a(e))/[d,e] log([d,e]/(d,e)).

    mode "direct": exact O(N^2) double sum (capped at DIRECT_CAP).
    mode "diagonal": the exact O(N log N) diagonalization

        2 Re sum_l phi(l)/l^2 y_log(l) conj(y(l)) - 2 sum_l g(l)/l^2 |y(l)|^2

    from log([d,e]/(d,e)) = log d + log e - 2 log (d,e) and
    (d,e) log (d,e) = sum_{l | (d,e)} g(l), g = (n log n) * mu; y_log is y
    for the coefficients a(n) log n.  Equal to "direct" up to rounding.
    """
    if mode == "direct":
        return _gcd_sums(a)[1].real
    if mode == "diagonal":
        return _log_diagonal(a, y_vector(a))
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class SDecomposition:
    """Decomposition of the telescoped log form into difference/cross/pure-z
    pieces, main = s1 + s2 + s3."""

    s1: float
    s2: float
    s3: float
    main: float


def s_decomposition(a: DirichletPoly) -> SDecomposition:
    """Split the telescoped log form (log_form up to lower-order terms)

        2 sum_{p^a l <= N} (log p / p^a) (phi(l)/l^2) Re(y(l) conj(y(p^a l)))

    via y = (y-z) + z:

        S1: both factors replaced by differences y - z
        S2: the two cross terms (difference times z)
        S3: the pure z(l) z(p^a l) part

    Each piece is one fsum over l of phi(l)/l^2 times y, y - z or z and
    its lattice pass L[v](l) = sum_{q l <= N} (Lambda(q)/q) v(q l) over the
    prime powers q.  z is real, so main = S1 + S2 + S3 is an exact
    identity; it is asserted at 1e-10.
    """
    N = a.length_N
    y = y_vector(a)
    _, wt, _, z = _tables(N)
    d = y - z
    # Lambda(q)/q: for each alpha the primes with p^alpha <= N are a prefix
    p = sieve_upto(N).primes()
    lam, q = np.zeros(N + 1), p[p <= N]  # the sieve reaches 2 at N = 1
    while len(q):
        lam[q] = np.log(p[:len(q)]) / q
        q = q * p[:len(q)]
        q = q[q <= N]
    rows = np.flatnonzero(lam)  # the prime powers, ascending
    Y, D, Z = (_lattice_sums(N, rows, v, lambda k, x: lam[k] * x)[1:]
               for v in (y, d, z))
    y, d, z = y[1:], d[1:], z[1:]
    s1 = 2.0 * fsum(wt * (d * np.conj(D)).real)
    s2 = 2.0 * fsum(wt * (z * D.real + Z * d.real))
    s3 = 2.0 * fsum(wt * z * Z)
    main = 2.0 * fsum(wt * (y * np.conj(Y)).real)
    if abs(main - (s1 + s2 + s3)) > 1e-10 * max(1.0, abs(main)):
        raise IdentityError(
            f"S1 + S2 + S3 does not recombine into the main term: "
            f"S1={s1!r} S2={s2!r} S3={s3!r} main={main!r}")
    return SDecomposition(s1=s1, s2=s2, s3=s3, main=main)


# log(c T) with c = 4 e^{2 gamma - 1} / (2 pi) equals
# log(T / 2 pi) + 2 log 2 + 2 gamma - 1 (same constant, two spellings).
PROPB_C = 4.0 * math.exp(2.0 * EULER_GAMMA - 1.0) / (2.0 * math.pi)


def propB_value(T: float, a: DirichletPoly) -> float:
    """log(c T) * gram_form - log_form - 1, the predicted mollified moment.

    Both forms are the exact diagonal modes, computed from one y vector, in
    O(N log N) at every N.  T must be positive and finite.
    """
    if not 0.0 < T < math.inf:
        raise ValueError(f"T must be positive and finite, got {T}")
    y = y_vector(a)
    gram = _gram_diagonal(y)
    logf = _log_diagonal(a, y)
    return math.log(PROPB_C * T) * gram - logf - 1.0
