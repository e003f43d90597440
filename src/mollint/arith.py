"""Exact integer arithmetic on top of one sieve pass.

Provides mu(n), phi(n), Lambda(n), gcd/lcm and ``fsum``, the compensated
sum of an array.  ``sieve_build`` fills the smallest prime factor, mu and
phi tables together in one vectorized numpy pass and stores them
read-only; mu and phi queries and tables are checked lookups into them,
and Lambda(n) strips the smallest prime factor in O(log n).

Only this module sizes a sieve: callers ask ``sieve_upto(n)`` for the
tables up to the length n they need, or ``sieve_build(n)`` for a one-off
sieve that must not evict the cached one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# Refuse sieves that would need more than ~4 GB.  A sieve keeps 17 bytes
# per entry (spf int64, mu int8, phi int64); sieve_build peaks at 25 bytes
# per entry (tracemalloc, limit 10^6 and 10^7), so 1.6e8 entries is 4.0 GB.
MAX_SIEVE_LIMIT = 160_000_000

# Euler-Mascheroni constant, full double precision.
EULER_GAMMA = 0.57721566490153286

# Bernoulli numbers B_0 ... B_26 (B_1 = -1/2), each the correctly rounded
# double of the exact fraction: int / int true division rounds once.
BERNOULLI = tuple(p / q for p, q in (
    (1, 1), (-1, 2), (1, 6), (0, 1), (-1, 30), (0, 1), (1, 42), (0, 1),
    (-1, 30), (0, 1), (5, 66), (0, 1), (-691, 2730), (0, 1), (7, 6), (0, 1),
    (-3617, 510), (0, 1), (43867, 798), (0, 1), (-174611, 330), (0, 1),
    (854513, 138), (0, 1), (-236364091, 2730), (0, 1), (8553103, 6)))


class SieveSizeError(ValueError):
    """Requested sieve limit is out of the supported range."""


class OutOfSieveRange(ValueError):
    """Query argument exceeds the sieve limit."""


@dataclass(frozen=True)
class FactorSieve:
    """Smallest prime factor, mu and phi for 0..limit, as read-only arrays.

    ``spf[n]`` is the least prime dividing n; ``spf[p] == p`` exactly for
    primes.  Index 0 is unused (0 in all three); index 1 holds spf 1,
    mu 1 and phi 1.
    """

    limit: int
    spf: np.ndarray = field(repr=False)
    mu: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)

    def check(self, n: int) -> None:
        if not 1 <= n <= self.limit:
            raise OutOfSieveRange(f"n={n} outside sieve range [1, {self.limit}]")

    def factorize(self, n: int) -> list[tuple[int, int]]:
        """Prime factorization of n as a list of (p, exponent) pairs."""
        self.check(n)
        out: list[tuple[int, int]] = []
        spf = self.spf
        while n > 1:
            p = int(spf[n])
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
        return out

    def primes(self) -> np.ndarray:
        """All primes up to the sieve limit, ascending."""
        idx = np.arange(2, self.limit + 1)
        return idx[self.spf[2:] == idx]


def sieve_build(limit: int) -> FactorSieve:
    """Smallest prime factor, mu and phi for 0..limit in one numpy pass.

    Strided updates over the primes p <= sqrt(limit), in ascending order,
    fill spf (from spf[n] = n, so spf[p] == p marks p as prime when the
    loop reaches it), mu, the phi factors p^(k-1) (p - 1) and
    ``smooth[n]``, the part of n made of those primes.  The rest,
    n // smooth[n], is 1 or the one prime factor of n above sqrt(limit),
    applied in a final vectorized step.  Every product is exact in its
    integer dtype below the cap.
    """
    if limit < 2:
        raise SieveSizeError(f"sieve limit must be >= 2, got {limit}")
    if limit > MAX_SIEVE_LIMIT:
        raise SieveSizeError(
            f"sieve limit {limit} exceeds memory budget {MAX_SIEVE_LIMIT}")
    spf = np.arange(limit + 1, dtype=np.int64)
    mu = np.ones(limit + 1, dtype=np.int8)
    phi = np.ones(limit + 1, dtype=np.int64)
    smooth = np.ones(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] != p:
            continue
        multiples = spf[p * p::p]
        np.minimum(multiples, p, out=multiples)
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
        phi[p::p] *= p - 1
        smooth[p::p] *= p
        q = p * p
        while q <= limit:
            phi[q::q] *= p
            smooth[q::q] *= p
            q *= p
    rest = np.floor_divide(np.arange(limit + 1, dtype=np.int32), smooth,
                           out=smooth)
    np.negative(mu, out=mu, where=rest > 1)
    rest -= 1
    phi *= np.maximum(rest, 1, out=rest)
    mu[0] = phi[0] = 0
    for arr in (spf, mu, phi):
        arr.flags.writeable = False
    return FactorSieve(limit=limit, spf=spf, mu=mu, phi=phi)


@lru_cache(maxsize=1)
def sieve_upto(n: int) -> FactorSieve:
    """The sieve for 0..max(n, 2), kept for the next call with the same n;
    every build is one call of the module binding ``sieve_build``."""
    return sieve_build(max(n, 2))


def mobius(n: int, sieve: FactorSieve) -> int:
    """Moebius function: 0 on non-squarefree n, else (-1)^omega(n)."""
    sieve.check(n)
    return int(sieve.mu[n])


def euler_phi(n: int, sieve: FactorSieve) -> int:
    """Euler totient phi(n), exact integer arithmetic."""
    sieve.check(n)
    return int(sieve.phi[n])


def von_mangoldt(n: int, sieve: FactorSieve) -> float:
    """Lambda(n): log p if n is a prime power p^k, else 0."""
    sieve.check(n)
    if n == 1:
        return 0.0
    p = int(sieve.spf[n])
    m = n
    while m % p == 0:
        m //= p
    return math.log(p) if m == 1 else 0.0


def fsum(x) -> float:
    """math.fsum of the entries of x as floats, in any shape or dtype.

    It reads them through a memoryview of one contiguous float64 copy
    (none if x already is one), so no numpy scalar is built per entry;
    fsum is correctly rounded, so the result is that of math.fsum over
    the entries themselves."""
    return math.fsum(memoryview(np.ascontiguousarray(x, dtype=float).ravel()))


def gcd_lcm(d: int, e: int) -> tuple[int, int]:
    """(gcd, lcm) with lcm computed gcd-first to delay overflow."""
    if d < 1 or e < 1:
        raise ValueError("gcd_lcm requires positive integers")
    g = math.gcd(d, e)
    l = (d // g) * e
    return g, l


def mobius_table(limit: int, sieve: FactorSieve) -> np.ndarray:
    """mu(n) for n = 0..limit as a read-only int8 view (index 0 unused)."""
    sieve.check(limit)
    return sieve.mu[:limit + 1]


def phi_table(limit: int, sieve: FactorSieve) -> np.ndarray:
    """phi(n) for n = 0..limit as a read-only int64 view (index 0 unused)."""
    sieve.check(limit)
    return sieve.phi[:limit + 1]
