import math

import numpy as np
import pytest
import sympy

from mollint.arith import (
    BERNOULLI,
    MAX_SIEVE_LIMIT,
    OutOfSieveRange,
    SieveSizeError,
    euler_phi,
    fsum,
    gcd_lcm,
    mobius,
    mobius_table,
    phi_table,
    sieve_build,
    sieve_upto,
    von_mangoldt,
)


def test_bernoulli_table_correctly_rounded():
    assert len(BERNOULLI) == 27
    for k in range(0, 27, 2):
        assert BERNOULLI[k] == float(sympy.bernoulli(k)), k
    assert all(BERNOULLI[k] == 0.0 for k in range(3, 27, 2))


def test_spf_marks_primes(sieve):
    primes = sieve.primes()
    assert primes[:10].tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes) == sympy.primepi(sieve.limit)


def test_factorize_roundtrip(sieve):
    for n in (2, 360, 9973, 19998):
        fac = sieve.factorize(n)
        prod = 1
        for p, k in fac:
            assert sympy.isprime(p)
            prod *= p ** k
        assert prod == n


@pytest.mark.parametrize("n", [1, 2, 4, 30, 210, 1024, 9973, 18000])
def test_mobius_phi_lambda_against_sympy(sieve, n):
    assert mobius(n, sieve) == sympy.mobius(n)
    assert euler_phi(n, sieve) == sympy.totient(n)
    fac = sympy.factorint(n)
    expected = math.log(next(iter(fac))) if len(fac) == 1 else 0.0
    assert von_mangoldt(n, sieve) == pytest.approx(expected, abs=1e-14)


def test_tables_match_pointwise(sieve):
    mu = mobius_table(2000, sieve)
    phi = phi_table(2000, sieve)
    assert mu.dtype == np.int8 and phi.dtype == np.int64
    assert mu[0] == 0 and phi[0] == 0
    for n in range(1, 2001):
        assert mu[n] == mobius(n, sieve) == sympy.mobius(n)
        assert phi[n] == euler_phi(n, sieve) == sympy.totient(n)


def _assert_matches_sympy(sieve, n):
    assert sieve.spf[n] == (1 if n == 1 else min(sympy.primefactors(n)))
    assert sieve.mu[n] == sympy.mobius(n)
    assert sieve.phi[n] == sympy.totient(n)


# the limits straddle p^2 for p = 2, 3, 5, 7, 11, where the set of strided
# primes changes and a prime factor above sqrt(limit) first appears
@pytest.mark.parametrize(
    "limit", [2, 3, 4, 8, 9, 10, 24, 25, 26, 48, 49, 50, 120, 121, 122])
def test_sieve_every_entry_small_limits(limit):
    s = sieve_build(limit)
    assert len(s.spf) == len(s.mu) == len(s.phi) == limit + 1
    for n in range(1, limit + 1):
        _assert_matches_sympy(s, n)


def test_sieve_spot_check_million():
    s = sieve_build(10 ** 6)
    rng = np.random.default_rng(7)
    ns = rng.integers(1, 10 ** 6 + 1, size=189).tolist()
    # n = 2q: the prime factor above sqrt(limit) is found by the final step
    ns += [2 * q for q in (1009, 7919, 104729, 499979)]
    ns += [1, 2, 999983, 999999, 10 ** 6, 997 ** 2,
           2 * 3 * 5 * 7 * 11 * 13 * 17]
    assert len(ns) == 200
    for n in ns:
        _assert_matches_sympy(s, n)


def test_sieve_arrays_read_only(sieve):
    tables = (sieve.spf, sieve.mu, sieve.phi,
              mobius_table(100, sieve), phi_table(100, sieve))
    for arr in tables:
        with pytest.raises(ValueError):
            arr[10] = 0
    assert mobius(10, sieve) == 1 and euler_phi(10, sieve) == 4


def test_gcd_lcm():
    assert gcd_lcm(12, 18) == (6, 36)
    assert gcd_lcm(7, 13) == (1, 91)
    g, l = gcd_lcm(2 ** 40, 3 * 2 ** 40)
    assert g == 2 ** 40 and l == 3 * 2 ** 40
    with pytest.raises(ValueError):
        gcd_lcm(0, 5)


def test_range_errors(sieve):
    with pytest.raises(OutOfSieveRange):
        mobius(sieve.limit + 1, sieve)
    with pytest.raises(SieveSizeError):
        sieve_build(1)
    with pytest.raises(SieveSizeError):
        sieve_build(10 ** 12)
    with pytest.raises(SieveSizeError):
        sieve_build(MAX_SIEVE_LIMIT + 1)


def test_sieve_upto_sized_and_reused():
    for n in (0, 1, 2, 9, 4000):
        s = sieve_upto(n)
        assert s.limit == max(n, 2)
        assert sieve_upto(n) is s
    with pytest.raises(SieveSizeError):
        sieve_upto(MAX_SIEVE_LIMIT + 1)


def test_fsum_of_array_views():
    # bit for bit math.fsum over the entries as Python numbers, whatever
    # the layout or dtype of the array
    rng = np.random.default_rng(31)
    x = rng.normal(size=(40, 9)) * 10.0 ** rng.integers(-8, 9, size=(40, 9))
    c = x[:, :8].ravel() + 1j * rng.normal(size=320)
    for arr in (x[::3, 2], x.T[1], c.real, c.imag,
                rng.integers(-10**6, 10**6, size=1000), np.zeros(0), x):
        assert fsum(arr) == math.fsum(arr.ravel().tolist())
