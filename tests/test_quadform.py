import ast
import math
import pathlib
import re
import warnings

import numpy as np
import pytest

from mollint import arith, quadform
from mollint.arith import mobius_table
from mollint.dirichlet import (
    MAX_CONV_LENGTH,
    PolyLengthError,
    build_L_theta,
    delta_poly,
    make_poly,
)
from mollint.quadform import (
    DIRECT_CAP,
    PROPB_C,
    CoefficientContractError,
    big_G,
    diag_residual,
    gram_form,
    log_form,
    minimizer_coeffs,
    propB_value,
    s_decomposition,
    y_vector,
    z_vector,
)
from mollint.moments import bch_predicted


def admissible(rng, N):
    c = (np.arange(1, N + 1) ** 0.1) * np.exp(2j * np.pi * rng.random(N))
    c[0] = 1.0
    return make_poly(c)


def brute_gram(a):
    """O(N^2) reference in pure Python (independent of the library path)."""
    N = a.length_N
    total = 0.0 + 0.0j
    for d in range(1, N + 1):
        for e in range(1, N + 1):
            g = math.gcd(d, e)
            total += a.coeffs[d] * np.conj(a.coeffs[e]) / (d * e // g)
    return total


def brute_log_form(a):
    """O(N^2) pure-Python reference for the log-weighted form."""
    N = a.length_N
    c = [complex(x) for x in a.coeffs]
    ref = 0.0
    for d in range(1, N + 1):
        for e in range(1, N + 1):
            g = math.gcd(d, e)
            ref += (c[d] * c[e].conjugate() / (d * e // g)).real \
                * math.log(d * e / g / g)
    return ref


def y_loop(a):
    """y(l) by the loop over d that the lattice pass replaced."""
    N = a.length_N
    y = np.zeros(N + 1, dtype=complex)
    for d in range(1, N + 1):
        m = N // d
        y[1:m + 1] += a.coeffs[d::d][:m] / d
    return y


def minimizer_loop(N, sieve):
    """The minimizer's coefficients by the loop over squarefree d."""
    mu = mobius_table(N, sieve).astype(float)
    z = z_vector(N)
    acc = np.zeros(N + 1, dtype=float)
    for d in range(1, N + 1):
        if mu[d] != 0:
            m = N // d
            acc[1:m + 1] += (mu[d] / d) * z[d::d][:m]
    return acc


def s_decomposition_loop(a):
    """(S1, S2, S3, main) by the loop over the prime powers q = p^alpha <= N
    that the lattice passes replaced, four fsums a q."""
    N = a.length_N
    y = y_vector(a)
    z = z_vector(N)
    d = y - z
    wt = arith.phi_table(N, arith.sieve_upto(N))[1:] \
        / np.arange(1.0, N + 1) ** 2
    parts = ([], [], [], [])
    for p in arith.sieve_upto(N).primes().tolist():
        q = p
        while q <= N:
            m = N // q
            w = 2.0 * (math.log(p) / q) * wt[:m]
            dl, dq = d[1:m + 1], d[q::q][:m]
            zl, zq = z[1:m + 1], z[q::q][:m]
            for part, terms in zip(parts, (
                    (dl * np.conj(dq)).real,
                    (zl * np.conj(dq)).real + zq * dl.real,
                    zl * zq,
                    (y[1:m + 1] * np.conj(y[q::q][:m])).real)):
                part.append(math.fsum(w * terms))
            q *= p
    return tuple(math.fsum(part) for part in parts)


def test_big_g_small_values():
    assert big_G(1) == 1.0
    assert big_G(3) == 2.5
    G = big_G(10_000)
    assert 0.9 <= G / math.log(10_000) <= 1.4


def test_y_vector_hand_cases():
    x = 0.37
    y = y_vector(make_poly([1.0, x]))
    assert y[1] == pytest.approx(1.0 + x / 2.0, abs=1e-15)
    assert y[2] == pytest.approx(x, abs=1e-15)
    y = y_vector(delta_poly())
    assert y[1] == 1.0


def test_mobius_constraint(sieve, rng):
    from mollint.arith import mobius_table
    N = 400
    a = admissible(rng, N)
    y = y_vector(a)
    mu = mobius_table(N, sieve).astype(float)
    ell = np.arange(0, N + 1, dtype=float)
    s = np.sum(y[1:] * mu[1:] / ell[1:])
    assert s == pytest.approx(1.0, abs=1e-12)


def test_z_vector_hand_case(sieve):
    z = z_vector(2)
    assert z[1] == 0.5 and z[2] == -1.0
    z = z_vector(10)
    assert z[4] == 0.0 and z[8] == 0.0  # mu vanishes
    # sum phi/l^2 z^2 = 1/G
    from mollint.arith import phi_table
    phi = phi_table(10, sieve).astype(float)
    ell = np.arange(0.0, 11.0)
    lhs = np.sum(phi[1:] / ell[1:] ** 2 * z[1:] ** 2)
    assert lhs == pytest.approx(1.0 / big_G(10), rel=1e-12)


def test_gram_form_hand_and_brute(rng):
    x = 0.7
    a = make_poly([1.0, x])
    expected = 1.0 + x + x * x / 2.0
    assert gram_form(a, "direct") == pytest.approx(expected, rel=1e-14)
    assert gram_form(a, "diagonal") == pytest.approx(expected, rel=1e-12)
    b = admissible(rng, 40)
    ref = brute_gram(b)
    assert abs(ref.imag) <= 1e-12
    assert gram_form(b, "direct") == pytest.approx(ref.real, rel=1e-12)


@pytest.mark.parametrize("N", [10, 50, 200])
def test_diagonalization_random(rng, N):
    for _ in range(20):
        a = admissible(rng, N)
        d = gram_form(a, "direct")
        g = gram_form(a, "diagonal")
        assert abs(d - g) <= 1e-10 * abs(d)


def test_lemma_identity_and_contract(rng):
    a = admissible(rng, 300)
    dec = diag_residual(a)  # raises if the identity fails at 1e-10
    assert dec.residual >= 0.0
    assert dec.form >= 1.0 / dec.G - 1e-10
    bad = make_poly([2.0, 1.0])
    with pytest.raises(CoefficientContractError):
        diag_residual(bad)


def test_lemma_identity_hand_case():
    dec = diag_residual(make_poly([1.0, 0.0]))
    assert dec.residual == pytest.approx(0.5, abs=1e-14)
    assert dec.form == pytest.approx(1.0, abs=1e-14)


def test_minimizer_small_and_optimal(rng):
    m = minimizer_coeffs(2)
    assert m.coeffs[1] == pytest.approx(1.0, abs=1e-14)
    assert m.coeffs[2] == pytest.approx(-1.0, abs=1e-14)
    N = 200
    m = minimizer_coeffs(N)
    base = gram_form(m, "diagonal")
    assert base == pytest.approx(1.0 / big_G(N), rel=1e-12)
    for _ in range(20):
        pert = admissible(rng, N)
        assert gram_form(pert, "diagonal") >= base - 1e-12


def test_log_form_hand_case():
    assert log_form(delta_poly(), "direct") == 0.0
    x = 0.4
    a = make_poly([1.0, x])
    assert log_form(a, "direct") == pytest.approx(x * math.log(2.0),
                                                  rel=1e-14)


def test_log_form_hermitian_real(sieve, rng):
    from mollint.quadform import _gcd_sums
    a = admissible(rng, 60)
    gram, logf = _gcd_sums(a)
    assert abs(gram.imag) <= 1e-12
    assert abs(logf.imag) <= 1e-12


@pytest.mark.parametrize("N", [1, 2, 97, 1000, DIRECT_CAP])
def test_gcd_table_matches_numpy(N):
    from mollint.quadform import _gcd_table
    assert DIRECT_CAP < 2 ** 15  # every gcd fits the int16 table
    t = _gcd_table(N)
    assert t.dtype == np.int16
    assert not t.flags.writeable
    n = np.arange(N + 1)
    assert np.array_equal(t, np.gcd.outer(n, n))


def test_gcd_oracle_reaches_no_lattice_name():
    # the brute-force pass is the oracle of the lattice diagonalization, so
    # it may reach no sieve, mu or phi table and no lattice sum: a speed-up
    # that routes it through the identity it checks would check nothing
    tree = ast.parse(pathlib.Path(quadform.__file__).read_text("utf-8"))
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    banned = re.compile(r"sieve|mobius|^mu(_|$)|phi|y_vector|lattice", re.I)
    for name in ("_gcd_table", "_gcd_sums"):
        used = set()
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update((node.name, node.asname or node.name))
        assert not {u for u in used if banned.search(u)}, name
        # of the module's own functions only the table, never big_G,
        # _g_table, _tables, y_vector or _lattice_sums
        assert used & set(defs) <= {"_gcd_table"}, name


@pytest.mark.parametrize("kind", ["admissible", "minimizer"])
def test_direct_matches_diagonal_at_cap(rng, kind):
    # the factored log form cancels log d P_0 + P_1 against 2 Q; at the cap
    # it still agrees with the lattice route far inside the CLI's 1e-10
    a = admissible(rng, DIRECT_CAP) if kind == "admissible" \
        else minimizer_coeffs(DIRECT_CAP)
    gram, logf = quadform._gcd_sums(a)
    assert gram.real == pytest.approx(gram_form(a, "diagonal"), rel=1e-12)
    assert logf.real == pytest.approx(log_form(a, "diagonal"), rel=1e-12)
    assert gram_form(a, "direct") == gram.real


@pytest.mark.parametrize("pairs", ["row", "third", "third_rows"])
@pytest.mark.parametrize("N", [97, 1000])
def test_gcd_sums_block_boundaries(rng, monkeypatch, N, pairs):
    from mollint.quadform import _gcd_sums
    a = admissible(rng, N)
    ref = _gcd_sums(a)
    # one row per block, N // 3 pairs (also one row), and N // 3 whole rows
    # (a short last block)
    block = {"row": N, "third": N // 3, "third_rows": N * (N // 3)}[pairs]
    monkeypatch.setattr(quadform, "PAIR_BLOCK", block)
    for got, want in zip(_gcd_sums(a), ref):
        assert abs(got.real - want.real) <= 1e-14 * abs(want)
        assert abs(got.imag - want.imag) <= 1e-14 * abs(want)


def test_log_form_brute(rng):
    a = admissible(rng, 30)
    ref = brute_log_form(a)
    assert log_form(a, "direct") == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("blocks", [False, True])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 97, 99, 100, 101, 4096, 5000])
def test_lattice_transforms_match_loop(sieve, rng, monkeypatch, N, blocks):
    # N at and beside perfect squares, where r = isqrt(N) moves rows between
    # the hyperbola's two halves; bit for bit, signs of zero included
    if blocks:
        # the lattice holds no pair block, so PAIR_BLOCK (the gcd pass's)
        # must not move its sums
        monkeypatch.setattr(quadform, "PAIR_BLOCK", max(1, N // 3))
    c = rng.normal(size=N) + 1j * rng.normal(size=N)
    c[rng.random(N) < 0.2] = -0.0
    c.imag[rng.random(N) < 0.2] = -0.0
    a = make_poly(c)
    assert y_vector(a).tobytes() == y_loop(a).tobytes()
    assert minimizer_coeffs(N).coeffs.real.tobytes() \
        == minimizer_loop(N, sieve).tobytes()


@pytest.mark.parametrize("N", [7, 1000])
def test_y_vector_terms_are_complex_division(rng, N):
    # c * (1/d) sums to the bits of numpy's complex c / d
    a = make_poly(rng.normal(size=N) + 1j * rng.normal(size=N))
    ref = quadform._lattice_sums(N, np.arange(1, N + 1), a.coeffs,
                                 lambda d, c: c / d)
    assert np.array_equal(y_vector(a).view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("N", [1, 7, 4000])
def test_minimizer_postcondition_is_y_vector(N):
    # the postcondition's real pass is y_vector(a) bit for bit: its real
    # part, with every imaginary part zero
    a, y = quadform._minimizer(N)
    ref = y_vector(a)
    assert not ref.imag.any()
    assert np.array_equal(y.view(np.int64), ref.real.view(np.int64))


def test_minimizer_length_cap_refused_before_sieve(monkeypatch):
    def refuse(limit):
        raise AssertionError(f"a sieve of {limit} was built")
    monkeypatch.setattr(arith, "sieve_build", refuse)
    with pytest.raises(PolyLengthError, match="exceeds cap"):
        minimizer_coeffs(MAX_CONV_LENGTH + 1)


@pytest.mark.parametrize("N", [0, -3])
def test_minimizer_length_below_one_refused(monkeypatch, N):
    def refuse(limit):
        raise AssertionError(f"a sieve of {limit} was built")
    monkeypatch.setattr(arith, "sieve_build", refuse)
    with pytest.raises(PolyLengthError,
                       match=f"minimizer length {N} is below 1"):
        minimizer_coeffs(N)


def test_log_form_diagonal_hand_case():
    assert log_form(delta_poly(), "diagonal") == 0.0
    x = 0.4
    a = make_poly([1.0, x])
    assert log_form(a, "diagonal") == pytest.approx(x * math.log(2.0),
                                                    rel=1e-14)


@pytest.mark.parametrize("N", [10, 50, 200, 1000])
def test_log_form_diagonal_brute_and_direct(rng, N):
    for a in (admissible(rng, N), minimizer_coeffs(N)):
        diag = log_form(a, "diagonal")
        assert diag == pytest.approx(brute_log_form(a), rel=1e-12)
        assert diag == pytest.approx(log_form(a, "direct"), rel=1e-12)


def test_g_closed_form_is_mobius_inverse(sieve):
    N = 5000
    mu = mobius_table(N, sieve).astype(float)
    ref = np.zeros(N + 1)
    for ell in range(2, N + 1):
        m = N // ell
        ref[ell::ell] += mu[1:m + 1] * (ell * math.log(ell))
    n = np.arange(1, N + 1, dtype=float)
    g = quadform._g_table(N)
    assert g[0] == 0.0 and g[1] == 0.0
    assert np.all(np.abs(g[1:] - ref[1:]) <= 1e-12 * n * np.log(n))


def test_s_decomposition_sign_and_minimizer(rng):
    a = admissible(rng, 200)
    sd = s_decomposition(a)
    assert sd.main == pytest.approx(sd.s1 + sd.s2 + sd.s3, rel=1e-12)
    m = minimizer_coeffs(500)
    sdm = s_decomposition(m)
    assert abs(sdm.s1) <= 1e-12 and abs(sdm.s2) <= 1e-12
    assert sdm.main == pytest.approx(sdm.s3, abs=1e-12)
    assert -1.3 <= sdm.s3 <= -0.4  # drifting toward -1


@pytest.mark.parametrize("kind", ["admissible", "minimizer"])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 97, 1000, 4096])
def test_s_decomposition_matches_prime_power_loop(rng, N, kind):
    a = admissible(rng, N) if kind == "admissible" else minimizer_coeffs(N)
    sd = s_decomposition(a)
    for got, ref in zip((sd.s1, sd.s2, sd.s3, sd.main),
                        s_decomposition_loop(a)):
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (got, ref)


def test_s_decomposition_is_three_lattice_passes():
    # no Python for loop and no strided read v[q::q]: the pieces reach the
    # lattice only through _lattice_sums
    tree = ast.parse(pathlib.Path(quadform.__file__).read_text("utf-8"))
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert "_prime_powers" not in defs
    nodes = list(ast.walk(defs["s_decomposition"]))
    assert not any(isinstance(n, (ast.For, ast.AsyncFor)) for n in nodes)
    assert not any(isinstance(n, ast.Slice) and n.step is not None
                   for n in nodes)
    called = {n.func.id for n in nodes
              if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert "_lattice_sums" in called


def test_s1_envelope(rng):
    # |S1| <= (log N + C loglog N) * residual, C reported by measurement
    N = 300
    for _ in range(5):
        a = admissible(rng, N)
        sd = s_decomposition(a)
        res = diag_residual(a).residual
        assert abs(sd.s1) <= (math.log(N) + 6.0 * math.log(math.log(N))) * res


def test_propb_hand_case_and_cross_module():
    from mollint.quadform import PROPB_C
    v = propB_value(100.0, delta_poly())
    assert v == pytest.approx(math.log(PROPB_C * 100.0) - 1.0, rel=1e-14)
    m = minimizer_coeffs(251)
    assert propB_value(1e6, m) == pytest.approx(
        bch_predicted(1e6, m), rel=1e-10)


def test_propb_one_path_beyond_direct_cap(rng):
    N = DIRECT_CAP + 1
    a = admissible(rng, N)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = propB_value(1e6, a)
    gram = gram_form(a, "diagonal")
    logf = log_form(a, "diagonal")
    assert v == math.log(PROPB_C * 1e6) * gram - logf - 1.0


@pytest.mark.parametrize("T", [math.nan, math.inf, 0.0, -1.0])
def test_propb_rejects_bad_height(T):
    with pytest.raises(ValueError, match="T must be positive and finite"):
        propB_value(T, delta_poly())


def test_propb_constant_spellings():
    from mollint.quadform import PROPB_C
    from mollint.arith import EULER_GAMMA
    lhs = math.log(PROPB_C * 1000.0)
    rhs = math.log(1000.0 / (2 * math.pi)) + 2 * math.log(2.0) \
        + 2 * EULER_GAMMA - 1.0
    assert lhs == pytest.approx(rhs, abs=1e-14)


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: gram_form(delta_poly(), mode="telescoped"), ValueError,
     "unknown mode 'telescoped'"),
    (lambda: log_form(delta_poly(), mode="telescoped"), ValueError,
     "unknown mode 'telescoped'"),
], ids=["gram-mode", "log-mode"])
def test_typed_refusals(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
