import ast
import copy
import functools
import math
import pathlib
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

import mollint.zeta as zeta_mod
from mollint.arith import sieve_build
from mollint.dirichlet import build_L_theta, evaluate_poly_many, make_poly
from mollint.moments import resolution_floor
from mollint.zerostats import PairCorrelation, WellSpacedSet
from mollint.zeta import (
    RS_CROSSOVER,
    T_CAP,
    T_FLOOR,
    DomainError,
    ZeroTable,
    ZeroTableError,
    count_zeros_rvm,
    find_zeros,
    hardy_z,
    hardy_z_many,
    import_zero_table,
    rs_theta,
    write_zero_table,
    zeta_critical,
    zeta_critical_many,
    zeta_on_grid,
)
from mollint.zeta import (
    _BracketTaylor,
    _dip_gaps,
    _em_n_cap,
    _refine_scan,
    _refine_zeros,
    _rescan,
    _sign_changes,
    _taylor_order,
    _z_on_scan_grid,
)

mp.mp.dps = 30


def _grid_point(t):
    """zeta(1/2 + it) through the grid evaluator, as a one-node family."""
    return complex(zeta_on_grid([t], 0.0, 1)[0, 0])


def _both(ts):
    """Each height through the pointwise evaluator (id: the height) and
    through the grid evaluator (id: grid-height)."""
    return ([pytest.param(t, zeta_critical, id=str(t)) for t in ts]
            + [pytest.param(t, _grid_point, id=f"grid-{t}") for t in ts])


def _gl_family(a, b, panels):
    """(t0, h, P) of the 8-point composite Gauss-Legendre rule on [a, b]:
    offset k has nodes t0[k] + j h, j < P."""
    gx, _ = np.polynomial.legendre.leggauss(8)
    h = (b - a) / panels
    return a + 0.5 * h * (1.0 + gx), h, panels


def _floor_family(T):
    return _gl_family(T, 2.0 * T, resolution_floor(T))


@pytest.mark.parametrize("t, evaluate",
                         _both([10.0, 14.2, 100.0, 5000.0, 99999.0]))
def test_zeta_against_mpmath(t, evaluate):
    ref = complex(mp.zeta(mp.mpc(0.5, t)))
    assert evaluate(t) == pytest.approx(ref, abs=5e-10)


@pytest.mark.parametrize("t, evaluate", _both([0.0, 1.5, -25.0]))
def test_zeta_small_and_negative(t, evaluate):
    ref = complex(mp.zeta(mp.mpc(0.5, t)))
    assert evaluate(t) == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("family", [
    pytest.param(_floor_family(500.0), id="floor-500"),
    pytest.param(_floor_family(1000.0), id="floor-1000"),
    pytest.param(_floor_family(2000.0), id="floor-2000"),
    pytest.param((np.array([-40.5, 3.0, 14.2, 987.6]), 0.73, 1), id="P1"),
    pytest.param((np.array([-40.5, 3.0, 14.2, 987.6]), 0.73, 2), id="P2"),
    pytest.param((np.array([-40.5, 3.0, 14.2, 987.6]), 0.73, 10), id="P10"),
    pytest.param(_gl_family(-100.0, 100.0, 1200), id="sym-100-P1200"),
])
def test_grid_matches_pointwise(family):
    t0, h, P = family
    grid = zeta_on_grid(t0, h, P)
    assert grid.shape == (P, len(t0))
    ts = t0[None, :] + h * np.arange(P)[:, None]
    direct = zeta_critical_many(ts.ravel()).reshape(ts.shape)
    assert np.max(np.abs(grid - direct)) <= 1e-10


@pytest.mark.parametrize("T", [2000.0, 1.0e4])
def test_grid_against_mpmath(T):
    t0, h, P = _floor_family(T)
    grid = zeta_on_grid(t0, h, P)
    rng = np.random.default_rng(int(T))
    # the first and last panels carry the edge modes of the transform
    rows = np.concatenate(([0, P - 1], rng.choice(P, 6, replace=False)))
    cols = rng.choice(len(t0), len(rows))
    for j, k in zip(rows, cols):
        t = float(t0[k] + h * j)
        ref = complex(mp.zeta(mp.mpc(0.5, t)))
        assert grid[j, k] == pytest.approx(ref, abs=5e-10)


def _grid_at(t):
    return zeta_on_grid(t, 0.5, 3)


def _grid_step(h):
    return zeta_on_grid([100.0], h, 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("evaluate", [zeta_critical_many, hardy_z_many,
                                      _grid_at, _grid_step])
def test_non_finite_heights_rejected(evaluate, bad):
    arg = bad if evaluate is _grid_step else np.array([100.0, bad])
    with pytest.raises(DomainError, match="finite"):
        evaluate(arg)


def test_height_cap_from_phase_rounding():
    # T_CAP is where pointwise_sum's phase rounding 5 u t log nu
    # sum_{n<=nu} n^(-1/2) first exceeds the Riemann-Siegel bound at the
    # crossover, (RS_CROSSOVER/2pi)^(-5/4)
    def phase(t):
        nu = math.floor(math.sqrt(t / (2.0 * math.pi)))
        return (5.0 * 2.0 ** -53 * t * math.log(nu)
                * math.fsum(np.arange(1, nu + 1) ** -0.5))

    bound = (RS_CROSSOVER / (2.0 * math.pi)) ** -1.25
    assert phase(T_CAP) <= bound < phase(1.01 * T_CAP)
    assert T_CAP > 2.0e6
    assert np.isfinite(hardy_z_many(np.array([T_CAP]))).all()


@pytest.mark.parametrize("evaluate", [
    hardy_z_many, zeta_critical_many, _grid_at,
    lambda t: find_zeros(1.0e6, float(t[-1]))])
@pytest.mark.parametrize("top", [np.nextafter(T_CAP, math.inf), 1.0e20,
                                 -1.0e20])
def test_heights_above_cap_refused_unevaluated(monkeypatch, evaluate, top):
    # refused before any sum: at 1e20 the pointwise plan alone would ask
    # np.arange for 32 GB
    def unreachable(*args, **kwargs):
        raise AssertionError("a height above T_CAP reached a sum")

    for name in ("_pointwise", "pointwise_sum", "progression_sum",
                 "_z_on_scan_grid"):
        monkeypatch.setattr(zeta_mod, name, unreachable)
    with pytest.raises(DomainError, match="T_CAP|1.7e\\+07"):
        evaluate(np.array([100.0, top]))


def test_grid_degenerate_shapes():
    with pytest.raises(ValueError):
        zeta_on_grid([100.0], 0.5, 0)
    assert zeta_on_grid([], 0.5, 3).shape == (3, 0)


def test_zeta_above_crossover_riemann_siegel():
    # the documented Riemann-Siegel error with C0 and C1, (t/2pi)^(-5/4)
    for t in (1.001e5, 3.0e5, 1.0e6):
        ref = complex(mp.zeta(mp.mpc(0.5, t)))
        bound = (t / (2.0 * math.pi)) ** -1.25
        assert abs(zeta_critical(t) - ref) <= bound, t


def _rs_psi(x):
    """Psi(p) = cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p) in mpmath."""
    return mp.cos(2 * mp.pi * (x * x - x - mp.mpf(1) / 16)) \
        / mp.cos(2 * mp.pi * x)


@functools.cache
def _rs_psi_taylor():
    """Taylor coefficients of Psi(1/2 + x), x^0 to x^48, at 50 digits."""
    with mp.workdps(50):
        return mp.taylor(lambda x: _rs_psi(mp.mpf(1) / 2 + x), 0, 48)


def test_rs_psi_table_against_mpmath():
    ref = _rs_psi_taylor()
    assert all(abs(c) < 1e-50 for c in ref[1::2])
    # each literal is its 50-digit coefficient rounded to double
    assert zeta_mod._RS_PSI_TAYLOR.tolist() == [float(c) for c in ref[::2]]


@pytest.mark.parametrize("p", [0.0, 0.05, 0.25, 0.26, 0.3, 0.6, 0.75, 0.76,
                               0.9, 1.0 - 2.0**-40])
def test_rs_coefficients_against_mpmath(p):
    # Cauchy's integral on a circle of radius 0.1 about p: no node at a
    # 0/0 point of the ratio, so p = 1/4 and 3/4 need no limit
    def deriv(n):
        d = mp.diff(_rs_psi, mp.mpf(p), n, method="quad", radius=0.1)
        return float(mp.re(d))
    c0, c1 = zeta_mod._rs_coefficients(np.array([p]))
    x2 = (p - 0.5) ** 2
    # Horner's rounding bound, 2n u sum |c_k| x^(2k) for degree n in x^2,
    # with two rounding steps more for x^2 and the factor x of C1
    for table, got, ref, scale in (
            (zeta_mod._RS_PSI_TAYLOR, c0[0], deriv(0), 1.0),
            (zeta_mod._RS_C1_TAYLOR, c1[0],
             -deriv(3) / (96.0 * math.pi**2), abs(p - 0.5))):
        size = scale * sum(abs(c) * x2**k for k, c in enumerate(table))
        tol = (2 * len(table) + 2) * 2.0**-53 * size
        assert abs(got - ref) <= tol, (p, got, ref)


@pytest.mark.parametrize("a", [126.76, 126.26, 218.74, 126.25])
def test_z_riemann_siegel_near_quarter_points(a):
    # heights 2 pi a^2 with p = a - floor(a) at or near 1/4 and 3/4, where
    # the closed-form Psi is 0/0; the C0, C1 truncation leaves about
    # |C2(p)| a^(-5/2), C2 = Psi''/(64 pi^2) + Psi^(6)/(18432 pi^4)
    c = [float(ci) for ci in _rs_psi_taylor()]
    P = np.polynomial.polynomial
    c2 = P.polyadd(P.polyder(c, 2) / (64.0 * math.pi**2),
                   P.polyder(c, 6) / (18432.0 * math.pi**4))
    max_c2 = np.abs(P.polyval(np.linspace(-0.5, 0.5, 1001), c2)).max()
    t = 2.0 * math.pi * a * a
    ref = float(mp.siegelz(t))
    bound = 2.0 * max_c2 * (t / (2.0 * math.pi)) ** -1.25
    assert abs(hardy_z(t) - ref) <= bound, (t, hardy_z(t) - ref, bound)


@pytest.mark.parametrize("t", [10.0, 50.0, 1234.5, 80000.0])
def test_rs_theta_against_mpmath(t):
    ref = float(mp.siegeltheta(t))
    assert rs_theta(t) == pytest.approx(ref, abs=1e-9)


def test_hardy_z_real_and_consistent():
    for t in (14.0, 120.0, 777.7):
        z = hardy_z(t)
        ref = float(mp.siegelz(t))
        assert z == pytest.approx(ref, abs=1e-9)
        assert abs(zeta_critical(t)) == pytest.approx(abs(z), rel=1e-9)


def test_hardy_z_floor():
    with pytest.raises(DomainError):
        hardy_z(5.0)


def test_hardy_z_at_floor():
    assert hardy_z(T_FLOOR) == pytest.approx(float(mp.siegelz(T_FLOOR)),
                                             abs=1e-9)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 5.0])
@pytest.mark.parametrize("evaluate", [rs_theta, count_zeros_rvm, hardy_z])
def test_floor_checks_reject_bad_heights(evaluate, bad):
    with pytest.raises(DomainError, match="validity range"):
        evaluate(bad)


def test_em_blocks_scattered_heights():
    # shuffled heights over 10..1e5 with repeats: the sorted blocks span a
    # height ratio, so most points take a longer truncation than their own
    rng = np.random.default_rng(2026)
    base = np.concatenate(([10.0, 1.0e5],
                           np.exp(rng.uniform(math.log(10.0), math.log(1.0e5),
                                              200))))
    ts = np.concatenate((base, rng.choice(base, 30)))
    rng.shuffle(ts)
    many = zeta_critical_many(ts)
    order = np.argsort(ts)
    assert np.array_equal(many[order], zeta_critical_many(ts[order]))
    # one-point calls use their own truncation; both are held to the
    # Euler-Maclaurin accuracy of test_zeta_against_mpmath
    one = np.array([zeta_critical(float(t)) for t in ts])
    assert np.max(np.abs(many - one)) <= 5e-10
    for i in np.concatenate((order[[0, -1]], rng.choice(len(ts), 6))):
        ref = complex(mp.zeta(mp.mpc(0.5, float(ts[i]))))
        assert many[i] == pytest.approx(ref, abs=5e-10)


def test_vectorized_matches_scalar():
    ts = np.array([12.0, 345.6, 9999.9])
    many = zeta_critical_many(ts)
    for i, t in enumerate(ts):
        assert many[i] == pytest.approx(zeta_critical(float(t)), rel=1e-14)


def _em_boundary_terms(t, n_cap):
    """The Euler-Maclaurin boundary and tail terms at truncation N as
    N^{-s} times each of 1/2, N/(s-1) and beta_k s(s+1)...(s+2k-2)
    N^{1-2k}, k <= EM_K, term by term in mpmath."""
    s, N = mp.mpc(0.5, t), mp.mpf(n_cap)
    terms = [mp.mpf(0.5), N / (s - 1)]
    poch = mp.mpf(1)
    for k in range(1, zeta_mod.EM_K + 1):
        poch *= s if k == 1 else (s + 2 * k - 3) * (s + 2 * k - 2)
        terms.append(mp.bernoulli(2 * k) / mp.factorial(2 * k) * poch
                     * N ** (1 - 2 * k))
    return terms


# fewer than 4 EM_K + 16 rounded operations lie on the path of each value,
# each off by at most u relative to a term of F
_EM_ROUNDINGS = 4 * zeta_mod.EM_K + 16


@pytest.mark.parametrize("t", [10.0, 57.0, 2000.0, 3999.0, 99999.0,
                               -57.0, -3999.0])
def test_em_boundary_against_mpmath(t):
    n_cap = zeta_mod._em_n_cap(abs(t))
    got = zeta_mod._em_add_boundary(np.zeros(1, complex), np.array([t]),
                                    n_cap)[0]
    terms = _em_boundary_terms(t, n_cap)
    scale = mp.mpf(n_cap) ** -0.5
    ref = complex(scale * mp.exp(-1j * t * mp.log(n_cap)) * mp.fsum(terms))
    # the phase t log N is rounded to double twice (log N, then the
    # product): 2 u |t| log N relative, on top of the arithmetic
    u = 2.0 ** -53
    size = float(scale * mp.fsum(abs(x) for x in terms))
    tol = u * (2.0 * abs(t) * math.log(n_cap) + _EM_ROUNDINGS) * size
    assert abs(got - ref) <= tol
    # with that double phase in the reference, the arithmetic alone is
    # left, and it resolves the last tail term at 57 <= |t| <= 99999
    phase = mp.mpf(t * math.log(n_cap))
    ref = complex(scale * mp.exp(-1j * phase) * mp.fsum(terms))
    assert abs(got - ref) <= u * _EM_ROUNDINGS * size
    if abs(t) >= 57.0:
        assert float(scale * abs(terms[-1])) > u * _EM_ROUNDINGS * size


def test_em_boundary_blocks_bit_identical(monkeypatch):
    # the boundary terms are elementwise, so neither a block of one row nor
    # one of an odd number of rows moves a value
    rng = np.random.default_rng(16)
    t = np.sort(rng.uniform(-4000.0, 4000.0, (600, 8)), axis=0)
    main = rng.normal(size=t.shape) + 1j * rng.normal(size=t.shape)
    ref = zeta_mod._em_add_boundary(main.copy(), t, 2400)
    assert zeta_mod.GRID_CHUNK // 8 >= len(t)      # one block at the default
    for block in (1, 8 * 13 + 5):
        monkeypatch.setattr(zeta_mod, "GRID_CHUNK", block)
        got = zeta_mod._em_add_boundary(main.copy(), t, 2400)
        assert np.array_equal(got, ref)
        assert np.array_equal(
            zeta_mod._em_add_boundary(main[:, 3].copy(), t[:, 3], 2400),
            ref[:, 3])


@pytest.mark.parametrize("t1, step, error", [
    (math.inf, None, DomainError),
    (math.nan, None, DomainError),
    (20.0, 0.0, ValueError),
    (20.0, -1.0, ValueError),
    (20.0, math.nan, ValueError),
    (20.0, math.inf, ValueError),
])
def test_find_zeros_rejects_bad_height_or_step(t1, step, error):
    with pytest.raises(error):
        find_zeros(10.0, t1, scan_step=step)


def _direct_progression_sum(lam, amp, t0, h, P):
    """sum_n amp[n] e^{-i (t0[k] + j h) lam[n]} term by term in extended
    precision (np.longdouble), so the oracle's own phase rounding sits
    below the kernel's."""
    L = np.longdouble
    lam = np.asarray(lam, dtype=L)
    ts = (np.asarray(t0, dtype=L)[None, :]
          + L(h) * np.arange(P, dtype=L)[:, None])
    ar, ai = amp.real.astype(L), amp.imag.astype(L)
    out = np.empty(ts.shape, dtype=complex)
    for k in range(ts.shape[1]):
        ph = np.outer(ts[:, k], lam)
        c, s = np.cos(ph), np.sin(ph)
        out[:, k] = (c @ ar + s @ ai).astype(float) \
            + 1j * (c @ ai - s @ ar).astype(float)
    return out


@pytest.mark.parametrize("P, h, n_src, lam_max, t0", [
    (1, 0.0, 300, 10.0, [100.0, -50.0, 0.1234]),
    (2, 0.3, 300, 10.0, [100.0, -50.0, 0.1234]),
    (10, -0.7, 300, 10.0, [1000.0, -500.0, 0.1234]),
    (10, 0.0, 50, 3.0, [20.0, -10.0, 0.1234]),
    (4000, 0.25, 200, 8.0, [2000.0, -1000.0, 0.1234]),
    (4000, -0.0005, 200, 1400.0, [1.0, -0.5, 0.1234]),
    (4001, 0.01, 0, 8.0, [10.0, -5.0, 0.1234]),
    (7, 0.5, 40, 5.0, []),
    # grids of 6, 32 and 36 points, below, at and above 2 GRID_MSP, so the
    # overhang folds over several periods of the grid or over one
    (3, 0.4, 300, 10.0, [100.0, -50.0, 0.1234]),
    (16, -0.3, 300, 10.0, [100.0, -50.0, 0.1234]),
    (17, 0.2, 300, 10.0, [100.0, -50.0, 0.1234]),
])
def test_progression_sum_against_direct(P, h, n_src, lam_max, t0):
    rng = np.random.default_rng(P + n_src)
    lam = rng.uniform(0.0, lam_max, n_src)
    amp = rng.normal(size=n_src) + 1j * rng.normal(size=n_src)
    got = _check_progression_sum(lam, amp, np.array(t0), h, P, lam_max)
    if n_src == 0:
        assert np.all(got == 0.0)


def _check_progression_sum(lam, amp, t0, h, P, lam_max):
    got = zeta_mod.progression_sum(lam, amp, t0, h, P)
    assert got.shape == (P, len(t0))
    ref = _direct_progression_sum(lam, amp, t0, h, P)
    # the documented bound: (1e-14 + 5 u Phi) sum|amp|
    ts = t0[None, :] + h * np.arange(P)[:, None]
    phi = np.max(np.abs(ts), initial=0.0) * lam_max
    bound = (1e-14 + 5.0 * 2.0 ** -53 * phi) * np.sum(np.abs(amp))
    assert np.max(np.abs(got - ref), initial=0.0) <= bound
    return got


@pytest.mark.parametrize("chunk", [1, 37])
@pytest.mark.parametrize("P", [3, 50])
def test_progression_sum_across_chunks(monkeypatch, chunk, P):
    # sources in many batches of GRID_CHUNK, the last one partial (300 is
    # not a multiple of 37): every batch adds into the same grid
    monkeypatch.setattr(zeta_mod, "GRID_CHUNK", chunk)
    rng = np.random.default_rng(chunk + P)
    lam = rng.uniform(0.0, 10.0, 300)
    amp = rng.normal(size=300) + 1j * rng.normal(size=300)
    _check_progression_sum(lam, amp, np.array([100.0, -50.0, 0.1234]), 0.3,
                           P, 10.0)


@pytest.mark.parametrize("n_src, lam_max, t, cplx", [
    (300, 10.0, [100.0, -50.0, 0.1234, 0.0], True),
    (300, 10.0, [100.0, -50.0, 0.1234, 0.0], False),
    (2000, 8.0, np.linspace(-2000.0, 2000.0, 501), True),
    (1200, 1400.0, [1.0, -0.5, 0.1234, 3.0], True),
    (1200, 1400.0, [1.0, -0.5, 0.1234, 3.0], False),
    (0, 8.0, [10.0, -5.0], True),
    (40, 5.0, [], True),
])
def test_pointwise_sum_against_direct(n_src, lam_max, t, cplx):
    rng = np.random.default_rng(n_src + len(t))
    lam = rng.uniform(0.0, lam_max, n_src)
    amp = rng.normal(size=n_src) + (1j * rng.normal(size=n_src) if cplx
                                    else 0.0)
    t = np.array(t)
    got = zeta_mod.pointwise_sum(lam, amp, t)
    assert got.shape == t.shape
    ref = _direct_progression_sum(lam, amp + 0j, t, 0.0, 1)[0]
    # the documented bound, as for progression_sum: (1e-14 + 5 u Phi) sum|amp|
    phi = np.max(np.abs(t), initial=0.0) * lam_max
    bound = (1e-14 + 5.0 * 2.0 ** -53 * phi) * np.sum(np.abs(amp))
    assert np.max(np.abs(got - ref), initial=0.0) <= bound
    if n_src == 0:
        assert np.all(got == 0.0)


def test_progression_sum_real_amp_against_direct():
    # real amplitudes, as the zero scan and the pair statistics pass them
    rng = np.random.default_rng(31)
    lam = rng.uniform(0.0, 10.0, 300)
    _check_progression_sum(lam, rng.normal(size=300),
                           np.array([100.0, -50.0, 0.1234]), 0.3, 40, 10.0)
    _check_progression_sum(lam, np.ones(300), np.array([7.0]), -0.2, 9, 10.0)


@pytest.mark.parametrize("cplx", [False, True])
def test_pointwise_sum_holds_three_blocks(monkeypatch, cplx):
    # the phases (then the sines), the cosines and one product: the blocks
    # of the last pass are freed before the next block's phases are formed
    monkeypatch.setattr(zeta_mod, "OUTER_BLOCK", 250_000)
    lam = np.log(np.arange(1.0, 1001.0))
    amp = lam + (1j if cplx else 0.0)
    ts = np.linspace(1.0e4, 1.1e4, 1000)
    zeta_mod.pointwise_sum(lam, amp, ts[:2])
    tracemalloc.start()
    try:
        zeta_mod.pointwise_sum(lam, amp, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 8 * 250_000


def test_pointwise_blocks_bit_identical(monkeypatch):
    # each row is summed by itself, so neither a block of one row nor one
    # of an odd number of rows moves a value
    rng = np.random.default_rng(14)
    ts = np.concatenate((rng.uniform(10.0, 2000.0, 3000),
                         np.exp(rng.uniform(math.log(2000.0),
                                            math.log(1.0e5), 200))))
    A = make_poly(rng.normal(size=2000) + 1j * rng.normal(size=2000))
    ta = rng.uniform(-3000.0, 3000.0, 2500)
    zeta_ref = zeta_critical_many(ts)
    poly_ref = evaluate_poly_many(A, 0.5, ta)
    # at the default a block holds over 1000 rows of either sum (at most
    # 1200 terms below t = 2000, and 2000 coefficients)
    assert zeta_mod.OUTER_BLOCK // 1200 > 1000
    assert zeta_mod.OUTER_BLOCK // 2000 > 1000
    for block in (1, 7 * 2000 + 3):
        monkeypatch.setattr(zeta_mod, "OUTER_BLOCK", block)
        assert np.array_equal(zeta_critical_many(ts), zeta_ref)
        assert np.array_equal(evaluate_poly_many(A, 0.5, ta), poly_ref)


def test_find_zeros_first_three(zeros_low):
    g = zeros_low.ordinates
    assert len(g) == 29
    assert g[0] == pytest.approx(14.134725, abs=1e-5)
    assert g[1] == pytest.approx(21.022040, abs=1e-5)
    assert g[2] == pytest.approx(25.010858, abs=1e-5)
    assert zeros_low.claimed_complete


def test_zeros_are_zeros(zeros_low):
    for g in zeros_low.ordinates:
        assert abs(hardy_z(float(g))) <= 1e-5


def test_find_zeros_above_float_spacing_threshold():
    # above 2^19 the float spacing (1.16e-10) exceeds the refinement
    # tolerance; the brackets stop at one ulp instead of looping forever
    table = find_zeros(1.0e6, 1.0e6 + 20.0)
    expected = int(mp.nzeros(1.0e6 + 20.0)) - int(mp.nzeros(1.0e6))
    assert len(table) == expected == 37
    assert table.claimed_complete


def test_find_zeros_empty_window():
    # no ordinate lies in [10, 14] (the first is 14.1347...), and an RVM
    # estimate of 0.41 makes the empty table complete
    table = find_zeros(10.0, 14.0)
    assert len(table) == 0
    assert table.claimed_complete
    assert table.diagnostics == ()


def test_find_zeros_straddling_crossover():
    # the scan grid is Euler-Maclaurin on the grid below RS_CROSSOVER and
    # Riemann-Siegel on progressions of constant nu above it
    table = find_zeros(99990.0, 100010.0)
    expected = int(mp.nzeros(100010.0)) - int(mp.nzeros(99990.0))
    assert len(table) == expected == 31
    assert table.claimed_complete


def _rs_scan_tolerance(grid):
    """Bound on |Z_scan - Z_pointwise| at the Riemann-Siegel scan points.

    The scan sums n <= nu through progression_sum, whose documented error
    is (1e-14 + 5 u Phi) sum n^{-1/2}, Phi = max t log nu; Z = 2 Re(...)
    doubles it.  The pointwise sum has its own phase rounding: t log n
    carries two roundings and its rotation by theta one more, at most
    u (3 Phi + theta) per term, and its linspace height differs from the
    progression's t0 + j h by two roundings of t, 2 u Phi more.
    """
    u = 2.0 ** -53
    t = float(grid[-1])
    nu = int(math.sqrt(t / (2.0 * math.pi)))
    phi = t * math.log(nu)
    amp = math.fsum(n ** -0.5 for n in range(1, nu + 1))
    direct = u * (5.0 * phi + rs_theta(t))
    return 2.0 * amp * ((1e-14 + 5.0 * u * phi) + direct)


@pytest.mark.parametrize("t0, t1, tol", [
    (10.0, 100.0, 1e-10),
    (995.0, 2005.0, 1e-10),
    # near t = 1e5 both Euler-Maclaurin sums carry the rounding of the
    # phases t log n (each is within 5e-10 of mpmath, as in
    # test_zeta_against_mpmath), so they agree only to that level
    (99990.0, 100010.0, 5e-10),
    (300000.0, 302000.0, None),
])
def test_scan_grid_matches_pointwise(t0, t1, tol):
    grid, z = _z_on_scan_grid(t0, t1, 0.5 / math.log(t1))
    direct = hardy_z_many(grid)
    em = grid <= RS_CROSSOVER
    if em.any():
        assert np.max(np.abs(z[em] - direct[em])) <= tol
    if not em.all():
        assert np.max(np.abs(z[~em] - direct[~em])) \
            <= _rs_scan_tolerance(grid[~em])
    assert np.array_equal(np.sign(z), np.sign(direct))


def test_rs_blocks_bit_identical(monkeypatch):
    # pointwise Riemann-Siegel sums over blocks of points, each row as long
    # as its own nu (the grid crosses 218 -> 219), so no blocking moves a
    # value
    grid, _ = _z_on_scan_grid(300000.0, 302000.0, 0.5 / math.log(302000.0))
    blocked = hardy_z_many(grid)
    assert len(grid) > zeta_mod.OUTER_BLOCK // 219
    monkeypatch.setattr(zeta_mod, "OUTER_BLOCK", 219 * 1009)
    assert np.array_equal(hardy_z_many(grid), blocked)


def _mixed_heights():
    """Shuffled heights on both sides of RS_CROSSOVER, across the nu jumps
    126 -> 127 -> 128 (at 2 pi nu^2) and up to 1e6, with repeats."""
    rng = np.random.default_rng(27)
    ts = np.concatenate((
        [10.0, RS_CROSSOVER, np.nextafter(RS_CROSSOVER, math.inf), 1.0e6],
        np.exp(rng.uniform(math.log(10.0), math.log(RS_CROSSOVER), 60)),
        rng.uniform(RS_CROSSOVER, 1.04e5, 40),
        rng.uniform(9.9e5, 1.0e6, 10)))
    ts = np.concatenate((ts, rng.choice(ts, 20)))
    rng.shuffle(ts)
    nu = np.floor(np.sqrt(ts[ts > RS_CROSSOVER] / (2.0 * math.pi)))
    assert {126, 127, 128} <= set(nu.astype(int))
    return ts


def test_rs_values_independent_of_the_call():
    # a Riemann-Siegel value sums its own n <= nu, so a batched value is
    # the one-point value bit for bit, whatever else the call holds
    ts = _mixed_heights()
    rs = ts > RS_CROSSOVER
    z, zeta = hardy_z_many(ts), zeta_critical_many(ts)
    for t, zt, zz in zip(ts[rs], z[rs], zeta[rs]):
        assert zt == hardy_z(float(t))
        assert zz == zeta_critical(float(t))


def test_pointwise_order_sign_and_shape():
    ts = _mixed_heights()
    z, zeta = hardy_z_many(ts), zeta_critical_many(ts)
    perm = np.random.default_rng(3).permutation(len(ts))
    assert np.array_equal(hardy_z_many(ts[perm]), z[perm])
    assert np.array_equal(zeta_critical_many(ts[perm]), zeta[perm])
    assert np.array_equal(zeta_critical_many(-ts), np.conj(zeta))
    # a (2, 3) input mixing both backends is the raveled call, reshaped
    t2 = np.array([[50.0, 2.0e5, 7.0e4], [1.0e6, 14.2, 1.0e5 + 1.0]])
    for evaluate in (hardy_z_many, zeta_critical_many):
        got = evaluate(t2)
        assert got.shape == (2, 3)
        assert np.array_equal(got.ravel(), evaluate(t2.ravel()))
        assert evaluate(np.empty(0)).shape == (0,)


def test_crossover_read_only_by_plan_key():
    # one switch between the backends: every evaluator of Z and zeta routes
    # its heights through _plan_key, the only reader of RS_CROSSOVER
    def reads(node):
        return [n for n in ast.walk(node)
                if isinstance(n, ast.Name) and n.id == "RS_CROSSOVER"
                and isinstance(n.ctx, ast.Load)
                or isinstance(n, ast.Attribute) and n.attr == "RS_CROSSOVER"]

    package = pathlib.Path(zeta_mod.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name != "zeta.py":
            assert reads(tree) == [], path.name
            continue
        plan_key = [n for n in tree.body if isinstance(n, ast.FunctionDef)
                    and n.name == "_plan_key"]
        assert len(plan_key) == 1
        inside = reads(plan_key[0])
        assert inside and len(inside) == len(reads(tree))


def test_cos_sin_against_numpy():
    # within 4 u (absolute, u = 2^-53) of np.cos and np.sin across the
    # phases of the kernels, at the half-angle poles (odd multiples of pi
    # and their neighbours), and on signed zeros
    rng = np.random.default_rng(30)
    odd = (2.0 * rng.integers(-42_900_000, 42_900_000, 20_000) + 1) * math.pi
    odd = np.concatenate([odd, [math.pi, -math.pi, 3.0 * math.pi]])
    for ph in (rng.uniform(-2.7e8, 2.7e8, 200_000),
               rng.uniform(-10.0, 10.0, 200_000),
               odd, np.nextafter(odd, math.inf), np.nextafter(odd, -math.inf)):
        assert np.max(np.abs(ph)) <= 2.7e8
        c, s = zeta_mod._cos_sin(ph.copy())
        assert np.max(np.abs(c - np.cos(ph))) <= 4 * 2.0 ** -53
        assert np.max(np.abs(s - np.sin(ph))) <= 4 * 2.0 ** -53
    ph = np.array([0.0, -0.0, 1.0, -1.0])
    c, s = zeta_mod._cos_sin(ph.copy())
    assert np.array_equal(c[:2], [1.0, 1.0])
    assert np.array_equal(np.signbit(s), np.signbit(ph))
    # the phases' buffer becomes the sine
    buf = np.linspace(-5.0, 5.0, 11)
    _, s = zeta_mod._cos_sin(buf)
    assert s is buf


def _trig_calls(tree):
    """np.sin, np.cos and np.exp of an imaginary argument called in tree."""
    def imaginary(node):
        return any(isinstance(n, ast.Constant) and isinstance(n.value, complex)
                   for n in ast.walk(node))
    return [n for n in ast.walk(tree) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and isinstance(n.func.value, ast.Name) and n.func.value.id == "np"
            and (n.func.attr in ("sin", "cos")
                 or n.func.attr == "exp" and any(map(imaginary, n.args)))]


def test_trig_only_in_cos_sin():
    # every cosine and sine of zeta.py comes from the one tangent of _cos_sin
    assert len(_trig_calls(ast.parse("np.exp(-1j * x); np.sin(y)"))) == 2
    assert _trig_calls(ast.parse("np.exp(-x)")) == []
    path = pathlib.Path(zeta_mod.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    helper = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
              and n.name == "_cos_sin"]
    assert len(helper) == 1
    inside = {id(n) for n in _trig_calls(helper[0])}
    assert [n.lineno for n in _trig_calls(tree) if id(n) not in inside] == []


def test_fft_size_least_5_smooth():
    # against the definition: strip the factors 2, 3 and 5 from each m
    m = np.arange(1, 100_100)
    k = m.copy()
    for p in (2, 3, 5):
        while (d := k % p == 0).any():
            k[d] //= p
    smooth = m[k == 1]
    n = np.arange(1, 100_001)
    want = smooth[np.searchsorted(smooth, n)]
    assert [zeta_mod._fft_size(int(x)) for x in n] == want.tolist()
    got = [zeta_mod._fft_size(x) for x in n.astype(np.int64)]
    assert got == want.tolist()
    assert all(type(x) is int for x in got[:100])


def test_write_zero_table_bytes(tmp_path):
    # one write of the whole table, byte for byte the per-line format
    g = np.array([14.134725141734693, 21.0220396387715, 99.9999999995,
                  123456.12345678951, 1.0e6 + 1.0 / 3.0])
    path = tmp_path / "z.txt"
    write_zero_table(ZeroTable(g, (10.0, 2.0e6), False), path)
    assert path.read_bytes() == "".join(f"{x:.9f}\n" for x in g).encode()
    assert path.read_bytes().count(b"\n") == len(g)


def _assert_mpmath_roots(g, k=50, tol=1e-11):
    sample = np.random.default_rng(876).choice(g, k, replace=False)
    for t in sample:
        root = mp.findroot(mp.siegelz, mp.mpf(repr(float(t))))
        assert abs(float(t) - float(root)) <= tol


def test_zeros_against_mpmath_roots(zeros_1k):
    _assert_mpmath_roots(zeros_1k.ordinates)


def test_pointwise_budget_1k(monkeypatch):
    # every bracket of this window lies below the crossover, so Illinois
    # runs on the Taylor expansions alone and no height is pointwise
    calls = _counting(monkeypatch, hardy_z_many)
    table = find_zeros(995.0, 2005.0)
    assert len(table) == 876 and table.claimed_complete
    assert sum(calls) == 0


@functools.cache
def _zeros_3e5():
    return find_zeros(3.0e5, 3.02e5)


def _scan_brackets(t0, t1):
    grid, z = _z_on_scan_grid(t0, t1, 0.5 / math.log(t1))
    return grid, _sign_changes(grid, z)


def test_zeros_3e5_count_and_roots():
    table = _zeros_3e5()
    assert len(table) == _nzeros(3.02e5) - _nzeros(3.0e5) == 3431
    assert table.claimed_complete
    # the phases c log n and t log n both carry rounding of about
    # u t log nu sum n^{-1/2}, so the roots sit nanoseconds from mpmath's
    _assert_mpmath_roots(table.ordinates, 6, 1e-8)


def test_pointwise_budget_3e5(monkeypatch):
    # every bracket of this window lies inside one run of nu, so Illinois
    # runs on the Taylor expansions alone and no height is pointwise
    calls = _counting(monkeypatch, hardy_z_many)
    table = find_zeros(3.0e5, 3.02e5)
    assert len(table) == 3431 and table.claimed_complete
    assert sum(calls) == 0


@pytest.mark.parametrize("t0, t1, K, tol", [
    pytest.param(t0, t1, K, tol, id=f"{t0}-{t1}") for t0, t1, K, tol in [
        # Euler-Maclaurin: n < N = 0.6 t1 keeps the order at 11; near 1e5
        # both sides carry the rounding of the phases t log n, as in
        # test_scan_grid_matches_pointwise
        (10.0, 100.0, 11, 1e-10),
        (995.0, 2005.0, 11, 1e-10),
        (1.0e4, 1.1e4, 11, 1e-10),
        (99000.0, 99200.0, 11, 5e-10),
        # Riemann-Siegel: n <= nu keeps it at 9
        (3.0e5, 3.02e5, 9, None),
        (1.0e6, 1.0e6 + 20.0, 9, None)]])
def test_taylor_matches_pointwise(t0, t1, K, tol):
    grid, (lo, hi, _, _) = _scan_brackets(t0, t1)
    z = _BracketTaylor.build(lo, hi, _em_n_cap(t1))
    assert z.moments.shape[1] == K + 1
    u = np.random.default_rng(int(t0)).random((len(lo), 4))
    ts = (lo[:, None] + (hi - lo)[:, None] * u).ravel()
    ts = np.concatenate((lo, hi, ts))
    assert np.max(np.abs(z(ts) - hardy_z_many(ts))) \
        <= (tol or _rs_scan_tolerance(grid))


@pytest.mark.parametrize("r, nu", [
    (0.5 / math.log(3.02e5) / 2.0, 219), (0.5 / math.log(1.0e6) / 2.0, 398),
    (0.002, 126), (0.5, 130), (3.0, 400),
    # Euler-Maclaurin at 99200: n < N = 59521
    (0.5 / math.log(99200.0) / 2.0, 59520)])
def test_taylor_order_is_least(r, nu):
    # |e^{ix} - sum_{k<=K} (ix)^k/k!| <= |x|^(K+1)/(K+1)! <= 2^-53 for
    # |x| <= r log nu, and no smaller K meets that bound
    x = r * math.log(nu)
    K = int(_taylor_order(x))
    assert x ** (K + 1) / math.factorial(K + 1) <= 2.0 ** -53
    assert K == 0 or x ** K / math.factorial(K) > 2.0 ** -53


def test_taylor_batch_independent():
    # a bracket's expansion depends only on its own ends, its sum and K: at
    # one N, a subset that keeps the widest and the top bracket (hence K,
    # from the widest half-width and the largest n) gives the same bits
    for t0, t1 in [(995.0, 2005.0), (3.0e5, 3.02e5)]:
        _, (lo, hi, _, _) = _scan_brackets(t0, t1)
        n_cap = _em_n_cap(hi[-1])
        full = _BracketTaylor.build(lo, hi, n_cap)
        keep = [int(np.argmax(hi - lo)), len(lo) - 1]
        for pick in (np.union1d(np.arange(0, len(lo), 7), keep),
                     np.array(keep), np.array([5, *keep, 2])):
            part = _BracketTaylor.build(lo[pick], hi[pick], n_cap)
            ts = lo[pick] + 0.3 * (hi - lo)[pick]
            assert np.array_equal(part(ts), full(ts))


def test_taylor_touching_brackets():
    # a height maps to the bracket with the largest lo <= t, so the shared
    # end b belongs to [b, c]
    a, b, c = 3.0e5, 3.0e5 + 0.04, 3.0e5 + 0.08
    n_cap = _em_n_cap(c)
    both = _BracketTaylor.build(np.array([b, a]), np.array([c, b]), n_cap)
    left = _BracketTaylor.build(np.array([a]), np.array([b]), n_cap)
    right = _BracketTaylor.build(np.array([b]), np.array([c]), n_cap)
    tl, tr = np.array([a, a + 0.013, b - 1e-9]), np.array([b, b + 0.02, c])
    assert np.array_equal(both(tl), left(tl))
    assert np.array_equal(both(tr), right(tr))


def test_refine_scan_routes_brackets(monkeypatch):
    # one zero in each bracket: across RS_CROSSOVER, inside one run of nu,
    # across the jump of nu from 218 to 219 at 2 pi 219^2 = 301347.85, and
    # below the crossover
    lo = np.array([99999.9, 301346.6, 301347.5, 999.78])
    hi = np.array([100000.8, 301346.8, 301348.2, 999.81])
    zlo, zhi = hardy_z_many(lo), hardy_z_many(hi)
    assert np.all(zlo * zhi < 0)
    pw, tay = [0, 2], [1, 3]
    pointwise = _refine_zeros(lo[pw], hi[pw], zlo[pw], zhi[pw])
    taylor = _refine_zeros(lo[tay], hi[tay], zlo[tay], zhi[tay],
                           z=_BracketTaylor.build(lo[tay], hi[tay],
                                                  _em_n_cap(hi[3])))
    heights = []
    exact = hardy_z_many

    def recorded(t):
        heights.extend(t)
        return exact(t)
    monkeypatch.setattr(zeta_mod, "hardy_z_many", recorded)
    roots = _refine_scan((lo, hi, zlo, zhi))
    assert np.array_equal(roots[pw], pointwise)
    assert np.array_equal(roots[tay], taylor)
    h = np.asarray(heights)
    assert len(h) and not np.any((h > lo[1]) & (h < hi[1]))
    assert not np.any((h > lo[3]) & (h < hi[3]))


def test_coarse_scan_roots_match_pointwise():
    # brackets too wide for Horner's rule go pointwise: at scan_step=100
    # the Taylor order once overflowed, and at scan_step=10 the expansion
    # put roots 8.9e-7 from pointwise Illinois on the same brackets
    t0, t1 = 3.0e5, 3.0e5 + 400.0
    assert isinstance(find_zeros(t0, t1, scan_step=100.0), ZeroTable)
    grid, z = _z_on_scan_grid(t0, t1, 10.0)
    found = _rescan(_dip_gaps(grid, z), 10.0 / 8.0)
    lo, hi, zlo, zhi = (np.concatenate(x)
                        for x in zip(_sign_changes(grid, z), *found))
    roots = np.sort(_refine_zeros(lo, hi, zlo, zhi))
    table = find_zeros(t0, t1, scan_step=10.0)
    assert len(table) == len(roots) > 30
    assert np.max(np.abs(table.ordinates - roots)) <= 1e-8


def _brackets_1k():
    grid, z = _z_on_scan_grid(995.0, 2005.0, 0.5 / math.log(2005.0))
    i = np.nonzero(np.sign(z[:-1]) * np.sign(z[1:]) < 0)[0]
    return grid[i], grid[i + 1], z[i], z[i + 1]


def _counting(monkeypatch, fn):
    calls = []

    def counted(t):
        calls.append(len(t))
        return fn(t)
    monkeypatch.setattr(zeta_mod, "hardy_z_many", counted)
    return calls


def test_refinement_rounds_1k(monkeypatch):
    lo, hi, zlo, zhi = _brackets_1k()
    assert len(lo) == 876
    calls = _counting(monkeypatch, hardy_z_many)
    _refine_zeros(lo, hi, zlo, zhi)
    # one hardy_z_many call per lockstep round; bisection took 34
    assert len(calls) <= 12


def _synthetic_z(t):
    """Three brackets: t - 10.5, where the first regula falsi point is the
    exact zero; (t - 20)^10 - 1 and expm1(8 (t - 30.2)), on which plain
    regula falsi keeps one end for ever (the bracket stays 0.3 and 0.8
    wide)."""
    t = np.asarray(t, dtype=float)
    return np.where(t < 15.0, t - 10.5,
                    np.where(t < 25.0, (t - 20.0) ** 10 - 1.0,
                             np.expm1(8.0 * (t - 30.2))))


def test_refinement_closes_stalling_brackets(monkeypatch):
    lo, hi = np.array([10.0, 20.0, 30.0]), np.array([11.0, 21.3, 31.0])
    calls = _counting(monkeypatch, _synthetic_z)
    roots = _refine_zeros(lo, hi, _synthetic_z(lo), _synthetic_z(hi))
    assert roots[0] == 10.5
    assert np.max(np.abs(roots - [10.5, 21.0, 30.2])) <= 1e-10
    # the exact zero closes its bracket in the first round, and every
    # bracket closes well inside the 34 rounds bisection needs
    assert calls[0] == 3 and calls[1] == 2
    assert len(calls) <= 20


def test_find_zeros_step_invariance():
    a = find_zeros(90.0, 160.0)
    b = find_zeros(90.0, 160.0, scan_step=0.5 / math.log(160.0) / 2.0)
    assert len(a.ordinates) == len(b.ordinates)
    assert np.max(np.abs(a.ordinates - b.ordinates)) <= 1e-9


def test_dip_gaps_synthetic():
    # |z| dips at sample 2 with no sign change beside it, and rises into
    # the window from the end sample 6; sample 4 sits at a sign change and
    # sample 0 falls into the window
    z = np.array([3.0, 2.0, 1.0, 2.0, -1.0, -3.0, -2.0])
    assert _dip_gaps(np.arange(7.0), z) == [(1.0, 3.0), (5.0, 6.0)]


# Lehmer's pair (Acta Math. 95, 1956): two ordinates 0.038 apart near
# 7005.08, a 24th of the mean gap there, which fit inside one scan step of
# 0.056.  Starting points for mpmath's roots of Z in [7003, 7007].
LEHMER_STARTS = ("7004.0437", "7005.0629", "7005.1006", "7006.7397")


@functools.cache
def _nzeros(t):
    return int(mp.nzeros(t))


@functools.cache
def _lehmer_roots():
    return np.array([float(mp.findroot(mp.siegelz, mp.mpf(t)))
                     for t in LEHMER_STARTS])


def _assert_lehmer_count_and_roots(t0, t1):
    table = find_zeros(t0, t1)
    assert len(table) == _nzeros(t1) - _nzeros(t0), (t0, t1)
    g = table.ordinates
    g = g[(g > 7003.0) & (g < 7007.0)]
    err = np.abs(g[:, None] - _lehmer_roots()[None, :]).min(axis=1)
    assert np.all(err <= 1e-11), (t0, t1, g)


def test_find_zeros_windows_around_lehmer_pair():
    # 67 windows of width 1.5 from 6950: the scan of [7004, 7005.5] steps
    # over the pair, and the dip between its samples brings it back
    for k in range(67):
        _assert_lehmer_count_and_roots(6950.0 + 1.5 * k, 6951.5 + 1.5 * k)


@pytest.mark.parametrize("t0, t1", [
    (7005.05, 7007.0),
    (7005.055, 7006.0),
    (7003.0, 7005.11),
    (7004.0, 7005.105),
])
def test_find_zeros_lehmer_pair_in_end_step(t0, t1):
    # the pair lies in the scan's first or last step, so the dip is an end
    # sample, or the sample beside it
    _assert_lehmer_count_and_roots(t0, t1)


def test_excess_count_names_no_suspect_gap():
    # Lehmer's pair makes 3 zeros against an RVM estimate of 1.23: not
    # claimed complete, but no zero is missing, so no gap is named
    table = find_zeros(7004.0, 7005.105)
    assert len(table) == 3 and not table.claimed_complete
    assert table.diagnostics == ("count 3 vs RVM estimate 1.23",)


def test_short_count_names_suspect_gaps():
    # a scan step of 2 misses zeros; the wide gaps are named before the count
    table = find_zeros(1000.0, 1060.0, scan_step=2.0)
    assert len(table) < count_zeros_rvm(1060.0) - count_zeros_rvm(1000.0)
    assert not table.claimed_complete
    *gaps, count = table.diagnostics
    assert gaps and all(d.startswith("suspect gap [") for d in gaps)
    assert count.startswith(f"count {len(table)} vs RVM estimate")


def test_rvm_count_windows(zeros_1k):
    g = zeros_1k.ordinates
    expected = count_zeros_rvm(2000.0) - count_zeros_rvm(1000.0)
    got = np.count_nonzero((g >= 1000.0) & (g <= 2000.0))
    assert abs(got - expected) <= 2.0


def test_array_holders_compare_and_hash_by_identity(zeros_low):
    # a frozen dataclass that holds arrays equals itself and not a copy,
    # and hashes: comparing the arrays field by field would raise
    two = np.arange(2.0)
    holders = [
        build_L_theta(1000.0, 0.5), zeros_low, sieve_build(100),
        _BracketTaylor(lo=two, centre=two, moments=np.ones((2, 3)), n_cap=3),
        WellSpacedSet(ordinates=two, delta=1.0, parent_count=2),
        PairCorrelation(T=1000.0, alphas=two, values=two, error_bound=0.0)]
    for x in holders:
        y = copy.deepcopy(x)
        assert x == x and x != y, type(x).__name__
        assert len({x, x, y}) == 2, type(x).__name__


def test_zero_table_roundtrip(tmp_path, zeros_low):
    path = tmp_path / "z.txt"
    write_zero_table(zeros_low, path)
    back = import_zero_table(path, 10.0, 100.0)
    assert np.max(np.abs(back.ordinates - zeros_low.ordinates)) <= 1e-9


def test_import_parse_and_order_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("14.1\n13.9\n")
    with pytest.raises(ZeroTableError, match=":2:"):
        import_zero_table(p, 10.0, 100.0)
    p.write_text("14.1\nnot-a-number\n")
    with pytest.raises(ZeroTableError, match=":2:"):
        import_zero_table(p, 10.0, 100.0)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_import_rejects_non_finite_line(tmp_path, bad):
    # a NaN line would be dropped and disarm the ascending check of the
    # next line; an inf line would be kept as an ordinate
    p = tmp_path / "bad.txt"
    p.write_text(f"14.134725\n{bad}\n13.9\n")
    with pytest.raises(ZeroTableError, match=r"bad\.txt:2: not finite"):
        import_zero_table(p, 10.0, math.inf)


def test_import_range_filter(tmp_path):
    p = tmp_path / "z.txt"
    p.write_text("14.134725\n21.022040\n25.010858\n")
    assert len(import_zero_table(p, 10.0, 30.0).ordinates) == 3
    assert len(import_zero_table(p, 20.0, 22.0).ordinates) == 1
    # an unbounded range imports everything and claims no completeness
    unbounded = import_zero_table(p, 10.0, math.inf)
    assert len(unbounded) == 3 and not unbounded.claimed_complete


def test_import_short_selection_is_diagnosed(short_table):
    # the import decides completeness by find_zeros' rule: a short count
    # names its suspect gap, then the count against the RVM estimate
    table = import_zero_table(short_table, 10.0, 80.0)
    assert len(table) == 15 and not table.claimed_complete
    assert table.diagnostics == ("suspect gap [30.424876, 52.970321]",
                                 "count 15 vs RVM estimate 20.51")


@pytest.mark.parametrize("t_min, t_max", [
    (10.0, math.nan), (math.nan, 30.0), (30.0, 10.0)])
def test_import_range_must_be_ordered(tmp_path, t_min, t_max):
    # a NaN or reversed range selects nothing; a typed error, not an
    # empty table
    p = tmp_path / "z.txt"
    p.write_text("14.134725\n21.022040\n")
    with pytest.raises(ZeroTableError, match="t_min <= t_max"):
        import_zero_table(p, t_min, t_max)
