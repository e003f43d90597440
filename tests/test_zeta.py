import math

import mpmath as mp
import numpy as np
import pytest

import mollint.zeta as zeta_mod
from mollint.moments import resolution_floor
from mollint.zeta import (
    RS_CROSSOVER,
    DomainError,
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
from mollint.zeta import _refine_zeros, _z_on_scan_grid

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


def test_grid_degenerate_shapes():
    with pytest.raises(ValueError):
        zeta_on_grid([100.0], 0.5, 0)
    assert zeta_on_grid([], 0.5, 3).shape == (3, 0)


def test_zeta_above_crossover_riemann_siegel():
    t = 2.0e5
    ref = complex(mp.zeta(mp.mpc(0.5, t)))
    assert zeta_critical(t) == pytest.approx(ref, abs=1e-3)


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


def test_vectorized_matches_scalar():
    ts = np.array([12.0, 345.6, 9999.9])
    many = zeta_critical_many(ts)
    for i, t in enumerate(ts):
        assert many[i] == pytest.approx(zeta_critical(float(t)), rel=1e-14)


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
])
def test_progression_sum_against_direct(P, h, n_src, lam_max, t0):
    rng = np.random.default_rng(P + n_src)
    lam = rng.uniform(0.0, lam_max, n_src)
    amp = rng.normal(size=n_src) + 1j * rng.normal(size=n_src)
    t0 = np.array(t0)
    got = zeta_mod.progression_sum(lam, amp, t0, h, P)
    assert got.shape == (P, len(t0))
    ref = _direct_progression_sum(lam, amp, t0, h, P)
    # the documented bound: (1e-14 + 5 u Phi) sum|amp|
    ts = t0[None, :] + h * np.arange(P)[:, None]
    phi = np.max(np.abs(ts), initial=0.0) * lam_max
    bound = (1e-14 + 5.0 * 2.0 ** -53 * phi) * np.sum(np.abs(amp))
    assert np.max(np.abs(got - ref), initial=0.0) <= bound
    if n_src == 0:
        assert np.all(got == 0.0)


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


def test_find_zeros_straddling_crossover():
    # the scan grid is Euler-Maclaurin on the grid below RS_CROSSOVER and
    # pointwise Riemann-Siegel above it
    table = find_zeros(99990.0, 100010.0)
    expected = int(mp.nzeros(100010.0)) - int(mp.nzeros(99990.0))
    assert len(table) == expected == 31
    assert table.claimed_complete


@pytest.mark.parametrize("t0, t1, tol", [
    (10.0, 100.0, 1e-10),
    (995.0, 2005.0, 1e-10),
    # near t = 1e5 both Euler-Maclaurin sums carry the rounding of the
    # phases t log n (each is within 5e-10 of mpmath, as in
    # test_zeta_against_mpmath), so they agree only to that level
    (99990.0, 100010.0, 5e-10),
])
def test_scan_grid_matches_pointwise(t0, t1, tol):
    grid, z = _z_on_scan_grid(t0, t1, 0.5 / math.log(t1))
    direct = hardy_z_many(grid)
    em = grid <= RS_CROSSOVER
    assert np.max(np.abs(z[em] - direct[em])) <= tol
    assert np.array_equal(z[~em], direct[~em])
    assert np.array_equal(np.sign(z), np.sign(direct))


def test_zeros_against_mpmath_roots(zeros_1k):
    g = zeros_1k.ordinates
    sample = np.random.default_rng(876).choice(g, 50, replace=False)
    for t in sample:
        root = mp.findroot(mp.siegelz, mp.mpf(repr(float(t))))
        assert abs(float(t) - float(root)) <= 1e-11


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


def test_rvm_count_windows(zeros_1k):
    g = zeros_1k.ordinates
    expected = count_zeros_rvm(2000.0) - count_zeros_rvm(1000.0)
    got = np.count_nonzero((g >= 1000.0) & (g <= 2000.0))
    assert abs(got - expected) <= 2.0


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


def test_import_range_filter(tmp_path):
    p = tmp_path / "z.txt"
    p.write_text("14.134725\n21.022040\n25.010858\n")
    assert len(import_zero_table(p, 10.0, 30.0).ordinates) == 3
    assert len(import_zero_table(p, 20.0, 22.0).ordinates) == 1
