import math

import mpmath as mp
import numpy as np
import pytest

from mollint.dirichlet import (
    build_L_theta,
    delta_poly,
    dirichlet_convolve,
    make_poly,
    one_minus,
    zeta_window_coeffs,
)
from mollint.moments import (
    GL_ORDER,
    ResolutionError,
    _gl_panel_bound,
    _strip_majorant,
    baez_duarte_moment,
    bch_predicted,
    cauchy_window_integral,
    mollified_moment,
    resolution_floor,
    trivial_bound,
)
from mollint.quadform import minimizer_coeffs
from mollint.smoothfn import make_plateau
from mollint.zeta import zeta_critical_many


def test_empty_mollifier_is_one():
    r = mollified_moment(500.0, None)
    assert r.value == pytest.approx(1.0, abs=1e-10)
    assert r.quadrature.panel_count >= resolution_floor(500.0)


def test_resolution_floor_refusal():
    with pytest.raises(ResolutionError):
        mollified_moment(500.0, None, panels=10)
    r = mollified_moment(500.0, None, panels=10, force=True)
    assert r.quadrature.panel_count == 10


def test_delta_mollifier_expanded_form_consistency():
    # |1 - zeta|^2 = 1 - 2 Re zeta + |zeta|^2: same quadrature, two routes
    T = 500.0
    r = mollified_moment(T, delta_poly())
    panels = r.quadrature.panel_count
    gx, gw = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(T, 2 * T, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes = (mid[:, None] + half * gx[None, :]).ravel()
    weights = (half * gw)[None, :].repeat(panels, axis=0).ravel()
    z = zeta_critical_many(nodes)
    expanded = np.sum(weights * (1.0 - 2.0 * z.real + np.abs(z) ** 2)) / T
    assert r.value == pytest.approx(expanded, abs=1e-8)


def test_estimated_error_honest():
    r = mollified_moment(500.0, delta_poly())
    r2 = mollified_moment(500.0, delta_poly(),
                          panels=2 * r.quadrature.panel_count)
    # both runs are converged to roundoff; the a priori bound covers that
    assert abs(r.value - r2.value) <= r.quadrature.estimated_error


@pytest.mark.parametrize("T, mollifier", [
    (2000.0, "ltheta"), (1.0e4, "ltheta"), (2000.0, "minimizer")])
def test_quadrature_bound_at_floor(T, mollifier):
    # finite, positive, and at least the change from doubling the panels
    M = build_L_theta(T, 0.3) if mollifier == "ltheta" \
        else minimizer_coeffs(int(T ** 0.3))
    r = mollified_moment(T, M)
    r2 = mollified_moment(T, M, panels=2 * r.quadrature.panel_count)
    bound = r.quadrature.estimated_error
    assert math.isfinite(bound) and bound > 0.0
    assert abs(r.value - r2.value) <= bound
    # it reads 6.5e-10, 6.2e-9 and 1.9e-9 for the three cases
    assert bound <= 1e-8


def test_quadrature_bound_covers_an_error_above_rounding():
    # at a sixth of the floor the rule is off by about 1.7e-11, well above
    # rounding, and the bound (about 5.8 there) still covers it
    T, M = 500.0, delta_poly()
    ref = mollified_moment(T, M).value
    r = mollified_moment(T, M, panels=resolution_floor(T) // 6, force=True)
    assert 1e-12 < abs(r.value - ref) <= r.quadrature.estimated_error


@pytest.mark.parametrize("omega", [2.0, 4.0, 6.0, 8.0])
def test_gl_panel_bound_is_true_and_tight(omega):
    # cos(omega t) on [-1, 1] is at most cosh(omega y) on |Im t| <= y; the
    # exact GL_ORDER-point error lies within a factor 10 under the bound,
    # so a bound off by one node (a factor rho^2) would fall below it
    gx, gw = np.polynomial.legendre.leggauss(GL_ORDER)
    err = abs(gw @ np.cos(omega * gx) - 2.0 * math.sin(omega) / omega)
    y = np.geomspace(0.01, 50.0, 2000)
    bound = float(np.min(_gl_panel_bound(1.0, y, np.cosh(omega * y))))
    assert err <= bound <= 10.0 * err
    # cos(omega t / r) on [-r, r] errs by r err, and its bound scales alike
    r = 0.25
    bound_r = float(np.min(_gl_panel_bound(r, r * y, np.cosh(omega * y))))
    assert bound_r == pytest.approx(r * bound, rel=1e-12)


@pytest.mark.parametrize("y", [0.25, 1.0])
def test_strip_majorant_against_mpmath(y):
    # |1 - zeta M| at s = 1/2 + i(u + iv), |v| = y, by mpmath's zeta, at
    # heights across [T - y, 2T + y]
    T = 2000.0
    L = build_L_theta(T, 0.3)
    (bound,) = _strip_majorant(T, L, np.array([y]))
    a = [complex(c) for c in L.coeffs[1:]]
    for u in (T - y, 1234.5, 1500.0, 1987.6, 2.0 * T + y):
        for v in (y, -y):
            s = mp.mpc(0.5 - v, u)
            m = mp.fsum(c * mp.power(n, -s) for n, c in enumerate(a, 1))
            assert abs(1 - mp.zeta(s) * m) <= bound, (u, v)
    assert _strip_majorant(T, None, np.array([y]))[0] == 1.0


def test_trivial_bound_single_coefficient():
    c = np.zeros(5)
    c[4] = 2.0  # f(5) = 2
    F = make_poly(c)
    assert trivial_bound(F, 10.0) == pytest.approx(4.0 / 5.0, rel=1e-14)


def test_trivial_bound_vanishes_for_full_moebius(sieve):
    # M = full Moebius polynomial of length T: first T coefficients of
    # 1 - zeta M vanish
    T = 50.0
    from mollint.arith import mobius
    mu_poly = make_poly([float(mobius(n, sieve)) for n in range(1, 51)])
    w = make_plateau((0.0, 1.0), (0.0, 0.5))
    Z = zeta_window_coeffs(T, 0.2, w)
    F = one_minus(dirichlet_convolve(Z, mu_poly))
    assert trivial_bound(F, T) <= 1e-20


def test_bch_single_term_oracle():
    from mollint.arith import EULER_GAMMA
    T = 1000.0
    expected = math.log(T / (2 * math.pi)) + 2 * math.log(2.0) \
        + 2 * EULER_GAMMA - 1.0 - 1.0
    assert bch_predicted(T, delta_poly()) == pytest.approx(expected, rel=1e-14)


def test_bch_hermitian_real(rng):
    c = rng.normal(size=40) + 1j * rng.normal(size=40)
    a = make_poly(c)
    v = bch_predicted(750.0, a)
    assert isinstance(v, float)  # imaginary parts cancelled pairwise
    # conjugating all coefficients leaves the hermitian form unchanged
    assert bch_predicted(750.0, make_poly(np.conj(c))) == pytest.approx(
        v, rel=1e-12)


def test_bch_matches_formula_as_written(rng):
    # pure-Python double sum of the docstring formula, with math.gcd: kept
    # apart from the log(c T) spelling that bch_predicted shares with
    # quadform.propB_value
    from mollint.arith import EULER_GAMMA
    N, T = 30, 750.0
    c = rng.normal(size=N) + 1j * rng.normal(size=N)
    total = 0.0
    for m in range(1, N + 1):
        for n in range(1, N + 1):
            g = math.gcd(m, n)
            w = math.log(T * g * g / (2 * math.pi * m * n)) \
                + 2 * math.log(2.0) + 2 * EULER_GAMMA - 1.0
            total += (c[m - 1] * np.conj(c[n - 1])).real / (m * n // g) * w
    assert bch_predicted(T, make_poly(c)) == pytest.approx(total - 1.0,
                                                           rel=1e-12)


def test_bch_cap():
    with pytest.raises(ValueError):
        bch_predicted(100.0, make_poly(np.ones(6000)))


def test_baez_duarte_closed_form():
    value, tail = baez_duarte_moment(None, 500.0, panels=4000)
    assert value == pytest.approx(cauchy_window_integral(500.0), abs=1e-8)
    assert tail >= 0.0


def test_baez_duarte_default_is_floor():
    with pytest.raises(ResolutionError):
        baez_duarte_moment(None, 500.0, panels=resolution_floor(500.0) - 1)
    assert baez_duarte_moment(None, 500.0) == baez_duarte_moment(
        None, 500.0, panels=resolution_floor(500.0))


@pytest.mark.parametrize("force", [False, True])
@pytest.mark.parametrize("panels", [0, -3])
def test_panel_count_below_one_refused(panels, force):
    # a typed error naming the count, also where force lets a count below
    # the resolution floor through
    with pytest.raises(ResolutionError, match=f"panels={panels} must be"):
        mollified_moment(100.0, None, panels=panels, force=force)
    with pytest.raises(ResolutionError, match=f"panels={panels} must be"):
        baez_duarte_moment(None, 500.0, panels, force=force)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_height_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        mollified_moment(bad, None)
    with pytest.raises(ValueError, match="finite"):
        baez_duarte_moment(None, bad)


def test_baez_duarte_conjugation_invariance():
    L = build_L_theta(200.0, 0.3)
    conj = make_poly(np.conj(L.coeffs[1:]))
    a, _ = baez_duarte_moment(L, 100.0, panels=1200, force=True)
    b, _ = baez_duarte_moment(conj, 100.0, panels=1200, force=True)
    assert a == pytest.approx(b, rel=1e-10)


def test_moment_tracks_predicted_form():
    # the quadrature and the exact arithmetic double sum are independent
    # routes to the same asymptotic quantity; at T=2000 they agree to ~0.1%
    T = 2000.0
    L = build_L_theta(T, 0.3)
    measured = mollified_moment(T, L).value
    predicted = bch_predicted(T, L)
    assert measured == pytest.approx(predicted, rel=5e-3)
