import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from mollint import moments, zeta
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
    QUAD_TARGET,
    ResolutionError,
    _GL_ERROR_RISE,
    _GL_ERROR_TAYLOR,
    _composite_gl,
    _gl_error,
    _gl_error_max,
    _gl_panel_bound,
    _gl_values,
    _least_count,
    _quadrature_bound,
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
    # the integrand is the constant 1: the rule is exact on one panel, so
    # the derived count is 1, its bound 0, and no count is refused
    r = mollified_moment(500.0, None)
    assert r.value == pytest.approx(1.0, abs=1e-10)
    assert r.quadrature.panel_count == 1
    assert r.quadrature.estimated_error == 0.0
    r = mollified_moment(500.0, None, panels=10)
    assert r.value == pytest.approx(1.0, abs=1e-10)
    assert r.quadrature.estimated_error == 0.0


def test_resolution_floor_refusal():
    # a real mollifier at half the derived count: its bound misses the
    # target, so the count is refused with P, the bound and the target named
    T, M = 500.0, delta_poly()
    P = mollified_moment(T, M).quadrature.panel_count // 2
    bound = _quadrature_bound(T, M, P)
    assert bound > QUAD_TARGET
    with pytest.raises(ResolutionError) as exc:
        mollified_moment(T, M, panels=P)
    msg = str(exc.value)
    assert f"panels={P}" in msg and f"{bound:.3g}" in msg \
        and f"{QUAD_TARGET:g}" in msg
    r = mollified_moment(T, M, panels=P, force=True)
    assert r.quadrature.panel_count == P
    assert r.quadrature.estimated_error == bound


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


def _mollifier(T, name):
    return build_L_theta(T, 0.3) if name == "ltheta" \
        else minimizer_coeffs(int(T ** 0.3))


@pytest.mark.parametrize("T, mollifier", [
    (2000.0, "ltheta"), (1.0e4, "ltheta"), (2000.0, "minimizer")])
def test_quadrature_bound_at_floor(T, mollifier):
    # the default count is the smallest whose bound meets the target, below
    # the resolution floor; its bound covers the change from doubling it
    M = _mollifier(T, mollifier)
    r = mollified_moment(T, M)
    P = r.quadrature.panel_count
    bound = r.quadrature.estimated_error
    assert P <= resolution_floor(T) // 2
    assert 0.0 < bound <= QUAD_TARGET
    assert bound <= 1e-13 * abs(r.value)
    assert bound == _quadrature_bound(T, M, P)
    assert _quadrature_bound(T, M, P - 1) > QUAD_TARGET
    r2 = mollified_moment(T, M, panels=2 * P)
    assert abs(r.value - r2.value) <= bound


def _asked(bound):
    """bound, and the list of the counts it is asked for."""
    counts = []

    def f(n):
        counts.append(n)
        return bound(n)
    return f, counts


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("start", [1, 37, 1233, 1234, 5000])
def test_least_count_power_law(start):
    # the bound falls as n^-16 and meets the target first at n = 1234; from
    # below the threshold the search doubles, from above it steps down
    bound, counts = _asked(lambda n: QUAD_TARGET * (1233.5 / n) ** 16)
    n, b = _least_count(bound, start)
    doublings = max(0, math.ceil(math.log2(1234 / start)))
    assert counts[:doublings + 1] == [start << k for k in range(doublings + 1)]
    # secant steps on a power law land within a few bounds
    assert len(counts) <= doublings + 4
    assert (n, b) == (1234, bound(1234))
    assert bound(1233) > QUAD_TARGET


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("start", [1, 100, 5000])
def test_least_count_infinite_for_coarse_counts(start):
    # inf below 300, a miss: the secant cannot step on it, so it bisects
    bound, counts = _asked(
        lambda n: math.inf if n < 300 else 0.5 * QUAD_TARGET * 300.0 / n)
    assert _least_count(bound, start) == (300, 0.5 * QUAD_TARGET)
    assert counts[0] == start and min(counts) < 300


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("T, theta, P", [
    (2000.0, 0.3, 3693), (1000.0, 0.5, 1997), (1.0e4, 0.3, 21709),
    (500.0, 0.4, 849)])
def test_derived_panel_counts_pinned(monkeypatch, T, theta, P):
    # the least counts for L_theta, searched from the resolution floor (the
    # rule itself is not run)
    monkeypatch.setattr(moments, "_composite_gl", lambda f, a, b, P: 0.0)
    M = build_L_theta(T, theta)
    r = mollified_moment(T, M)
    assert r.quadrature.panel_count == P < resolution_floor(T)
    assert r.quadrature.estimated_error == _quadrature_bound(T, M, P) \
        <= QUAD_TARGET < _quadrature_bound(T, M, P - 1)


_REFERENCE = {}


def _reference(T, mollifier):
    """The moment at twice the resolution floor, once per case."""
    if (T, mollifier) not in _REFERENCE:
        _REFERENCE[T, mollifier] = mollified_moment(
            T, _mollifier(T, mollifier),
            panels=2 * resolution_floor(T)).value
    return _REFERENCE[T, mollifier]


@pytest.mark.parametrize("divisor", [8, 16])
@pytest.mark.parametrize("T, mollifier", [
    (2000.0, "ltheta"), (2000.0, "minimizer"), (1.0e4, "ltheta"),
    (1.0e4, "minimizer")])
def test_quadrature_bound_covers_error_below_floor(T, mollifier, divisor):
    # at floor/8 and floor/16 the rule is off by 2e-9 to 4e-5, far above
    # rounding, and the bound covers it
    M = _mollifier(T, mollifier)
    r = mollified_moment(T, M, panels=resolution_floor(T) // divisor,
                         force=True)
    measured = abs(r.value - _reference(T, mollifier))
    assert 1e-10 < measured <= r.quadrature.estimated_error


@pytest.mark.parametrize("M", [delta_poly(), build_L_theta(2000.0, 0.3),
                               make_poly([1.0, 0.0, -0.5])])
def test_bound_positive_for_a_varying_integrand(M):
    # 0 is the bound of a constant integrand only: a bound of 0 here would
    # let any count through
    for P in (resolution_floor(2000.0), 3000, 600):
        assert _quadrature_bound(2000.0, M, P) > 0.0
    assert _quadrature_bound(2000.0, None, 600) == 0.0


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


def _gl_nodes_mp():
    """The GL_ORDER Gauss-Legendre nodes and weights at the working
    precision: roots of P_n from numpy's, w = 2 / ((1 - x^2) P_n'(x)^2)."""
    nodes, weights = [], []
    for x0 in np.polynomial.legendre.leggauss(GL_ORDER)[0]:
        x = mp.findroot(lambda t: mp.legendre(GL_ORDER, t), mp.mpf(x0))
        d = mp.diff(lambda t: mp.legendre(GL_ORDER, t), x)
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * d * d))
    return nodes, weights


def test_gl_error_table_against_mpmath():
    # the coefficients, and e(x) on [0, 2 pi] from the table and above it
    # (to RISE) from the closed form, against mpmath at 60 digits, which
    # still resolves e ~ 2.2e-18 x^16 at x = 0.1; _gl_error_max adds 1e-14
    # to the closed form
    with mp.workdps(60):
        nodes, weights = _gl_nodes_mp()
        for i, c in enumerate(_GL_ERROR_TAYLOR):
            k = 8 + i
            exact = (-1) ** k / mp.factorial(2 * k) * (
                mp.mpf(2) / (2 * k + 1)
                - mp.fsum(w * x ** (2 * k) for w, x in zip(weights, nodes)))
            assert abs(c - exact) <= 1e-15 * abs(exact), k

        def e_mp(x):
            x = mp.mpf(x)
            return 2 * mp.sin(x) / x - mp.fsum(
                w * mp.cos(x * xk) for w, xk in zip(weights, nodes))

        xs = np.r_[np.linspace(0.1, 2.0 * math.pi, 120),
                   np.linspace(2.0 * math.pi + 1e-9, _GL_ERROR_RISE, 40)]
        for x, got in zip(xs, _gl_error(xs)):
            exact = e_mp(x)
            tol = 1e-14 * abs(exact) if x <= 2.0 * math.pi else 1e-14
            assert abs(got - exact) <= tol, x
    assert _gl_error(np.array([0.0]))[0] == 0.0


def test_gl_error_rises_to_its_first_maximum():
    # _gl_error_max takes e at the top of an interval while x <= RISE: e
    # must increase from 0 there.  On (0, 7.5] e'(x) = sum 2k c_k x^{2k-1}
    # alternates with falling terms and a positive first one.
    c = np.abs(_GL_ERROR_TAYLOR)
    k = 8 + np.arange(len(c))
    assert _GL_ERROR_TAYLOR[0] > 0.0
    assert np.all(c[1:] * 2 * k[1:] * 7.5 ** 2 < c[:-1] * 2 * k[:-1])
    # on [7.5, RISE] from the closed form of e' on a grid of step s:
    # |e''| <= 2/3 + sum w_k x_k^2 = 4/3, so e' > 0 between two grid points
    # whose mean e' exceeds (2/3) s
    gx, gw = np.polynomial.legendre.leggauss(GL_ORDER)
    x = np.linspace(7.5, _GL_ERROR_RISE, 100_001)
    s = x[1] - x[0]
    de = 2.0 * (x * np.cos(x) - np.sin(x)) / x ** 2 \
        + np.sin(np.multiply.outer(x, gx)) @ (gw * gx)
    assert np.min(0.5 * (de[1:] + de[:-1])) > 2.0 / 3.0 * s + 1e-12
    # the bound beyond RISE is at least 2 |sin x|/x + sum w_k
    far = np.linspace(_GL_ERROR_RISE, 200.0, 20_001)
    assert np.all(np.abs(_gl_error(far)) <= _gl_error_max(far))
    assert np.all(np.diff(_gl_error_max(np.linspace(0.0, 40.0, 4001))) >= 0)


@pytest.mark.parametrize("nu_r", [
    5.0, 9.0, 13.0, math.pi - 1e-3, math.pi + 1e-3, 2 * math.pi - 1e-4,
    3 * math.pi + 1e-2])
def test_composite_rule_error_on_an_exponential(nu_r):
    # the rule on e^{-i nu t} over [T, 2T] in P panels of half-width r errs
    # by r e(nu r) sum_p e^{-i nu m_p}; near nu r = k pi the sum aliases to
    # about P.  The phases of the 8 P nodes round by about u nu 2T each.
    T, P = 100.0, 50
    r = 0.5 * T / P
    nu = nu_r / r
    gx, gw = np.polynomial.legendre.leggauss(GL_ORDER)
    mids = T + r * (2.0 * np.arange(P) + 1.0)
    nodes = mids[:, None] + r * gx[None, :]
    rule = np.sum(r * gw[None, :] * np.exp(-1j * nu * nodes))
    exact = (np.exp(-1j * nu * T) - np.exp(-2j * nu * T)) / (1j * nu)
    predicted = r * _gl_error(np.array([nu_r]))[0] \
        * np.sum(np.exp(-1j * nu * mids))
    rounding = GL_ORDER * P * 1e-16 * nu * 2.0 * T
    assert abs((exact - rule) - predicted) \
        <= 1e-6 * abs(predicted) + rounding
    assert rounding < 1e-2 * abs(predicted)


def test_gl_values_blocks_of_whole_panels(monkeypatch):
    # zeta.OUTER_BLOCK is read at call time: 3 panels a block, each call
    # with every offset, starting at its first panel's nodes
    def f(t0, h, n):
        calls.append((n, t0[0]))
        return np.cos(t0[None, :] + h * np.arange(n)[:, None])

    calls = []
    one = _gl_values(f, 1.0, 0.25, 7)
    monkeypatch.setattr(zeta, "OUTER_BLOCK", 3 * GL_ORDER + 2)
    blocked = _gl_values(f, 1.0, 0.25, 7)
    assert [n for n, _ in calls] == [7, 3, 3, 1]
    assert [t for _, t in calls[1:]] == pytest.approx(
        [calls[0][1] + 0.25 * p0 for p0 in (0, 3, 6)], rel=1e-15)
    assert blocked.shape == one.shape == (7, GL_ORDER)
    assert blocked == pytest.approx(one, rel=1e-13)
    assert np.sum(one) == pytest.approx(math.sin(2.75) - math.sin(1.0),
                                        rel=1e-12)


def test_composite_gl_holds_one_block(monkeypatch):
    # 1e6 panels in blocks of 1,000: the rule holds one block's values and
    # per-panel sums at a time, not the 64 MB of all (panels, GL_ORDER)
    def f(t0, h, n):
        return np.cos(t0[None, :] + h * np.arange(n)[:, None])

    monkeypatch.setattr(zeta, "OUTER_BLOCK", 1000 * GL_ORDER)
    tracemalloc.start()
    try:
        value = _composite_gl(f, 0.0, 1.0, 1_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(math.sin(1.0), rel=1e-13)
    assert peak < 2 ** 20


def test_moment_blocked_rule_matches_one_block(monkeypatch):
    # 3,693 panels at T = 2000: 4 blocks of 1,000 panels x 8 offsets
    L = build_L_theta(2000.0, 0.3)
    one = mollified_moment(2000.0, L)
    assert one.quadrature.panel_count * GL_ORDER > 8000
    monkeypatch.setattr(zeta, "OUTER_BLOCK", 8000)
    blocked = mollified_moment(2000.0, L)
    assert blocked.quadrature == one.quadrature
    assert blocked.value == pytest.approx(one.value, rel=1e-14, abs=0)


def test_baez_duarte_blocked_rule_matches_one_block(monkeypatch):
    # the floor's 1,979 panels at t_cap = 500: 2 blocks of 1,000 panels
    L = build_L_theta(500.0, 0.3)
    one = baez_duarte_moment(L, 500.0)
    assert resolution_floor(500.0) * GL_ORDER > 8000
    monkeypatch.setattr(zeta, "OUTER_BLOCK", 8000)
    blocked = baez_duarte_moment(L, 500.0)
    assert blocked == pytest.approx(one, rel=1e-14, abs=0)


def test_quadrature_bound_infinite_at_one_panel():
    # one panel of half-width T/2: no strip about it fits in [T, 2T], so the
    # bound is a miss, not a number
    assert _quadrature_bound(500.0, build_L_theta(500.0, 0.3), 1) == math.inf


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


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: mollified_moment(49.0, None), ValueError, "T must be >= 50"),
    (lambda: baez_duarte_moment(None, 99.0), ValueError,
     "t_cap must be >= 100"),
], ids=["moment-below-50", "baez-below-100"])
def test_typed_refusals(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
