import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from mollint.smoothfn import (
    AccuracyError,
    MajorantKernel,
    PlateauWindow,
    WindowContractError,
    _dhat,
    beurling_b,
    majorant_hat,
    majorant_make,
    make_plateau,
    trigamma,
    window_fourier,
)


def window_fourier_oracle(w, x):
    """QUADPACK's oscillatory rule (QAWO) on each piece of the support."""
    cuts = sorted({*w.support, *w.plateau})
    re = im = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        re += quad(w, a, b, weight="cos", wvar=2 * math.pi * x,
                   epsabs=1e-14, limit=500)[0]
        im -= quad(w, a, b, weight="sin", wvar=2 * math.pi * x,
                   epsabs=1e-14, limit=500)[0]
    return complex(re, im)


def test_plateau_values_and_smooth_partition():
    w = make_plateau((0.0, 1.0), (0.25, 0.75))
    assert w(0.5) == 1.0
    assert w(-0.1) == 0.0 and w(1.1) == 0.0
    # exp(-1/x) step satisfies step(u) + step(1-u) = 1 within a ramp
    assert w(0.05) + w(0.20) == pytest.approx(1.0, abs=1e-14)
    x = np.linspace(-0.5, 1.5, 401)
    v = w(x)
    assert np.all(v >= 0.0) and np.all(v <= 1.0)


def test_plateau_degenerate_ramp_allowed():
    w = make_plateau((0.0, 1.0), (0.0, 0.5))
    assert w(0.0) == 1.0
    assert w(0.3) == 1.0
    assert w(-1e-12) == 0.0
    # the mirror image: the plateau touches the right end of the support
    w = make_plateau((0.0, 1.0), (0.5, 1.0))
    assert w(1.0) == 1.0
    assert w(1.0 + 1e-12) == 0.0


def test_plateau_contract_errors():
    with pytest.raises(WindowContractError):
        make_plateau((0.0, 1.0), (-0.1, 0.5))
    with pytest.raises(WindowContractError):
        make_plateau((0.0, 1.0), (0.0, 1.0))


def test_window_fourier_zero_frequency_is_mass():
    w = make_plateau((0.0, 1.0), (0.25, 0.75))
    mass, _ = quad(lambda v: w(v), 0.0, 1.0, limit=200)
    assert window_fourier(w, 0.0) == pytest.approx(mass, abs=1e-10)


def test_window_fourier_conjugate_symmetry():
    w = make_plateau((0.0, 2.0), (0.5, 1.5))
    a = window_fourier(w, 0.7)
    b = window_fourier(w, -0.7)
    assert a == pytest.approx(np.conj(b), abs=1e-10)


@pytest.mark.parametrize("x", [50.0, 400.0])
def test_window_fourier_against_qawo(x):
    w = make_plateau((0.0, 1.0), (0.25, 0.75))
    assert abs(window_fourier(w, x) - window_fourier_oracle(w, x)) <= 1e-10


@pytest.mark.parametrize("x, tol", [(0.7, 1e-17), (1e9, 1e-10)],
                         ids=["tol-below-rounding", "past-panel-cap"])
def test_window_fourier_accuracy_error(x, tol):
    w = make_plateau((0.0, 1.0), (0.25, 0.75))
    with pytest.raises(AccuracyError):
        window_fourier(w, x, tol=tol)


_W = make_plateau((0.0, 1.0), (0.25, 0.75))
_K = majorant_make((0.0, 1.0), 1.0)


@pytest.mark.parametrize("call", [
    lambda: window_fourier(_W, math.nan),
    lambda: window_fourier(_W, math.inf),
    lambda: beurling_b(math.nan),
    lambda: _K(math.nan),
    lambda: majorant_hat(_K, math.nan),
], ids=["window_fourier-nan", "window_fourier-inf", "beurling_b-nan",
        "K-nan", "majorant_hat-nan"])
def test_non_finite_input_raises(call):
    with pytest.raises(ValueError):
        call()


def _psi1(xs):
    return np.array([float(mpmath.psi(1, float(v))) for v in xs])


def _gl_panel_nodes():
    """1 + every 7th node of 8-point Gauss-Legendre on 0.25-wide panels of
    [0, 2000]; the stride cycles through all 8 nodes of each panel's rule."""
    gx, _ = leggauss(8)
    mid = np.arange(0.125, 2000.0, 0.25)
    return (mid[:, None] + 0.125 * gx[None, :]).ravel()[::7] + 1.0


@pytest.mark.parametrize("xs", [np.linspace(1e-3, 20.0, 2001),
                                np.geomspace(1.0, 1e4, 2001),
                                _gl_panel_nodes()],
                         ids=["linspace", "geomspace", "gl-panels"])
def test_trigamma_against_mpmath(xs):
    ref = _psi1(xs)
    assert np.max(np.abs(trigamma(xs) - ref) / ref) <= 2e-15


def _mp_beurling(x):
    """B from the closed form with mpmath's trigamma, at 30 digits."""
    with mpmath.workdps(30):
        u = abs(mpmath.mpf(x))
        if u == 0:
            return 1.0
        s2 = (mpmath.sin(mpmath.pi * u) / mpmath.pi) ** 2
        b = 1 + s2 * (2 / u - 2 * mpmath.psi(1, 1 + u))
        return float(2 * s2 / u ** 2 - b if x < 0 else b)


def _mp_beurling_series(x):
    """B from its partial-fraction definition

        B(z) = (sin pi z / pi)^2 (sum_{n>=0} (z-n)^-2 - sum_{n>=1} (z+n)^-2
                                  + 2/z),

    the first 60 terms of each series summed directly and the rest by
    Euler-Maclaurin summation, so the oracle does not use psi'.  (nsum's
    default extrapolation is off by up to 3e-5 at |x| = 30.)"""
    with mpmath.workdps(30):
        z = mpmath.mpf(x)
        s = mpmath.fsum(1 / (z - n) ** 2 for n in range(61)) \
            - mpmath.fsum(1 / (z + n) ** 2 for n in range(1, 61)) \
            + mpmath.nsum(lambda n: 1 / (z - n) ** 2 - 1 / (z + n) ** 2,
                          [61, mpmath.inf], method="euler-maclaurin")
        return float((mpmath.sin(mpmath.pi * z) / mpmath.pi) ** 2
                     * (s + 2 / z))


def test_beurling_against_partial_fractions():
    xs = np.concatenate([np.linspace(-30.0, 30.0, 61) + 0.37,
                         [-29.9, -1e-3, 1e-3, 0.5, 29.99]])
    ref = [_mp_beurling_series(x) for x in xs]
    assert np.max(np.abs(beurling_b(xs) - ref)) <= 1e-14


def test_beurling_against_mpmath_closed_form():
    # half-integers put sin^2(pi x) at its peak, where B - 1 is largest
    xs = np.geomspace(1e-6, 1e6, 151)
    xs = np.concatenate([xs, -xs, [2500.5, -2500.5, 9999.5, 10000.5,
                                   20000.5, -20000.5, 1e6 + 0.25]])
    ref = [_mp_beurling(x) for x in xs]
    assert np.max(np.abs(beurling_b(xs) - ref)) <= 1e-14


def _mp_e_sine_integral(xi):
    """int_0^inf E(u) sin(2 pi u xi) du by mpmath.quadosc, for the odd part
    E(u) = B(u) - 1 - sinc(u)^2 = (sin pi u/pi)^2 (2/u - 1/u^2 - 2 psi'(1+u))
    of D = B - sgn; the sum runs over unit blocks."""
    with mpmath.workdps(15):
        w = 2 * mpmath.pi * mpmath.mpf(xi)

        def f(u):
            if u == 0:
                return mpmath.mpf(0)
            s2 = (mpmath.sin(mpmath.pi * u) / mpmath.pi) ** 2
            return s2 * (2 / u - 1 / u ** 2 - 2 * mpmath.psi(1, 1 + u)) \
                * mpmath.sin(w * u)

        return float(mpmath.quadosc(f, [0, mpmath.inf], zeros=lambda n: n))


@pytest.mark.parametrize("xi", [0.3, 0.5, 0.75, 0.9])
def test_dhat_against_quadosc(xi):
    # D^ = triangle (transform of sinc^2) - 2i int_0^inf E(u) sin(2 pi u xi)
    ref = complex(1.0 - xi, -2.0 * _mp_e_sine_integral(xi))
    assert abs(complex(_dhat(xi)) - ref) <= 1e-14


def _mp_dhat(xi):
    """(1 - |xi|)(1 - i(cot pi xi - 1/(pi xi))) at 40 digits."""
    with mpmath.workdps(40):
        x = mpmath.mpf(xi)
        c = mpmath.cot(mpmath.pi * x) - 1 / (mpmath.pi * x)
        return complex((1 - abs(x)) * (1 - 1j * c))


def test_dhat_against_cot_form():
    # both ends of the band, and both sides of the series cut at pi xi = 1/2
    xis = [1e-8, -1e-8, 1e-4, 0.15, 0.16, 1.0 - 1e-6, 1.0 - 1e-12,
           -(1.0 - 1e-12)]
    got = _dhat(xis)
    for xi, g in zip(xis, got):
        assert abs(g - _mp_dhat(xi)) <= 1e-15, xi
    assert _dhat(0.0) == 1.0
    out = np.array([1.0, -1.0, 2.5, -40.0])
    assert np.max(np.abs(_dhat(out) - 1j / (math.pi * out))) <= 1e-15


def test_beurling_interpolation_and_majorization():
    # B(n) = sgn(n) at integers; B >= sgn everywhere
    for n in (1, 2, 7):
        assert beurling_b(float(n)) == pytest.approx(1.0, abs=1e-10)
        assert beurling_b(float(-n)) == pytest.approx(-1.0, abs=1e-10)
    assert beurling_b(0.0) == pytest.approx(1.0, abs=1e-10)
    x = np.linspace(-30.0, 30.0, 4001)
    assert np.min(beurling_b(x) - np.sign(x)) >= -1e-12
    assert beurling_b(5.5) >= 1.0


def test_beurling_even_part_identity():
    # B(u) + B(-u) = 2 sinc(u)^2 characterizes the construction
    u = np.linspace(0.01, 20.0, 500)
    lhs = beurling_b(u) + beurling_b(-u)
    assert np.max(np.abs(lhs - 2.0 * np.sinc(u) ** 2)) <= 1e-12


def test_beurling_excess_mass_is_one():
    # int (B - sgn) = 1; window [-50, 50] plus the analytic sinc^2 tail
    val, _ = quad(lambda u: beurling_b(u) - math.copysign(1.0, u),
                  -50.0, 50.0, limit=400)
    tail = 1.0 / (math.pi ** 2 * 50.0)
    assert val + tail == pytest.approx(1.0, abs=1e-4)


def test_majorant_dominates_indicator():
    K = majorant_make((0.0, 1.0), 1.0)
    x = np.concatenate([np.linspace(-5.0, 6.0, 2001),
                        np.linspace(-1e5, 1e5, 400_001)])
    chi = ((x >= 0.0) & (x <= 1.0)).astype(float)
    assert np.min(K(x) - chi) >= -1e-6
    assert K(0.5) >= 1.0 - 1e-6


def test_majorant_reflection_symmetry():
    K = majorant_make((0.0, 1.0), 2.0)
    u = np.linspace(0.0, 3.0, 100)
    assert np.max(np.abs(K(0.0 + u) - K(1.0 - u))) <= 1e-12


def test_majorant_hat_zero_value_exact():
    for delta in (0.5, 1.0, 2.0):
        K = majorant_make((0.0, 1.0), delta)
        assert majorant_hat(K, 0.0) == pytest.approx(1.0 + 1.0 / delta,
                                                     rel=1e-12)


def test_majorant_hat_vanishes_out_of_band():
    K = majorant_make((0.0, 1.0), 1.0)
    xs = np.linspace(1.05, 3.0, 50)
    vals = majorant_hat(K, np.concatenate([xs, -xs]))
    assert np.max(np.abs(vals)) <= 1e-10 * majorant_hat(K, 0.0)
    # up to 20 delta: i/(pi xi) must cancel the indicator's transform at
    # every frequency, however fast it oscillates
    for delta in (0.5, 1.0, 2.0):
        K = majorant_make((0.0, 1.0), delta)
        xs = np.linspace(1.05 * delta, 20.0 * delta, 400)
        xs = xs[xs != np.rint(xs)]
        vals = majorant_hat(K, np.concatenate([xs, -xs]))
        assert np.max(np.abs(vals)) <= 1e-12 * majorant_hat(K, 0.0)


def test_majorant_hat_matches_direct_transform_in_band():
    # independent route: K recentered at 0 is even, so its transform is
    # 2 int_0^inf K(v) cos(2 pi v x) dv, by QUADPACK's Fourier integral (QAWF)
    K = majorant_make((-0.5, 0.5), 1.0)
    for x in (0.3, 0.8):
        re, _ = quad(K, 0.0, math.inf, weight="cos", wvar=2 * math.pi * x)
        assert majorant_hat(K, x) == pytest.approx(2.0 * re, abs=1e-10)


def test_majorant_make_validation():
    with pytest.raises(ValueError):
        majorant_make((1.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        majorant_make((0.0, 1.0), -2.0)


@pytest.mark.parametrize("delta", [math.nan, math.inf])
def test_majorant_make_needs_finite_delta(delta):
    # nan made majorant_hat return nan, and inf the bare indicator's
    # transform (0.858 at 0.3) while K(x) raised
    with pytest.raises(ValueError, match="delta must be positive and finite"):
        majorant_make((0.0, 1.0), delta)


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: trigamma(0.0), ValueError, "x > 0"),
], ids=["trigamma-at-0"])
def test_typed_refusals(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
