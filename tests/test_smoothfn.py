import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import polygamma

from mollint.smoothfn import (
    AccuracyError,
    MajorantKernel,
    PlateauWindow,
    WindowContractError,
    _dhat_grid,
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
_K = majorant_make((0.0, 1.0), 1.0, trunc=2000)


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


@pytest.mark.parametrize("xs", [np.linspace(1e-3, 20.0, 2001),
                                np.geomspace(1.0, 1e4, 2001)],
                         ids=["linspace", "geomspace"])
def test_trigamma_against_mpmath(xs):
    ref = _psi1(xs)
    assert np.max(np.abs(trigamma(xs) - ref) / ref) <= 2e-15


def test_trigamma_on_dhat_nodes():
    # every 7th node, which cycles through all 8 nodes of each panel's rule
    xs = _dhat_grid()[0][::7] + 1.0
    ref = _psi1(xs)
    assert np.max(np.abs(trigamma(xs) - ref) / ref) <= 2e-15


def test_dhat_remainder_matches_polygamma_formula():
    nodes, _, e_vals = _dhat_grid()
    s2 = (np.sin(math.pi * nodes) / math.pi) ** 2
    ref = s2 * (2.0 / nodes - 1.0 / nodes ** 2
                - 2.0 * polygamma(1, nodes + 1.0))
    assert np.max(np.abs(e_vals - ref)) <= 1e-15


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


def test_beurling_trunc_validation():
    with pytest.raises(ValueError):
        beurling_b(0.5, trunc=5)


def test_majorant_dominates_indicator():
    K = majorant_make((0.0, 1.0), 1.0, trunc=2000)
    x = np.linspace(-5.0, 6.0, 2001)
    chi = ((x >= 0.0) & (x <= 1.0)).astype(float)
    assert np.min(K(x) - chi) >= -1e-6
    assert K(0.5) >= 1.0 - 1e-6


def test_majorant_reflection_symmetry():
    K = majorant_make((0.0, 1.0), 2.0, trunc=2000)
    u = np.linspace(0.0, 3.0, 100)
    assert np.max(np.abs(K(0.0 + u) - K(1.0 - u))) <= 1e-12


def test_majorant_hat_zero_value_exact():
    for delta in (0.5, 1.0, 2.0):
        K = majorant_make((0.0, 1.0), delta, trunc=2000)
        assert majorant_hat(K, 0.0) == pytest.approx(1.0 + 1.0 / delta,
                                                     rel=1e-12)


def test_majorant_hat_vanishes_out_of_band():
    K = majorant_make((0.0, 1.0), 1.0, trunc=2000)
    xs = np.linspace(1.05, 3.0, 50)
    vals = majorant_hat(K, np.concatenate([xs, -xs]))
    assert np.max(np.abs(vals)) <= 1e-10 * majorant_hat(K, 0.0)


def test_majorant_hat_matches_direct_transform_in_band():
    # independent route: brute-force Fourier integral of K over a long
    # window, with the positive-tail decay handled by generous range
    K = majorant_make((-0.5, 0.5), 1.0, trunc=4000)
    for x in (0.0, 0.3, 0.8):
        re, _ = quad(lambda v: K(v) * math.cos(2 * math.pi * v * x),
                     -300.0, 300.0, limit=2000)
        assert majorant_hat(K, x) == pytest.approx(re, abs=5e-3)


def test_majorant_make_validation():
    with pytest.raises(ValueError):
        majorant_make((1.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        majorant_make((0.0, 1.0), -2.0)
    with pytest.raises(ValueError):
        majorant_make((0.0, 1.0), 1.0, trunc=3)
