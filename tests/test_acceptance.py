"""Acceptance gate: thirteen numbered end-to-end checks at fixed tolerances.

Each test prints one machine-greppable line

    ACCEPTANCE nn [pass|FAIL] <detail>

(direct to the real stdout, bypassing capture) and then asserts, so a red
criterion both prints its line and fails the run.  Criteria 4 and 13 test
asymptotic statements: the floor 1/theta - 0.15 and the window
[0.7/theta, 1.4/theta] hold as T -> infinity, and desk-scale T is far from
that limit (the values at T = 1e6 and T = 2000 sit below both).  Each keeps
its finite-T computations and assertions, and checks the asymptotic bound on
the T -> infinity limit of a ladder of exact finite-T main terms (the
Balasubramanian-Conrey-Heath-Brown quadratic form), extrapolated by every
degree-1 and degree-2 polynomial fit over the ladder's top rungs.  The
bounds themselves are unchanged.
"""

import math
import sys
import time

import numpy as np
import pytest
from scipy.integrate import quad

from mollint.arith import EULER_GAMMA, sieve_build
from mollint.dirichlet import (
    build_L_theta,
    evaluate_poly,
    evaluate_poly_many,
    make_poly,
    windowed_sum,
    zeta_window_coeffs,
)
from mollint.moments import bch_predicted, mollified_moment
from mollint.quadform import (
    PROPB_C,
    big_G,
    diag_residual,
    gram_form,
    log_form,
    minimizer_coeffs,
    propB_value,
)
from mollint.smoothfn import beurling_b, majorant_hat, majorant_make, make_plateau
from mollint.zeta import count_zeros_rvm, find_zeros, zeta_critical_many
from mollint.zerostats import (
    gonek_sum,
    pair_correlation,
    pair_correlation_grid,
    plancherel_bound_check,
    propA_rhs,
    thm3_rhs,
    wellspaced_subset,
)


_LINES: list = []


@pytest.fixture(autouse=True, scope="session")
def _bind_log(acceptance_log):
    global _LINES
    _LINES = acceptance_log


def _report(num: int, ok: bool, detail: str) -> None:
    status = "pass" if ok else "FAIL"
    line = f"ACCEPTANCE {num:2d} [{status}] {detail}"
    _LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


def _random_coeffs(rng, N, unit_first=False):
    n = np.arange(1, N + 1)
    c = (n ** 0.1) * np.exp(2j * np.pi * rng.random(N))
    if unit_first:
        c[0] = 1.0
    return make_poly(c)


def _fit_limits(x, y) -> list:
    """Constant terms of the degree-1 and degree-2 least-squares polynomials
    in x through the last k ladder rungs, for every k the degree allows.

    The ladder runs towards x = 0, so each constant term estimates the
    limit; an asymptotic bound is asserted for all of them, not for one
    chosen fit.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return [float(np.polyfit(x[-k:], y[-k:], deg)[-1])
            for deg in (1, 2) for k in range(deg + 1, len(x) + 1)]


SUITE_SIZES = (10, 50, 200, 1000)


def test_acceptance_01_diagonalization(rng):
    t0 = time.monotonic()
    worst = 0.0
    for N in SUITE_SIZES:
        for _ in range(50):
            a = _random_coeffs(rng, N)
            d = gram_form(a, "direct")
            g = gram_form(a, "diagonal")
            worst = max(worst, abs(d - g) / abs(d))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed <= 60.0
    _report(1, ok, f"direct vs diagonal gram form, 200 vectors, "
                   f"worst rel err {worst:.3g}, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed <= 60.0


def test_acceptance_02_residual_identity(rng):
    t0 = time.monotonic()
    worst = 0.0
    for N in SUITE_SIZES:
        for _ in range(50):
            a = _random_coeffs(rng, N, unit_first=True)
            dec = diag_residual(a)  # internally checks at 1e-10
            err = abs(dec.form - (1.0 / dec.G + dec.residual)) / abs(dec.form)
            worst = max(worst, err)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed <= 60.0
    _report(2, ok, f"form = 1/G + residual, 200 vectors with a(1)=1, "
                   f"worst rel err {worst:.3g}, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed <= 60.0


def test_acceptance_03_minimizer(rng):
    t0 = time.monotonic()
    N = 1000
    m = minimizer_coeffs(N)
    dec = diag_residual(m)
    base = dec.form
    target = 1.0 / big_G(N)
    beaten = 0
    for _ in range(100):
        pert = _random_coeffs(rng, N, unit_first=True)
        if gram_form(pert, "diagonal") < base - 1e-12:
            beaten += 1
    elapsed = time.monotonic() - t0
    ok = (abs(m.coeffs[1] - 1.0) <= 1e-12 and dec.residual <= 1e-20
          and abs(base - target) <= 1e-10 and beaten == 0 and elapsed <= 60.0)
    _report(3, ok, f"minimizer N=1000: residual {dec.residual:.3g}, "
                   f"|form - 1/G| {abs(base - target):.3g}, "
                   f"{beaten}/100 perturbations below, {elapsed:.1f}s")
    assert abs(m.coeffs[1] - 1.0) <= 1e-12
    assert dec.residual <= 1e-20
    assert abs(base - target) <= 1e-10
    assert beaten == 0
    assert elapsed <= 60.0


# Criterion 4's floor 1/theta - EPS is a T -> infinity statement.  At the
# minimizer gram_form = 1/G(N) exactly, so the predicted moment splits as
#
#     v = log(c T) / G(N)  +  (-Lf(N) - 1),     Lf = log_form at the minimizer,
#
# a diagonal part and a theta-independent off-diagonal part that depends on N
# only.  With N = T^theta the diagonal part tends to 1/theta from below,
# because G(N) - log N tends to c0 = gamma + sum_p log p/(p(p-1)); it trails
# by (c0/theta - log c)/G(N), which at theta = 0.3 drops under EPS only once
# log T is near 100.  So the floor is tested on the limit of an N ladder, with
# the off-diagonal part extrapolated in powers of 1/G(N).  (v itself is not
# fitted in 1/log T: at theta = 0.2, over T = 1e6 .. 1e18, such fits range
# from 4.69 to 5.16, on both sides of the floor 4.85.)
FLOOR_EPS = 0.15
FLOOR_THETAS = (0.2, 0.3, 0.4)
FLOOR_LADDER = (15, 63, 251, 1000, 4000)  # all within quadform.DIRECT_CAP


def _c0(sieve) -> float:
    """gamma + sum_p log p/(p(p-1)): the sum over the sieve's primes plus
    the prime-number-theorem tail 1/limit.  G(N) = log N + c0 + O(log N/sqrt N).
    """
    p = sieve.primes().astype(float)
    return (EULER_GAMMA + math.fsum(np.log(p) / (p * (p - 1.0)))
            + 1.0 / sieve.limit)


def test_acceptance_04_lower_bound_floor(sieve):
    t0 = time.monotonic()
    # Finite T = 1e6.  propB_value diagonalizes the form over the divisor
    # lattice and bch_predicted sums it by brute force, so their agreement
    # checks the diagonalization; the route through zeta is the quadrature
    # (criterion 13).
    T = 1e6
    finite = []
    agree = 0.0
    for theta in FLOOR_THETAS:
        N = int(math.floor(T ** theta))
        m = minimizer_coeffs(N)
        v = propB_value(T, m)
        pred = bch_predicted(T, m)
        agree = max(agree, abs(v - pred) / abs(v))
        finite.append((theta, N, v))

    # N ladder; floor(1e6^theta) = 15, 63, 251 are its first rungs
    c0 = _c0(sieve)
    G, off = {}, {}
    for N in FLOOR_LADDER:
        G[N] = big_G(N)
        off[N] = -log_form(minimizer_coeffs(N), "direct") - 1.0
    split = max(abs(v - (math.log(PROPB_C * T) / G[N] + off[N])) / abs(v)
                for _, N, v in finite)
    c0_excess = max(abs(G[N] - math.log(N) - c0) / (math.log(N) / math.sqrt(N))
                    for N in FLOOR_LADDER)
    # v at the height T = N^(1/theta) where the rung is a length-T^theta mollifier
    ladder = {theta: [math.log(PROPB_C * N ** (1.0 / theta)) / G[N] + off[N]
                      for N in FLOOR_LADDER]
              for theta in FLOOR_THETAS}
    rising = all(bool(np.all(np.diff(vs) > 0.0)) for vs in ladder.values())
    below = all(max(vs) < 1.0 / theta for theta, vs in ladder.items())
    limits = _fit_limits([1.0 / G[N] for N in FLOOR_LADDER],
                         [off[N] for N in FLOOR_LADDER])
    limit = min(limits)
    floors = [(theta, 1.0 / theta + limit, 1.0 / theta - FLOOR_EPS)
              for theta in FLOOR_THETAS]
    limit_ok = all(v >= f for _, v, f in floors)
    elapsed = time.monotonic() - t0

    ok = (agree <= 1e-10 and split <= 1e-10 and c0_excess <= 1.0 and rising
          and below and limit_ok and elapsed <= 300.0)
    at_T = ", ".join(f"theta={t:g}: {v:.3f}" for t, _, v in finite)
    at_limit = ", ".join(f"theta={t:g}: {v:.3f} vs floor {f:.3f}"
                         for t, v, f in floors)
    _report(4, ok, f"route agreement {agree:.3g}; T=1e6 values {at_T}; "
                   f"N={FLOOR_LADDER[0]}..{FLOOR_LADDER[-1]}: |G-log N-c0| at "
                   f"{c0_excess:.3f} of log N/sqrt N, off-diagonal "
                   f"{off[FLOOR_LADDER[0]]:.3f} -> {off[FLOOR_LADDER[-1]]:.3f}, "
                   f"limit fits [{limit:.3f}, {max(limits):.3f}]; "
                   f"T->inf lower estimate {at_limit}; {elapsed:.1f}s")
    assert agree <= 1e-10
    assert split <= 1e-10, (
        f"propB_value at T=1e6 is not log(cT)/G(N) - Lf(N) - 1 (rel {split:.3g})")
    assert c0_excess <= 1.0, (
        f"G(N) - log N misses c0 = {c0:.6f} by {c0_excess:.3f} times "
        "log N/sqrt N on the ladder")
    assert rising, "predicted moment not increasing along the N ladder"
    assert below, "predicted moment above 1/theta on the N ladder"
    assert elapsed <= 300.0
    assert limit_ok, (
        f"extrapolated off-diagonal limit {limit:.3f} (fits {limits}) puts "
        f"the T->inf value below the floor 1/theta - {FLOOR_EPS} ({at_limit})")


def test_acceptance_05_majorant(sieve):
    t0 = time.monotonic()
    worst_dom = 0.0
    worst_hat0 = 0.0
    worst_out = 0.0
    for delta in (0.5, 1.0, 2.0):
        K = majorant_make((0.0, 1.0), delta)
        x = np.linspace(-4.0, 5.0, 10_000)
        chi = ((x >= 0.0) & (x <= 1.0)).astype(float)
        worst_dom = max(worst_dom, float(np.max(chi - K(x))))
        h0 = majorant_hat(K, 0.0)
        worst_hat0 = max(worst_hat0, abs(h0 - (1.0 + 1.0 / delta)) / h0)
        xs = np.linspace(1.05 * delta, 3.0 * delta, 25)
        vals = majorant_hat(K, np.concatenate([xs, -xs]))
        worst_out = max(worst_out, float(np.max(np.abs(vals))) / h0)
    # excess mass of the one-sided majorant: finite window plus the exact
    # sinc^2 tail beyond |u| = 50
    val, _ = quad(lambda u: beurling_b(u) - math.copysign(1.0, u),
                  -50.0, 50.0, limit=400)
    mass = val + 1.0 / (math.pi ** 2 * 50.0)
    elapsed = time.monotonic() - t0
    ok = (worst_dom <= 1e-6 and worst_hat0 <= 1e-4 and worst_out <= 1e-4
          and abs(mass - 1.0) <= 1e-3 and elapsed <= 120.0)
    _report(5, ok, f"domination deficit {worst_dom:.3g}, Khat(0) rel err "
                   f"{worst_hat0:.3g}, out-of-band ratio {worst_out:.3g}, "
                   f"excess mass {mass:.6f}, {elapsed:.1f}s")
    assert worst_dom <= 1e-6
    assert worst_hat0 <= 1e-4
    assert worst_out <= 1e-4
    assert abs(mass - 1.0) <= 1e-3
    assert elapsed <= 120.0


def test_acceptance_06_zero_finder(zeros_low, rng):
    t0 = time.monotonic()
    g = zeros_low.ordinates
    known = (14.134725, 21.022040, 25.010858)
    first_err = max(abs(g[i] - known[i]) for i in range(3))
    worst_disc = 0.0
    for _ in range(50):
        lo = float(rng.uniform(100.0, 9990.0))
        hi = lo + float(rng.uniform(2.0, 8.0))
        table = find_zeros(lo, hi)
        expected = count_zeros_rvm(hi) - count_zeros_rvm(lo)
        worst_disc = max(worst_disc, abs(len(table.ordinates) - expected))
    elapsed = time.monotonic() - t0
    ok = (len(g) == 29 and first_err <= 1e-5 and worst_disc <= 2.0
          and elapsed <= 120.0)
    _report(6, ok, f"{len(g)} zeros in [10,100], first-three err "
                   f"{first_err:.2g}, worst window discrepancy "
                   f"{worst_disc:.2f}, {elapsed:.1f}s")
    assert len(g) == 29
    assert first_err <= 1e-5
    assert worst_disc <= 2.0
    assert elapsed <= 120.0


def test_acceptance_07_reproducing_identity(rng):
    worst = 0.0
    for _ in range(20):
        N = int(rng.integers(5, 501))
        A = _random_coeffs(rng, N)
        hi = math.log(N) / (2.0 * math.pi)
        f = make_plateau((-0.3, hi + 0.3), (-0.1, hi + 0.1))
        for u in rng.uniform(-50.0, 50.0, 10):
            got = windowed_sum(A, f, float(u))
            want = evaluate_poly(A, 0.0, float(u))
            worst = max(worst, abs(got - want) / abs(want))
    ok = worst <= 1e-12
    _report(7, ok, f"windowed sum vs direct evaluation, 20 polynomials x 10 "
                   f"points, worst rel err {worst:.3g}")
    assert worst <= 1e-12


def test_acceptance_08_smoothed_approximation(sieve, rng):
    T = 500.0
    w = make_plateau((0.0, 1.0), (0.0, 0.5))
    Z = zeta_window_coeffs(T, 0.2, w)
    ts = rng.uniform(T, 2 * T, 50)
    err = np.abs(evaluate_poly_many(Z, 0.5, ts) - zeta_critical_many(ts))
    sup = float(np.max(err))
    ok = sup <= 1e-4
    _report(8, ok, f"smoothed polynomial vs zeta on 50 samples in [500,1000], "
                   f"sup err {sup:.3g}")
    assert sup <= 1e-4


def test_acceptance_09_pair_correlation(zeros_1k):
    t0 = time.monotonic()
    T = 1000.0
    band_err = 0.0
    for alpha in (0.3, 0.5, 0.7, 0.9):
        F = pair_correlation(zeros_1k, T, alpha)
        band_err = max(band_err, abs(F - alpha))
    even_err = max(abs(pair_correlation(zeros_1k, T, a)
                       - pair_correlation(zeros_1k, T, -a))
                   for a in (0.4, 1.7))
    grid = pair_correlation_grid(zeros_1k, T, np.linspace(0.0, 3.0, 61))
    fmin = float(np.min(grid.values))
    elapsed = time.monotonic() - t0
    ok = (band_err <= 0.25 and even_err <= 1e-12 and fmin >= -0.05
          and elapsed <= 300.0)
    _report(9, ok, f"|F - alpha| max {band_err:.3f}, evenness {even_err:.2g}, "
                   f"min F on [0,3] {fmin:.3f}, {elapsed:.1f}s")
    assert band_err <= 0.25
    assert even_err <= 1e-12
    assert fmin >= -0.05
    assert elapsed <= 300.0


def test_acceptance_10_zero_power_sums(zeros_1k):
    T = 1000.0
    envelope = 3.0 * math.log(T) ** 2
    worst_ratio = 0.0
    for n in range(2, 10):
        emp, pred = gonek_sum(zeros_1k, n, T)
        worst_ratio = max(worst_ratio, abs(emp - pred) / (envelope * n))
    ok = worst_ratio <= 1.0
    _report(10, ok, f"power sums n=2..9, worst |emp - pred| at "
                    f"{worst_ratio:.2f} of the 3(log T)^2 n envelope")
    assert worst_ratio <= 1.0


def test_acceptance_11_lower_bound_runs(zeros_1k):
    t0 = time.monotonic()
    T = 1000.0
    A = 1.0
    delta = 2.0 * math.pi * A / math.log(T)
    S = wellspaced_subset(zeros_1k, delta)
    rhs_a = propA_rhs(S, T, 0.5, A)
    measured_05 = mollified_moment(T, build_L_theta(T, 0.5)).value
    # the correlation bound is judged as `bounds thm3` judges it, at the
    # unfavourable end of its integral's error bound
    rhs_3, _, unfav_3 = thm3_rhs(zeros_1k, T, 0.3, 0.05)
    measured_03 = mollified_moment(T, build_L_theta(T, 0.3)).value
    elapsed = time.monotonic() - t0
    ok = rhs_a <= measured_05 and unfav_3 <= measured_03
    _report(11, ok, f"well-spaced bound {rhs_a:.3f} <= moment {measured_05:.3f}"
                    f"; correlation bound {rhs_3:.6f} (unfavourable "
                    f"{unfav_3:.6f}) <= moment {measured_03:.3f}; "
                    f"{elapsed:.1f}s")
    assert rhs_a <= measured_05
    assert rhs_3 < unfav_3 <= measured_03


class _Points:
    def __init__(self, ordinates):
        self.ordinates = np.asarray(ordinates, dtype=float)


def test_acceptance_12_plancherel(zeros_1k, rng):
    t0 = time.monotonic()
    f = make_plateau((0.0, 1.0), (0.25, 0.75))
    K = majorant_make((0.0, 1.0), 1.0)
    worst = -math.inf
    for _ in range(20):
        pts = np.sort(rng.uniform(0.0, 20.0, int(rng.integers(2, 12))))
        lhs, rhs = plancherel_bound_check(_Points(pts), f, K, 200)
        worst = max(worst, lhs / rhs)
    g = zeros_1k.ordinates
    for _ in range(5):
        i = int(rng.integers(0, len(g) - 8))
        lhs, rhs = plancherel_bound_check(_Points(g[i:i + 8]), f, K, 200)
        worst = max(worst, lhs / rhs)
    elapsed = time.monotonic() - t0
    ok = worst <= 1.0 + 1e-6
    _report(12, ok, f"25 configurations, worst lhs/rhs {worst:.6f}, "
                    f"{elapsed:.1f}s")
    assert worst <= 1.0 + 1e-6


# Criterion 13's window [0.7/theta, 1.4/theta] holds for I(L_theta) as
# T -> infinity, where the main term is 1/theta + O(1/log T).  At T = 2000
# (N = 9) the quadrature is tied to the exact finite-T main term
# bch_predicted, and the window is tested on the 1/log T limit of a ladder
# of that main term up to T = 1e12 (N = 3981, within quadform.DIRECT_CAP).
MOMENT_LADDER = (2e3,) + tuple(10.0 ** k for k in range(4, 13))


def test_acceptance_13_moment_sanity():
    t0 = time.monotonic()
    base = mollified_moment(500.0, None).value
    theta = 0.3
    T = MOMENT_LADDER[0]
    L = build_L_theta(T, theta)
    measured = mollified_moment(T, L).value
    ladder = [bch_predicted(t, build_L_theta(t, theta))
              for t in MOMENT_LADDER]
    predicted = ladder[0]
    tracks = abs(measured - predicted) <= 5e-3 * abs(predicted)
    rising = bool(np.all(np.diff(ladder) > 0.0))
    limits = _fit_limits([1.0 / math.log(t) for t in MOMENT_LADDER], ladder)
    lo, hi = 0.7 / theta, 1.4 / theta
    window_ok = all(lo <= x <= hi for x in limits)
    elapsed = time.monotonic() - t0
    ok = (abs(base - 1.0) <= 1e-8 and tracks and rising and window_ok
          and elapsed <= 600.0)
    _report(13, ok, f"empty-mollifier moment {base:.12f}; mollified moment "
                    f"{measured:.4f} vs main term {predicted:.4f} at T=2000; "
                    f"main term {ladder[0]:.3f} -> {ladder[-1]:.3f} up to "
                    f"T=1e12, 1/log T limit fits [{min(limits):.3f}, "
                    f"{max(limits):.3f}] vs window [{lo:.3f}, {hi:.3f}]; "
                    f"{elapsed:.1f}s")
    assert abs(base - 1.0) <= 1e-8
    assert elapsed <= 600.0
    assert tracks, (
        f"quadrature {measured:.6f} off the main term {predicted:.6f} at "
        "T=2000 by more than rel 5e-3")
    assert rising, f"main term not increasing along the T ladder: {ladder}"
    assert window_ok, (
        f"extrapolated T->inf moment (fits {limits}) outside the window "
        f"[{lo:.3f}, {hi:.3f}]")
