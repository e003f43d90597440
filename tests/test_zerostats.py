import itertools
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from mollint import zeta
from mollint.smoothfn import make_plateau, majorant_make
from mollint.zeta import progression_sum
from mollint.zerostats import (
    ContractError,
    CoverageError,
    WellSpacedSet,
    _khat_pairs,
    _pair_diffs,
    gonek_sum,
    pair_correlation,
    pair_correlation_grid,
    plancherel_bound_check,
    propA_rhs,
    thm3_rhs,
    wellspaced_subset,
)
from mollint.zeta import ZeroTable


def synthetic_table(ordinates, complete=True):
    g = np.asarray(sorted(ordinates), dtype=float)
    return ZeroTable(ordinates=g,
                     height_range=(float(g[0]), float(g[-1])),
                     claimed_complete=complete, diagnostics=())


class Points:
    """Bare ordinate holder for the Plancherel check."""

    def __init__(self, ordinates):
        self.ordinates = np.asarray(ordinates, dtype=float)


# ---------------------------------------------------------------------------
# well-spaced subsets
# ---------------------------------------------------------------------------

def test_wellspaced_trivial_cases():
    Z = synthetic_table([1.0, 3.0, 6.0, 10.0])
    assert wellspaced_subset(Z, 0.5).count == 4
    assert wellspaced_subset(Z, 100.0).count == 1


@pytest.mark.parametrize("delta", [math.nan, math.inf])
def test_wellspaced_needs_finite_delta(delta):
    # NaN and inf each gave a one-ordinate set carrying that delta
    Z = synthetic_table([1.0, 3.0, 6.0, 10.0])
    with pytest.raises(ValueError, match="delta must be > 0 and finite"):
        wellspaced_subset(Z, delta)


def exhaustive_max_spaced(g, delta):
    best = 0
    for r in range(len(g), 0, -1):
        for combo in itertools.combinations(g, r):
            if all(b - a >= delta for a, b in zip(combo, combo[1:])):
                return r
    return best


def test_greedy_is_optimal_small(rng):
    for _ in range(10):
        g = np.sort(rng.uniform(0.0, 10.0, 12))
        Z = synthetic_table(g)
        delta = float(rng.uniform(0.3, 2.0))
        assert wellspaced_subset(Z, delta).count == \
            exhaustive_max_spaced(list(g), delta)


def test_greedy_optimal_on_first_zeros(zeros_low):
    delta = 2 * math.pi / math.log(100.0)
    S = wellspaced_subset(zeros_low, delta)
    small = list(zeros_low.ordinates[:18])
    Zs = synthetic_table(small)
    assert wellspaced_subset(Zs, delta).count == \
        exhaustive_max_spaced(small, delta)
    assert np.min(np.diff(S.ordinates)) >= delta


# ---------------------------------------------------------------------------
# pair correlation
# ---------------------------------------------------------------------------

def test_f_diagonal_positivity(zeros_1k):
    T = 1000.0
    F0 = pair_correlation(zeros_1k, T, 0.0)
    g = zeros_1k.ordinates
    count = np.count_nonzero((g >= T) & (g <= 2 * T))
    assert F0 >= 2 * math.pi * count / (T * math.log(T))


def test_f_even_and_real(zeros_1k):
    for a in (0.3, 1.1):
        assert abs(pair_correlation(zeros_1k, 1000.0, a)
                   - pair_correlation(zeros_1k, 1000.0, -a)) <= 1e-12


def test_f_montgomery_regime(zeros_1k):
    F = pair_correlation(zeros_1k, 1000.0, 0.5)
    assert abs(F - 0.5) <= 0.25


def test_coverage_refusal():
    Z = synthetic_table(np.linspace(1000.0, 1500.0, 100))
    with pytest.raises(CoverageError):
        pair_correlation(Z, 1000.0, 0.5)
    incomplete = synthetic_table(np.linspace(1000.0, 2000.0, 300),
                                 complete=False)
    with pytest.raises(CoverageError):
        pair_correlation(incomplete, 1000.0, 0.5)
    # override lets it through
    pair_correlation(incomplete, 1000.0, 0.5, override=True)


def _window(Z, T):
    g = Z.ordinates
    return g[(g >= T) & (g <= 2 * T)]


def _brute_force_f(g, T, alpha):
    """F(alpha, T) summed over every pair with math.fsum."""
    logT = math.log(T)
    d = _pair_diffs(g)
    cross = math.fsum(np.cos(alpha * logT * d) * 4.0 / (4.0 + d * d))
    return 2.0 * math.pi / (T * logT) * (len(g) + 2.0 * cross)


@pytest.mark.parametrize("alphas", [np.linspace(0.0, 3.0, 61), [0.7],
                                    np.linspace(3.0, -3.0, 7)],
                         ids=["linspace-61", "one-alpha", "descending"])
def test_pair_correlation_grid_against_brute_force(zeros_1k, alphas):
    # every pair, through Montgomery's identity, against every pair summed
    T = 1000.0
    g = _window(zeros_1k, T)
    pc = pair_correlation_grid(zeros_1k, T, alphas)
    ref = [_brute_force_f(g, T, a) for a in alphas]
    err = np.max(np.abs(pc.values - ref))
    assert err <= 1e-12
    assert err <= pc.error_bound < 1e-8


def test_pair_correlation_bound_covers_dense_table(rng):
    # 2.5 zeros per unit height: the rounding of S, not the rule, sets the
    # error, and the reported bound must cover it
    T = 1000.0
    Z = _dense_table(rng)
    alphas = np.linspace(0.0, 3.0, 11)
    pc = pair_correlation_grid(Z, T, alphas)
    g = _window(Z, T)
    err = max(abs(F - _brute_force_f(g, T, a))
              for F, a in zip(pc.values, alphas))
    assert err <= 1e-12
    assert err <= pc.error_bound < 1e-7


def test_pair_correlation_nonnegative(zeros_1k):
    # positive weights and a nonnegative integrand: F >= 0 on acceptance
    # 9's grid, down to the last bit
    pc = pair_correlation_grid(zeros_1k, 1000.0, np.linspace(0.0, 3.0, 61))
    assert np.all(pc.values >= 0.0)


@pytest.mark.parametrize("alphas", [
    [0.0, 0.1, 0.3], [], [0.5, math.nan], [[0.1, 0.2]],
    [0.5, 0.5],             # no step for the kinks to sit on
])
def test_pair_correlation_grid_needs_equal_spacing(alphas):
    Z = synthetic_table(np.linspace(1000.0, 2000.0, 300))
    with pytest.raises(ValueError, match="equally spaced"):
        pair_correlation_grid(Z, 1000.0, alphas)


def test_pair_diffs_against_brute_force(rng):
    sets = [np.sort(rng.uniform(0.0, 50.0, n)) for n in (2, 3, 40, 200)]
    sets += [np.empty(0), np.array([7.0]), np.array([0.0, 0.0, 0.0, 1.0]),
             np.sort(np.repeat(rng.uniform(0.0, 10.0, 15), 3))]
    for g in sets:
        ref = [g[j] - g[i] for i in range(len(g))
               for j in range(i + 1, len(g))]
        assert np.array_equal(_pair_diffs(g), ref)


# ---------------------------------------------------------------------------
# the window of zeros
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("T", [math.nan, math.inf, 1.0],
                         ids=["nan", "inf", "below-floor"])
def test_window_needs_finite_height_above_floor(zeros_1k, T):
    # NaN gave (nan, nan, inf), inf gave (2.0, 0.0, 2.0), and T = 1 a bare
    # ZeroDivisionError; every statistic over [T, 2T] is refused
    calls = [lambda: thm3_rhs(zeros_1k, T, 0.5, 0.05, override=True),
             lambda: pair_correlation(zeros_1k, T, 0.5, override=True),
             lambda: gonek_sum(zeros_1k, 2, T, override=True)]
    for call in calls:
        with pytest.raises(ValueError, match="T must be finite and >= 10"):
            call()


@pytest.mark.parametrize("override", [False, True])
def test_empty_window_refused(override):
    # a table that claims completeness over [995, 2005] with no zero in
    # [1000, 2000] gave (2.0, 0.0, 2.0) from thm3_rhs
    Z = ZeroTable(ordinates=np.array([996.0, 2004.0]),
                  height_range=(995.0, 2005.0), claimed_complete=True,
                  diagnostics=())
    with pytest.raises(CoverageError, match="no zero of the table"):
        thm3_rhs(Z, 1000.0, 0.5, 0.05, override=override)


# ---------------------------------------------------------------------------
# Gonek sums
# ---------------------------------------------------------------------------

def test_gonek_predicted_formula(zeros_1k):
    _, pred4 = gonek_sum(zeros_1k, 4, 1000.0)
    assert pred4 == pytest.approx(-(1000.0 / (2 * math.pi)) * math.log(2) / 4,
                                  rel=1e-14)
    emp6, pred6 = gonek_sum(zeros_1k, 6, 1000.0)
    assert pred6 == 0.0
    assert abs(emp6) <= 3 * math.log(1000.0) ** 2 * 6


@pytest.mark.parametrize("n", [2, 3, 5, 8, 9])
def test_gonek_envelope(zeros_1k, n):
    emp, pred = gonek_sum(zeros_1k, n, 1000.0)
    assert abs(emp - pred) <= 3 * math.log(1000.0) ** 2 * n


# ---------------------------------------------------------------------------
# bound right-hand sides
# ---------------------------------------------------------------------------

def test_propa_rhs_and_contract(zeros_1k):
    T = 1000.0
    A = 1.0
    delta = 2 * math.pi * A / math.log(T)
    S = wellspaced_subset(zeros_1k, delta)
    v = propA_rhs(S, T, 1.0, A)
    assert 0.0 < v < 1.0
    # theta -> infinity decays like 1/theta
    assert propA_rhs(S, T, 100.0, A) < v / 30.0
    with pytest.raises(ContractError):
        propA_rhs(S, T, 1.0, 2.0)  # delta does not match 2 pi * 2 / log T


@pytest.mark.parametrize("theta", [0.0, -1.5, -2.0, math.nan, math.inf])
def test_propa_rhs_needs_positive_theta(zeros_1k, theta):
    # Proposition A needs theta > 0; below -1 - 1/A the denominator
    # vanishes or turns negative, and a NaN slips past every comparison
    T = 1000.0
    S = wellspaced_subset(zeros_1k, 2 * math.pi / math.log(T))
    with pytest.raises(ValueError, match="theta must be > 0"):
        propA_rhs(S, T, theta, 1.0)


@pytest.mark.parametrize("A", [math.nan, math.inf])
def test_propa_rhs_needs_finite_A(zeros_1k, A):
    # A = nan gave nan
    S = wellspaced_subset(zeros_1k, 2 * math.pi / math.log(1000.0))
    with pytest.raises(ValueError, match="A must be > 0 and finite"):
        propA_rhs(S, 1000.0, 0.5, A)


@pytest.mark.parametrize("T", [math.nan, math.inf, 5.0],
                         ids=["nan", "inf", "below-floor"])
def test_propa_rhs_needs_finite_T_above_floor(zeros_1k, T):
    # T = nan gave nan
    S = wellspaced_subset(zeros_1k, 2 * math.pi / math.log(1000.0))
    with pytest.raises(ValueError, match="T="):
        propA_rhs(S, T, 0.5, 1.0)


def test_propa_rhs_nan_spacing_breaks_contract():
    # a NaN delta is no match for 2 pi A / log T; the comparison
    # |delta - expected| > 1e-9 is False for it and let 3.6e-4 through
    S = WellSpacedSet(ordinates=np.array([1.0]), delta=math.nan,
                      parent_count=1)
    with pytest.raises(ContractError, match="does not match"):
        propA_rhs(S, 1000.0, 0.5, 1.0)


def test_thm3_rhs_degenerate_and_real(zeros_1k):
    v, err, unfav = thm3_rhs(zeros_1k, 1000.0, 0.3, 0.05)
    assert 0.0 < v <= 2.0
    assert 0.0 < err < 1e-8
    assert unfav == pytest.approx(1.0 / (1.0 / v - err), rel=1e-14, abs=0)


@pytest.mark.parametrize("eps", [0.0, -0.5, math.nan])
def test_thm3_rhs_needs_positive_eps(zeros_1k, eps):
    # eps <= 0 would shrink the alpha range of Theorem 3 to [1, 1 + theta
    # + eps] or less; a typed error, not a verdict on another range
    with pytest.raises(ValueError, match="eps must be > 0"):
        thm3_rhs(zeros_1k, 1000.0, 0.5, eps)


@pytest.mark.parametrize("theta", [0.0, -0.5, -1.2, math.nan, math.inf])
def test_thm3_rhs_needs_positive_theta(zeros_1k, theta):
    # Theorem 3 needs theta > 0; a negative theta can reverse the alpha
    # range [1, 1 + theta + eps], and a NaN slips past every comparison
    with pytest.raises(ValueError, match="theta must be > 0"):
        thm3_rhs(zeros_1k, 1000.0, theta, 0.05)


@pytest.mark.parametrize("theta", [0.5, 0.3])
def test_thm3_closed_form_against_fine_trapezoid(zeros_1k, theta):
    # oracle: F on 20,000 alphas as one progression_sum over every pair
    # difference (no identity), trapezoid rule
    T, eps = 1000.0, 0.05
    L = math.log(T)
    alphas = np.linspace(1.0, 1.0 + theta + eps, 20_000)
    g = _window(zeros_1k, T)
    d = _pair_diffs(g)
    cross = progression_sum(L * d, 4.0 / (4.0 + d * d), alphas[:1],
                            alphas[1] - alphas[0], len(alphas))[:, 0].real
    F = 2.0 * math.pi / (T * L) * (len(g) + 2.0 * cross)
    ref = 1.0 / (0.5 + np.trapezoid(F, alphas))
    rhs, _, _ = thm3_rhs(zeros_1k, T, theta, eps)
    assert rhs == pytest.approx(ref, rel=1e-10, abs=0)


def _dense_table(rng):
    # 2.5 zeros per unit height, over twice the density near T = 1000
    g = np.unique(np.concatenate([[1000.0, 2000.0],
                                  rng.uniform(1000.0, 2000.0, 2500)]))
    return synthetic_table(g)


def _all_pairs_integral(g, T, a, b):
    """int_a^b F d alpha, each pair's cosine integrated exactly, with
    math.fsum over every pair."""
    L = math.log(T)
    d = _pair_diffs(g)
    x = L * d
    cross = math.fsum(4.0 / (4.0 + d * d) * (np.sin(b * x) - np.sin(a * x))
                      / x)
    return 2.0 * math.pi / (T * L) * (len(g) * (b - a) + 2.0 * cross)


@pytest.mark.parametrize("table", ["zeros_1k", "dense"])
def test_thm3_error_bound_covers_all_pairs(zeros_1k, rng, table):
    Z = zeros_1k if table == "zeros_1k" else _dense_table(rng)
    T = 1000.0
    for theta in (0.3, 0.5):
        rhs, err, unfav = thm3_rhs(Z, T, theta, 0.05)
        ref = _all_pairs_integral(_window(Z, T), T, 1.0, 1.05 + theta)
        assert abs(1.0 / rhs - 0.5 - ref) <= 1e-13 * ref
        assert abs(1.0 / rhs - 0.5 - ref) <= err < 1e-8
        assert unfav > rhs


def test_thm3_blocked_rule_matches_one_block(zeros_1k, monkeypatch):
    # the rule's 61,224 nodes at T = 1000 go through progression_sum in one
    # call; with OUTER_BLOCK = 700 they go in blocks of 87 panels x 8 offsets
    one = thm3_rhs(zeros_1k, 1000.0, 0.5, 0.05)
    monkeypatch.setattr(zeta, "OUTER_BLOCK", 700)
    blocked = thm3_rhs(zeros_1k, 1000.0, 0.5, 0.05)
    assert blocked == pytest.approx(one, rel=1e-14, abs=0)


# ---------------------------------------------------------------------------
# Plancherel bound
# ---------------------------------------------------------------------------

def test_plancherel_single_point():
    f = make_plateau((0.0, 1.0), (0.3, 0.7))
    K = majorant_make((0.0, 1.0), 1.0)
    lhs, rhs = plancherel_bound_check(Points([5.0]), f, K, 200)
    # lhs = int |f|^2, rhs = Khat(0) = 1 + 1/delta = 2
    ref, _ = quad(lambda v: f(v) ** 2, 0.0, 1.0, limit=200)
    assert lhs == pytest.approx(ref, abs=1e-10)
    assert rhs == pytest.approx(2.0, rel=1e-10)
    assert lhs <= rhs


def test_plancherel_synthetic_random(rng):
    f = make_plateau((0.0, 1.0), (0.25, 0.75))
    K = majorant_make((0.0, 1.0), 1.0)
    for _ in range(5):
        pts = np.sort(rng.uniform(0.0, 15.0, 10))
        lhs, rhs = plancherel_bound_check(Points(pts), f, K, 300)
        assert lhs <= rhs * (1 + 1e-6)


def test_plancherel_k_equals_f_squared(rng):
    f = make_plateau((0.0, 1.0), (0.3, 0.7))
    pts = np.sort(rng.uniform(0.0, 8.0, 6))
    lhs, rhs = plancherel_bound_check(Points(pts), f, f, 300)
    assert lhs <= rhs * (1 + 1e-6)


@pytest.mark.parametrize("n, vgrid", [(1, 50), (8, 200), (32, 300)])
def test_plancherel_lhs_against_outer_product(rng, n, vgrid):
    f = make_plateau((0.0, 1.0), (0.25, 0.75))
    K = majorant_make((0.0, 1.0), 1.0)
    g = np.sort(rng.uniform(0.0, 20.0, n))
    lhs, _ = plancherel_bound_check(Points(g), f, K, vgrid)
    # the same 8-point composite rule, with the exponential sum as a dense
    # outer product over the ordinates
    gx, gw = leggauss(8)
    edges = np.linspace(0.0, 1.0, vgrid + 1)
    half = 0.5 * (edges[1] - edges[0])
    nodes = (0.5 * (edges[:-1] + edges[1:])[:, None]
             + half * gx[None, :]).ravel()
    ssum = np.exp(-2j * math.pi * np.outer(g, nodes)).sum(axis=0)
    ref = math.fsum(np.tile(half * gw, vgrid) * np.abs(ssum) ** 2
                    * f(nodes) ** 2)
    assert lhs == pytest.approx(ref, rel=1e-12)


def test_khat_pairs_squared_window_against_qawo():
    # QUADPACK's oscillatory rule (QAWO) on each piece of the support
    f = make_plateau((0.0, 1.0), (0.3, 0.7))
    diffs = np.linspace(0.0, 50.0, 41)
    ref = [sum(quad(lambda v: f(v) ** 2, a, b, weight="cos",
                    wvar=2 * math.pi * d, epsabs=1e-14, limit=500)[0]
               for a, b in ((0.0, 0.3), (0.3, 0.7), (0.7, 1.0)))
           for d in diffs]
    assert np.max(np.abs(_khat_pairs(f, diffs) - ref)) <= 1e-10


@pytest.mark.parametrize("vgrid", [0, -3, 2.5, math.nan])
def test_plancherel_vgrid_must_be_positive_integer(vgrid):
    # 0 gave a bare ZeroDivisionError and 2.5 a TypeError
    f = make_plateau((0.0, 1.0), (0.3, 0.7))
    K = majorant_make((0.0, 1.0), 1.0)
    with pytest.raises(ValueError, match="vgrid"):
        plancherel_bound_check(Points([1.0, 2.0]), f, K, vgrid)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_plancherel_needs_finite_ordinates(bad):
    # a non-finite ordinate surfaced as bincount's complaint about
    # negative elements
    f = make_plateau((0.0, 1.0), (0.3, 0.7))
    K = majorant_make((0.0, 1.0), 1.0)
    with pytest.raises(ValueError, match="ordinates must be finite"):
        plancherel_bound_check(Points([1.0, bad]), f, K, 100)


def test_plancherel_contract_violation():
    f = make_plateau((0.0, 1.0), (0.3, 0.7))
    too_small = make_plateau((0.2, 0.8), (0.4, 0.6))  # not >= f^2 everywhere
    with pytest.raises(ContractError, match="v="):
        plancherel_bound_check(Points([1.0]), f, too_small, 100)
