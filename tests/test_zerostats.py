import itertools
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from mollint.smoothfn import make_plateau, majorant_make
from mollint.zerostats import (
    ContractError,
    CoverageError,
    _khat_pairs,
    _pair_diffs,
    gonek_sum,
    integral_hF,
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
    return ZeroTable(ordinates=g, source="imported",
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


def test_tail_reported(zeros_1k):
    pc = pair_correlation_grid(zeros_1k, 1000.0, [0.5])
    assert pc.tail_estimate > 0.0
    assert pc.tail_estimate < 0.1


def _brute_force_f(g, T, alpha, cutoff=200.0):
    """F(alpha, T) summed pair by pair with math.fsum."""
    logT = math.log(T)
    d = (g[None, :] - g[:, None])[np.triu_indices(len(g), 1)]
    d = d[d <= cutoff]
    cross = math.fsum(np.cos(alpha * logT * d) * 4.0 / (4.0 + d * d))
    return 2.0 * math.pi / (T * logT) * (len(g) + 2.0 * cross)


@pytest.mark.parametrize("alphas", [np.linspace(0.0, 3.0, 61), [0.7]],
                         ids=["linspace-61", "one-alpha"])
def test_pair_correlation_grid_against_brute_force(zeros_1k, alphas):
    T = 1000.0
    g = zeros_1k.ordinates
    g = g[(g >= T) & (g <= 2 * T)]
    pc = pair_correlation_grid(zeros_1k, T, alphas)
    ref = [_brute_force_f(g, T, a) for a in alphas]
    assert np.max(np.abs(pc.values - ref)) <= 1e-12


@pytest.mark.parametrize("alphas", [
    [0.0, 0.1, 0.3], [], [0.5, math.nan], [[0.1, 0.2]],
])
def test_pair_correlation_grid_needs_equal_spacing(alphas):
    Z = synthetic_table(np.linspace(1000.0, 2000.0, 300))
    with pytest.raises(ValueError, match="equally spaced"):
        pair_correlation_grid(Z, 1000.0, alphas)


def _brute_force_pair_diffs(g, cutoff):
    return [g[j] - g[i] for i in range(len(g)) for j in range(i + 1, len(g))
            if g[j] - g[i] <= cutoff]


def test_pair_diffs_against_brute_force(rng):
    sets = [np.sort(rng.uniform(0.0, 50.0, n)) for n in (2, 3, 40, 200)]
    sets += [np.empty(0), np.array([7.0]), np.array([0.0, 0.0, 0.0, 1.0]),
             np.sort(np.repeat(rng.uniform(0.0, 10.0, 15), 3)),
             # differences that round to either side of the cutoff
             1000.0 + 0.1 * np.arange(60)]
    cases = [(g, c) for g in sets for c in (0.0, 0.3, 1.0, 5.0, math.inf)]
    # g[1] - g[0] rounds to the cutoff although g[1] > g[0] + cutoff rounded
    cases += [(np.array([0.4793756964294549, 3.4134582654322903]),
               2.934082569002835),
              (np.array([0.008349882039584006, 0.33389549814028846]),
               0.3255456161007044)]
    for g, cutoff in cases:
        got = _pair_diffs(g, cutoff)
        assert np.array_equal(got, _brute_force_pair_diffs(g, cutoff))


# ---------------------------------------------------------------------------
# integral of h0 * F
# ---------------------------------------------------------------------------

def test_integral_hf_montgomery(zeros_1k):
    h0 = make_plateau((0.2, 0.8), (0.35, 0.65))
    val = integral_hF(zeros_1k, 1000.0, h0, grid=121)
    alphas = np.linspace(0.2, 0.8, 601)
    target = np.trapezoid(h0(alphas) * alphas, alphas)
    assert abs(val - target) <= 0.3 * target


def test_integral_hf_identity_synthetic():
    # independent route on a synthetic zero set: unfold the definition of F
    # and integrate h0 against each cosine exactly via window_fourier
    T = 1000.0
    logT = math.log(T)
    scale = logT / (2 * math.pi)
    g = 1500.0 + 0.5 * np.arange(11)
    Z = synthetic_table(g)
    h0 = make_plateau((-0.9, 0.9), (-0.5, 0.5))

    via_F = T * scale ** 2 * integral_hF(Z, T, h0, grid=721, override=True)

    from mollint.smoothfn import window_fourier
    direct = 11 * window_fourier(h0, 0.0).real
    for m in range(1, 11):
        d = 0.5 * m
        w = 4.0 / (4.0 + d * d)
        direct += 2.0 * (11 - m) * w * window_fourier(h0, scale * d).real
    direct *= scale

    assert via_F == pytest.approx(direct, rel=1e-3)


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


def test_thm3_rhs_degenerate_and_real(zeros_1k):
    v = thm3_rhs(zeros_1k, 1000.0, 0.3, 0.05, grid=41)
    assert 0.0 < v <= 2.0


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


def test_plancherel_contract_violation():
    f = make_plateau((0.0, 1.0), (0.3, 0.7))
    too_small = make_plateau((0.2, 0.8), (0.4, 0.6))  # not >= f^2 everywhere
    with pytest.raises(ContractError, match="v="):
        plancherel_bound_check(Points([1.0]), f, too_small, 100)
