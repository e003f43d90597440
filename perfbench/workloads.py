"""The four benchmark workloads: their operations, inputs and oracle gates.

``build(workload, seed)`` returns the operations of one pass.  The seed
draws only the oracle samples and the random inputs; the headline commands
are fixed.  Each operation carries a ``check`` that turns the child's report
into named gates; it runs only when the operation returned in time and
without raising.  Tolerances come from the accuracy the package itself
documents (docstrings, CLI tolerances, the acceptance criteria), never from
a measured value.

An operation may list gates in ``known``: the registered defects of the
package that the benchmark keeps visible.  Such an operation still runs and
is timed in every pass; when only known gates fail it counts as a known
defect rather than as a failed operation.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Callable

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import polygamma

HERE = os.path.dirname(os.path.abspath(__file__))

RS_CROSSOVER = 1.0e5        # mollint.zeta.RS_CROSSOVER
EM_TOL = 5e-10              # Euler-Maclaurin vs mpmath, tests/test_zeta.py
ZERO_TOL = 1e-9             # find_zeros docstring: "bisection to 1e-9"
RATIO_TOL = 1e-3            # compare_bch agreement, README criterion 13
REF_RTOL = 1e-9             # committed moment values, rounding level
BEURLING_TOL = 1e-10        # beurling_b vs its closed form, test_smoothfn
DOMINATION_TOL = 1e-6       # acceptance criterion 5
HAT_TOL = 1e-4              # acceptance criterion 5
MASS_TOL = 1e-3             # acceptance criterion 5
PLANCHEREL_TOL = 1e-6       # acceptance criterion 12

BAND_POINTS = 8
BANDS = (("1e3", 1.0e3, 1.001e3), ("1e4", 1.0e4, 1.001e4),
         ("1e5lo", 0.999e5, 1.0e5), ("1e5hi", 1.0e5, 1.001e5),
         ("1e6", 1.0e6, 1.001e6))

WORKLOADS = ("moment", "zeros", "quadform", "majorant")


@dataclass
class Op:
    name: str
    kind: str                   # "cli" or "api"
    args: object                # argv list, or {"name": ..., "params": ...}
    limit_s: float
    check: Callable
    known: frozenset = field(default_factory=frozenset)


@dataclass
class Context:
    """What the gates need besides the child's report."""

    workdir: str
    reference: dict
    cache: dict = field(default_factory=dict)

    def cached(self, key, fn):
        if key not in self.cache:
            self.cache[key] = fn()
        return self.cache[key]


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# gate helpers: each returns a list of (gate, ok, detail)
# ---------------------------------------------------------------------------

def verdicts(report) -> list[dict]:
    return [json.loads(line) for line in report["stdout"].splitlines()
            if line.strip()]


def _cli_gates(report, operations):
    """Exit code 0 and every verdict passing, with the expected operations."""
    try:
        vs = verdicts(report)
    except ValueError as exc:
        return [("verdicts", False, f"unparsable stdout: {exc}")], []
    names = [v.get("operation") for v in vs]
    ok = names == operations and all(v.get("pass") is True for v in vs)
    return [("exit", report["rc"] == 0, report["rc"]),
            ("verdicts", ok, names)], vs


def _near(value, ref, rtol):
    return abs(value - ref) <= rtol * abs(ref)


def _nzeros(ctx, t0, t1):
    return ctx.cached(("nzeros", t0, t1),
                      lambda: int(mpmath.nzeros(t1)) - int(mpmath.nzeros(t0)))


def _zero_count_gates(ctx, v, t0, t1):
    count = v["lhs"]
    return [("rvm", abs(count - v["rhs"]) <= v["tolerance"], count),
            ("count", count == _nzeros(ctx, t0, t1), count)]


def _sign_change(t):
    """mpmath's Z changes sign within ZERO_TOL of t."""
    with mpmath.workdps(30):
        t = mpmath.mpf(repr(float(t)))
        lo = mpmath.siegelz(t - ZERO_TOL)
        hi = mpmath.siegelz(t + ZERO_TOL)
    return lo * hi < 0


def _mp_zeta(t):
    with mpmath.workdps(20):
        return complex(mpmath.zeta(mpmath.mpc(0.5, t)))


def _mp_beurling(x):
    """B(x) = 1 + (sin pi x / pi)^2 (2/x - 2 psi'(1+x)) for x > 0,
    B(0) = 1, B(-x) = 2 sinc(x)^2 - B(x)."""
    with mpmath.workdps(30):
        u = abs(mpmath.mpf(repr(float(x))))
        if u == 0:
            return 1.0
        s2 = (mpmath.sin(mpmath.pi * u) / mpmath.pi) ** 2
        b = 1 + s2 * (2 / u - 2 * mpmath.psi(1, 1 + u))
        if x < 0:
            b = 2 * s2 / u ** 2 - b
        return float(b)


def _beurling_closed(u):
    """B(u) from the same closed form as _mp_beurling, in double precision."""
    if u == 0.0:
        return 1.0
    v = abs(u)
    s2 = (math.sin(math.pi * v) / math.pi) ** 2
    b = 1.0 + s2 * (2.0 / v - 2.0 * float(polygamma(1, 1.0 + v)))
    return b if u > 0 else 2.0 * s2 / v ** 2 - b


def _hat_oracle(delta, xi):
    """Transform at xi != 0 of K = majorant of [0, 1] recentered at 1/2:
    2 int_0^inf K(1/2 + x) cos(2 pi x xi) dx by QUADPACK's Fourier
    integrator, straight from B, without the package's D^ split."""
    def k(x):
        return 0.5 * (_beurling_closed(delta * (x + 0.5))
                      + _beurling_closed(delta * (0.5 - x)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # QUADPACK convergence notes
        val, _ = quad(k, 0.0, math.inf, weight="cos",
                      wvar=2.0 * math.pi * abs(xi), limlst=200)
    return 2.0 * val


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _moment() -> list[Op]:
    def check(report, ctx):
        gates, vs = _cli_gates(report, ["moment", "moment.compare_bch"])
        if gates[-1][1]:
            ratio = vs[1]["ratio"]
            ref = ctx.reference["moment_T2000_ltheta_0.3"]
            gates += [("bch_ratio", abs(ratio - 1.0) <= RATIO_TOL, ratio),
                      ("reference", _near(vs[0]["lhs"], ref, REF_RTOL),
                       vs[0]["lhs"])]
        return gates

    argv = ["--output-dir", ".", "moment", "--T", "2000", "--theta", "0.3",
            "--mollifier", "ltheta", "--compare-bch"]
    return [Op("moment", "cli", argv, 90.0, check)]


def _zeros(rng) -> list[Op]:
    picks = rng.random(6)

    def compute_1k(report, ctx):
        gates, vs = _cli_gates(report, ["zeros.compute"])
        if gates[-1][1]:
            gates += _zero_count_gates(ctx, vs[0], 995.0, 2005.0)
            g = np.loadtxt(os.path.join(ctx.workdir, "zeros_1k.txt"))
            sample = g[(picks * len(g)).astype(int)]
            bad = [float(t) for t in sample
                   if not ctx.cached(("z", float(t)),
                                     lambda t=t: _sign_change(t))]
            gates.append(("ordinates", not bad, bad))
        return gates

    def thm3(report, ctx):
        gates, vs = _cli_gates(report, ["bounds.thm3"])
        if gates[-1][1]:
            ref = ctx.reference["moment_T1000_ltheta_0.5"]
            gates.append(("reference", _near(vs[0]["lhs"], ref, REF_RTOL),
                          vs[0]["lhs"]))
        return gates

    def window(t0, t1):
        def check(report, ctx):
            gates, vs = _cli_gates(report, ["zeros.compute"])
            if gates[-1][1]:
                gates += _zero_count_gates(ctx, vs[0], t0, t1)
            return gates
        return check

    bands = [[label, np.sort(rng.uniform(lo, hi, BAND_POINTS)).tolist()]
             for label, lo, hi in BANDS]

    def band_probe(report, ctx):
        gates = []
        for band, res in zip(bands, report["result"]["bands"]):
            ts = band[1]
            z = np.asarray(res["re"]) + 1j * np.asarray(res["im"])
            ref = np.asarray([ctx.cached(("zeta", t), lambda t=t: _mp_zeta(t))
                              for t in ts])
            err = np.abs(z - ref)
            if ts[0] > RS_CROSSOVER:
                # Riemann-Siegel docstring: error ~ (t/2pi)^(-5/4)
                tol = (np.asarray(ts) / (2.0 * math.pi)) ** -1.25
            else:
                tol = np.full(len(ts), EM_TOL)
            gates.append((f"band.{res['label']}", bool(np.all(err <= tol)),
                          {"max_err": float(err.max()),
                           "tol": float(tol.min())}))
        return gates

    cli = ["--output-dir", "."]
    return [
        Op("zeros.compute_1k", "cli",
           cli + ["zeros", "compute", "--t0", "995", "--t1", "2005",
                  "--out", "zeros_1k.txt"], 40.0, compute_1k),
        Op("zeros.thm3", "cli",
           cli + ["--zeros", "zeros_1k.txt", "bounds", "thm3", "--T", "1000"],
           40.0, thm3),
        Op("zeros.compute_rs", "cli",
           cli + ["zeros", "compute", "--t0", "300000", "--t1", "302000",
                  "--out", "zeros_rs.txt"], 30.0, window(3.0e5, 3.02e5)),
        # find_zeros(1e6, 1e6+20) never returns: the 1e-10 bisection
        # tolerance is below the float spacing 1.16e-10 for t >= 2^19.
        Op("zeros.compute_1e6", "cli",
           cli + ["zeros", "compute", "--t0", "1000000", "--t1", "1000020",
                  "--out", "zeros_1e6.txt"], 5.0, window(1.0e6, 1.000020e6),
           known=frozenset({"time_limit"})),
        # Riemann-Siegel with C0, C1 only misses its documented bound.
        Op("zeros.band_probe", "api",
           {"name": "zeta_bands", "params": {"bands": bands}}, 30.0,
           band_probe, known=frozenset({"band.1e5hi", "band.1e6"})),
    ]


def _quadform(seed: int) -> list[Op]:
    def gate(operation):
        return lambda report, ctx: _cli_gates(report, [operation])[0]

    cli = ["--output-dir", "."]
    return [
        Op("quadform.minimize", "cli",
           cli + ["--sieve-limit", "1000000", "quadform", "minimize",
                  "--N", "200000"], 40.0, gate("quadform.minimize")),
        Op("quadform.propb", "cli",
           cli + ["quadform", "propb", "--N", "4000", "--T", "1e6"], 40.0,
           gate("quadform.propb")),
        Op("quadform.verify_diag", "cli",
           cli + ["--seed", str(seed), "quadform", "verify-diag",
                  "--N", "1000", "--trials", "10"], 30.0,
           gate("quadform.verify_diag")),
    ]


def _majorant(rng) -> list[Op]:
    deltas = (0.5, 1.0, 2.0)
    xs = [np.sort(rng.uniform(-4.0, 5.0, 501)) for _ in deltas]
    # in-band points kept off 0 and off the band edge, where the
    # quadrature oracle loses digits
    hats_in = [d * rng.uniform(0.05, 0.95, 10) * rng.choice((-1.0, 1.0), 10)
               for d in deltas]
    k_sample = [rng.choice(501, 4, replace=False) for _ in deltas]

    def kernels(report, ctx):
        gates = []
        for delta, x, hat_in, pick, r in zip(deltas, xs, hats_in, k_sample,
                                             report["result"]):
            k = np.asarray(r["K"])
            chi = ((x >= 0.0) & (x <= 1.0)).astype(float)
            deficit = float(np.max(chi - k))
            k_err = max(abs(k[i] - ctx.cached(
                ("K", delta, float(x[i])),
                lambda i=i: 0.5 * (_mp_beurling(delta * x[i])
                                   + _mp_beurling(delta * (1.0 - x[i])))))
                for i in pick)
            h0 = r["hat0"]
            hat0_err = abs(h0 - (1.0 + 1.0 / delta)) / h0
            in_err = max(abs(h - ctx.cached(
                ("hat", delta, float(xi)),
                lambda xi=xi: _hat_oracle(delta, xi))) / h0
                for xi, h in zip(hat_in, r["hat_in"]))
            out = float(np.max(np.abs(r["hat_out"]))) / h0
            gates += [(f"domination_{delta:g}", deficit <= DOMINATION_TOL,
                       deficit),
                      (f"closed_form_{delta:g}", k_err <= BEURLING_TOL,
                       k_err),
                      (f"hat0_{delta:g}", hat0_err <= HAT_TOL, hat0_err),
                      (f"in_band_{delta:g}", in_err <= HAT_TOL, in_err),
                      (f"out_of_band_{delta:g}", out <= HAT_TOL, out)]
        return gates

    ops = [Op("majorant.kernels", "api",
              {"name": "majorant_kernels",
               "params": {"deltas": deltas, "xs": [x.tolist() for x in xs],
                          "hats_in": [h.tolist() for h in hats_in]}},
              30.0, kernels)]

    # 2,000 Gauss-Legendre nodes on [-50, 50], panels split at 0 where
    # B - sgn jumps, so the excess mass integrates accurately
    gx, gw = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(-50.0, 50.0, 251)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1] - edges[0])
    nodes = (mid[:, None] + half * gx[None, :]).ravel()
    weights = np.tile(half * gw, len(mid))
    sample = rng.choice(len(nodes), 12, replace=False)

    def beurling(report, ctx):
        b = np.asarray(report["result"])
        mass = math.fsum(weights * (b - np.sign(nodes))) \
            + 1.0 / (math.pi ** 2 * 50.0)
        err = max(abs(b[i] - ctx.cached(("B", float(nodes[i])),
                                        lambda i=i: _mp_beurling(nodes[i])))
                  for i in sample)
        return [("mass", abs(mass - 1.0) <= MASS_TOL, mass),
                ("closed_form", err <= BEURLING_TOL, err)]

    ops.append(Op("majorant.beurling", "api",
                  {"name": "beurling", "params": {"x": nodes.tolist()}},
                  30.0, beurling))

    # sizes fixed so peak memory does not depend on the seed; 60 points
    # would already need 1.8 GB in the pair transform
    sets = [np.sort(rng.uniform(0.0, 20.0, n)).tolist() for n in (8, 16, 32)]

    def plancherel(report, ctx):
        worst = max(lhs / rhs for lhs, rhs in report["result"])
        return [("lhs_le_rhs", worst <= 1.0 + PLANCHEREL_TOL, worst)]

    ops.append(Op("majorant.plancherel", "api",
                  {"name": "plancherel",
                   "params": {"point_sets": sets, "trunc": 2000,
                              "vgrid": 200}},
                  30.0, plancherel))
    return ops


def build(workload: str, seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    if workload == "moment":
        return _moment()
    if workload == "zeros":
        return _zeros(rng)
    if workload == "quadform":
        return _quadform(seed)
    if workload == "majorant":
        return _majorant(rng)
    raise ValueError(f"unknown workload {workload!r}")
