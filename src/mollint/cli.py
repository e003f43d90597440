"""Command-line driver: zero-table management, moment runs, bound checks,
and the quadratic-form verdicts.

Verdicts are JSON objects {operation, inputs, lhs, rhs, tolerance, pass}
printed to stdout with floats fixed to 17 significant digits, so reruns are
byte-identical, and a non-finite float printed as null; the exit status
is 0 iff every verdict passes.  Grids and coefficient tables go to CSV
files under the configured output directory.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import dirichlet, moments, quadform, zerostats, zeta

DEFAULTS = {
    "zero_table_path": "",
    "output_dir": ".",
    "panels": 0,          # 0 = derived (moment), resolution floor (baez)
    "seed": 0,
}


class CliError(Exception):
    """Fatal, user-facing; printed as one machine-parsable line."""


# ---------------------------------------------------------------------------
# config and output plumbing
# ---------------------------------------------------------------------------

def load_config(path: str | None, overrides: dict) -> dict:
    """Flat key=value config file; explicit flags override file values; the
    MOLLINT_ZEROS environment variable overrides zero_table_path."""
    cfg = dict(DEFAULTS)
    if path:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliError(f"config:{lineno}: expected key=value")
                key, _, val = line.partition("=")
                key = key.strip()
                if key not in cfg:
                    raise CliError(f"config:{lineno}: unknown key {key!r}")
                kind, val = type(DEFAULTS[key]), val.strip()
                try:
                    cfg[key] = kind(val)
                except ValueError:
                    raise CliError(f"config:{lineno}: {key} must be "
                                   f"{kind.__name__}, got {val!r}") from None
    env = os.environ.get("MOLLINT_ZEROS")
    if env:
        cfg["zero_table_path"] = env
    for key, val in overrides.items():
        if val is not None:
            cfg[key] = val
    return cfg


def _fmt(x):
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return json.dumps(x)
    if isinstance(x, float):
        # JSON has no inf or nan
        return format(x, ".17g") if math.isfinite(x) else "null"
    if isinstance(x, complex):
        return '{"re": %s, "im": %s}' % (_fmt(x.real), _fmt(x.imag))
    if isinstance(x, dict):
        inner = ", ".join('"%s": %s' % (k, _fmt(v)) for k, v in x.items())
        return "{" + inner + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in x) + "]"
    raise TypeError(f"cannot serialize {type(x)}")


def emit_verdict(operation: str, inputs: dict, lhs, rhs, tolerance,
                 ok: bool, extra: dict | None = None) -> dict:
    verdict = {"operation": operation, "inputs": inputs, "lhs": lhs,
               "rhs": rhs, "tolerance": tolerance, "pass": ok}
    if extra:
        verdict.update(extra)
    print(_fmt(verdict))
    return verdict


def _load_zeros(cfg: dict, t_lo: float, t_hi: float) -> zeta.ZeroTable:
    path = cfg["zero_table_path"]
    if path:
        return zeta.import_zero_table(path, t_lo, t_hi)
    return zeta.find_zeros(t_lo, t_hi)


def _check_finite(args, *names: str) -> None:
    for name in names:
        value = getattr(args, name)
        if not math.isfinite(value):
            raise CliError(f"--{name.replace('_', '-')} must be finite, "
                           f"got {value}")


def _mollifier(spec: str, T: float, theta: float) -> dirichlet.DirichletPoly | None:
    if spec == "none":
        return None
    if spec == "ltheta":
        return dirichlet.build_L_theta(T, theta)
    if spec == "minimizer":
        N = int(math.floor(T ** theta))
        return quadform.minimizer_coeffs(N)
    if spec.startswith("file:"):
        return dirichlet.import_coeffs(spec[5:])
    raise CliError(f"unknown mollifier spec {spec!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_zeros(args, cfg) -> list[dict]:
    if args.zeros_cmd == "compute":
        table = zeta.find_zeros(args.t0, args.t1)
        out = args.out or os.path.join(cfg["output_dir"], "zeros.txt")
        zeta.write_zero_table(table, out)
        return [emit_verdict(
            "zeros.compute",
            {"t0": args.t0, "t1": args.t1, "out": out},
            float(len(table.ordinates)), zeta._rvm_estimate(args.t0, args.t1),
            zeta.RVM_ENVELOPE, table.claimed_complete,
            {"diagnostics": list(table.diagnostics)})]
    if args.zeros_cmd == "import":
        lo, hi = args.range
        table = zeta.import_zero_table(args.path, lo, hi)
        out = args.out or os.path.join(cfg["output_dir"], "zeros_cache.txt")
        zeta.write_zero_table(table, out)
        return [emit_verdict(
            "zeros.import", {"path": args.path, "range": [lo, hi]},
            float(len(table.ordinates)), None, None, True)]
    if args.zeros_cmd == "verify":
        path = args.path or cfg["zero_table_path"]
        if not path:
            raise CliError("zeros verify: no table (give --path or config)")
        lo, hi = args.range or (10.0, 1e18)
        g = zeta.import_zero_table(path, lo, hi).ordinates
        if len(g) == 0:
            raise CliError(f"zeros verify: no ordinate of {path} in range "
                           f"[{lo:g}, {hi:g}]")
        # the zeros after the first, against N(last) - N(first)
        t0, t1 = float(g[0]), float(g[-1])
        ok, diagnostics = zeta._rvm_check(g[1:], t0, t1)
        return [emit_verdict(
            "zeros.verify", {"path": path}, float(len(g) - 1),
            zeta._rvm_estimate(t0, t1), zeta.RVM_ENVELOPE, ok,
            {"diagnostics": list(diagnostics)})]
    raise CliError("zeros: missing subcommand")


def cmd_moment(args, cfg) -> list[dict]:
    _check_finite(args, "T", "theta")
    M = _mollifier(args.mollifier, args.T, args.theta)
    if args.compare_bch and M is None:
        raise CliError("--compare-bch requires a mollifier")
    panels = cfg["panels"] or None
    report = moments.mollified_moment(args.T, M, panels=panels,
                                      force=args.force)
    inputs = {"T": args.T, "theta": args.theta, "mollifier": args.mollifier,
              "panels": report.quadrature.panel_count,
              "nodes": moments.GL_ORDER}
    extra = {"estimated_error": report.quadrature.estimated_error,
             "mollifier_label": report.mollifier_label}
    verdicts = [emit_verdict("moment", inputs, report.value, None, None,
                             report.value >= 0.0, extra)]
    if args.compare_bch:
        pred = quadform.propB_value(args.T, M)
        verdicts.append(emit_verdict(
            "moment.compare_bch", inputs, report.value, pred, None,
            pred > 0, {"ratio": report.value / pred}))
    return verdicts


def cmd_bounds(args, cfg) -> list[dict]:
    _check_finite(args, "T", "theta", "A", "eps", "t_cap")
    panels = cfg["panels"] or None
    if args.bound == "baez":
        M = _mollifier(args.mollifier, args.T, args.theta)
        t_cap = args.t_cap
        value, tail = moments.baez_duarte_moment(M, t_cap, panels,
                                                 force=args.force)
        inputs = {"T": args.T, "mollifier": args.mollifier, "t_cap": t_cap}
        extra = {"tail_bound": tail}
        if M is None:
            closed = moments.cauchy_window_integral(t_cap)
            ok = abs(value - closed) <= 1e-8
            extra["closed_form"] = closed
            return [emit_verdict("bounds.baez", inputs, value, closed,
                                 1e-8, ok, extra)]
        return [emit_verdict("bounds.baez", inputs, value, 0.0, None,
                             value >= 0.0, extra)]
    # propA and thm3 both compare a bound against the measured moment of
    # L_theta, measured after the bound has checked its own inputs
    if args.mollifier not in ("none", "ltheta"):
        raise CliError(f"bounds {args.bound}: --mollifier must be none or "
                       f"ltheta (it measures L_theta), got {args.mollifier!r}")
    Z = _load_zeros(cfg, args.T, 2.0 * args.T)
    L = dirichlet.build_L_theta(args.T, args.theta)
    extra = None
    if args.bound == "propA":
        delta = 2.0 * math.pi * args.A / math.log(args.T)
        S = zerostats.wellspaced_subset(Z, delta)
        rhs = worst = zerostats.propA_rhs(S, args.T, args.theta, args.A)
        inputs = {"T": args.T, "theta": args.theta, "A": args.A,
                  "card": S.count}
    elif args.bound == "thm3":
        # decided at the unfavourable end of the integral's error bound,
        # 1/(1/2 + I - err)
        rhs, err, worst = zerostats.thm3_rhs(Z, args.T, args.theta, args.eps)
        inputs = {"T": args.T, "theta": args.theta, "eps": args.eps}
        extra = {"integral_error": err}
    else:
        raise CliError(f"unknown bound {args.bound!r}")
    measured = moments.mollified_moment(args.T, L, panels=panels,
                                        force=args.force).value
    return [emit_verdict(f"bounds.{args.bound}", inputs, measured, rhs,
                         None, worst <= measured, extra)]


def cmd_quadform(args, cfg) -> list[dict]:
    if args.N < 1:
        raise CliError(f"--N must be >= 1, got {args.N}")
    # minimize and propb are refused by the minimizer's own cap
    cap = {"verify-diag": quadform.DIRECT_CAP,
           "s-decomp": dirichlet.MAX_CONV_LENGTH}.get(args.qf_cmd)
    if cap is not None and args.N > cap:
        raise CliError(f"quadform {args.qf_cmd}: --N must be <= {cap}, "
                       f"got {args.N}")
    if args.qf_cmd == "verify-diag":
        if args.trials < 1:
            raise CliError(f"--trials must be >= 1, got {args.trials}")
        rng = np.random.default_rng(cfg["seed"])
        worst = 0.0
        for _ in range(args.trials):
            n = np.arange(1, args.N + 1)
            c = (n ** 0.1) * np.exp(2j * np.pi * rng.random(args.N))
            a = dirichlet.make_poly(c)
            # by keyword: perfbench's tracer reads a positional mode at index 2
            d = quadform.gram_form(a, mode="direct")
            g = quadform.gram_form(a, mode="diagonal")
            worst = max(worst, abs(d - g) / abs(d))
        return [emit_verdict(
            "quadform.verify_diag",
            {"N": args.N, "trials": args.trials, "seed": cfg["seed"]},
            worst, 1e-10, 1e-10, worst <= 1e-10)]
    if args.qf_cmd == "minimize":
        a, dec = quadform._minimize(args.N)
        out = os.path.join(cfg["output_dir"], f"minimizer_{args.N}.csv")
        dirichlet.export_coeffs(a, out)
        return [emit_verdict(
            "quadform.minimize", {"N": args.N, "csv": out},
            dec.form, 1.0 / dec.G, 1e-10,
            abs(dec.form - 1.0 / dec.G) <= 1e-10 * max(1.0, dec.form),
            {"residual": dec.residual, "G": dec.G})]
    if args.qf_cmd == "s-decomp":
        rng = np.random.default_rng(cfg["seed"])
        n = np.arange(1, args.N + 1)
        c = (n ** 0.1) * np.exp(2j * np.pi * rng.random(args.N))
        c[0] = 1.0
        sd = quadform.s_decomposition(dirichlet.make_poly(c))
        recomb = sd.s1 + sd.s2 + sd.s3
        return [emit_verdict(
            "quadform.s_decomp", {"N": args.N, "seed": cfg["seed"]},
            sd.main, recomb, 1e-10,
            abs(sd.main - recomb) <= 1e-10 * max(1.0, abs(sd.main)),
            {"S1": sd.s1, "S2": sd.s2, "S3": sd.s3})]
    if args.qf_cmd == "propb":
        a = quadform.minimizer_coeffs(args.N)
        value = quadform.propB_value(args.T, a)
        pred = moments.bch_predicted(args.T, a) \
            if args.N <= quadform.DIRECT_CAP else None
        ok = pred is None or abs(value - pred) <= 1e-10 * max(1.0, abs(value))
        return [emit_verdict(
            "quadform.propb", {"N": args.N, "T": args.T},
            value, pred, 1e-10, ok)]
    raise CliError("quadform: missing subcommand")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _global_options() -> argparse.ArgumentParser:
    """The options before the subcommand, a parent of ``build_parser``."""
    g = argparse.ArgumentParser(prog="mollint", add_help=False)
    g.add_argument("--config", help="flat key=value config file")
    g.add_argument("--zeros", dest="zero_table_path",
                   help="zero-table path (overrides config; MOLLINT_ZEROS "
                        "env var also honored)")
    # ignored: tables are sized from N or T^theta.  perfbench still passes it;
    # it goes with ROADMAP item 2's benchmark change, like majorant_make(trunc)
    g.add_argument("--sieve-limit", type=int, help=argparse.SUPPRESS)
    g.add_argument("--output-dir", dest="output_dir")
    g.add_argument("--panels", type=int)
    g.add_argument("--seed", type=int)
    return g


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by ``main``."""
    p = argparse.ArgumentParser(prog="mollint", parents=[_global_options()],
                                exit_on_error=False)
    sub = p.add_subparsers(dest="command", required=True)

    z = sub.add_parser("zeros", help="zero-table management")
    zs = z.add_subparsers(dest="zeros_cmd", required=True)
    zc = zs.add_parser("compute")
    zc.add_argument("--t0", type=float, required=True)
    zc.add_argument("--t1", type=float, required=True)
    zc.add_argument("--out")
    zi = zs.add_parser("import")
    zi.add_argument("--path", required=True)
    zi.add_argument("--range", type=float, nargs=2, required=True)
    zi.add_argument("--out")
    zv = zs.add_parser("verify")
    zv.add_argument("--path")
    zv.add_argument("--range", type=float, nargs=2)

    m = sub.add_parser("moment", help="mollified moment quadrature")
    m.add_argument("--T", type=float, required=True)
    m.add_argument("--theta", type=float, default=0.3)
    m.add_argument("--mollifier", default="none")
    m.add_argument("--compare-bch", action="store_true")
    m.add_argument("--force", action="store_true",
                   help="allow a panel count whose quadrature error bound "
                        "misses the target")

    b = sub.add_parser("bounds", help="lower-bound formula checks")
    b.add_argument("bound", choices=["propA", "thm3", "baez"])
    b.add_argument("--T", type=float, required=True)
    b.add_argument("--theta", type=float, default=0.5)
    b.add_argument("--A", type=float, default=1.0)
    b.add_argument("--eps", type=float, default=0.05)
    b.add_argument("--mollifier", default="none")
    b.add_argument("--t-cap", type=float, default=500.0, dest="t_cap")
    b.add_argument("--force", action="store_true")

    q = sub.add_parser("quadform", help="quadratic-form verdicts")
    qs = q.add_subparsers(dest="qf_cmd", required=True)
    qd = qs.add_parser("verify-diag")
    qd.add_argument("--N", type=int, default=200)
    qd.add_argument("--trials", type=int, default=50)
    qm = qs.add_parser("minimize")
    qm.add_argument("--N", type=int, required=True)
    qsd = qs.add_parser("s-decomp")
    qsd.add_argument("--N", type=int, required=True)
    qp = qs.add_parser("propb")
    qp.add_argument("--N", type=int, required=True)
    qp.add_argument("--T", type=float, required=True)
    return p


COMMANDS = {"zeros": cmd_zeros, "moment": cmd_moment,
            "bounds": cmd_bounds, "quadform": cmd_quadform}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        # an unknown option before the subcommand leaves its value to be
        # taken for the subcommand ("invalid choice: '4'"): the first token
        # the global options leave over is then that option, named instead
        if exc.argument_name == "command":
            _, rest = _global_options().parse_known_args(argv)
            if rest and rest[0].startswith("-"):
                parser.error(f"unrecognized arguments: {rest[0]}")
        parser.error(str(exc))
    overrides = {k: getattr(args, k, None) for k in DEFAULTS}
    try:
        cfg = load_config(args.config, overrides)
        if not os.path.isdir(cfg["output_dir"]) \
                or not os.access(cfg["output_dir"], os.W_OK):
            raise CliError(f"output_dir not writable: {cfg['output_dir']}")
        verdicts = COMMANDS[args.command](args, cfg)
    except (CliError, OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0 if all(v["pass"] for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
