"""Per-layer spans for mollint, recorded from outside the package.

``install()`` replaces each public array-level function listed in WRAPPED
with a timing wrapper, in its defining module and in every loaded mollint
module that bound the same object with ``from ... import``.  Per-n scalar
functions (mobius, euler_phi, hardy_z, zeta_critical, evaluate_poly) are
never wrapped: the wrapper would cost more than the call it times.

Spans are kept in memory and folded into per-name totals as they close:
wall seconds, self seconds (duration minus direct child spans), call count
and the counters each wrapper records.  Zeta calls also push their point
counts into every open ancestor span, which is how the zero finder and the
moment quadrature learn how many evaluations they caused.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np


class Span:
    __slots__ = ("name", "start", "counts", "child_s", "zeta_durs")

    def __init__(self, name: str):
        self.name = name
        self.start = time.perf_counter()
        self.counts: dict[str, float] = {}
        self.child_s = 0.0
        self.zeta_durs: list[float] = []


class Recorder:
    """Open-span stack plus per-name totals of the closed spans."""

    def __init__(self, rs_crossover: float):
        self.rs_crossover = rs_crossover
        self.stack: list[Span] = []
        self.totals: dict[str, dict] = {}
        self.root_s = 0.0

    def open(self, name: str) -> Span:
        span = Span(name)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        dur = time.perf_counter() - span.start
        self.stack.pop()
        parent = self.stack[-1] if self.stack else None
        if parent is None:
            self.root_s += dur
        else:
            parent.child_s += dur
        counts = dict(span.counts)
        if span.name == "zeta":
            n = counts["em_points"] + counts["rs_points"]
            # mixed-band calls: time split in proportion to the points
            counts["em_s"] = dur * counts["em_points"] / n if n else 0.0
            counts["rs_s"] = dur * counts["rs_points"] / n if n else 0.0
            for anc in self.stack:
                anc.counts["z_points"] = anc.counts.get("z_points", 0) + n
                anc.counts["z_calls"] = anc.counts.get("z_calls", 0) + 1
            if parent is not None:
                parent.zeta_durs.append(dur)
        if span.name == "moments.moment" and len(span.zeta_durs) > 1:
            counts["halfres_s"] = span.zeta_durs[1]
        add_total(self.totals, span.name, dur, dur - span.child_s, 1, counts)


def add_total(totals: dict, name: str, s: float, self_s: float, calls: int,
              counts: dict) -> None:
    """Fold spans into the per-name totals.  Counters are summed, except
    ``max_*`` counters, which keep the largest."""
    tot = totals.setdefault(
        name, {"s": 0.0, "self_s": 0.0, "calls": 0, "counts": {}})
    tot["s"] += s
    tot["self_s"] += self_s
    tot["calls"] += calls
    into = tot["counts"]
    for key, val in counts.items():
        if key.startswith("max_"):
            into[key] = max(into.get(key, val), val)
        else:
            into[key] = into.get(key, 0) + val


def _size(x) -> int:
    return int(np.size(x))


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _zeta_counts(rec, args, kwargs, result):
    t = np.abs(np.asarray(args[0], dtype=float))
    rs = int(np.count_nonzero(t > rec.rs_crossover))
    return {"em_points": t.size - rs, "rs_points": rs}


def _gram_name(args, kwargs):
    mode = _arg(args, kwargs, 2, "mode", "diagonal")
    return "quadform.gcd_sums" if mode == "direct" else "quadform.diag"


def _log_name(args, kwargs):
    mode = _arg(args, kwargs, 2, "mode", "direct")
    return "quadform.gcd_sums" if mode == "direct" else "quadform.telescoped"


def _gcd_counts(rec, args, kwargs, result):
    return {"pairs": args[0].length_N ** 2}


def _pair_counts(rec, args, kwargs, result):
    o = args[0].ordinates
    T = float(args[1])
    return {"zeros": int(np.count_nonzero((o >= T) & (o <= 2.0 * T)))}


def _none(rec, args, kwargs, result):
    return {}


# (module, attribute, span name or name function, counter function)
WRAPPED = [
    ("arith", "sieve_build", "arith.sieve",
     lambda r, a, k, res: {"max_limit": int(_arg(a, k, 0, "limit"))}),
    ("arith", "mobius_table", "arith.tables",
     lambda r, a, k, res: {"entries": int(_arg(a, k, 0, "limit")) + 1}),
    ("arith", "phi_table", "arith.tables",
     lambda r, a, k, res: {"entries": int(_arg(a, k, 0, "limit")) + 1}),
    ("zeta", "zeta_critical_many", "zeta", _zeta_counts),
    ("zeta", "hardy_z_many", "zeta", _zeta_counts),
    ("zeta", "find_zeros", "zeta.find_zeros",
     lambda r, a, k, res: {} if res is None else {"zeros": len(res)}),
    ("dirichlet", "build_L_theta", "dirichlet.build", _none),
    ("dirichlet", "zeta_window_coeffs", "dirichlet.build", _none),
    ("dirichlet", "evaluate_poly_many", "dirichlet.eval",
     lambda r, a, k, res: {"points": _size(_arg(a, k, 2, "ts"))}),
    ("dirichlet", "export_coeffs", "dirichlet.export", _none),
    ("moments", "mollified_moment", "moments.moment", _none),
    ("moments", "bch_predicted", "moments.bch", _none),
    ("quadform", "gram_form", _gram_name, _gcd_counts),
    ("quadform", "log_form", _log_name, _gcd_counts),
    ("quadform", "diag_residual", "quadform.diag", _none),
    ("quadform", "minimizer_coeffs", "quadform.minimizer", _none),
    ("quadform", "y_vector", "quadform.y_vector", _none),
    ("zerostats", "pair_correlation", "zerostats.pair", _pair_counts),
    ("zerostats", "pair_correlation_grid", "zerostats.pair", _pair_counts),
    ("zerostats", "plancherel_bound_check", "zerostats.plancherel",
     lambda r, a, k, res: {"points": len(a[0].ordinates)}),
    ("smoothfn", "beurling_b", "smoothfn.beurling",
     lambda r, a, k, res: {"points": _size(a[0])}),
    ("smoothfn", "majorant_hat", "smoothfn.hat",
     lambda r, a, k, res: {"points": _size(a[1])}),
]

# MajorantKernel.__call__ evaluates B twice per point.
METHODS = [
    ("smoothfn", "MajorantKernel", "__call__", "smoothfn.beurling",
     lambda r, a, k, res: {"points": 2 * _size(a[1])}),
]


def _wrap(rec: Recorder, fn, name, counter):
    name_of = name if callable(name) else (lambda a, k: name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(name_of(args, kwargs))
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            span.counts.update(counter(rec, args, kwargs, result))
            rec.close(span)
    return wrapper


def install() -> tuple[Recorder, list[str]]:
    """Wrap every listed function at every binding; return the recorder and
    the ``module.attribute`` bindings that were patched."""
    import mollint.zeta
    rec = Recorder(mollint.zeta.RS_CROSSOVER)
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "mollint" or name.startswith("mollint.")}
    patched: list[str] = []
    for mod_name, attr, name, counter in WRAPPED:
        original = getattr(modules["mollint." + mod_name], attr)
        wrapper = _wrap(rec, original, name, counter)
        for bound_name, mod in modules.items():
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                patched.append(f"{bound_name}.{attr}")
    for mod_name, cls_name, attr, name, counter in METHODS:
        cls = getattr(modules["mollint." + mod_name], cls_name)
        setattr(cls, attr, _wrap(rec, getattr(cls, attr), name, counter))
        patched.append(f"mollint.{mod_name}.{cls_name}.{attr}")
    return rec, patched
