"""Operations that call mollint's public API where the CLI does not reach.

Each function is one benchmark operation, run inside a child interpreter
(see child.py).  It makes the calls being measured and returns the raw
outputs; the parent checks them against oracles outside the timed region.
"""

import time
from types import SimpleNamespace

import numpy as np

from mollint import smoothfn, zerostats, zeta


def zeta_bands(bands):
    """zeta_critical_many once per height band: [[label, [t, ...]], ...].
    Per-band seconds go under "timing", apart from the values."""
    values, timing = [], []
    for label, ts in bands:
        t = np.asarray(ts, dtype=float)
        t0 = time.perf_counter()
        z = zeta.zeta_critical_many(t)
        timing.append(time.perf_counter() - t0)
        values.append({"label": label, "re": z.real, "im": z.imag})
    return {"bands": values, "timing": timing}


def majorant_kernels(deltas, xs, hats_in):
    """For each delta, K = majorant_make([0, 1], delta) at default
    truncation: K on its points x, and its transform at 0, at hat_in and at
    25 pairs of points outside the band."""
    out = []
    for delta, x, hat_in in zip(deltas, xs, hats_in):
        K = smoothfn.majorant_make((0.0, 1.0), delta)
        k = K(np.asarray(x, dtype=float))
        outside = np.linspace(1.05 * delta, 3.0 * delta, 25)
        hat = smoothfn.majorant_hat(
            K, np.concatenate([[0.0], hat_in, outside, -outside]))
        n = 1 + len(hat_in)
        out.append({"K": k, "hat0": hat[0], "hat_in": hat[1:n],
                    "hat_out": hat[n:]})
    return out


def beurling(x):
    """Beurling's B at the points x."""
    return smoothfn.beurling_b(np.asarray(x, dtype=float))


def plancherel(point_sets, trunc, vgrid):
    """plancherel_bound_check for each point set against the band-limited
    majorant of [0, 1] at delta = 1; returns [[lhs, rhs], ...]."""
    f = smoothfn.make_plateau((0.0, 1.0), (0.25, 0.75))
    K = smoothfn.majorant_make((0.0, 1.0), 1.0, trunc=trunc)
    return [list(zerostats.plancherel_bound_check(
                SimpleNamespace(ordinates=np.asarray(p)), f, K, vgrid))
            for p in point_sets]
