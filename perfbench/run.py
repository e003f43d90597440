"""mollint benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a mollint checkout; the package is imported from
``src/`` of that checkout.  Workloads: moment, zeros, quadform, majorant
(see workloads.py).  Each operation runs in a fresh child interpreter, one
child at a time.  Passes over the workload repeat until ``--seconds`` have
gone by; every output is checked against its oracle after the child ends.

With ``--trace 0`` the result carries the end-to-end metrics: wall_s (median
seconds per pass, the sum of its operations' in-child times), setup_s
(median seconds from child start until ``mollint.cli`` is imported and its
parser built), peak_rss_mb (largest child peak RSS) and passed_frac
(operations passed over operations run, registered defects included).
With ``--trace 1`` untraced and traced passes alternate; the result carries
the per-layer metrics of the traced passes (medians) and the tracing
overhead.  The last stdout line is the JSON result; the line before it
records the machine and the load.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
BENCHMARK = os.path.join(HERE, os.pardir, "BENCHMARK.json")  # names, units

BAND_OP = "zeros.band_probe"


def spawn(root: str, workdir: str, spec: dict, limit_s: float) -> dict:
    """Run one child and return its report, with its set-up time added."""
    spec = dict(spec, root=root)
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD, json.dumps(spec)], cwd=workdir,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(limit_s, 0.1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        # a time-out is charged the full limit
        return {"status": "timeout", "op_s": limit_s, "setup_s": None,
                "maxrss_kb": 0}
    lines = out.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if lines else None
    except ValueError:
        report = None
    if report is None:
        report = {"status": "error", "rc": proc.returncode, "stdout": "",
                  "error": (err or "").strip()[-400:] or "no report",
                  "result": None, "maxrss_kb": 0, "setup_done": None,
                  "op_s": time.monotonic() - t_spawn}
    report["setup_s"] = (report["setup_done"] - t_spawn
                         if report["setup_done"] is not None else None)
    return report


def judge(op: workloads.Op, report: dict, ctx: workloads.Context):
    """Gates of one operation and its outcome: passed, known_defect (only
    registered gates fail) or failed."""
    if report["status"] == "timeout":
        gates = [("time_limit", False, report["op_s"])]
    elif report["status"] != "ok":
        gates = [("exit", False, report["error"])]
    else:
        gates = op.check(report, ctx)
    failing = {name for name, ok, _ in gates if not ok}
    if not failing:
        return gates, "passed"
    if failing <= op.known:
        return gates, "known_defect"
    return gates, "failed"


class Runner:
    def __init__(self, root: str, workdir: str, ctx: workloads.Context):
        self.root = root
        self.workdir = workdir
        self.ctx = ctx
        self.setup_samples: list[float] = []
        self.peak_rss_kb = 0

    def _spawn(self, spec: dict, limit_s: float) -> dict:
        report = spawn(self.root, self.workdir, spec, limit_s)
        if report["setup_s"] is not None:
            self.setup_samples.append(report["setup_s"])
        self.peak_rss_kb = max(self.peak_rss_kb, report["maxrss_kb"] or 0)
        return report

    def run_op(self, op: workloads.Op, trace: bool) -> dict:
        spec = {"kind": op.kind, "trace": trace}
        if op.kind == "cli":
            spec["argv"] = op.args
        else:
            spec.update(op.args)
        report = self._spawn(spec, op.limit_s)
        gates, outcome = judge(op, report, self.ctx)
        return {"op": op.name, "kind": op.kind, "outcome": outcome,
                "op_s": report["op_s"], "gates": gates, "report": report}

    def run_pass(self, ops, trace: bool) -> dict:
        records = [self.run_op(op, trace) for op in ops]
        return {"trace": trace, "records": records,
                "wall": sum(r["op_s"] for r in records)}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def traced_ok(records) -> list[dict]:
    """Traced records of operations that returned in time and without
    raising; a stopped operation's partial spans would skew the ratios."""
    return [r for r in records
            if r["report"]["status"] == "ok" and r["report"].get("trace")]


def merged_totals(records) -> dict:
    merged: dict[str, dict] = {}
    for rec in traced_ok(records):
        for name, tot in rec["report"]["trace"]["totals"].items():
            tracer.add_total(merged, name, tot["s"], tot["self_s"],
                             tot["calls"], tot["counts"])
    return merged


def _per(total: float, n: float, scale: float = 1.0) -> float:
    return scale * total / n if n else 0.0


def layer_metrics(records) -> dict:
    """Per-layer metrics of one traced pass (0 where a layer did not run)."""
    tot = merged_totals(records)
    empty = {"s": 0.0, "self_s": 0.0, "calls": 0, "counts": {}}

    def t(name):
        return tot.get(name, empty)

    def c(name, key):
        return t(name)["counts"].get(key, 0)

    em_s, em_p = c("zeta", "em_s"), c("zeta", "em_points")
    rs_s, rs_p = c("zeta", "rs_s"), c("zeta", "rs_points")
    fz_evals, fz_zeros = c("zeta.find_zeros", "z_points"), \
        c("zeta.find_zeros", "zeros")
    m = {
        "arith.sieve.s": t("arith.sieve")["s"],
        "arith.sieve.limit": c("arith.sieve", "max_limit"),
        "arith.tables.s": t("arith.tables")["s"],
        "arith.tables.calls": t("arith.tables")["calls"],
        "arith.tables.entries": c("arith.tables", "entries"),
        "zeta.em.s": em_s,
        "zeta.em.points": em_p,
        "zeta.em.us_per_point": _per(em_s, em_p, 1e6),
        "zeta.rs.s": rs_s,
        "zeta.rs.points": rs_p,
        "zeta.rs.us_per_point": _per(rs_s, rs_p, 1e6),
        "zeta.calls": t("zeta")["calls"],
        "zeta.find_zeros.self_s": t("zeta.find_zeros")["self_s"],
        "zeta.find_zeros.z_evals": fz_evals,
        "zeta.find_zeros.zeros": fz_zeros,
        "zeta.find_zeros.evals_per_zero": _per(fz_evals, fz_zeros),
        "zeta.find_zeros.rounds": c("zeta.find_zeros", "z_calls"),
        "dirichlet.build.s": t("dirichlet.build")["s"],
        "dirichlet.eval.s": t("dirichlet.eval")["s"],
        "dirichlet.eval.points": c("dirichlet.eval", "points"),
        "dirichlet.export.s": t("dirichlet.export")["s"],
        "moments.moment.self_s": t("moments.moment")["self_s"],
        "moments.moment.nodes": c("moments.moment", "z_points"),
        "moments.halfres.s": c("moments.moment", "halfres_s"),
        "moments.bch.s": t("moments.bch")["s"],
        "quadform.gcd_sums.s": t("quadform.gcd_sums")["s"],
        "quadform.gcd_sums.pairs": c("quadform.gcd_sums", "pairs"),
        "quadform.diag.s": t("quadform.diag")["s"],
        "quadform.minimizer.self_s": t("quadform.minimizer")["self_s"],
        "quadform.y_vector.calls": t("quadform.y_vector")["calls"],
        "zerostats.pair.s": t("zerostats.pair")["s"],
        "zerostats.pair.zeros": c("zerostats.pair", "zeros"),
        "zerostats.plancherel.self_s": t("zerostats.plancherel")["self_s"],
        "zerostats.plancherel.points": c("zerostats.plancherel", "points"),
        "smoothfn.beurling.s": t("smoothfn.beurling")["s"],
        "smoothfn.beurling.points": c("smoothfn.beurling", "points"),
        "smoothfn.hat.s": t("smoothfn.hat")["s"],
        "smoothfn.hat.points": c("smoothfn.hat", "points"),
        "cli.self_s": sum(r["op_s"] - r["report"]["trace"]["root_s"]
                          for r in traced_ok(records) if r["kind"] == "cli"),
    }
    for label, _, _ in workloads.BANDS:
        m[f"zeta.band.{label}.us_per_point"] = 0.0
        m[f"zeta.band.{label}.max_err"] = 0.0
    for rec in records:
        if rec["op"] != BAND_OP or rec["report"]["status"] != "ok":
            continue
        details = {name: detail for name, _, detail in rec["gates"]}
        result = rec["report"]["result"]
        for res, sec in zip(result["bands"], result["timing"]):
            label = res["label"]
            m[f"zeta.band.{label}.us_per_point"] = \
                1e6 * sec / workloads.BAND_POINTS
            m[f"zeta.band.{label}.max_err"] = \
                details[f"band.{label}"]["max_err"]
    return m


def _result_text(record) -> str:
    """What the operation printed or returned, timings left out."""
    rep = record["report"]
    if record["kind"] == "cli":
        return rep["stdout"]
    result = rep["result"]
    if isinstance(result, dict):
        result = {k: v for k, v in result.items() if k != "timing"}
    return json.dumps(result)


def stdout_mismatches(passes) -> list[str]:
    """Operations whose traced output differs from their untraced output."""
    plain = {}
    bad = []
    for p in passes:
        for rec in p["records"]:
            if rec["report"]["status"] != "ok":
                continue
            text = _result_text(rec)
            if not p["trace"]:
                plain.setdefault(rec["op"], text)
            elif rec["op"] in plain and plain[rec["op"]] != text:
                bad.append(rec["op"])
    return bad


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(pkg: str) -> str:
    try:
        return importlib.metadata.version(pkg)
    except importlib.metadata.PackageNotFoundError:
        return "missing"


def _blas_threads() -> int | str:
    """Threads of the OpenBLAS that numpy loaded, asked through ctypes."""
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def environment(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"), "scipy": _version("scipy"),
        "mpmath": _version("mpmath"),
        "blas_threads": _blas_threads(),
        "loadavg_before": list(os.getloadavg()),
        "noise": "shared machine; one child at a time; medians over passes",
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(args, root: str, workdir: str) -> tuple[list, Runner]:
    ctx = workloads.Context(workdir=workdir,
                            reference=workloads.load_reference())
    ops = workloads.build(args.workload, args.seed)
    runner = Runner(root, workdir, ctx)
    start = time.monotonic()
    passes = []
    modes = [False, True] if args.trace else [False]
    while True:
        for trace in modes:
            passes.append(runner.run_pass(ops, trace))
        if time.monotonic() - start >= args.seconds:
            break
    return passes, runner


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mollint", "cli.py")):
        print("run from the root of a mollint checkout (src/mollint/cli.py "
              "not found)", file=sys.stderr)
        return 2
    with open(BENCHMARK, encoding="utf-8") as fh:
        declared = json.load(fh)
    env = environment(args)
    work_parent = os.path.join(root, ".perfbench_work")
    os.makedirs(work_parent, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_parent)
    try:
        passes, runner = measure(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_parent)
        except OSError:         # another run is using it
            pass
    env["loadavg_after"] = list(os.getloadavg())

    records = [r for p in passes for r in p["records"]]
    outcomes = [r["outcome"] for r in records]
    failed = outcomes.count("failed")
    mismatched = stdout_mismatches(passes)
    plain = [p for p in passes if not p["trace"]]
    traced = [p for p in passes if p["trace"]]
    wall = statistics.median(p["wall"] for p in plain)
    if args.trace:
        per_pass = [layer_metrics(p["records"]) for p in traced]
        metrics = {name: statistics.median(m[name] for m in per_pass)
                   for name in per_pass[0]}
        metrics["trace.overhead_s"] = \
            statistics.median(p["wall"] for p in traced) - wall
        metrics["failed_frac"] = (failed + outcomes.count("known_defect")) \
            / len(records)
        metrics["known_defects"] = outcomes.count("known_defect") \
            / len(passes)
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(runner.setup_samples),
            "peak_rss_mb": runner.peak_rss_kb / 1024.0,
            "passed_frac": outcomes.count("passed") / len(records),
        }
    detail = {
        "environment": env,
        "pass_walls": [[p["trace"], p["wall"]] for p in passes],
        "operations": [{"op": r["op"], "trace": p["trace"],
                        "outcome": r["outcome"], "op_s": r["op_s"],
                        "setup_s": r["report"]["setup_s"],
                        "failing_gates": [[g, d] for g, ok, d in r["gates"]
                                          if not ok]}
                       for p in passes for r in p["records"]],
        "stdout_mismatches": mismatched,
    }
    print(json.dumps(detail, default=str))
    result = {
        "correct": failed == 0 and not mismatched,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]),
                                "unit": m["unit"]}
                    for m in declared["per_layer" if args.trace
                                      else "end_to_end"]},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
