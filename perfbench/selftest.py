"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py        (from the root of a checkout)

Checks that tracing leaves the program's stdout byte-identical, that the
layer spans of a traced moment run cover at least 95% of the operation
time, that every binding of a wrapped function is patched, and that a
corrupted reference makes its operation count as failed.  Takes about 30 s.
"""

import os
import shutil
import sys
import tempfile

import run
import workloads

COVERAGE_MIN = 0.95
REQUIRED_BINDINGS = (
    "mollint.zeta.zeta_critical_many", "mollint.moments.zeta_critical_many",
    "mollint.moments.evaluate_poly_many", "mollint.arith.mobius_table",
    "mollint.quadform.mobius_table", "mollint.quadform.phi_table",
    "mollint.zerostats.majorant_hat", "mollint.smoothfn.majorant_hat",
    "mollint.smoothfn.MajorantKernel.__call__",
)


def check_moment(root: str, workdir: str) -> list[str]:
    reference = workloads.load_reference()
    runner = run.Runner(root, workdir,
                        workloads.Context(workdir=workdir, reference=reference))
    op, = workloads.build("moment", 0)
    plain = runner.run_op(op, trace=False)
    traced = runner.run_op(op, trace=True)
    problems = []
    if plain["outcome"] != "passed" or traced["outcome"] != "passed":
        problems.append(f"moment outcomes {plain['outcome']} untraced, "
                        f"{traced['outcome']} traced: {traced['gates']}")
    if plain["report"]["stdout"] != traced["report"]["stdout"]:
        problems.append("traced stdout differs from untraced stdout")
    # share of the operation's time inside top-level layer spans
    cov = traced["report"]["trace"]["root_s"] / traced["op_s"]
    if cov < COVERAGE_MIN:
        problems.append(f"layer spans cover {cov:.3f} of the moment run")
    missing = set(REQUIRED_BINDINGS) - set(traced["report"]["trace"]["patched"])
    if missing:
        problems.append(f"bindings not wrapped: {sorted(missing)}")

    key = "moment_T2000_ltheta_0.3"
    corrupted = dict(reference, **{key: reference[key] * (1.0 + 1e-6)})
    ctx = workloads.Context(workdir=workdir, reference=corrupted)
    gates, outcome = run.judge(op, plain["report"], ctx)
    if outcome != "failed":
        problems.append(f"corrupted reference left the moment {outcome}")
    return problems


def main() -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mollint", "cli.py")):
        print("run from the root of a mollint checkout", file=sys.stderr)
        return 2
    work_parent = os.path.join(root, ".perfbench_work")
    os.makedirs(work_parent, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=work_parent)
    try:
        problems = check_moment(root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_parent)
        except OSError:
            pass
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
