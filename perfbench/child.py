"""Run one benchmark operation in a fresh interpreter.

Usage: python3 child.py '<spec json>'

The spec names the checkout root, the kind of operation ("cli" or "api"),
its arguments and whether to trace.  Set-up ends once
``mollint.cli`` is imported and its parser is built; the operation is timed
from there to its return.  Everything the CLI prints is captured; one JSON
report goes to the real stdout.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    from mollint import cli
    cli.build_parser()
    setup_done = time.monotonic()
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"mollint imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2

    rec = patched = None
    if spec["trace"]:
        import tracer
        rec, patched = tracer.install()

    if spec["kind"] == "api":
        import apiops
    captured = _Capture()
    status, rc, result, error = "ok", 0, None, None
    real_stdout, sys.stdout = sys.stdout, captured
    t0 = time.perf_counter()
    try:
        if spec["kind"] == "cli":
            rc = cli.main(spec["argv"])
        elif spec["kind"] == "api":
            result = getattr(apiops, spec["name"])(**spec["params"])
    except Exception as exc:  # reported to the parent as a failed operation
        status, error = "error", f"{type(exc).__name__}: {exc}"
    op_s = time.perf_counter() - t0
    sys.stdout = real_stdout

    report = {
        "status": status,
        "rc": rc,
        "error": error,
        "setup_done": setup_done,
        "op_s": op_s,
        "stdout": captured.getvalue(),
        "result": result,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if rec is not None:
        report["trace"] = {"totals": rec.totals, "root_s": rec.root_s,
                           "patched": patched}
    sys.stdout.write(json.dumps(report, default=_jsonable) + "\n")
    sys.stdout.flush()
    return 0


class _Capture:
    """A stdout stand-in that keeps what the CLI prints."""

    def __init__(self):
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def getvalue(self) -> str:
        return "".join(self.parts)


def _jsonable(x):
    if hasattr(x, "tolist"):
        return x.tolist()
    raise TypeError(f"cannot serialize {type(x)}")


if __name__ == "__main__":
    sys.exit(main())
