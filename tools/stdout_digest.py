"""Print the sha256 of the stdout, the stderr and every written file of a
checkout's CLI runs, so that two checkouts can be compared for byte identity.

    python3 tools/stdout_digest.py ROOT [--extra "ARGS"]... > digest.txt

Against ROOT/src, each group in a new temporary directory, it runs

* the commands of the CLI block of ROOT/README.md, in order in one
  directory (``zeros verify`` reads the table ``zeros compute`` writes);
* the "cli" operations of each workload of ROOT/perfbench/workloads.py,
  read through its ``build(workload, seed)`` with seed 0, in order in one
  directory per workload (``zeros.thm3`` reads ``zeros.compute_1k``'s table);
* each ``--extra`` argument, the CLI arguments after ``mollint``, in a
  directory of its own.

For each command it prints a header line with the command, the exit status,
the sha256 of stdout and of stderr, and the sha256 of every file the command
created or changed.  Diff the output of two checkouts:

    diff <(python3 tools/stdout_digest.py PARENT) \\
         <(python3 tools/stdout_digest.py .)
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import os
import shlex
import subprocess
import sys
import tempfile

TIMEOUT = 600.0  # seconds per command

def readme_commands(root: str) -> list[list[str]]:
    """The CLI arguments of each line of README's CLI block."""
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    return [shlex.split(line.split("#", 1)[0])[1:]
            for line in block.splitlines() if line.strip()]


def workload_commands(root: str) -> list[list[tuple[str, list]]]:
    """(name, argv) of every "cli" operation, one list per workload."""
    path = os.path.join(root, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_digest_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look the module up
    spec.loader.exec_module(mod)
    return [[(op.name, list(op.args))
             for op in mod.build(w, 0) if op.kind == "cli"]
            for w in mod.WORKLOADS]


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _files(workdir: str) -> dict[str, str]:
    out = {}
    for base, _, names in os.walk(workdir):
        for name in names:
            path = os.path.join(base, name)
            out[os.path.relpath(path, workdir)] = _digest(path)
    return out


def run_group(root: str, commands) -> None:
    """Run (name, argv) commands in order in one new directory."""
    env = {k: v for k, v in os.environ.items() if k != "MOLLINT_ZEROS"}
    env["PYTHONPATH"] = os.path.join(os.path.abspath(root), "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory(prefix="digest-") as workdir:
        for name, argv in commands:
            print(f"== {name}: mollint {shlex.join(argv)}")
            before = _files(workdir)
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "mollint.cli", *argv],
                    cwd=workdir, env=env, capture_output=True,
                    timeout=TIMEOUT)
            except subprocess.TimeoutExpired:
                print("timeout")
                continue
            print(f"rc {proc.returncode}")
            print(f"stdout {hashlib.sha256(proc.stdout).hexdigest()}")
            print(f"stderr {hashlib.sha256(proc.stderr).hexdigest()}")
            for path, digest in sorted(_files(workdir).items()):
                if before.get(path) != digest:
                    print(f"file {path} {digest}")
            sys.stdout.flush()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("root", help="checkout whose src/ is run")
    p.add_argument("--extra", action="append", default=[],
                   help="CLI arguments of one more command (repeatable)")
    args = p.parse_args(argv)
    run_group(args.root,
              [(f"readme.{i}", cmd)
               for i, cmd in enumerate(readme_commands(args.root), 1)])
    for ops in workload_commands(args.root):
        run_group(args.root, ops)
    for i, extra in enumerate(args.extra, 1):
        run_group(args.root, [(f"extra.{i}", shlex.split(extra))])
    return 0


if __name__ == "__main__":
    sys.exit(main())
