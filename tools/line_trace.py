"""List the statements of src/mollint that no test executes.

    python3 tools/line_trace.py [PYTEST_ARGS...]

It runs pytest in this process (``-p no:cacheprovider``, no bytecode
written) under ``sys.settrace``, recording the lines executed in
src/mollint/*.py only, then prints every statement of those files that
no test reached, as ``file:line: source``, in file and line order.  A
statement is one ``ast`` statement node, docstrings excluded; it counts
as reached when a line of its own span ran (for a compound statement,
the lines before its body; for ``try``, its body's first statement).
Only the standard library is used.  The exit status is pytest's.

Tracing costs time: the whole suite runs two to three times slower.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "mollint")


def package_files() -> list[str]:
    return sorted(os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE)
                  if name.endswith(".py"))


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _statements(tree: ast.Module):
    """Every statement node except docstrings."""
    for parent in ast.walk(tree):
        # handlers and match cases are walked as parents of their bodies
        for name in ("body", "orelse", "finalbody"):
            block = getattr(parent, name, None)
            if not isinstance(block, list):
                continue
            for i, node in enumerate(block):
                if not isinstance(node, ast.stmt):
                    continue
                if i == 0 and name == "body" and _is_docstring(node) \
                        and isinstance(parent, (ast.Module, ast.ClassDef,
                                                ast.FunctionDef,
                                                ast.AsyncFunctionDef)):
                    continue
                yield node


def _own_lines(node: ast.stmt) -> range:
    """The lines of a statement before its body (all of a simple one)."""
    first = min([node.lineno]
                + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
        return range(first, max(first, body[0].lineno - 1) + 1)
    return range(first, node.end_lineno + 1)


def unreached(path: str, executed: set[int]) -> list[tuple[int, str]]:
    """(line, source) of each statement of ``path`` none of whose own lines
    is in ``executed``."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    lines = source.splitlines()

    def reached(node: ast.stmt) -> bool:
        if isinstance(node, ast.Try):
            return reached(node.body[0])
        return any(n in executed for n in _own_lines(node))

    return sorted({(node.lineno, lines[node.lineno - 1].strip())
                   for node in _statements(ast.parse(source, path))
                   if not reached(node)})


def trace_pytest(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on ``args`` under the tracer; (exit status, executed lines
    per package file)."""
    files = set(package_files())
    executed: dict[str, set[int]] = {path: set() for path in files}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    sys.dont_write_bytecode = True
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), executed


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    os.chdir(ROOT)
    status, executed = trace_pytest(args)
    for path in package_files():
        rel = os.path.relpath(path, ROOT)
        for line, text in unreached(path, executed[path]):
            print(f"{rel}:{line}: {text}")
    return status


if __name__ == "__main__":
    sys.exit(main())
