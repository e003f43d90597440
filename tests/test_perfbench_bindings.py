"""The benchmark's tracer wraps package functions by name, and its selftest
requires some of those bindings.  A renamed or deleted function would break
only traced benchmark runs, so every name they look up is checked here,
reading the benchmark sources without changing them.  The flags and
keywords the benchmark's operations pass, and the package constant it
copies, are checked too: a deleted or drifted one would show only as a
failed or mislabelled benchmark run."""

import argparse
import ast
import importlib
import inspect
import pathlib

import pytest

from mollint import cli, smoothfn, zerostats, zeta

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _assigned(path: pathlib.Path, name: str) -> ast.expr:
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"{path.name} assigns no {name}")


def _leading_strings(path: pathlib.Path, name: str, k: int) -> list[tuple]:
    """The first k string fields of each tuple in the list ``name``."""
    return [tuple(ast.literal_eval(e) for e in entry.elts[:k])
            for entry in _assigned(path, name).elts]


def _tracer_names() -> list[str]:
    tracer = PERFBENCH / "tracer.py"
    names = [f"mollint.{mod}.{attr}"
             for mod, attr in _leading_strings(tracer, "WRAPPED", 2)]
    names += [f"mollint.{mod}.{cls}.{attr}"
              for mod, cls, attr in _leading_strings(tracer, "METHODS", 3)]
    return names


def _selftest_names() -> list[str]:
    return list(ast.literal_eval(
        _assigned(PERFBENCH / "selftest.py", "REQUIRED_BINDINGS")))


def test_binding_lists_are_read():
    assert "mollint.moments.bch_predicted" in _tracer_names()
    assert "mollint.quadform.mobius_table" in _selftest_names()


@pytest.mark.parametrize("dotted", sorted(set(_tracer_names())
                                          | set(_selftest_names())))
def test_benchmark_binding_exists(dotted):
    _, mod, *attrs = dotted.split(".")
    obj = importlib.import_module(f"mollint.{mod}")
    for attr in attrs:
        assert hasattr(obj, attr), f"{dotted} is gone from mollint"
        obj = getattr(obj, attr)
    assert callable(obj)


def _workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH.parent))
    return importlib.import_module("perfbench.workloads")


def test_benchmark_cli_argv_parses(monkeypatch):
    workloads = _workloads(monkeypatch)
    parser = cli.build_parser()
    argvs = [op.args for w in workloads.WORKLOADS
             for op in workloads.build(w, 0) if op.kind == "cli"]
    assert len(argvs) >= 8
    for argv in argvs:
        try:
            parser.parse_args(argv)
        except (SystemExit, argparse.ArgumentError):
            pytest.fail(f"the CLI rejects the benchmark's argv {argv}")


def test_benchmark_crossover_matches_package(monkeypatch):
    # the band probe picks each band's gate (Euler-Maclaurin or
    # Riemann-Siegel) from the benchmark's own copy of the crossover
    assert _workloads(monkeypatch).RS_CROSSOVER == zeta.RS_CROSSOVER


def test_benchmark_majorant_keywords_bind():
    # perfbench/apiops.py plancherel passes trunc= to majorant_make
    inspect.signature(smoothfn.majorant_make).bind((0.0, 1.0), 1.0,
                                                   trunc=2000)


@pytest.mark.parametrize("name", ["pair_correlation", "pair_correlation_grid"])
def test_benchmark_pair_counts_arguments_bind(name):
    # perfbench/tracer.py _pair_counts reads the table at args[0] and T at
    # args[1], so both still take (Z, T, ...) positionally
    params = list(inspect.signature(getattr(zerostats, name)).parameters
                  .values())[:2]
    assert [p.name for p in params] == ["Z", "T"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
