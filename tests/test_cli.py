import importlib.util
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import types

import numpy as np
import pytest

import mollint
from mollint import arith, cli, dirichlet, quadform, zerostats
from mollint.cli import main
from mollint.zeta import RVM_ENVELOPE, import_zero_table, write_zero_table

ROOT = str(pathlib.Path(__file__).parents[1])


def _load_digest():
    """tools/stdout_digest.py, loaded by path: it is no package module."""
    path = os.path.join(ROOT, "tools", "stdout_digest.py")
    spec = importlib.util.spec_from_file_location("_stdout_digest", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


digest = _load_digest()

PACKAGE_DIR = pathlib.Path(mollint.__file__).parent


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def verdicts(out):
    lines = [ln for ln in out.splitlines() if ln.strip()]
    return [json.loads(ln) for ln in lines]


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


def strict_verdicts(out):
    """Each stdout line as strict JSON: Infinity and NaN are refused."""
    return [json.loads(ln, parse_constant=_reject_constant)
            for ln in out.splitlines()]


def test_moment_plain(tmp_path, capsys):
    rc, out, err = run(capsys, ["--output-dir", str(tmp_path),
                                "moment", "--T", "500"])
    assert rc == 0 and err == ""
    (v,) = verdicts(out)
    assert v["operation"] == "moment"
    assert v["pass"] is True
    assert abs(v["lhs"] - 1.0) <= 1e-8
    assert v["inputs"]["mollifier"] == "none"


def test_moment_rerun_byte_identical(tmp_path, capsys):
    argv = ["--output-dir", str(tmp_path), "moment", "--T", "500"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_moment_compare_bch(tmp_path, capsys):
    rc, out, _ = run(capsys, ["--output-dir", str(tmp_path), "moment",
                              "--T", "500", "--theta", "0.3",
                              "--mollifier", "ltheta", "--compare-bch"])
    assert rc == 0
    vs = verdicts(out)
    assert [v["operation"] for v in vs] == ["moment", "moment.compare_bch"]
    assert abs(vs[1]["ratio"] - 1.0) <= 0.05


def test_moment_compare_bch_needs_a_mollifier(tmp_path, capsys):
    # refused before the moment runs, so no moment verdict reaches stdout
    rc, out, err = run(capsys, ["--output-dir", str(tmp_path), "moment",
                                "--T", "500", "--compare-bch"])
    assert (rc, out) == (2, "")
    assert err == "error: CliError: --compare-bch requires a mollifier\n"


def test_moment_resolution_refused(tmp_path, capsys):
    # 3,000 panels at T = 2000 lie below the 3,693 the bound derives for
    # L_0.3: refused with P, the bound and the target named, unless forced
    from mollint.dirichlet import build_L_theta
    from mollint.moments import QUAD_TARGET, _quadrature_bound
    bound = _quadrature_bound(2000.0, build_L_theta(2000.0, 0.3), 3000)
    assert bound > QUAD_TARGET
    argv = ["--output-dir", str(tmp_path), "--panels", "3000", "moment",
            "--T", "2000", "--mollifier", "ltheta"]
    rc, out, err = run(capsys, argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: ResolutionError: panels=3000")
    assert f"{bound:.3g}" in err and f"target {QUAD_TARGET:g}" in err
    rc, out, _ = run(capsys, argv + ["--force"])
    assert rc == 0
    v = verdicts(out)[0]
    assert v["inputs"]["panels"] == 3000
    assert v["estimated_error"] == bound
    # the empty mollifier's integrand is constant: no count is refused
    rc, out, _ = run(capsys, ["--output-dir", str(tmp_path), "--panels", "10",
                              "moment", "--T", "500"])
    assert rc == 0
    assert verdicts(out)[0]["inputs"]["panels"] == 10


def test_panel_count_below_one_refused(tmp_path, capsys):
    # force lets a count below the floor through, but not one below 1
    rc, out, err = run(capsys, ["--output-dir", str(tmp_path), "--panels",
                                "-3", "moment", "--T", "100", "--force"])
    assert rc == 2 and out == ""
    assert "ResolutionError" in err and "panels=-3" in err


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\npanels = 400\noutput_dir = %s\n" % tmp_path)
    rc, out, _ = run(capsys, ["--config", str(cfg), "moment", "--T", "500",
                              "--force"])
    assert rc == 0
    assert verdicts(out)[0]["inputs"]["panels"] == 400
    # explicit flag beats the file
    rc, out, _ = run(capsys, ["--config", str(cfg), "--panels", "600",
                              "moment", "--T", "500", "--force"])
    assert verdicts(out)[0]["inputs"]["panels"] == 600


def test_config_unknown_key(tmp_path, capsys):
    # sieve_limit is gone: the tables are sized from the request
    cfg = tmp_path / "bad.cfg"
    for text in ("pannels=10\n", "sieve_limit=1000\n"):
        cfg.write_text(text)
        rc, _, err = run(capsys, ["--config", str(cfg), "moment", "--T",
                                  "500"])
        assert rc == 2
        assert "unknown key" in err


@pytest.mark.parametrize("text, message", [
    ("seed=abc\n", "config:1: seed must be int, got 'abc'"),
    ("# comment\npanels = 1.5\n", "config:2: panels must be int, got '1.5'"),
], ids=["seed", "panels"])
def test_config_bad_value_names_line_and_key(tmp_path, capsys, text,
                                             message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    rc, out, err = run(capsys, ["--config", str(cfg), "moment", "--T", "500"])
    assert rc == 2 and out == ""
    assert err == f"error: CliError: {message}\n"


def test_output_dir_unwritable(capsys):
    rc, _, err = run(capsys, ["--output-dir", "/no/such/dir",
                              "moment", "--T", "500"])
    assert rc == 2
    assert "output_dir" in err


def test_zeros_compute_verify_import(tmp_path, capsys, monkeypatch):
    table = tmp_path / "z.txt"
    rc, out, _ = run(capsys, ["--output-dir", str(tmp_path), "zeros",
                              "compute", "--t0", "10", "--t1", "60",
                              "--out", str(table)])
    assert rc == 0
    v = verdicts(out)[0]
    assert v["pass"] is True
    assert table.exists()

    rc, out, _ = run(capsys, ["zeros", "verify", "--path", str(table)])
    assert rc == 0
    assert verdicts(out)[0]["operation"] == "zeros.verify"

    # env variable supplies the table when --path is absent
    monkeypatch.setenv("MOLLINT_ZEROS", str(table))
    rc, out, _ = run(capsys, ["zeros", "verify"])
    assert rc == 0
    monkeypatch.delenv("MOLLINT_ZEROS")

    cache = tmp_path / "cache.txt"
    rc, out, _ = run(capsys, ["zeros", "import", "--path", str(table),
                              "--range", "10", "60", "--out", str(cache)])
    assert rc == 0
    assert cache.exists()


@pytest.mark.parametrize("lo, hi", [("10", "nan"), ("30", "10")])
def test_zeros_import_range_must_be_ordered(tmp_path, capsys, lo, hi):
    # a typed error (exit 2), not a passing verdict with 0 ordinates
    table = tmp_path / "z.txt"
    table.write_text("14.134725142\n21.022039639\n")
    rc, out, err = run(capsys, ["--output-dir", str(tmp_path), "zeros",
                                "import", "--path", str(table),
                                "--range", lo, hi])
    assert rc == 2 and out == ""
    assert "ZeroTableError" in err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_zeros_import_non_finite_line_refused(tmp_path, capsys, bad):
    # exit 2 naming path:line; nothing counted, nothing written
    table = tmp_path / "z.txt"
    table.write_text(f"14.134725142\n21.022039639\n{bad}\n")
    cache = tmp_path / "cache.txt"
    rc, out, err = run(capsys, ["--output-dir", str(tmp_path), "zeros",
                                "import", "--path", str(table),
                                "--range", "10", "inf", "--out", str(cache)])
    assert rc == 2 and out == ""
    assert "ZeroTableError" in err and "z.txt:3: not finite" in err
    assert not cache.exists()


def test_thm3_non_positive_eps_refused(tmp_path, capsys, monkeypatch,
                                      zeros_1k):
    # eps <= 0 is outside Theorem 3: exit 2, not a failing verdict on the
    # collapsed alpha range [1, 1], and before the moment is computed
    table = tmp_path / "z.txt"
    write_zero_table(zeros_1k, table)

    def no_moment(*args, **kwargs):
        raise AssertionError("moment computed before eps was checked")

    monkeypatch.setattr(cli.moments, "mollified_moment", no_moment)
    rc, out, err = run(capsys, ["--output-dir", str(tmp_path), "--zeros",
                                str(table), "bounds", "thm3", "--T", "1000",
                                "--eps", "-0.5"])
    assert rc == 2 and out == ""
    assert "eps must be > 0" in err


def test_thm3_grid_option_removed(tmp_path, capsys, zeros_1k):
    # the alpha integral sums every pair through Montgomery's identity, so
    # there is no grid to set
    table = tmp_path / "z.txt"
    write_zero_table(zeros_1k, table)
    with pytest.raises(SystemExit) as exc:
        main(["--output-dir", str(tmp_path), "--zeros", str(table),
              "bounds", "thm3", "--T", "1000", "--grid", "50"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --grid 50" in capsys.readouterr().err


@pytest.mark.parametrize("via", ["flag", "config"])
def test_pair_cutoff_nan_refused(tmp_path, capsys, zeros_1k, via):
    # every pair is summed, so there is no pair cutoff to set: a cutoff, NaN
    # included, is refused as an unknown option rather than ignored
    table = tmp_path / "z.txt"
    write_zero_table(zeros_1k, table)
    base = ["--output-dir", str(tmp_path), "--zeros", str(table)]
    thm3 = ["bounds", "thm3", "--T", "1000"]
    if via == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pair_cutoff = nan\n")
        rc, out, err = run(capsys, base + ["--config", str(cfg)] + thm3)
        assert rc == 2 and out == ""
        assert "unknown key 'pair_cutoff'" in err
        return
    for argv in [base + ["--pair-cutoff", "nan"] + thm3,
                 base + thm3 + ["--pair-cutoff", "nan"]]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --pair-cutoff" in \
            capsys.readouterr().err


@pytest.mark.parametrize("where", ["inside_tail", "above_tail"])
def test_thm3_verdict_at_unfavourable_end_of_pair_tail(
        tmp_path, capsys, monkeypatch, zeros_1k, where):
    # a moment between rhs and 1/(1/2 + I - integral_error), the unfavourable
    # end of the integral's error bound (the pair tail before it), is not a
    # pass
    table = tmp_path / "z.txt"
    write_zero_table(zeros_1k, table)
    Z = import_zero_table(str(table), 1000.0, 2000.0)
    rhs, err, worst = zerostats.thm3_rhs(Z, 1000.0, 0.5, 0.05)
    assert rhs < worst
    measured = {"inside_tail": 0.5 * (rhs + worst),
                "above_tail": worst * (1.0 + 1e-12)}[where]
    monkeypatch.setattr(cli.moments, "mollified_moment",
                        lambda *a, **k: types.SimpleNamespace(value=measured))
    rc, out, _ = run(capsys, ["--output-dir", str(tmp_path), "--zeros",
                              str(table), "bounds", "thm3", "--T", "1000"])
    (v,) = strict_verdicts(out)
    assert (v["lhs"], v["rhs"], v["integral_error"]) == (measured, rhs, err)
    assert v["pass"] is (where == "above_tail")
    assert rc == (0 if where == "above_tail" else 1)


def test_unbounded_import_range_is_strict_json(tmp_path, capsys, zeros_1k):
    # the open end of --range 1500 inf is printed as null
    table = tmp_path / "zeros_1k.txt"
    write_zero_table(zeros_1k, table)
    rc, out, _ = run(capsys, ["--output-dir", str(tmp_path), "zeros",
                              "import", "--path", str(table),
                              "--range", "1500", "inf"])
    assert rc == 0
    (v,) = strict_verdicts(out)
    assert v["inputs"]["range"] == [1500, None]
    assert v["lhs"] == np.count_nonzero(zeros_1k.ordinates >= 1500.0)


def test_non_finite_floats_print_as_null():
    assert cli._fmt([math.inf, -math.inf, math.nan, 1.5]) \
        == "[null, null, null, 1.5]"
    assert cli._fmt(complex(math.nan, 2.0)) == '{"re": null, "im": 2}'


def test_readme_cli_block_runs(tmp_path, capsys, monkeypatch):
    # every command of README's CLI block, in order (verify reads the table
    # compute writes), exits 0 and prints strict JSON lines
    monkeypatch.chdir(tmp_path)
    commands = digest.readme_commands(ROOT)
    assert len(commands) == 8
    for argv in commands:
        rc, out, err = run(capsys, ["--output-dir", str(tmp_path)] + argv)
        assert rc == 0 and err == "", argv
        assert out and strict_verdicts(out), argv


def test_zeros_compute_tolerance_is_envelope(tmp_path, capsys):
    # the verdict's pass is the table's completeness claim, decided at the
    # RVM envelope, so the printed tolerance must be that envelope; verify
    # of the table compute wrote decides by the same rule
    table = tmp_path / "zeros.txt"
    for argv in (["compute", "--t0", "10", "--t1", "100"],
                 ["verify", "--path", str(table)]):
        rc, out, _ = run(capsys, ["--output-dir", str(tmp_path), "zeros"]
                         + argv)
        assert rc == 0, argv
        (v,) = verdicts(out)
        assert v["tolerance"] == RVM_ENVELOPE
        assert v["pass"] == (abs(v["lhs"] - v["rhs"]) <= v["tolerance"])
        assert v["diagnostics"] == []


def test_zeros_verify_names_suspect_gap(short_table, capsys):
    # six zeros missing between 30.42 and 52.97: the count is short of the
    # envelope and the diagnostics name the gap, as zeros compute would
    rc, out, _ = run(capsys, ["zeros", "verify", "--path", str(short_table)])
    assert rc == 1
    (v,) = verdicts(out)
    assert v["lhs"] == 14 and v["tolerance"] == RVM_ENVELOPE
    assert v["pass"] is False and "first_gap_near" not in v
    assert v["diagnostics"] == ["suspect gap [30.424876, 52.970321]",
                                "count 14 vs RVM estimate 19.82"]


def test_stdout_digest_run_group_is_stable(capsys):
    # two runs of one group print the same digest: exit status, the
    # sha256 of stdout and stderr, and of the table the command wrote
    argv = ["zeros", "compute", "--t0", "10", "--t1", "20", "--out", "z.txt"]
    printouts = []
    for _ in range(2):
        digest.run_group(ROOT, [("z", argv)])
        printouts.append(capsys.readouterr().out)
    assert printouts[0] == printouts[1]
    lines = printouts[0].splitlines()
    assert lines[0] == "== z: mollint " + shlex.join(argv)
    assert lines[1] == "rc 0"
    assert re.fullmatch(r"stdout [0-9a-f]{64}", lines[2])
    assert re.fullmatch(r"stderr [0-9a-f]{64}", lines[3])
    assert re.fullmatch(r"file z\.txt [0-9a-f]{64}", lines[4])
    assert len(lines) == 5


def test_zeros_verify_without_table(capsys):
    rc, _, err = run(capsys, ["zeros", "verify"])
    assert rc == 2
    assert "no table" in err


@pytest.mark.parametrize("lines, extra", [
    ([], []),
    (["14.134725142", "21.022039639"], ["--range", "5000", "6000"]),
], ids=["empty-file", "range-outside"])
def test_zeros_verify_empty_selection(tmp_path, capsys, lines, extra):
    # no ordinate in range is a usage error (exit 2), not a failed verdict
    table = tmp_path / "z.txt"
    table.write_text("".join(f"{x}\n" for x in lines))
    rc, out, err = run(capsys, ["zeros", "verify", "--path", str(table)]
                       + extra)
    assert rc == 2
    assert out == ""
    assert "CliError" in err and str(table) in err
    assert ("[5000, 6000]" if extra else "[10, 1e+18]") in err


def test_quadform_verify_diag_needs_a_trial(tmp_path, capsys):
    rc, out, err = run(capsys, ["--output-dir", str(tmp_path), "quadform",
                                "verify-diag", "--N", "50", "--trials", "0"])
    assert rc == 2
    assert out == ""
    assert "trials" in err


@pytest.mark.parametrize("argv", [
    ["verify-diag", "--N", "-3"],
    ["minimize", "--N", "0"],
    ["s-decomp", "--N", "0"],
    ["propb", "--N", "0", "--T", "1000"],
])
def test_quadform_N_must_be_positive(tmp_path, capsys, argv):
    rc, out, err = run(capsys, ["--output-dir", str(tmp_path), "quadform"]
                       + argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: CliError") and "--N" in err


def test_compare_bch_beyond_direct_cap(tmp_path, capsys):
    # the prediction is the O(N log N) propB_value, so a mollifier longer
    # than the brute-force cap still gets its compare_bch verdict
    from mollint.dirichlet import export_coeffs, import_coeffs
    from mollint.quadform import DIRECT_CAP, minimizer_coeffs, propB_value
    path = tmp_path / "minimizer.csv"
    export_coeffs(minimizer_coeffs(DIRECT_CAP + 1), str(path))
    rc, out, err = run(capsys, ["--output-dir", str(tmp_path), "moment",
                                "--T", "2000", "--mollifier", f"file:{path}",
                                "--compare-bch"])
    assert rc == 0 and err == ""
    moment, compare = verdicts(out)
    assert compare["operation"] == "moment.compare_bch"
    M = import_coeffs(str(path))
    assert M.length_N == DIRECT_CAP + 1
    assert compare["rhs"] == propB_value(2000.0, M)
    assert compare["ratio"] == moment["lhs"] / compare["rhs"]


@pytest.mark.parametrize("rows", ["1,1,0\n1,0.5,0\n", "1,1,0\n2,nan,0\n"],
                         ids=["repeated-index", "nan-coefficient"])
def test_bad_coefficient_file_is_usage_error(tmp_path, capsys, rows):
    # a typed error naming path:line (exit 2), never a verdict on the last
    # of two rows or a null moment
    path = tmp_path / "bad.csv"
    path.write_text("n,re,im\n" + rows)
    rc, out, err = run(capsys, ["--output-dir", str(tmp_path), "moment",
                                "--T", "500", "--mollifier", f"file:{path}"])
    assert rc == 2 and out == ""
    assert err.startswith("error: ValueError") and "bad.csv:3:" in err


@pytest.mark.parametrize("argv, name", [
    (["moment", "--T", "nan"], "--T"),
    (["moment", "--T", "inf", "--mollifier", "ltheta"], "--T"),
    (["moment", "--T", "500", "--theta", "nan", "--mollifier", "ltheta"],
     "--theta"),
    (["moment", "--T", "500", "--theta", "inf"], "--theta"),
    (["quadform", "propb", "--N", "100", "--T", "nan"], "T"),
    (["quadform", "propb", "--N", "100", "--T", "inf"], "T"),
    (["quadform", "propb", "--N", "100", "--T", "0"], "T"),
])
def test_non_finite_argument_is_usage_error(tmp_path, capsys, argv, name):
    # a typed error naming the argument (exit 2), never a verdict with a
    # bare nan, which is not JSON
    rc, out, err = run(capsys, ["--output-dir", str(tmp_path)] + argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and f"{name} must be" in err


def test_bounds_baez_closed_form(tmp_path, capsys):
    rc, out, _ = run(capsys, ["--output-dir", str(tmp_path), "bounds", "baez",
                              "--T", "500", "--t-cap", "100"])
    assert rc == 0
    v = verdicts(out)[0]
    assert v["pass"] is True
    assert v["rhs"] == pytest.approx(4.0 * math.atan(200.0), rel=1e-12)
    assert v["tail_bound"] >= 0.0


@pytest.mark.parametrize("bound", ["propA", "thm3"])
@pytest.mark.parametrize("spec", ["minimizer", "file:/nonexistent"])
def test_bounds_refuse_other_mollifiers(tmp_path, capsys, monkeypatch,
                                        bound, spec):
    # propA and thm3 measure L_theta only: any other mollifier is refused
    # by name, before a zero is computed
    def refuse(*args):
        raise AssertionError("loaded zeros")
    monkeypatch.setattr(cli, "_load_zeros", refuse)
    rc, out, err = run(capsys, ["--output-dir", str(tmp_path), "bounds",
                                bound, "--T", "1000", "--mollifier", spec])
    assert (rc, out) == (2, "")
    assert err.startswith("error: CliError:") and "--mollifier" in err
    assert repr(spec) in err


def test_minimize_csv_is_csv_writer_bytes(tmp_path, capsys,
                                          csv_writer_bytes):
    rc, _, err = run(capsys, ["--output-dir", str(tmp_path), "quadform",
                              "minimize", "--N", "2000"])
    assert rc == 0 and err == ""
    path = tmp_path / "minimizer_2000.csv"
    a = quadform.minimizer_coeffs(2000)
    assert path.read_bytes() == csv_writer_bytes(a, tmp_path / "ref.csv")
    b = dirichlet.import_coeffs(str(path))
    assert np.array_equal(b.coeffs.view(np.int64), a.coeffs.view(np.int64))


def test_quadform_subcommands(tmp_path, capsys):
    rc, out, _ = run(capsys, ["--output-dir", str(tmp_path), "quadform",
                              "verify-diag", "--N", "50", "--trials", "3"])
    assert rc == 0
    assert verdicts(out)[0]["lhs"] <= 1e-10

    rc, out, _ = run(capsys, ["--output-dir", str(tmp_path), "quadform",
                              "minimize", "--N", "100"])
    assert rc == 0
    assert (tmp_path / "minimizer_100.csv").exists()

    rc, out, _ = run(capsys, ["--output-dir", str(tmp_path), "quadform",
                              "s-decomp", "--N", "100"])
    assert rc == 0
    v = verdicts(out)[0]
    assert v["pass"] and "s2_sign" not in v and "note" not in v

    rc, out, _ = run(capsys, ["--output-dir", str(tmp_path), "quadform",
                              "propb", "--N", "50", "--T", "1000"])
    assert rc == 0
    v = verdicts(out)[0]
    assert v["lhs"] == pytest.approx(v["rhs"], rel=1e-10)


def test_seed_changes_sdecomp_inputs(tmp_path, capsys):
    rc, out1, _ = run(capsys, ["--output-dir", str(tmp_path), "--seed", "1",
                               "quadform", "s-decomp", "--N", "80"])
    rc, out2, _ = run(capsys, ["--output-dir", str(tmp_path), "--seed", "2",
                               "quadform", "s-decomp", "--N", "80"])
    v1, v2 = verdicts(out1)[0], verdicts(out2)[0]
    assert v1["pass"] and v2["pass"]
    assert v1["S1"] != v2["S1"]


def test_cli_import_leaves_oracle_libraries_unloaded():
    code = ("import sys, mollint.cli; print(sorted(m for m in "
            "('scipy', 'mpmath', 'sympy') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_no_module_imports_scipy():
    pattern = re.compile(r"^\s*(import|from)\s+scipy\b")
    hits = [f"{path.name}:{n}"
            for path in sorted(PACKAGE_DIR.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.match(line)]
    assert hits == []


@pytest.fixture()
def sieve_limits(monkeypatch):
    """The limit of every sieve built, from an empty sieve_upto cache."""
    limits = []
    build = arith.sieve_build

    def record(limit):
        limits.append(limit)
        return build(limit)

    monkeypatch.setattr(arith, "sieve_build", record)
    arith.sieve_upto.cache_clear()
    yield limits
    arith.sieve_upto.cache_clear()


@pytest.mark.parametrize("argv, N", [
    (["moment", "--T", "2000", "--theta", "0.3", "--mollifier", "ltheta",
      "--compare-bch"], 9),
    (["quadform", "propb", "--N", "4000", "--T", "1e6"], 4000),
])
def test_sieve_sized_from_request(tmp_path, capsys, sieve_limits, argv, N):
    # floor(2000^0.3) = 9 terms need a sieve of 9, not a fixed 100,000
    rc, _, err = run(capsys, ["--output-dir", str(tmp_path)] + argv)
    assert rc == 0 and err == ""
    assert sieve_limits and max(sieve_limits) == N


PAST_CAP = str(dirichlet.MAX_CONV_LENGTH + 1)


@pytest.mark.parametrize("argv, error", [
    (["quadform", "verify-diag", "--N", str(quadform.DIRECT_CAP + 1)],
     "CliError: quadform verify-diag: --N must be <= 5000, got 5001"),
    (["quadform", "s-decomp", "--N", PAST_CAP],
     "CliError: quadform s-decomp: --N must be <= 20000000, got 20000001"),
    (["quadform", "minimize", "--N", PAST_CAP],
     "PolyLengthError: minimizer length 20000001 exceeds cap 20000000"),
    (["quadform", "propb", "--N", PAST_CAP, "--T", "1e6"],
     "PolyLengthError: minimizer length 20000001 exceeds cap 20000000"),
    (["moment", "--T", PAST_CAP, "--theta", "1", "--mollifier", "minimizer"],
     "PolyLengthError: minimizer length 20000001 exceeds cap 20000000"),
], ids=["verify-diag", "s-decomp", "minimize", "propb", "moment"])
def test_lengths_past_the_caps_refused(tmp_path, capsys, monkeypatch, argv,
                                       error):
    # refused before the first allocation, which here would fail the test
    def refuse(*args):
        raise AssertionError("allocated past the cap")
    monkeypatch.setattr(arith, "sieve_build", refuse)
    monkeypatch.setattr(cli, "default_rng", refuse)
    rc, out, err = run(capsys, ["--output-dir", str(tmp_path)] + argv)
    assert (rc, out) == (2, "")
    assert error in err


def test_minimizer_length_below_one_refused(tmp_path, capsys, monkeypatch):
    # floor(1000^-1) = 0 terms: refused by name, before any sieve is built
    def refuse(*args):
        raise AssertionError("allocated a sieve")
    monkeypatch.setattr(arith, "sieve_build", refuse)
    rc, out, err = run(capsys, ["--output-dir", str(tmp_path), "moment",
                                "--T", "1000", "--theta", "-1",
                                "--mollifier", "minimizer"])
    assert (rc, out) == (2, "")
    assert "PolyLengthError: minimizer length 0 is below 1" in err


def test_quadform_length_has_no_sieve_cap(tmp_path, capsys):
    rc, out, err = run(capsys, ["--output-dir", str(tmp_path), "quadform",
                                "propb", "--N", "150000", "--T", "1e6"])
    assert rc == 0 and err == ""
    assert verdicts(out)[0]["inputs"]["N"] == 150000


def test_sieve_limit_flag_is_ignored(tmp_path, capsys):
    argv = ["--output-dir", str(tmp_path), "quadform", "propb", "--N", "100",
            "--T", "1e6"]
    rc, out, err = run(capsys, argv)
    assert rc == 0 and err == ""
    assert run(capsys, ["--sieve-limit", "5"] + argv) == (rc, out, err)


@pytest.mark.parametrize("argv", [
    ["--nodes", "4", "bounds", "propA", "--T", "1000"],
    ["--nodes=4", "bounds", "propA", "--T", "1000"],
    ["--seed", "3", "--nodes", "4", "moment", "--T", "500"],
])
def test_unknown_global_option_is_named(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --nodes" in err
    assert "invalid choice" not in err


@pytest.mark.parametrize("argv, message", [
    (["nosuch"], "argument command: invalid choice: 'nosuch'"),
    (["--seed", "x", "moment", "--T", "500"],
     "argument --seed: invalid int value: 'x'"),
])
def test_other_usage_errors_keep_their_message(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (["moment", "--T", "2000", "--theta", "0.3", "--mollifier", "ltheta",
      "--compare-bch"], 0),
    (["--nodes", "4", "bounds", "propA", "--T", "1000"], 2),
])
def test_parser_built_once_and_reused(tmp_path, capsys, argv, code):
    assert cli.build_parser() is cli.build_parser()
    argv = ["--output-dir", str(tmp_path)] + argv

    def outputs():
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        return rc, captured.out, captured.err
    first = outputs()
    assert first[0] == code
    assert outputs() == first
