import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest

import mollint
from mollint.cli import main
from mollint.zeta import RVM_ENVELOPE

PACKAGE_DIR = pathlib.Path(mollint.__file__).parent


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def verdicts(out):
    lines = [ln for ln in out.splitlines() if ln.strip()]
    return [json.loads(ln) for ln in lines]


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


def test_moment_resolution_refused(tmp_path, capsys):
    rc, out, err = run(capsys, ["--output-dir", str(tmp_path), "--panels",
                                "10", "moment", "--T", "500"])
    assert rc == 2
    assert err.startswith("error:")
    rc, out, _ = run(capsys, ["--output-dir", str(tmp_path), "--panels", "10",
                              "moment", "--T", "500", "--force"])
    assert rc == 0
    assert verdicts(out)[0]["inputs"]["panels"] == 10


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
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("pannels=10\n")
    rc, _, err = run(capsys, ["--config", str(cfg), "moment", "--T", "500"])
    assert rc == 2
    assert "unknown key" in err


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


def test_zeros_compute_tolerance_is_envelope(tmp_path, capsys):
    # the verdict's pass is the table's completeness claim, decided at the
    # RVM envelope, so the printed tolerance must be that envelope
    rc, out, _ = run(capsys, ["--output-dir", str(tmp_path), "zeros",
                              "compute", "--t0", "10", "--t1", "100"])
    assert rc == 0
    (v,) = verdicts(out)
    assert v["tolerance"] == RVM_ENVELOPE
    assert v["pass"] == (abs(v["lhs"] - v["rhs"]) <= v["tolerance"])


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


def test_bounds_baez_closed_form(tmp_path, capsys):
    rc, out, _ = run(capsys, ["--output-dir", str(tmp_path), "bounds", "baez",
                              "--T", "500", "--t-cap", "100"])
    assert rc == 0
    v = verdicts(out)[0]
    assert v["pass"] is True
    assert v["rhs"] == pytest.approx(4.0 * math.atan(200.0), rel=1e-12)
    assert v["tail_bound"] >= 0.0


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
