import math

import numpy as np
import pytest

import mollint.dirichlet as dirichlet
from mollint.dirichlet import (
    PolyLengthError,
    build_L_theta,
    delta_poly,
    dirichlet_convolve,
    evaluate_poly,
    evaluate_poly_many,
    export_coeffs,
    import_coeffs,
    make_poly,
    one_minus,
    windowed_sum,
    zeta_window_coeffs,
)
from mollint.smoothfn import WindowContractError, make_plateau
from mollint.zeta import zeta_critical_many


def test_l_theta_coefficients():
    L = build_L_theta(100.0, 0.5)
    assert L.length_N == 10
    assert L.coeff(1) == 1.0
    assert L.coeff(2).real == pytest.approx(
        -(1.0 - math.log(2) / math.log(10)), abs=1e-12)
    assert L.coeff(4) == 0.0  # mu(4) = 0


def test_l_theta_endpoint_taper():
    # exact integer power: the last coefficient tapers to 0
    L = build_L_theta(256.0, 0.5)
    assert L.length_N == 16
    assert abs(L.coeff(16)) <= 1e-12


@pytest.mark.parametrize("T, theta, name", [
    (math.nan, 0.5, "T"), (math.inf, 0.5, "T"), (5.0, 0.5, "T"),
    (100.0, math.nan, "theta"), (100.0, math.inf, "theta"),
])
def test_l_theta_rejects_bad_arguments(T, theta, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        build_L_theta(T, theta)


def test_zeta_window_plateau_and_edge(sieve):
    w = make_plateau((0.0, 1.0), (0.0, 0.5))
    Z = zeta_window_coeffs(100.0, 0.2, w)
    assert Z.coeff(1) == 1.0
    assert abs(Z.coeff(Z.length_N)) <= 1e-3  # window tail
    # plateau half: all coefficients up to T1/2 exactly 1
    assert Z.coeff(Z.length_N // 2 - 1) == 1.0


def test_zeta_window_contract():
    bad = make_plateau((0.0, 2.0), (0.0, 1.0))  # support exceeds [0,1]
    with pytest.raises(WindowContractError):
        zeta_window_coeffs(100.0, 0.2, bad)


def test_zeta_window_approximates_zeta(sieve):
    w = make_plateau((0.0, 1.0), (0.0, 0.5))
    Z = zeta_window_coeffs(500.0, 0.2, w)
    ts = np.linspace(500.0, 1000.0, 50)
    err = np.abs(evaluate_poly_many(Z, 0.5, ts) - zeta_critical_many(ts))
    assert np.max(err) <= 1e-4


def test_convolution_identity_and_sparse():
    A = make_poly([1.0, 0.5, -0.25])
    assert np.allclose(dirichlet_convolve(A, delta_poly()).coeffs[1:4],
                       A.coeffs[1:])
    B = dirichlet_convolve(make_poly([0, 1.0]), make_poly([0, 0, 1.0]))
    assert B.length_N == 6
    assert B.coeff(6) == 1.0
    assert np.count_nonzero(B.coeffs) == 1


def test_convolution_commutes(rng):
    a = make_poly(rng.normal(size=12) + 1j * rng.normal(size=12))
    b = make_poly(rng.normal(size=7) + 1j * rng.normal(size=7))
    ab = dirichlet_convolve(a, b)
    ba = dirichlet_convolve(b, a)
    assert np.array_equal(ab.coeffs, ba.coeffs)


def test_convolution_length_cap():
    a = make_poly(np.ones(5000))
    with pytest.raises(PolyLengthError):
        dirichlet_convolve(a, a)


def test_evaluate_phase_oracle():
    A = make_poly([1.0, 1.0])
    v = evaluate_poly(A, 0.5, math.pi / math.log(2.0))
    assert v == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), abs=1e-14)
    assert evaluate_poly(delta_poly(), 3.0, 42.0) == 1.0


def test_evaluate_plain_sum_at_origin(rng):
    c = rng.normal(size=30)
    A = make_poly(c)
    assert evaluate_poly(A, 0.0, 0.0) == pytest.approx(math.fsum(c), rel=1e-15)


def test_evaluate_linearity(rng):
    c1 = rng.normal(size=20) + 1j * rng.normal(size=20)
    c2 = rng.normal(size=20) + 1j * rng.normal(size=20)
    s, t = 0.5, 33.3
    lhs = evaluate_poly(make_poly(2.0 * c1 - 3.0 * c2), s, t)
    rhs = 2.0 * evaluate_poly(make_poly(c1), s, t) \
        - 3.0 * evaluate_poly(make_poly(c2), s, t)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_evaluate_many_matches_scalar(rng):
    A = make_poly(rng.normal(size=50) + 1j * rng.normal(size=50))
    ts = np.array([0.0, 3.7, 1000.1])
    many = evaluate_poly_many(A, 0.5, ts)
    for i, t in enumerate(ts):
        assert many[i] == pytest.approx(evaluate_poly(A, 0.5, float(t)),
                                        rel=1e-12)


def test_windowed_sum_reproduces_evaluation(rng):
    N = 80
    A = make_poly(rng.normal(size=N) + 1j * rng.normal(size=N))
    hi = math.log(N) / (2.0 * math.pi)
    f = make_plateau((-0.2, hi + 0.2), (-0.1, hi + 0.1))
    for u in (0.0, 2.5, -11.0):
        assert windowed_sum(A, f, u) == evaluate_poly(A, 0.0, u)


def test_windowed_sum_truncates(rng):
    N = 50
    A = make_poly(rng.normal(size=N))
    # plateau covering only n <= 10, zero from n = 12 on
    lo, hi = math.log(10.5) / (2 * math.pi), math.log(11.8) / (2 * math.pi)
    f = make_plateau((-0.1, hi), (-0.05, lo))
    truncated = make_poly(A.coeffs[1:12].copy())
    u = 4.2
    got = windowed_sum(A, f, u)
    # n = 11 sits on the ramp; compare against the explicitly weighted sum
    manual = sum(A.coeffs[n] * np.exp(-1j * u * math.log(n))
                 * f(math.log(n) / (2 * math.pi)) for n in range(1, N + 1))
    assert got == pytest.approx(manual, rel=1e-12)
    assert abs(got - evaluate_poly(truncated, 0.0, u)) <= abs(A.coeffs[11])


def test_one_minus():
    A = make_poly([0.25, 0.5])
    F = one_minus(A)
    assert F.coeff(1) == 0.75
    assert F.coeff(2) == -0.5


def test_csv_roundtrip(tmp_path, rng):
    A = make_poly(rng.normal(size=9) + 1j * rng.normal(size=9))
    path = tmp_path / "a.csv"
    export_coeffs(A, path)
    B = import_coeffs(path)
    assert np.array_equal(A.coeffs, B.coeffs)


@pytest.mark.parametrize("chunk", [1, 4])
def test_csv_bytes_across_export_chunks(tmp_path, monkeypatch, chunk):
    # the rows go out EXPORT_ROWS at a time: one row a chunk, and a short
    # last chunk, write the bytes of a single chunk
    A = make_poly(np.arange(1.0, 7.0) / 3.0 - 1j / np.arange(1.0, 7.0))
    one, many = tmp_path / "one.csv", tmp_path / "many.csv"
    export_coeffs(A, one)
    monkeypatch.setattr(dirichlet, "EXPORT_ROWS", chunk)
    export_coeffs(A, many)
    assert many.read_bytes() == one.read_bytes()


def test_csv_bytes_match_csv_writer(tmp_path, csv_writer_bytes):
    vals = [-0.0, 1e-300, 5e-324, 1.7976931348623157e308, -2.5e-17, 1.0 / 3.0]
    A = make_poly([complex(r, i) for r, i in zip(vals, vals[::-1])])
    path = tmp_path / "a.csv"
    export_coeffs(A, path)
    assert path.read_bytes() == csv_writer_bytes(A, tmp_path / "ref.csv")
    B = import_coeffs(path)
    # bitwise, so that -0.0 and the subnormal survive exactly
    assert np.array_equal(A.coeffs.view(np.int64), B.coeffs.view(np.int64))


def test_csv_bytes_per_block_kind(tmp_path, monkeypatch, csv_writer_bytes):
    # blocks of 3 rows whose imaginary parts are all +0.0 (the constant
    # "0.0" template) alternate with blocks that hold a -0.0, nonzero
    # imaginary parts, and nan, +-inf and subnormal real parts
    monkeypatch.setattr(dirichlet, "EXPORT_ROWS", 3)
    inf, nan, sub = math.inf, math.nan, 5e-324
    blocks = [
        [1.0, -0.5, 1.0 / 3.0],
        [complex(2.0, 0.0), complex(-1e-300, -0.0), complex(-0.0, 0.0)],
        [7.25, 0.1, 1e16],
        [complex(0.5, 1.0 / 7.0), complex(-3.0, -2.5e-17), complex(1e300, sub)],
        [-0.0, 2.0 ** -1074, 123456789.0],
        [complex(nan, 0.0), complex(inf, 0.0), complex(-inf, 0.0)],
        [complex(sub, 0.0), complex(-sub, 0.0), 1.0],
        [complex(nan, 1.0), complex(-inf, -0.0), complex(-sub, 2.0)],
        [4.0],
    ]
    A = make_poly([complex(c) for blk in blocks for c in blk])
    path = tmp_path / "a.csv"
    export_coeffs(A, path)
    assert path.read_bytes() == csv_writer_bytes(A, tmp_path / "ref.csv")


def test_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,y,z\n1,0,0\n")
    with pytest.raises(ValueError, match="header"):
        import_coeffs(p)
    p.write_text("n,re,im\n1,zz,0\n")
    with pytest.raises(ValueError, match=":2:"):
        import_coeffs(p)
    # a repeated index, not the last of its rows kept
    p.write_text("n,re,im\n1,1,0\n2,0.5,0\n2,0.25,0\n")
    with pytest.raises(ValueError, match=r"bad\.csv:4: index 2 .*repeated"):
        import_coeffs(p)
    for re_im in ("nan,0", "0,nan", "inf,0", "0,-inf"):
        p.write_text(f"n,re,im\n1,1,0\n2,{re_im}\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3: non-finite"):
            import_coeffs(p)
    # an index past the cap is refused while parsing, before the array is
    # sized from it
    n = dirichlet.MAX_CONV_LENGTH + 1
    p.write_text(f"n,re,im\n1,1,0\n{n},1,0\n")
    with pytest.raises(PolyLengthError, match=rf"bad\.csv:3: index {n} "):
        import_coeffs(p)
