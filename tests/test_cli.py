import argparse
import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from sympetf import cli
from sympetf.cli import build_parser, main
from sympetf import certify_etf
from sympetf.frames import factor_gram, gram, omega
from sympetf.hadamard import (
    hadamard_to_etf_core,
    hadamard_to_etf_square,
    is_skew_conference,
    is_skew_hadamard,
    normalize_conference,
    seed_hadamard,
)
from sympetf.matio import read_matrix, write_matrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = dict(
        line.split("=", 1) for line in captured.out.strip().splitlines() if "=" in line
    )
    return code, report, captured.err


def test_matrix_file_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    cases = [
        ("int", rng.integers(-3, 4, size=(3, 5)).astype(np.int64)),
        ("real", rng.normal(size=(2, 4))),
        ("complex", rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))),
    ]
    for kind, mat in cases:
        path = tmp_path / f"m_{kind}.symf"
        write_matrix(path, mat, kind)
        kind2, mat2 = read_matrix(path)
        assert kind2 == kind
        np.testing.assert_array_equal(mat2, mat)
        # canonical formatting: rewrite is byte-identical
        path2 = tmp_path / f"m_{kind}_2.symf"
        write_matrix(path2, mat2, kind2)
        assert path.read_bytes() == path2.read_bytes()


def test_matrix_file_comments_and_errors(tmp_path):
    path = tmp_path / "c.symf"
    path.write_text("# a comment\nsymf int 2 2\n0 1\n-1 0\n# trailing\n")
    kind, mat = read_matrix(path)
    assert kind == "int"
    np.testing.assert_array_equal(mat, [[0, 1], [-1, 0]])
    bad = tmp_path / "bad.symf"
    bad.write_text("symf int 2 2\n0 1\n")
    with pytest.raises(ValueError):
        read_matrix(bad)


def test_int_entries_beyond_int64_are_a_value_error(tmp_path):
    path = tmp_path / "big.symf"
    path.write_text("symf int 2 2\n0 99999999999999999999\n-1 0\n")
    with pytest.raises(ValueError, match="signed 64-bit"):
        read_matrix(path)
    path.write_text(f"symf int 1 2\n{2**63 - 1} {-(2**63)}\n")
    np.testing.assert_array_equal(read_matrix(path)[1], [[2**63 - 1, -(2**63)]])


MALFORMED = {
    "non-square": "symf int 2 3\n0 1 1\n-1 0 1\n",
    "odd-rows": "symf real 3 2\n1 0\n0 1\n1 1\n",
    "non-skew": "symf real 2 2\n0 1\n1 0\n",
    "beyond-int64": "symf int 2 2\n0 99999999999999999999\n-1 0\n",
    # a header that would size an 800 TB array before any row is read
    "cols-beyond-row": "symf int 1 100000000000000\n0\n",
}


@pytest.mark.parametrize(
    "fixture, argv, code",
    [
        pytest.param("non-square", ["verify", "hadamard"], 2, id="verify-hadamard"),
        pytest.param("non-square", ["verify", "conference"], 2, id="verify-conference"),
        pytest.param("non-square", ["verify", "doubly-regular"], 1, id="verify-doubly-regular"),
        pytest.param("non-square", ["diamonds"], 1, id="diamonds"),
        pytest.param(
            "non-square",
            ["convert", "--from", "hadamard", "--to", "etf-core", "--out", "out.symf"],
            2,
            id="convert-from-hadamard",
        ),
        pytest.param("odd-rows", ["verify", "frame"], 2, id="verify-frame"),
        pytest.param("non-skew", ["factor", "--out", "out.symf"], 1, id="factor"),
        pytest.param("non-skew", ["verify", "etf", "--dim", "2"], 1, id="verify-etf"),
        pytest.param("beyond-int64", ["verify", "hadamard"], 2, id="int-beyond-int64"),
        pytest.param("cols-beyond-row", ["verify", "hadamard"], 2, id="header-cols-beyond-row"),
    ],
)
def test_malformed_input_exit_code_and_one_line_error(tmp_path, fixture, argv, code):
    (tmp_path / "in.symf").write_text(MALFORMED[fixture])
    proc = run_module(tmp_path, *argv, "in.symf")
    assert proc.returncode == code
    assert_one_line_error(proc)
    assert not (tmp_path / "out.symf").exists()


# entries whose squares overflow float64: two skew 3 x 3 (a d = 2 core ETF Gram
# at mu = 1e300 and at mu = 1e308, whose sums and differences overflow too)
# and a 2 x 2 that is not skew
HUGE = {
    "skew-1e300": "symf real 3 3\n0 1e300 -1e300\n-1e300 0 1e300\n1e300 -1e300 0\n",
    "skew-1e308": "symf real 3 3\n0 1e308 -1e308\n-1e308 0 1e308\n1e308 -1e308 0\n",
    "non-skew-1e155": "symf real 2 2\n0 1e155\n0 0\n",
}
HUGE_COMMANDS = [
    ["verify", "tight", "in.symf", "--dim", "2"],
    ["verify", "etf", "in.symf", "--dim", "2"],
    ["factor", "in.symf", "--out", "out.symf"],
    ["convert", "--from", "etf-core", "--to", "hadamard", "in.symf", "--out", "out.symf"],
    ["convert", "--from", "etf-square", "--to", "complex-signature", "in.symf", "--out", "out.symf"],
]


@pytest.mark.parametrize("argv", HUGE_COMMANDS, ids=["verify-tight", "verify-etf", "factor", "etf-core-to-hadamard",
                                                   "etf-square-to-complex-signature"])
@pytest.mark.parametrize("fixture", HUGE)
def test_entries_near_the_float64_limit_warn_nothing(tmp_path, fixture, argv):
    (tmp_path / "in.symf").write_text(HUGE[fixture])
    proc = run_module(tmp_path, *argv)
    assert proc.returncode in (0, 1, 2)
    assert proc.stderr.count("\n") <= 1 and "Warning" not in proc.stderr
    assert "residual=inf" not in proc.stdout
    if fixture == "non-skew-1e155":  # the skew check measures its norms without overflow
        assert proc.returncode == 1 and proc.stderr.startswith("error: asymmetry 1.414e+155 ")


@pytest.mark.parametrize("argv, head", [
    (["verify", "etf", "in.symf", "--dim", "2"], "verified=true\nd=2\nn=3\nmu=1e+308\n"),
    (["convert", "--from", "etf-core", "--to", "hadamard", "in.symf", "--out", "out.symf"], "order=4\n"),
    (["factor", "in.symf", "--out", "out.symf"], "d=2\nn=3\nresidual="),
], ids=["verify-etf", "etf-core-to-hadamard", "factor"])
def test_a_core_etf_gram_at_mu_1e308_verifies_converts_and_factors(tmp_path, argv, head):
    # its mean modulus and its antisymmetrization (g - g.T) / 2 each pass through 2e308
    (tmp_path / "in.symf").write_text(HUGE["skew-1e308"])
    proc = run_module(tmp_path, *argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(head)


@pytest.mark.parametrize("text, argv", [
    ("symf real 2 1\n-1e200\n1e155\n", ["double", "--level", "frame", "in.symf", "--out", "out.symf"]),
    ("symf real 2 2\n0 1e308\n-1e308 0\n", ["verify", "frame", "in.symf"]),
], ids=["double-frame", "verify-frame"])
def test_a_frame_operator_past_float64_range_is_one_usage_error(tmp_path, text, argv):
    # the frame operator's entries (1e400, 1e616) have no float64 value
    (tmp_path / "in.symf").write_text(text)
    proc = run_module(tmp_path, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: overflow encountered in matmul\n")
    assert not (tmp_path / "out.symf").exists()


def run_module(cwd, *argv, preexec_fn=None, stdout=subprocess.PIPE):
    """Run ``python -m sympetf`` on this checkout's sources in a child process."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run(
        [sys.executable, "-m", "sympetf", *argv],
        cwd=cwd, env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, preexec_fn=preexec_fn,
    )


def assert_one_line_error(proc):
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def _flip_pair(s):
    out = s.copy()
    out[1, 2], out[2, 1] = -s[1, 2], -s[2, 1]
    return out


ROUNDING = "error: rounded matrix failed the exact skew Hadamard check"


def _near_miss(src, m):
    """The square (H - I) or core ETF Gram of a seed of order m, with one reversed edge.

    For "frame" it is a synthesis matrix of the square near miss.
    """
    h = seed_hadamard(m)
    eye = np.eye(m, dtype=np.int64)
    if src == "frame":
        return factor_gram(_flip_pair(h - eye).astype(float))
    gram_of = {"etf-square": h - eye, "etf-core": normalize_conference(h - eye)[0][1:, 1:]}
    return _flip_pair(gram_of[src])


@pytest.mark.parametrize(
    "src, argv",
    [
        pytest.param("etf-square", ["convert", "--from", "etf-square", "--to", "hadamard"],
                     id="square-hadamard"),
        pytest.param("etf-core", ["convert", "--from", "etf-core", "--to", "hadamard"],
                     id="core-hadamard"),
        pytest.param("etf-core", ["convert", "--from", "etf-core", "--to", "complex-signature"],
                     id="core-signature"),
        pytest.param("etf-square", ["convert", "--from", "etf-square", "--to", "complex-signature"],
                     id="square-signature"),
        pytest.param("frame", ["double", "--level", "frame"], id="square-double-frame"),
    ],
)
def test_certified_near_miss_conversion_is_a_domain_error(tmp_path, src, argv):
    # a Gram with one reversed edge is equiangular and rounds exactly, so the
    # exact conference check refuses it, with one error under any --tol
    for m in (16, 64):
        write_matrix(tmp_path / "in.symf", _near_miss(src, m))
        cmd = [*argv, "in.symf", "--out", "out.symf"]
        for tol in (("--tol", "0.5"), ()):
            proc = run_module(tmp_path, *cmd, *tol)
            assert proc.returncode == 1
            assert_one_line_error(proc)
            assert proc.stderr == ROUNDING + "\n"
            assert not (tmp_path / "out.symf").exists()


@pytest.mark.parametrize("m", [16, 64])
@pytest.mark.parametrize("src", ["etf-square", "etf-core"])
def test_verify_etf_refuses_a_certified_near_miss(tmp_path, src, m):
    # not an ETF is a verdict: verified=false and exit 1, with nothing on stderr
    write_matrix(tmp_path / "in.symf", _near_miss(src, m))
    d = m if src == "etf-square" else m - 2
    for tol in (("--tol", "0.5"), ()):
        proc = run_module(tmp_path, "verify", "etf", "in.symf", "--dim", str(d), *tol)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "verified=false\n", "")


BUDGETS = [
    ("--n", "16", "--dim", "16", "--p", "300", "--max-iters", "50"),
]


@pytest.mark.parametrize("argv", BUDGETS, ids=["-".join(argv) for argv in BUDGETS])
def test_search_budget_is_checked_at_the_boundary(tmp_path, argv):
    # an order p that overflows float64 is refused without numpy warnings.
    # argv comes last, so its --n and --dim win.
    proc = run_module(tmp_path, "search", "--mode", "continuous", "--n", "3", "--dim", "2",
                      "--restarts", "2", *argv)
    assert proc.returncode == 2
    assert_one_line_error(proc)
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("flag", [("--step", "0.1"), ("--target-residual", "1e-3")],
                         ids=["step", "target-residual"])
@pytest.mark.parametrize("mode", [("discrete", "--n", "8"), ("continuous", "--n", "3", "--dim", "2")],
                         ids=["discrete", "continuous"])
def test_the_search_constants_are_not_flags(tmp_path, mode, flag):
    # the first step and the stop margin are SearchConfig constants: argparse refuses them
    proc = run_module(tmp_path, "search", "--mode", *mode, "--restarts", "2", "--out", "out.symf", *flag)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert proc.stderr.endswith(f"error: unrecognized arguments: {' '.join(flag)}\n")
    assert not (tmp_path / "out.symf").exists()


@pytest.mark.parametrize("mode", [("discrete", "--n", "8"), ("continuous", "--n", "3", "--dim", "2")],
                         ids=["discrete", "continuous"])
def test_negative_seed_is_a_one_line_usage_error_that_names_the_seed(tmp_path, mode):
    # numpy's own refusal used to surface as "expected non-negative integer"
    proc = run_module(tmp_path, "search", "--mode", *mode, "--seed", "-1")
    assert proc.returncode == 2
    assert_one_line_error(proc)
    assert proc.stderr == "error: seed must be >= 0, got -1\n"


def _address_space_cap():
    """A child preexec_fn capping its address space at 512 MiB, so a regression
    that allocates touches at most that much."""
    resource = pytest.importorskip("resource")
    cap = 512 * 2**20
    return lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def test_search_beyond_memory_is_a_one_line_usage_error(tmp_path):
    # n = 10^8 would need an 8.9 PiB mask, more than any address space; the
    # search refuses it by its size bound before allocating anything
    proc = run_module(tmp_path, "search", "--mode", "discrete", "--n", str(10**8),
                      preexec_fn=_address_space_cap())
    assert proc.returncode == 2
    assert_one_line_error(proc)
    assert proc.stderr.startswith("error: discrete search is limited to n <= 1024, got ")


def test_continuous_search_beyond_its_bound_is_a_one_line_usage_error(tmp_path):
    # --dim 10^8 would need an omega of 8 * 10^16 bytes; the bound comes first
    proc = run_module(tmp_path, "search", "--mode", "continuous", "--dim", str(10**8), "--n", str(10**8),
                      preexec_fn=_address_space_cap())
    assert proc.returncode == 2
    assert_one_line_error(proc)
    assert proc.stderr == f"error: continuous search is limited to n <= 1024, got {10**8}\n"


def _closed_pipe():
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


@pytest.mark.parametrize("sink", ["full", "closed-pipe"])
def test_unwritable_stdout_is_a_one_line_usage_error(tmp_path, sink):
    # the report's write fails (ENOSPC or EPIPE); the exit flush must not fail again
    if sink == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    write_matrix(tmp_path / "k.symf", hadamard_to_etf_core(seed_hadamard(8)), "real")
    fd = os.open("/dev/full", os.O_WRONLY) if sink == "full" else _closed_pipe()
    try:
        proc = run_module(tmp_path, "verify", "etf", "k.symf", "--dim", "6", stdout=fd)
    finally:
        os.close(fd)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write the report: ") and proc.stderr.count("\n") == 1
    assert "Exception ignored" not in proc.stderr and "Traceback" not in proc.stderr


def test_verify_etf(tmp_path, capsys, conf4):
    path = tmp_path / "c4.symf"
    write_matrix(path, conf4, "int")
    code, report, _ = run(capsys, "verify", "etf", str(path), "--dim", "4")
    assert code == 0
    assert report["verified"] == "true"
    assert report["mu"] == "1"
    assert report["c"].startswith("1.7320508")
    # odd dimension is a usage error
    code, _, err = run(capsys, "verify", "etf", str(path), "--dim", "3")
    assert code == 2 and "even" in err


def test_verify_hadamard_failure(tmp_path, capsys):
    path = tmp_path / "ones.symf"
    write_matrix(path, np.ones((4, 4), dtype=np.int64), "int")
    code, report, _ = run(capsys, "verify", "hadamard", str(path))
    assert code == 1
    assert report["verified"] == "false"


def test_verify_frame_and_tight(tmp_path, capsys, phi_basic):
    path = tmp_path / "phi.symf"
    write_matrix(path, phi_basic, "real")
    code, report, _ = run(capsys, "verify", "frame", str(path))
    assert code == 0
    assert report["verified"] == "true"
    assert report["lower"].startswith("1.414")
    gpath = tmp_path / "g.symf"
    write_matrix(gpath, gram(phi_basic), "real")
    code, report, _ = run(capsys, "verify", "tight", str(gpath), "--dim", "2")
    assert code == 0
    assert report["c"].startswith("1.414")


def test_verify_frame_runs_one_rank_svd(tmp_path, capsys, phi_basic):
    # one SVD for the rank, one for the bounds from the Gram
    path = tmp_path / "phi.symf"
    write_matrix(path, phi_basic, "real")
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        code, report, _ = run(capsys, "verify", "frame", str(path))
    assert (code, report["verified"]) == (0, "true")
    assert svd.call_count == 2


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "etf", "/nonexistent.symf", "--dim", "4")
    assert code == 2 and "cannot read" in err


def test_verify_conference_and_doubly_regular(tmp_path, capsys, conf4, core3):
    cpath = tmp_path / "c.symf"
    write_matrix(cpath, conf4, "int")
    code, report, _ = run(capsys, "verify", "conference", str(cpath))
    assert code == 0 and report["verified"] == "true"
    kpath = tmp_path / "k.symf"
    write_matrix(kpath, core3, "int")
    code, report, _ = run(capsys, "verify", "doubly-regular", str(kpath))
    assert code == 0 and report["verified"] == "true"
    # an integer matrix that is not a Seidel matrix is a domain failure
    bad = tmp_path / "bad.symf"
    write_matrix(bad, np.ones((3, 3), dtype=np.int64), "int")
    code, _, err = run(capsys, "verify", "doubly-regular", str(bad))
    assert code == 1


def test_verify_signature_cli(tmp_path, capsys, conf4):
    qpath = tmp_path / "q.symf"
    write_matrix(qpath, (1j * conf4).astype(complex), "complex")
    code, report, _ = run(capsys, "verify", "signature", str(qpath), "--dim", "2")
    assert code == 0 and report["verified"] == "true"
    code, report, _ = run(capsys, "verify", "signature", str(qpath), "--dim", "1")
    assert code == 1 and report["verified"] == "false"


def test_factor(tmp_path, capsys, gram_tight):
    gpath = tmp_path / "g.symf"
    write_matrix(gpath, gram_tight, "real")
    out = tmp_path / "phi.symf"
    code, report, _ = run(capsys, "factor", str(gpath), "--out", str(out))
    assert code == 0
    assert float(report["residual"]) <= 1e-12
    _, phi = read_matrix(out)
    assert phi.shape == (2, 3)
    np.testing.assert_allclose(gram(phi), gram_tight, atol=1e-12)
    # the zero matrix has no factorization
    zpath = tmp_path / "z.symf"
    write_matrix(zpath, np.zeros((3, 3)), "real")
    code, _, err = run(capsys, "factor", str(zpath), "--out", str(out))
    assert code == 1


def test_convert_pipeline(tmp_path, capsys, conf4, core3):
    kpath = tmp_path / "k.symf"
    write_matrix(kpath, core3, "int")
    hpath = tmp_path / "h.symf"
    code, report, _ = run(
        capsys, "convert", "--from", "etf-core", "--to", "hadamard", str(kpath), "--out", str(hpath)
    )
    assert code == 0 and report["order"] == "4"
    _, h = read_matrix(hpath)
    assert is_skew_hadamard(h)
    # hadamard -> etf-core on an order-8 seed gives a certified (6,7) Gram
    h8 = tmp_path / "h8.symf"
    write_matrix(h8, seed_hadamard(8), "int")
    k7 = tmp_path / "k7.symf"
    code, _, _ = run(capsys, "convert", "--from", "hadamard", "--to", "etf-core", str(h8), "--out", str(k7))
    assert code == 0
    _, k = read_matrix(k7)
    assert certify_etf(k.astype(float), 6) is not None
    # etf-square -> complex signature has entries 0 and +-i
    cpath = tmp_path / "c4.symf"
    write_matrix(cpath, conf4, "int")
    qpath = tmp_path / "q.symf"
    code, _, _ = run(
        capsys, "convert", "--from", "etf-square", "--to", "complex-signature", str(cpath), "--out", str(qpath)
    )
    assert code == 0
    _, q = read_matrix(qpath)
    assert np.max(np.abs(q.real)) == 0.0
    assert set(np.unique(np.abs(q.imag))) == {0.0, 1.0}
    # unsupported pair
    code, _, err = run(
        capsys, "convert", "--from", "etf-core", "--to", "etf-square", str(kpath), "--out", str(qpath)
    )
    assert code == 2


def test_double_and_diamonds(tmp_path, capsys, conf4):
    h4 = tmp_path / "h4.symf"
    write_matrix(h4, conf4 + np.eye(4, dtype=np.int64), "int")
    h8 = tmp_path / "h8.symf"
    code, report, _ = run(capsys, "double", "--level", "hadamard", str(h4), "--out", str(h8))
    assert code == 0 and report["order"] == "8"
    k7 = tmp_path / "k7.symf"
    code, _, _ = run(capsys, "convert", "--from", "hadamard", "--to", "etf-core", str(h8), "--out", str(k7))
    assert code == 0
    code, report, _ = run(capsys, "diamonds", str(k7))
    assert code == 0
    assert report["delta"] == "14"
    assert report["bound"] == "14"
    assert report["saturated"] == "true"
    code, report, _ = run(capsys, "diamonds", str(k7), "--method", "brute")
    assert code == 0 and report["delta"] == "14"


def test_diamond_counts_that_disagree_are_a_verdict_with_one_error_line(tmp_path, capsys, monkeypatch, core3):
    # the report keeps both counts on stdout; main prints the error field on stderr
    path = tmp_path / "k3.symf"
    write_matrix(path, core3, "int")
    monkeypatch.setitem(cli._DIAMOND_COUNTERS, "brute", lambda s: -1)
    assert main(["diamonds", str(path)]) == 1
    assert capsys.readouterr() == ("delta_brute=-1\ndelta_formula=0\n", "error: diamond counts disagree\n")


def test_double_frame_cli(tmp_path, capsys):
    phi = tmp_path / "phi.symf"
    write_matrix(phi, np.eye(2), "real")
    out = tmp_path / "f.symf"
    code, report, _ = run(capsys, "double", "--level", "frame", str(phi), "--out", str(out))
    assert code == 0 and report["d"] == "4"
    _, f = read_matrix(out)
    assert certify_etf(gram(f), 4) is not None


def test_factor_has_no_tol_flag(tmp_path):
    write_matrix(tmp_path / "g.symf", hadamard_to_etf_square(seed_hadamard(8)), "real")
    proc = run_module(tmp_path, "factor", "g.symf", "--out", "phi.symf", "--tol", "0.9")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "unrecognized arguments: --tol 0.9" in proc.stderr
    assert not (tmp_path / "phi.symf").exists()


def test_double_hadamard_refuses_tol(tmp_path):
    write_matrix(tmp_path / "h.symf", seed_hadamard(8), "int")
    proc = run_module(tmp_path, "double", "--level", "hadamard", "h.symf", "--out", "out.symf",
                      "--tol", "0.5")
    assert proc.returncode == 2
    assert_one_line_error(proc)
    assert not (tmp_path / "out.symf").exists()


def test_double_frame_tol_keeps_the_bytes(tmp_path, capsys):
    phi = tmp_path / "phi.symf"
    write_matrix(phi, factor_gram(hadamard_to_etf_square(seed_hadamard(8))), "real")
    reports = []
    for name, tol in (("plain.symf", ()), ("tol.symf", ("--tol", "0.5"))):
        assert main(["double", "--level", "frame", str(phi), "--out", str(tmp_path / name), *tol]) == 0
        reports.append(capsys.readouterr())
    assert reports[0] == reports[1] and reports[0].out == "d=16\nn=16\n"
    assert (tmp_path / "plain.symf").read_bytes() == (tmp_path / "tol.symf").read_bytes()


def _unread_inputs(tmp_path):
    """Inputs each command accepts without the unread flag, by argv file placeholder."""
    h = seed_hadamard(8)
    eye = np.eye(8, dtype=np.int64)
    files = {"frame": factor_gram(hadamard_to_etf_square(h)), "conference": h - eye,
             "hadamard": h, "doubly-regular": normalize_conference(h - eye)[0][1:, 1:]}
    for name, mat in files.items():
        write_matrix(tmp_path / f"{name}.symf", mat)
    return {"{%s}" % name: str(tmp_path / f"{name}.symf") for name in files}


UNREAD = [
    *[(["verify", kind, "{%s}" % kind], flag, f"verify {kind}")
      for kind in ("frame", "conference", "hadamard", "doubly-regular")
      for flag in (("--dim", "8"), ("--tol", "0.5"))],
    *[(["convert", "--from", "hadamard", "--to", to, "{hadamard}", "--out", "{out}"], ("--tol", "0.5"),
       "convert --from hadamard") for to in ("etf-square", "etf-core")],
    *[(["search", "--mode", "discrete", "--n", "8", "--seed", "7", "--out", "{out}"], flag,
       "search --mode discrete")
      for flag in (("--dim", "8"), ("--p", "2"))],
]


@pytest.mark.parametrize("argv, flag, what", UNREAD,
                         ids=[f"{what}-{flag[0]}" for _, flag, what in UNREAD])
def test_a_flag_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, argv, flag, what):
    names = {**_unread_inputs(tmp_path), "{out}": str(tmp_path / "out.symf")}
    argv = [names.get(a, a) for a in argv]
    assert main([*argv, *flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not (tmp_path / "out.symf").exists()
    assert captured.err == f"error: {flag[0]} does not apply to {what}\n"
    # the same command without the flag runs
    assert main(argv) == 0


def test_each_optional_flag_is_read_somewhere_and_policed_where_it_is_not():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    reads = {"verify": {kind: r for kind, (_, r) in cli._VERIFIERS.items()},
             "convert": cli._CONVERT_READS, "double": cli._DOUBLE_READS, "search": cli._SEARCH_READS}
    conditional = set()
    for command, table in reads.items():
        optional = {a.dest for a in subparsers[command]._actions
                    if a.option_strings and not a.required} - {"help"}
        read_by_some = set().union(*table.values())
        read_by_all = set.intersection(*map(set, table.values()))
        assert read_by_some == optional, command  # no name the parser lacks, no flag read nowhere
        conditional |= read_by_some - read_by_all
    assert conditional == set(cli._CONDITIONAL)


@pytest.mark.parametrize("argv, defaults", [
    (["--mode", "discrete", "--n", "8", "--seed", "7"], ["--restarts", "10", "--max-iters", "2000"]),
    (["--mode", "continuous", "--n", "3", "--dim", "2", "--restarts", "5"],
     ["--seed", "0", "--p", "2", "--max-iters", "2000"]),
], ids=["discrete", "continuous"])
def test_search_flags_left_out_take_the_search_config_defaults(capsys, argv, defaults):
    reports = []
    for extra in ((), defaults):
        reports.append((main(["search", *argv, *extra]), capsys.readouterr().out))
    assert reports[0] == reports[1] and "best_value=" in reports[0][1]


def test_search_cli(tmp_path, capsys):
    out = tmp_path / "conf.symf"
    code, report, _ = run(
        capsys, "search", "--mode", "discrete", "--n", "8", "--seed", "7", "--restarts", "8",
        "--out", str(out),
    )
    assert code == 0
    assert report["success"] == "true"
    _, s = read_matrix(out)
    assert is_skew_conference(s)
    # no skew conference matrix of order 6 exists: a miss prints false, not False
    code, report, _ = run(capsys, "search", "--mode", "discrete", "--n", "6", "--restarts", "2")
    assert code == 1 and report["success"] == "false"
    code, report, _ = run(
        capsys, "search", "--mode", "continuous", "--n", "3", "--dim", "2", "--p", "2",
        "--seed", "1234", "--restarts", "5",
    )
    assert code == 0 and report["success"] == "true"


def test_gen_cli(tmp_path, capsys):
    out = tmp_path / "h16.symf"
    code, report, _ = run(capsys, "gen", "--hadamard-order", "16", "--out", str(out))
    assert code == 0 and report["order"] == "16"
    _, h = read_matrix(out)
    assert is_skew_hadamard(h)
    code, _, err = run(capsys, "gen", "--hadamard-order", "12", "--out", str(out))
    assert code == 1 and "powers of two" in err


# ------------------------------------------------------------ transcript goldens
#
# Every command's exact stdout, stderr, exit code and --out bytes on small
# inputs, recorded before the commands stopped printing their own reports.
# Three cases changed on purpose since, each marked where it stands.
# Two floats come out of LAPACK: the factor residual and the continuous
# best_value.  Their lines are pinned by key and position and bounded by
# value, and the files they come with by their header line.

def _transcript_inputs():
    """Input files of the goldens, all of order <= 16: name -> (matrix, kind)."""
    h8 = seed_hadamard(8)
    conf = h8 - np.eye(8, dtype=np.int64)
    transitive = np.triu(np.ones((4, 4), dtype=np.int64), 1)
    return {
        "h8": (h8, "int"), "conf8": (conf, "int"), "ones": (np.ones((4, 4), dtype=np.int64), "int"),
        "core7": (normalize_conference(conf)[0][1:, 1:], "int"),
        "trans4": (transitive - transitive.T, "int"),
        "sq8": (hadamard_to_etf_square(h8), "real"), "kcore": (hadamard_to_etf_core(h8), "real"),
        "near": (_near_miss("etf-square", 8), "int"),
        "phi": (np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]), "real"),
        "flat": (np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), "real"),
        "eye2": (np.eye(2), "real"), "zero": (np.zeros((3, 3)), "real"),
        "sig8": (1j * conf, "complex"), "unskewed": (conf.astype(complex), "complex"),
        "q45": (np.ones((4, 5), dtype=complex), "complex"),
    }


# command -> (report key of its LAPACK float, the range it must lie in); a hit of the
# continuous search comes within target_residual = 1e-6 of the p = 2 bound, 6 at (d, n) = (2, 3)
LAPACK_FLOATS = {"factor": ("residual", 0.0, 1e-12),
                 "search --mode continuous": ("best_value", 6.0, 6.0 + 1e-6)}


def _transcript(tmp_path, monkeypatch, capsys, argv):
    """(exit code, stdout, stderr, out.symf digest) of ``main(argv)`` run in tmp_path.

    The digest is None with no out.symf, else its sha256, or its header line
    where the report holds a LAPACK float.
    """
    monkeypatch.chdir(tmp_path)
    for name, (mat, kind) in _transcript_inputs().items():
        write_matrix(f"{name}.symf", mat, kind)
    code = main(argv.split())
    captured = capsys.readouterr()
    lines = captured.out.splitlines(keepends=True)
    lapack = next((kb for cmd, kb in LAPACK_FLOATS.items() if argv.startswith(cmd)), None)
    for i, line in enumerate(lines):
        key, _, value = line.partition("=")
        if lapack and key == lapack[0]:
            assert lapack[1] <= float(value) <= lapack[2], line
            lines[i] = f"{key}=*\n"
    out = tmp_path / "out.symf"
    if not out.exists():
        digest = None
    elif lapack:
        digest = out.read_text().splitlines()[0]
    else:
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
    return code, "".join(lines), captured.err, digest


TRANSCRIPTS = [
    ('verify frame phi.symf',
     0, 'verified=true\nd=2\nn=3\nlower=1.4142135623730949\nupper=1.4142135623730951\n', '',
     None),
    ('verify frame flat.symf',
     1, 'verified=false\nd=2\nn=3\n', '',
     None),
    ('verify tight sq8.symf --dim 8',
     0, 'verified=true\nc=2.6457513110645912\n', '',
     None),
    ('verify tight sq8.symf --dim 6',
     1, 'verified=false\n', '',
     None),
    ('verify etf sq8.symf --dim 8',
     0, 'verified=true\nd=8\nn=8\nmu=1\nc=2.6457513110645907\nequiangular_residual=0\ntightness_residual=0\n', '',
     None),
    ('verify etf kcore.symf --dim 6',
     0, 'verified=true\nd=6\nn=7\nmu=1\nc=2.6457513110645907\nequiangular_residual=0\ntightness_residual=0\n', '',
     None),
    ('verify etf near.symf --dim 8',
     1, 'verified=false\n', '',
     None),
    ('verify conference conf8.symf',
     0, 'verified=true\norder=8\n', '',
     None),
    ('verify conference ones.symf',
     1, 'verified=false\norder=4\n', '',
     None),
    ('verify hadamard h8.symf',
     0, 'verified=true\norder=8\n', '',
     None),
    ('verify hadamard ones.symf',
     1, 'verified=false\norder=4\n', '',
     None),
    ('verify doubly-regular core7.symf',
     0, 'verified=true\n', '',
     None),
    ('verify doubly-regular trans4.symf',
     1, 'verified=false\n', '',
     None),
    ('verify signature sig8.symf --dim 4',
     0, 'verified=true\n', '',
     None),
    ('verify signature sig8.symf --dim 1',
     1, 'verified=false\n', '',
     None),
    ('verify signature unskewed.symf --dim 4',
     1, 'verified=false\n', 'error: signature matrix must be self-adjoint\n',
     None),
    # --dim at or past the order was verified=false with an error line, exit 1
    ('verify signature sig8.symf --dim 8',
     2, '', 'error: --dim must be below the signature order 8, got 8\n',
     None),
    ('verify signature sig8.symf --dim 100',
     2, '', 'error: --dim must be below the signature order 8, got 100\n',
     None),
    # a non-square file is malformed input, refused before --dim is read against its order
    ('verify signature q45.symf --dim 2',
     2, '', 'error: q45.symf: expected a square matrix, got shape (4, 5)\n',
     None),
    ('verify signature q45.symf --dim 4',
     2, '', 'error: q45.symf: expected a square matrix, got shape (4, 5)\n',
     None),
    ('verify etf sq8.symf --dim 3',
     2, '', 'error: --dim must be even and >= 2, got 3\n',
     None),
    ('factor sq8.symf --out out.symf',
     0, 'd=8\nn=8\nresidual=*\n', '',
     'symf real 8 8'),
    ('factor sq8.symf --dim 6 --out out.symf',
     1, '', 'error: factorization has dimension 8, expected 6\n',
     None),
    ('factor zero.symf --out out.symf',
     1, '', 'error: zero matrix has no frame factorization\n',
     None),
    ('factor missing.symf --out out.symf',
     2, '', "error: cannot read missing.symf: [Errno 2] No such file or directory: 'missing.symf'\n",
     None),
    ('convert --from hadamard --to etf-square h8.symf --out out.symf',
     0, 'rows=8\ncols=8\n', '',
     'e861543d412f3620a5a3eab023d029deade012876969c5a911de7bc5df1fc66f'),
    ('convert --from hadamard --to etf-core h8.symf --out out.symf',
     0, 'rows=7\ncols=7\n', '',
     '9b0e6bd9fc476fe560d6eedb018b025af19ff951d5455141a1fc3e1e63dad275'),
    ('convert --from etf-square --to hadamard sq8.symf --out out.symf',
     0, 'order=8\n', '',
     'e693079157e59bf0e9ecf64b8b029dd8771d8cd7dd9ff5957bc92e441cf057be'),
    ('convert --from etf-core --to hadamard kcore.symf --out out.symf',
     0, 'order=8\n', '',
     'e693079157e59bf0e9ecf64b8b029dd8771d8cd7dd9ff5957bc92e441cf057be'),
    ('convert --from etf-square --to complex-signature sq8.symf --out out.symf',
     0, 'n=8\n', '',
     '17c7c754f59c5f76a16b1a575ca9e7b6548dbe1ccb0194afca929cb7189be2e8'),
    ('convert --from etf-core --to complex-signature kcore.symf --out out.symf',
     0, 'n=7\n', '',
     'd16f7aaf8c28d6fe215dee0a5c8dd2e2d6366ce20021cb35a825f7f17b8bf3a1'),
    # --tol bounds the gate's residual, which is 0 here; it used to leak into a
    # floating-point re-check of the lifted quadratic, residual 1.0e-15 > 7e-16
    ('convert --from etf-core --to complex-signature kcore.symf --tol 1e-16 --out out.symf',
     0, 'n=7\n', '',
     'd16f7aaf8c28d6fe215dee0a5c8dd2e2d6366ce20021cb35a825f7f17b8bf3a1'),
    ('convert --from etf-square --to hadamard near.symf --out out.symf',
     1, '', 'error: rounded matrix failed the exact skew Hadamard check\n',
     None),
    ('convert --from etf-core --to etf-square kcore.symf --out out.symf',
     2, '', 'error: conversion etf-core -> etf-square is not supported\n',
     None),
    ('double --level hadamard h8.symf --out out.symf',
     0, 'order=16\n', '',
     '8b76a7673c8002f90b90dd36368947dc862e37a79f1c63b5c5a7b99d891435e5'),
    ('double --level frame eye2.symf --out out.symf',
     0, 'd=4\nn=4\n', '',
     '160899437abf1c3454354eefecaae8269dbeda4eb304ab868cab596db69b961c'),
    ('double --level hadamard h8.symf --out out.symf --tol 0.5',
     2, '', 'error: --tol does not apply to double --level hadamard\n',
     None),
    ('diamonds core7.symf',
     0, 'delta_brute=14\ndelta_formula=14\ndelta=14\nbound=14\nsaturated=true\n', '',
     None),
    ('diamonds core7.symf --method brute',
     0, 'delta=14\nbound=14\nsaturated=true\n', '',
     None),
    ('diamonds core7.symf --method formula',
     0, 'delta=14\nbound=14\nsaturated=true\n', '',
     None),
    ('diamonds conf8.symf',
     0, 'delta_brute=28\ndelta_formula=28\ndelta=28\n', '',
     None),
    ('diamonds conf8.symf --method brute',
     0, 'delta=28\n', '',
     None),
    ('diamonds conf8.symf --method formula',
     0, 'delta=28\n', '',
     None),
    # said "expected a int matrix" before
    ('diamonds sq8.symf',
     2, '', 'error: sq8.symf: expected an int matrix, got real\n',
     None),
    ('search --mode discrete --n 8 --seed 7 --restarts 8',
     0, 'success=true\nbest_value=0\nrestart=0\niterations=28\n', '',
     None),
    ('search --mode discrete --n 8 --seed 7 --restarts 8 --out out.symf',
     0, 'success=true\nbest_value=0\nrestart=0\niterations=28\n', '',
     'e70634fd688a06296b2ef73780450813b186d1a3b377ca3ef166236c232b282d'),
    # the report used to come before the failed write
    ('search --mode discrete --n 8 --seed 7 --restarts 8 --out missing/out.symf',
     2, '', "error: [Errno 2] No such file or directory: 'missing/out.symf'\n",
     None),
    ('search --mode discrete --n 6 --restarts 2',
     1, 'success=false\nbest_value=24\nrestart=0\niterations=13\n', '',
     None),
    ('search --mode continuous --n 3 --dim 2 --seed 1234 --restarts 5',
     0, 'success=true\nbest_value=*\nrestart=2\niterations=58\n', '',
     None),
    ('search --mode continuous --n 3 --dim 2 --seed 1234 --restarts 5 --out out.symf',
     0, 'success=true\nbest_value=*\nrestart=2\niterations=58\n', '',
     'symf real 2 3'),
    ('search --mode continuous --n 3 --restarts 5',
     2, '', 'error: --dim is required for continuous searches\n',
     None),
    ('gen --hadamard-order 16 --out out.symf',
     0, 'order=16\n', '',
     '8b76a7673c8002f90b90dd36368947dc862e37a79f1c63b5c5a7b99d891435e5'),
    ('gen --hadamard-order 12 --out out.symf',
     1, '', 'error: seed orders are powers of two, got 12\n',
     None),
    ('gen --hadamard-order 16 --out missing/out.symf',
     2, '', "error: [Errno 2] No such file or directory: 'missing/out.symf'\n",
     None),
]


@pytest.mark.parametrize("argv, code, out, err, digest", TRANSCRIPTS, ids=[t[0] for t in TRANSCRIPTS])
def test_transcript_golden(tmp_path, monkeypatch, capsys, argv, code, out, err, digest):
    assert _transcript(tmp_path, monkeypatch, capsys, argv) == (code, out, err, digest)


def test_only_main_prints_reports_and_picks_exit_codes():
    # every cmd_* returns (ok, fields) and main alone turns them into stdout, the
    # stderr line of a verdict's "error" field and an exit code
    tree = ast.parse(Path(cli.__file__).read_text())
    printers = {"_emit", "main"}
    prints = 0
    functions = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef)]
    for name, node in ((fn.name, node) for fn in functions for node in ast.walk(fn)):
        if name.startswith("cmd_") and isinstance(node, ast.Return):
            value = node.value
            assert not (isinstance(value, ast.Constant) and type(value.value) is int), name
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        assert not (name.startswith("cmd_") and node.func.id == "_emit"), name
        if node.func.id == "print":
            prints += 1
            assert name in printers, name
    assert prints == sum(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "print"
                         for n in ast.walk(tree))  # none outside a function


def test_gen_beyond_the_seed_bound_is_a_one_line_domain_error(tmp_path):
    # 2**40 would need 2**83 bytes; the generator refuses it by its size
    # bound before allocating anything
    proc = run_module(tmp_path, "gen", "--hadamard-order", str(2**40), "--out", "h.symf",
                      preexec_fn=_address_space_cap())
    assert proc.returncode == 1
    assert_one_line_error(proc)
    assert proc.stderr == f"error: seed orders are limited to 2048, got {2**40}\n"
    assert not (tmp_path / "h.symf").exists()
