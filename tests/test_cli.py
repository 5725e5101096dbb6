import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sympetf.cli import main
from sympetf.frames import certify_etf, gram, omega
from sympetf.hadamard import (
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


def run_module(cwd, *argv, preexec_fn=None):
    """Run ``python -m sympetf`` on this checkout's sources in a child process."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run(
        [sys.executable, "-m", "sympetf", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, preexec_fn=preexec_fn,
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


@pytest.mark.parametrize(
    "src, to, message",
    [
        pytest.param("etf-square", "hadamard", ROUNDING, id="square-hadamard"),
        pytest.param("etf-core", "hadamard", ROUNDING, id="core-hadamard"),
        pytest.param("etf-core", "complex-signature", ROUNDING, id="core-signature"),
        pytest.param("etf-square", "complex-signature",
                     "error: constructed signature failed its quadratic", id="square-signature"),
    ],
)
def test_certified_near_miss_conversion_is_a_domain_error(tmp_path, src, to, message):
    # --tol 0.5 certifies a Gram with one reversed edge; the exact checks refuse it
    h = seed_hadamard(16)
    eye = np.eye(16, dtype=np.int64)
    gram_of = {"etf-square": h - eye, "etf-core": normalize_conference(h - eye)[0][1:, 1:]}
    write_matrix(tmp_path / "in.symf", _flip_pair(gram_of[src]), "int")
    argv = ["convert", "--from", src, "--to", to, "in.symf", "--out", "out.symf"]
    proc = run_module(tmp_path, *argv, "--tol", "0.5")
    assert proc.returncode == 1
    assert_one_line_error(proc)
    assert proc.stderr == message + "\n"
    assert not (tmp_path / "out.symf").exists()
    # at the default tolerance the near miss is not certified at all
    proc = run_module(tmp_path, *argv)
    assert proc.returncode == 1 and "is not the Gram matrix of" in proc.stderr


def test_search_beyond_memory_is_a_one_line_usage_error(tmp_path):
    # n = 10^8 asks numpy for an 8.9 PiB mask, more than any address space.
    # Building it first fills two 381 MiB index vectors, so the child's
    # address space is capped: it fails at once either way, touching at
    # most 512 MiB.
    resource = pytest.importorskip("resource")
    cap = 512 * 2**20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = run_module(tmp_path, "search", "--mode", "discrete", "--n", str(10**8),
                      preexec_fn=limit)
    assert proc.returncode == 2
    assert_one_line_error(proc)
    assert proc.stderr.startswith("error: out of memory: ")


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


def test_double_frame_cli(tmp_path, capsys):
    phi = tmp_path / "phi.symf"
    write_matrix(phi, np.eye(2), "real")
    out = tmp_path / "f.symf"
    code, report, _ = run(capsys, "double", "--level", "frame", str(phi), "--out", str(out))
    assert code == 0 and report["d"] == "4"
    _, f = read_matrix(out)
    assert certify_etf(gram(f), 4) is not None


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
