"""The symf reader and writer: round trips, non-finite values, and fuzzed input.

``_reference_read`` is the entry-by-entry reader that the row-wise reader
replaced; it stays here as the oracle for what a file means and for the
class and message of every rejection.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sympetf.cli import main
from sympetf.matio import KINDS, read_matrix, write_matrix


def _reference_entry(kind, token):
    if kind == "int":
        return int(token)
    if kind == "real":
        return float(token)
    re_s, sep, im_s = token.partition(",")
    if not sep:
        raise ValueError(f"complex entry {token!r} is missing the ',' separator")
    return complex(float(re_s), float(im_s))


def _reference_read(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty matrix file")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "symf":
        raise ValueError(f"bad header {lines[0]!r}; expected 'symf <kind> <rows> <cols>'")
    kind = header[1]
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    try:
        rows, cols = int(header[2]), int(header[3])
    except ValueError as exc:
        raise ValueError(f"bad dimensions in header {lines[0]!r}") from exc
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    body = lines[1:]
    if len(body) != rows:
        raise ValueError(f"expected {rows} rows of entries, found {len(body)}")
    dtype = {"int": np.int64, "real": float, "complex": complex}[kind]
    out = np.empty((rows, cols), dtype=dtype)
    try:
        for r, line in enumerate(body):
            tokens = line.split()
            if len(tokens) != cols:
                raise ValueError(f"row {r + 1} has {len(tokens)} entries, expected {cols}")
            for c, token in enumerate(tokens):
                out[r, c] = _reference_entry(kind, token)
    except OverflowError as exc:
        raise ValueError(f"row {r + 1}: {token} does not fit in a signed 64-bit integer") from exc
    if kind != "int" and not np.all(np.isfinite(out)):
        raise ValueError("matrix contains non-finite entries")
    return kind, out


def _outcome(reader, path):
    try:
        kind, mat = reader(path)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)
    return kind, mat.dtype, mat.shape, mat.tobytes()


# ---------------------------------------------------------------- round trips

EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 1.1125369292536007e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3,
]
reals = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS))
shapes = st.tuples(st.integers(1, 4), st.integers(1, 5))


@st.composite
def matrices(draw):
    kind = draw(st.sampled_from(KINDS))
    shape = draw(shapes)
    if kind == "int":
        ints = st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from([-(2**63), 2**63 - 1, 0, -1]))
        return kind, draw(arrays(np.int64, shape, elements=ints))
    re = draw(arrays(np.float64, shape, elements=reals))
    if kind == "real":
        return kind, re
    z = np.empty(shape, dtype=complex)  # arithmetic would turn a -0.0 real part into 0.0
    z.real, z.imag = re, draw(arrays(np.float64, shape, elements=reals))
    return kind, z


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_write_read_write_is_byte_identical(case):
    kind, mat = case
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.symf", Path(tmp) / "b.symf"
        write_matrix(first, mat, kind)
        kind2, back = read_matrix(first)
        assert kind2 == kind and back.dtype == mat.dtype
        assert back.tobytes() == mat.tobytes()  # bit for bit, -0.0 and subnormals included
        write_matrix(second, back, kind2)
        assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_write_rejects_non_finite_entries(tmp_path, kind, bad):
    mat = np.ones((2, 3), dtype=complex if kind == "complex" else float)
    mat[1, 2] = bad if kind == "real" else complex(1.0, bad)
    path = tmp_path / "m.symf"
    with pytest.raises(ValueError, match="non-finite"):
        write_matrix(path, mat, kind)
    assert not path.exists()


@pytest.mark.parametrize("bad", [[[2.7, -0.5]], [[1.0, np.nan]], [[np.inf, 0.0]], [[2.0**63, 0.0]],
                                 np.array([[2**63]], dtype=np.uint64), [[2**70]], [[-(2**63) - 1]]])
def test_int_write_rejects_non_integral_entries(tmp_path, bad):
    path = tmp_path / "m.symf"
    with pytest.raises(ValueError, match="non-integral"):
        write_matrix(path, np.array(bad), "int")
    assert not path.exists()


def test_int_write_accepts_integral_floats(tmp_path):
    path = tmp_path / "m.symf"
    write_matrix(path, np.array([[2.0, -3.0], [-(2.0**63), 0.0]]), "int")
    assert path.read_text() == f"symf int 2 2\n2 -3\n{-(2**63)} 0\n"


# ---------------------------------------------------------------- fuzzed text

def _token(kind):
    ints = st.integers(-(2**70), 2**70).map(str)
    floats = st.floats().map(repr)
    garbage = st.text(alphabet="0123456789-+.,_eEnaifINF ", min_size=1, max_size=6).map(
        lambda t: t.replace(" ", "") or "0"
    )
    pairs = st.tuples(st.one_of(floats, ints, garbage), st.one_of(floats, ints, garbage)).map(",".join)
    valid = {"int": ints, "real": floats, "complex": pairs}[kind]
    return st.one_of(valid, valid, valid, ints, floats, pairs, garbage)


@st.composite
def symf_texts(draw):
    kind = draw(st.sampled_from(KINDS))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    lines = []
    for _ in range(draw(st.sampled_from([rows, rows, rows, rows + 1, rows - 1]))):
        width = draw(st.sampled_from([cols, cols, cols, cols + 1, cols - 1]))
        lines.append(" ".join(draw(st.lists(_token(kind), min_size=width, max_size=width))))
    return f"symf {kind} {rows} {cols}\n" + "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(symf_texts())
def test_row_reader_matches_entry_reader(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.symf"
        path.write_text(text)
        assert _outcome(read_matrix, path) == _outcome(_reference_read, path)


def test_overflow_is_reported_at_its_token_before_a_later_bad_token(tmp_path):
    path = tmp_path / "m.symf"
    path.write_text(f"symf int 2 3\n1 2 3\n4 {2**63} x\n")
    with pytest.raises(ValueError, match=rf"^row 2: {2**63} does not fit in a signed 64-bit integer$"):
        read_matrix(path)
    path.write_text(f"symf int 2 3\n1 2 3\n4 x {-(2**63) - 1}\n")
    with pytest.raises(ValueError, match="invalid literal for int"):
        read_matrix(path)
    path.write_text("symf complex 1 2\n1,2 3\n")
    with pytest.raises(ValueError, match="'3' is missing the ',' separator"):
        read_matrix(path)


CLI_COMMANDS = [
    ["verify", "hadamard"],
    ["verify", "conference"],
    ["verify", "doubly-regular"],
    ["verify", "frame"],
    ["verify", "tight", "--dim", "2"],
    ["verify", "etf", "--dim", "2"],
    ["verify", "signature", "--dim", "1"],
    ["diamonds"],
    ["diamonds", "--method", "brute"],
    ["factor", "--out", "{out}"],
    ["convert", "--from", "hadamard", "--to", "etf-core", "--out", "{out}"],
    ["convert", "--from", "etf-core", "--to", "hadamard", "--out", "{out}"],
    ["convert", "--from", "etf-square", "--to", "complex-signature", "--out", "{out}"],
    ["double", "--level", "hadamard", "--out", "{out}"],
    ["double", "--level", "frame", "--out", "{out}"],
]


@settings(max_examples=200, deadline=None)
@given(symf_texts(), st.sampled_from(CLI_COMMANDS))
def test_cli_on_fuzzed_files_exits_0_1_or_2(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.symf"
        path.write_text(text)
        argv = [arg.format(out=Path(tmp) / "out.symf") for arg in command]
        argv.insert(2 if command[0] == "verify" else 1, str(path))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2)
