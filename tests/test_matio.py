"""The symf reader and writer: round trips, non-finite values, and fuzzed input.

``_reference_read`` is the entry-by-entry reader, the oracle for what a
file means and for the class and message of every rejection, on every
reader path (numpy's C reader for ``int`` and ``real`` bodies, and the one
entry parser with its token table for ``complex`` bodies and the bodies
that C reader refuses, inside the table and past ``_TABLE_CAP``).  ``_reference_text`` is the entry-by-entry
writer, the oracle for the bytes of both writer paths (a table of the
distinct values' tokens, and one ``%`` per row past the cap).
"""

import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from builders import signed_permutation
from sympetf import matio
from sympetf.cli import main
from sympetf.complex_lift import lift_core
from sympetf.hadamard import hadamard_to_etf_core, seed_hadamard
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


def _reference_text(kind, mat):
    lines = [f"symf {kind} {mat.shape[0]} {mat.shape[1]}"]
    for row in mat.tolist():
        if kind == "int":
            lines.append(" ".join(str(x) for x in row))
        elif kind == "real":
            lines.append(" ".join(format(x, ".17g") for x in row))
        else:
            lines.append(" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row))
    return "\n".join(lines) + "\n"


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


SUBNORMALS = st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308)


@st.composite
def many_valued_matrices(draw):
    """Real and complex matrices of 66 or more distinct real parts, past
    ``_TABLE_CAP``, so the writer formats them row by row."""
    kind = draw(st.sampled_from(["real", "complex"]))
    shape = draw(st.tuples(st.integers(2, 4), st.integers(33, 40)))
    elements = st.one_of(reals, SUBNORMALS)
    re = draw(arrays(np.float64, shape, elements=elements, unique=True))
    if kind == "real":
        return kind, re
    z = np.empty(shape, dtype=complex)
    z.real, z.imag = re, draw(arrays(np.float64, shape, elements=elements))
    return kind, z


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices(), many_valued_matrices()))
def test_write_read_write_is_byte_identical(case):
    kind, mat = case
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.symf", Path(tmp) / "b.symf"
        write_matrix(first, mat, kind)
        assert first.read_bytes() == _reference_text(kind, mat).encode()
        kind2, back = read_matrix(first)
        assert kind2 == kind and back.dtype == mat.dtype
        assert back.tobytes() == mat.tobytes()  # bit for bit, -0.0 and subnormals included
        write_matrix(second, back, kind2)
        assert first.read_bytes() == second.read_bytes()


@st.composite
def few_valued_matrices(draw):
    """Matrices whose entries (or real and imaginary parts) come from a pool of
    at most 6 values, so the writer takes its table path."""
    kind = draw(st.sampled_from(KINDS))
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 8)))
    if kind == "int":
        ints = st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from([-(2**63), 2**63 - 1, 0, -1]))
        pool = st.sampled_from(draw(st.lists(ints, min_size=1, max_size=6)))
        return kind, draw(arrays(np.int64, shape, elements=pool))
    pool = st.sampled_from(draw(st.lists(st.one_of(st.sampled_from(EDGE_FLOATS), reals), min_size=1, max_size=6)))
    re = draw(arrays(np.float64, shape, elements=pool))
    if kind == "real":
        return kind, re
    z = np.empty(shape, dtype=complex)  # a signed zero may sit in either part
    z.real, z.imag = re, draw(arrays(np.float64, shape, elements=pool))
    return kind, z


def _write_both_ways(tmp, kind, mat):
    """The bytes of the table path and of the row path (a cap of 0 forces the rows)."""
    table, rows = Path(tmp) / "table.symf", Path(tmp) / "rows.symf"
    write_matrix(table, mat, kind)
    with mock.patch.object(matio, "_TABLE_CAP", 0):
        write_matrix(rows, mat, kind)
    return table.read_bytes(), rows.read_bytes()


@settings(max_examples=150, deadline=None)
@given(few_valued_matrices())
def test_table_writer_and_row_writer_emit_the_same_bytes(case):
    kind, mat = case
    assert matio._table_lines(kind, mat) is not None
    with tempfile.TemporaryDirectory() as tmp:
        table, rows = _write_both_ways(tmp, kind, mat)
    assert table == rows == _reference_text(kind, mat).encode()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("extra", [0, 1], ids=["at-cap", "above-cap"])
def test_the_table_path_holds_up_to_the_cap_and_rows_take_over_past_it(tmp_path, kind, extra):
    n = matio._TABLE_CAP + extra
    values = np.r_[-0.0, np.arange(1, n) / 3] if kind != "int" else np.arange(n) + 2**62
    # the first row holds one value, so only the check of the whole matrix sees the others
    mat = np.stack([np.full(n, values[0]), values])
    if kind == "complex":
        z = np.empty(mat.shape, dtype=complex)
        z.real, z.imag = mat, -0.0
        mat = z
    assert (matio._table_lines(kind, mat) is None) == bool(extra)
    table, rows = _write_both_ways(tmp_path, kind, mat)
    assert table == rows == _reference_text(kind, mat).encode()


def test_table_writer_keeps_signed_zeros_apart(tmp_path):
    path = tmp_path / "m.symf"
    write_matrix(path, np.array([[0.0, -0.0], [-0.0, 0.0]]), "real")
    assert path.read_text() == "symf real 2 2\n0 -0\n-0 0\n"
    z = np.empty((1, 3), dtype=complex)
    z.real, z.imag = [0.0, -0.0, 0.0], [-0.0, 0.0, 0.0]
    write_matrix(path, z, "complex")
    assert path.read_text() == "symf complex 1 3\n0,-0 -0,0 0,0\n"


def test_both_codec_paths_agree_at_benchmark_scale(tmp_path):
    """The m = 512 skew Hadamard matrix, its core and the core's complex
    signature: the benchmark's pipeline files."""
    h = signed_permutation(seed_hadamard(512), np.random.default_rng(512))
    k = hadamard_to_etf_core(h).astype(np.int64)
    for kind, mat in (("int", h), ("int", k), ("complex", lift_core(k))):
        assert matio._table_lines(kind, mat) is not None
        table, rows = _write_both_ways(tmp_path, kind, mat)
        assert table == rows
        path = tmp_path / "table.symf"
        with mock.patch.object(matio, "_entry", wraps=matio._entry) as parse:
            kind2, back = read_matrix(path)
        # int bodies are parsed whole in C; the signature's 3 distinct tokens are parsed once each
        assert parse.call_count == (3 if kind == "complex" else 0)
        with mock.patch.object(matio, "_TABLE_CAP", 0), mock.patch.object(matio, "_c_parse", return_value=None):
            kind3, by_rows = read_matrix(path)
        assert kind2 == kind3 == kind and back.dtype == by_rows.dtype == mat.dtype
        assert back.tobytes() == by_rows.tobytes() == mat.tobytes()


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_write_rejects_non_finite_entries(tmp_path, kind, bad):
    mat = np.ones((2, 3), dtype=complex if kind == "complex" else float)
    mat[1, 2] = bad if kind == "real" else complex(1.0, bad)
    path = tmp_path / "m.symf"
    with pytest.raises(ValueError, match="non-finite"):
        write_matrix(path, mat, kind)
    assert not path.exists()


@pytest.mark.parametrize("kind", [*KINDS, None])
@pytest.mark.parametrize("shape", [(0, 3), (2, 0)])
def test_write_rejects_a_matrix_with_no_rows_or_no_columns(tmp_path, kind, shape):
    path = tmp_path / "m.symf"
    with pytest.raises(ValueError, match="^matrix dimensions must be positive$"):
        write_matrix(path, np.zeros(shape), kind)
    assert not path.exists()
    # the reader refuses the header such a write would have made, in the same words
    path.write_text(f"symf {kind or 'real'} {shape[0]} {shape[1]}\n")
    with pytest.raises(ValueError, match="^matrix dimensions must be positive$"):
        read_matrix(path)


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

# tokens that Python's int or float parse and numpy's C reader refuses, or
# (+5, 007) that both parse
PYTHON_ONLY = st.sampled_from(["1_0", "１", "٣", "+5", "007"])
NEAR_INT64 = st.sampled_from([2**63 - 2, 2**63 - 1, 2**63, -(2**63) + 1, -(2**63), -(2**63) - 1]).map(str)


def _token(kind):
    ints = st.integers(-(2**70), 2**70).map(str)
    floats = st.floats().map(repr)
    garbage = st.text(alphabet="0123456789-+.,_eEnaifINF ", min_size=1, max_size=6).map(
        lambda t: t.replace(" ", "") or "0"
    )
    pairs = st.tuples(st.one_of(floats, ints, garbage), st.one_of(floats, ints, garbage)).map(",".join)
    valid = {"int": ints, "real": floats, "complex": pairs}[kind]
    return st.one_of(valid, valid, valid, ints, floats, pairs, garbage, PYTHON_ONLY, NEAR_INT64)


# str.split() separators, most of them beyond ASCII space; NUL is none, so it
# joins two tokens into one bad token
SEPARATORS = st.sampled_from([" ", " ", " ", "\t", "  ", "\xa0", "\x1c", "\u3000", "\x85", "\x00"])
LINE_ENDS = st.sampled_from(["\n", "\n", "\r\n", "\r"])


def _text(draw, header, rows):
    """A file of the header and the entry rows (lists of tokens): any separator
    between two tokens, a ``# c`` after some rows, one line end throughout."""
    end = draw(LINE_ENDS)
    lines = [header]
    for tokens in rows:
        line = "".join(t + draw(SEPARATORS) for t in tokens[:-1]) + (tokens[-1] if tokens else "")
        lines.append(line + draw(st.sampled_from(["", "", "", "", "", "", "", " # c"])))
    return end.join(lines) + end


@st.composite
def symf_texts(draw):
    kind = draw(st.sampled_from(KINDS))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    lines = []
    for _ in range(draw(st.sampled_from([rows, rows, rows, rows + 1, rows - 1]))):
        width = draw(st.sampled_from([cols, cols, cols, cols + 1, cols - 1]))
        lines.append(draw(st.lists(_token(kind), min_size=width, max_size=width)))
    return _text(draw, f"symf {kind} {rows} {cols}", lines)


@settings(max_examples=300, deadline=None)
@given(symf_texts())
def test_row_reader_matches_entry_reader(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.symf"
        path.write_text(text, encoding="utf-8", newline="")
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


def _stored_token(kind):
    """Tokens that parse without error, so that they fill the reader's token table."""
    floats = st.floats().map(repr)
    return {"int": st.integers(-(2**63), 2**63 - 1).map(str), "real": floats,
            "complex": st.tuples(floats, floats).map(",".join)}[kind]


@st.composite
def few_token_texts(draw):
    """4-8 rows drawn from a pool of at most 5 tokens that store, so later rows
    hit the reader's token table; from the middle row on, a row may also draw a fresh
    token (malformed, past int64 or fine) after those hits."""
    kind = draw(st.sampled_from(KINDS))
    rows, cols = draw(st.integers(4, 8)), draw(st.integers(1, 4))
    pool = st.sampled_from(draw(st.lists(_stored_token(kind), min_size=1, max_size=5)))
    past_int64 = st.one_of(st.integers(2**63, 2**70), st.integers(-(2**70), -(2**63) - 1)).map(str)
    late = st.one_of(pool, pool, pool, _token(kind), past_int64)
    lines = []
    for r in range(draw(st.sampled_from([rows, rows, rows, rows + 1, rows - 1]))):
        width = draw(st.sampled_from([cols, cols, cols, cols, cols + 1, cols - 1]))
        lines.append(draw(st.lists(pool if r < rows // 2 else late, min_size=width, max_size=width)))
    return _text(draw, f"symf {kind} {rows} {cols}", lines)


@settings(max_examples=300, deadline=None)
@given(few_token_texts(), st.sampled_from([matio._TABLE_CAP, 2]))
def test_cached_reader_matches_entry_reader(text, cap):
    # a cap of 2 fills the token table early, so later misses are parsed past it
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(matio, "_TABLE_CAP", cap):
        path = Path(tmp) / "m.symf"
        path.write_text(text, encoding="utf-8", newline="")
        assert _outcome(read_matrix, path) == _outcome(_reference_read, path)


def test_a_cached_row_does_not_hide_a_later_overflow(tmp_path):
    path = tmp_path / "m.symf"
    path.write_text(f"symf int 2 2\n1 -1\n{2**63} 1\n")
    with pytest.raises(ValueError, match=rf"^row 2: {2**63} does not fit in a signed 64-bit integer$"):
        read_matrix(path)


def test_a_token_that_overflowed_is_parsed_afresh_by_the_next_read(tmp_path):
    bad, good = tmp_path / "bad.symf", tmp_path / "good.symf"
    bad.write_text(f"symf int 2 2\n1 {2**63}\n1 -1\n")
    good.write_text(f"symf real 2 2\n1 {2**63}\n{2**63} 1\n")
    for _ in range(2):
        with pytest.raises(ValueError, match=rf"^row 1: {2**63} does not fit"):
            read_matrix(bad)
        kind, mat = read_matrix(good)
        assert kind == "real" and mat.tolist() == [[1.0, 2.0**63], [2.0**63, 1.0]]
        assert _outcome(read_matrix, good) == _outcome(_reference_read, good)


@pytest.mark.parametrize("rows, parsed", [
    (["1 1 1", "1 -1 1", "-1 1 -1", "1 -1 -1"], 2),  # one parse each for 1 and -1
    # the first 64 of 70 tokens fill the table; the other 6 are parsed in every row
    ([" ".join(map(str, range(70)))] * 3, 70 + 2 * 6),
], ids=["two-tokens", "past-the-cap"])
def test_rows_parse_until_the_cache_holds_their_tokens(tmp_path, rows, parsed):
    # int and real bodies are parsed whole by numpy's C reader, with no entry
    # parse; the same rows as complex entries (0 imaginary parts) fill the token table
    path = tmp_path / "m.symf"
    as_complex = [" ".join(f"{t},0" for t in row.split()) for row in rows]
    for kind, body, calls in (("int", rows, 0), ("real", rows, 0), ("complex", as_complex, parsed)):
        path.write_text(f"symf {kind} {len(rows)} {len(rows[0].split())}\n" + "\n".join(body) + "\n")
        with mock.patch.object(matio, "_entry", wraps=matio._entry) as parse:
            assert _outcome(read_matrix, path) == _outcome(_reference_read, path)
        assert parse.call_count == calls


@pytest.mark.parametrize("text, error", [
    ("symf int 1 2\n1 2 # c\n", "row 1 has 4 entries, expected 2"),
    # past the first-row check, only comments=None keeps numpy from reading "3 4"
    ("symf int 2 2\n1 2\n3 4 # c\n", "row 2 has 4 entries, expected 2"),
    ("symf real 2 3\n1 2 3\n4 # c\n", "could not convert string to float: '#'"),
])
def test_an_inline_hash_is_an_entry_not_a_comment(tmp_path, text, error):
    path = tmp_path / "m.symf"
    path.write_text(text)
    assert _outcome(read_matrix, path) == _outcome(_reference_read, path) == (ValueError, error)


def test_the_c_reader_leaves_any_other_shape_to_the_rows():
    assert matio._c_parse(["1 2", "3 4"], np.int64, (2, 2)).tolist() == [[1, 2], [3, 4]]
    assert matio._c_parse(["1 2", "3 4"], np.int64, (2, 3)) is None
    assert matio._c_parse(["1 2", "3 4 5"], float, (2, 2)) is None
    assert matio._c_parse(["1_0 2"], np.int64, (1, 2)) is None


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
        path.write_text(text, encoding="utf-8", newline="")
        argv = [arg.format(out=Path(tmp) / "out.symf") for arg in command]
        argv.insert(2 if command[0] == "verify" else 1, str(path))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # a numpy warning fails the run
            code = main(argv)
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") <= 1
