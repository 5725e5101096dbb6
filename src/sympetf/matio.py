"""Text file format for matrices.

Line 1 is the header ``symf <kind> <rows> <cols>`` with kind one of
``real``, ``int``, ``complex``; the next ``rows`` lines hold whitespace
separated entries.  ``int`` entries must fit in a signed 64-bit
integer.  Complex entries are written ``re,im`` with no spaces around
the comma.  Lines starting with ``#`` are comments and ignored.  Reals
are serialized with 17 significant digits, so write -> read -> write
reproduces files byte for byte.

``int`` and ``real`` bodies are parsed by numpy's C text reader.  Every
other body (all ``complex`` ones, and those that reader refuses) goes
through one entry parser, Python's ``int`` and ``float`` per token, so
the accepted syntax (``1_0``, non-ASCII digits) and the errors are those
of an entry-by-entry parse.  Matrices with few distinct values
(Hadamard, conference and signature matrices) are coded per distinct
value: the writer formats each value, told apart by bit pattern, once,
and the reader keeps a table of the first ``_TABLE_CAP`` distinct tokens
and parses each of them once.  Past ``_TABLE_CAP`` distinct values the
writer formats each row with one ``%`` and the reader parses each token
outside its table.  Bytes, arrays and errors are the same on every path.
"""

from __future__ import annotations

import warnings

import numpy as np

KINDS = ("real", "int", "complex")
# the one home of the entry formats; 17 significant digits round-trip every float64
_FORMATS = {"int": "%d", "real": "%.17g", "complex": "%.17g,%.17g"}
_INT64 = range(-(2**63), 2**63)


# most distinct values (real and imaginary parts each, for complex) or
# tokens that the writer's and the reader's tables hold
_TABLE_CAP = 64


def format_real(x: float) -> str:
    return _FORMATS["real"] % x


def _distinct(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The sorted distinct entries of a 2-d int64 array and each entry's index
    among them, or None past ``_TABLE_CAP`` of them.  The first row is
    counted first, so a many-valued matrix costs one short ``unique``."""
    if not bits.size or np.unique(bits[0]).size > _TABLE_CAP:
        return None
    s = np.sort(bits, axis=None)
    u = s[np.r_[True, s[1:] != s[:-1]]]
    return (u, np.searchsorted(u, bits)) if u.size <= _TABLE_CAP else None


def _table_lines(kind: str, a: np.ndarray) -> list[str] | None:
    """The lines of ``a`` joined from one token per distinct entry, or None
    past ``_TABLE_CAP`` distinct values.  Reals are told apart by their bits,
    not by ``==``, so ``-0.0`` and ``0.0`` keep their own tokens."""
    parts = []
    for part in (a.real, a.imag) if kind == "complex" else (a,):
        found = _distinct(part.astype(np.int64, copy=False) if kind == "int" else part.view(np.int64))
        if found is None:
            return None
        parts.append(found if kind == "int" else (found[0].view(float), found[1]))
    if kind != "complex":
        (values, codes), = parts
    else:  # every (re, im) pair of the two tables, set by assignment to keep signed zeros
        (re, re_codes), (im, im_codes) = parts
        values = np.empty((re.size, im.size), dtype=complex)
        values.real, values.imag = re[:, None], im
        values, codes = values.ravel(), re_codes * im.size + im_codes
    fmt = _FORMATS[kind]
    if kind == "complex":
        tokens = [fmt % (z.real, z.imag) for z in values.tolist()]
    else:
        tokens = [fmt % x for x in values.tolist()]
    table = np.array(tokens, dtype=object)
    return [" ".join(table[row].tolist()) for row in codes]


def _entry(kind: str, r: int, token: str):
    """The value of one token of row ``r``, or the error an entry-by-entry
    parse meets at it: int64 range is checked here, not on the store."""
    if kind == "int":
        value = int(token)
        if value not in _INT64:
            raise ValueError(f"row {r + 1}: {token} does not fit in a signed 64-bit integer")
        return value
    if kind == "real":
        return float(token)
    re_s, sep, im_s = token.partition(",")
    if not sep:
        raise ValueError(f"complex entry {token!r} is missing the ',' separator")
    return complex(float(re_s), float(im_s))


def _c_parse(body: list[str], dtype, shape: tuple[int, int]) -> np.ndarray | None:
    """The body as numpy's C reader parses it, or None where it finds another
    shape or refuses the text.  It refuses all that Python's ``int`` and
    ``float`` refuse and more (``1_0``, non-ASCII digits)."""
    try:
        with warnings.catch_warnings():  # older numpy reads the int token 1.5 as 1 and only warns
            warnings.simplefilter("error", DeprecationWarning)
            out = np.loadtxt(body, dtype=dtype, comments=None, ndmin=2)  # an inline '#' stays an error
    except (ValueError, DeprecationWarning):
        return None
    return out if out.shape == shape else None


def infer_kind(a: np.ndarray) -> str:
    if np.issubdtype(a.dtype, np.complexfloating):
        return "complex"
    if np.issubdtype(a.dtype, np.integer):
        return "int"
    return "real"


def write_matrix(path, a, kind: str | None = None) -> None:
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    if 0 in a.shape:  # the reader refuses such a header, so never write one
        raise ValueError("matrix dimensions must be positive")
    kind = kind or infer_kind(a)
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if kind != "int":
        a = np.asarray(a, dtype=float if kind == "real" else complex)
        if not np.all(np.isfinite(a)):
            raise ValueError("cannot write non-finite entries: symf files hold finite values only")
    elif not np.issubdtype(a.dtype, np.signedinteger):
        try:
            with np.errstate(invalid="ignore"):
                ai = a.astype(np.int64)
        except OverflowError:  # Python ints beyond int64 in an object array
            ai = None
        if ai is None or not np.array_equal(ai, a):
            raise ValueError("cannot write non-integral or out-of-int64 entries as int")
        a = ai
    rows, cols = a.shape
    lines = [f"symf {kind} {rows} {cols}"]
    # past the table cap, one % per row; rows are listed one at a time, since a
    # whole-matrix tolist() would hold a Python object per entry at once
    fmt = " ".join([_FORMATS[kind]] * cols)
    flat = np.ascontiguousarray(a).view(float) if kind == "complex" else a  # re, im, re, im, ...
    lines += _table_lines(kind, a) or [fmt % tuple(row.tolist()) for row in flat]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:  # not one joined string: that would double the peak memory
            fh.write(line)
            fh.write("\n")


def read_matrix(path) -> tuple[str, np.ndarray]:
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
    # the first row bounds cols by real text before the header sizes an allocation
    tokens = body[0].split()
    if len(tokens) != cols:
        raise ValueError(f"row 1 has {len(tokens)} entries, expected {cols}")
    dtype = {"int": np.int64, "real": float, "complex": complex}[kind]
    # complex bodies skip the C reader: on the signature files the token table
    # below is faster than numpy's parse of two floats per entry
    out = None if kind == "complex" else _c_parse(body, dtype, (rows, cols))
    if out is None:  # complex, or a body the C reader refused: row by row
        out = np.empty((rows, cols), dtype=dtype)
        table: dict = {}  # token -> value for the first _TABLE_CAP distinct tokens
        for r, line in enumerate(body):
            tokens = line.split()
            if len(tokens) != cols:
                raise ValueError(f"row {r + 1} has {len(tokens)} entries, expected {cols}")
            try:
                out[r] = list(map(table.__getitem__, tokens))
            except KeyError:  # parse the misses in reading order, so the first bad one raises
                values = []
                for token in tokens:
                    value = table.get(token)
                    if value is None:
                        value = _entry(kind, r, token)
                        if len(table) < _TABLE_CAP:
                            table[token] = value
                    values.append(value)
                out[r] = values
    if kind != "int" and not np.all(np.isfinite(out)):
        raise ValueError("matrix contains non-finite entries")
    return kind, out
