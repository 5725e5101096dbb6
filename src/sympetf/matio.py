"""Text file format for matrices.

Line 1 is the header ``symf <kind> <rows> <cols>`` with kind one of
``real``, ``int``, ``complex``; the next ``rows`` lines hold whitespace
separated entries.  ``int`` entries must fit in a signed 64-bit
integer.  Complex entries are written ``re,im`` with no spaces around
the comma.  Lines starting with ``#`` are comments and ignored.  Reals
are serialized with 17 significant digits, so write -> read -> write
reproduces files byte for byte.
"""

from __future__ import annotations

import numpy as np

__all__ = ["read_matrix", "write_matrix", "format_real"]

KINDS = ("real", "int", "complex")
_REAL = ".17g"  # 17 significant digits round-trip every float64
_INT64 = range(-(2**63), 2**63)


def format_real(x: float) -> str:
    return format(float(x), _REAL)


def _format_row(kind: str, row: np.ndarray) -> str:
    """One line of entries; ``tolist`` hands the formatters Python scalars."""
    if kind == "int":
        return " ".join(map(str, map(int, row.tolist())))
    if kind == "real":
        return " ".join([format(x, _REAL) for x in row.tolist()])
    return " ".join([f"{x:{_REAL}},{y:{_REAL}}" for x, y in zip(row.real.tolist(), row.imag.tolist())])


def _parse_row(kind: str, out: np.ndarray, tokens: list[str]) -> None:
    """Fill ``out`` from one row's tokens with the per-entry builtins, one call per row."""
    if kind == "int":
        out[:] = list(map(int, tokens))
    elif kind == "real":
        out[:] = list(map(float, tokens))
    else:
        # a token without ',' leaves an empty imaginary part, which float() rejects
        re_s, _, im_s = zip(*[t.partition(",") for t in tokens])
        out.real[:] = list(map(float, re_s))
        out.imag[:] = list(map(float, im_s))


def _raise_entry_error(kind: str, r: int, tokens: list[str]) -> None:
    """Raise the error an entry-by-entry parse of a failed row meets first.

    A whole-row parse stops at its first invalid token and detects int64
    overflow only when the row is stored, so the row is walked again to
    report the same entry, class and message as a parse in reading order.
    """
    for token in tokens:
        if kind == "int":
            if int(token) not in _INT64:
                raise ValueError(f"row {r + 1}: {token} does not fit in a signed 64-bit integer")
        elif kind == "real":
            float(token)
        else:
            re_s, sep, im_s = token.partition(",")
            if not sep:
                raise ValueError(f"complex entry {token!r} is missing the ',' separator")
            float(re_s)
            float(im_s)


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
    kind = kind or infer_kind(a)
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if kind != "int":
        a = np.asarray(a, dtype=float if kind == "real" else complex)
        if not np.all(np.isfinite(a)):
            raise ValueError("cannot write non-finite entries: symf files hold finite values only")
    elif not np.issubdtype(a.dtype, np.signedinteger):
        with np.errstate(invalid="ignore"):
            ai = a.astype(np.int64)
        if not np.array_equal(ai, a):
            raise ValueError("cannot write non-integral or out-of-int64 entries as int")
        a = ai
    rows, cols = a.shape
    lines = [f"symf {kind} {rows} {cols}"]
    lines += [_format_row(kind, row) for row in a]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
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
    out = np.empty((rows, cols), dtype=dtype)
    for r, line in enumerate(body):
        tokens = line.split()
        if len(tokens) != cols:
            raise ValueError(f"row {r + 1} has {len(tokens)} entries, expected {cols}")
        try:
            _parse_row(kind, out[r], tokens)
        except (ValueError, OverflowError):
            _raise_entry_error(kind, r, tokens)
            raise
    if kind != "int" and not np.all(np.isfinite(out)):
        raise ValueError("matrix contains non-finite entries")
    return kind, out
