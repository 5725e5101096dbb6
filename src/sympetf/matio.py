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


def format_real(x: float) -> str:
    return format(float(x), ".17g")


def _format_entry(kind: str, v) -> str:
    if kind == "int":
        return str(int(v))
    if kind == "real":
        return format_real(v)
    return f"{format_real(v.real)},{format_real(v.imag)}"


def _parse_entry(kind: str, token: str):
    if kind == "int":
        return int(token)
    if kind == "real":
        return float(token)
    re_s, _, im_s = token.partition(",")
    if not _:
        raise ValueError(f"complex entry {token!r} is missing the ',' separator")
    return complex(float(re_s), float(im_s))


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
    rows, cols = a.shape
    lines = [f"symf {kind} {rows} {cols}"]
    for r in range(rows):
        lines.append(" ".join(_format_entry(kind, v) for v in a[r]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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
    dtype = {"int": np.int64, "real": float, "complex": complex}[kind]
    out = np.empty((rows, cols), dtype=dtype)
    try:
        for r, line in enumerate(body):
            tokens = line.split()
            if len(tokens) != cols:
                raise ValueError(f"row {r + 1} has {len(tokens)} entries, expected {cols}")
            for c, token in enumerate(tokens):
                out[r, c] = _parse_entry(kind, token)
    except OverflowError as exc:
        raise ValueError(f"row {r + 1}: {token} does not fit in a signed 64-bit integer") from exc
    if kind != "int" and not np.all(np.isfinite(out)):
        raise ValueError("matrix contains non-finite entries")
    return kind, out
