"""Command line front end.

Exit codes form a stable contract for scripting: 0 means verified or
success, 1 means the input was well formed but the domain operation
failed (not verified, no factorization, search missed), and 2 means a
usage or I/O problem.  Reports are ``key=value`` lines on stdout;
diagnostics go to stderr.

Each ``cmd_*`` returns ``(ok, fields, matrix)`` and has no side effect.
``main`` alone writes the matrix, unless None, to ``--out``, then prints
the fields in order, ``error`` on stderr, and maps the outcome to 0/1/2:
``ok`` to 0 or 1, a ``DomainError`` to 1, and usage (``ValueError``), I/O,
``MemoryError`` and ``FloatingPointError`` to 2.  Commands and the write
run under ``np.errstate(over="raise", invalid="raise")``, so a float64
overflow, such as the frame operator of entries near 1e200, is that one
error line and never a numpy warning.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import complex_lift, frames, hadamard, matio, search, tournaments
from .errors import DomainError, FactorizationError, NotAFrameError
from .skewlinalg import DEFAULT_TOL, frobenius_norm


def _emit(key, value):
    if isinstance(value, bool):
        value = "true" if value else "false"
    elif isinstance(value, float):
        value = matio.format_real(value)
    print(f"{key}={value}")


def _load(path, want):
    try:
        kind, mat = matio.read_matrix(path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    if kind not in want:
        what = " or ".join(want)
        raise ValueError(f"{path}: expected {'an' if what[0] in 'aeiou' else 'a'} {what} matrix, got {kind}")
    return mat


def _tolerances(args):
    if args.tol is None:
        return DEFAULT_TOL
    if not (0.0 < args.tol < 1.0):
        raise ValueError("--tol must lie strictly between 0 and 1")
    return replace(DEFAULT_TOL, residual_rel_tol=args.tol)


def _reject_unread(args, table, choice, what):
    """Refuse each flag given that another choice in ``table`` reads and ``choice`` does not."""
    for flag in dict.fromkeys(f for flags in table.values() for f in flags):
        if flag not in table[choice] and getattr(args, flag, None) is not None:
            raise ValueError(f"--{flag.replace('_', '-')} does not apply to {what}")


def _require_even_dim(args):
    if args.dim is None:
        raise ValueError("--dim is required for this kind")
    if args.dim < 2 or args.dim % 2 != 0:
        raise ValueError(f"--dim must be even and >= 2, got {args.dim}")
    return args.dim


# Each verifier returns (verified, report fields).
def _verify_frame(args):
    mat = _load(args.file, ("real", "int"))
    fields = {"d": mat.shape[0], "n": mat.shape[1]}
    try:  # rejects an odd number of rows with ValueError
        return True, {**fields, **frames.frame_bounds(mat)._asdict()}
    except NotAFrameError:
        return False, fields


def _verify_tight(args):
    d = _require_even_dim(args)
    c = frames.is_tight(_load(args.file, ("real", "int")), d, _tolerances(args))
    return c is not None, {} if c is None else {"c": c}


def _verify_etf(args):
    d = _require_even_dim(args)
    cert = hadamard.certify_etf(_load(args.file, ("real", "int")), d, _tolerances(args))  # None is a verdict
    return cert is not None, {} if cert is None else asdict(cert)


def _verify_exact(args, check, report_order=True):
    mat = _load(args.file, ("int",))
    return check(mat), {"order": mat.shape[0]} if report_order else {}


def _verify_signature(args):
    if args.dim is None or args.dim < 1:
        raise ValueError("--dim (the complex dimension) is required for signatures")
    mat = _load(args.file, ("complex",))
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{args.file}: expected a square matrix, got shape {mat.shape}")
    if args.dim >= mat.shape[0]:
        raise ValueError(f"--dim must be below the signature order {mat.shape[0]}, got {args.dim}")
    tol = _tolerances(args)  # outside the try: a bad --tol is a usage error, not a verdict
    try:
        return complex_lift.signature_check(mat, args.dim, tol), {}
    except ValueError as exc:
        return False, {"error": str(exc)}


# kind -> (verifier(args), the optional flags it reads); the keys, in this order, are
# the argparse choices.  Library functions are looked up at call time, so tracers
# that rebind them see the calls.
_VERIFIERS = {
    "frame": (_verify_frame, ()),
    "tight": (_verify_tight, ("dim", "tol")),
    "etf": (_verify_etf, ("dim", "tol")),
    "conference": (lambda args: _verify_exact(args, hadamard.is_skew_conference), ()),
    "hadamard": (lambda args: _verify_exact(args, hadamard.is_skew_hadamard), ()),
    "doubly-regular": (lambda args: _verify_exact(args, tournaments.is_doubly_regular, False), ()),
    "signature": (_verify_signature, ("dim", "tol")),
}


def cmd_verify(args) -> tuple[bool, dict, None]:
    reads = {kind: flags for kind, (_, flags) in _VERIFIERS.items()}
    _reject_unread(args, reads, args.kind, f"verify {args.kind}")
    ok, fields = _VERIFIERS[args.kind][0](args)
    return ok, {"verified": ok, **fields}, None


def cmd_factor(args) -> tuple[bool, dict, np.ndarray]:
    g = _load(args.file, ("real", "int"))
    phi = frames.factor_gram(g)
    if args.dim is not None and phi.shape[0] != args.dim:
        raise FactorizationError(f"factorization has dimension {phi.shape[0]}, expected {args.dim}")
    residual = frobenius_norm(frames.gram(phi) - g)
    return True, {"d": phi.shape[0], "n": phi.shape[1], "residual": residual}, phi


# (--from, --to) -> conversion(matrix read, tol), looked up at call time as in
# _VERIFIERS; the writer infers the kind of the result, and the report names
# its sizes after the target
_CONVERSIONS = {
    ("etf-square", "hadamard"): lambda g, tol: hadamard.etf_to_hadamard_square(g, tol),
    ("etf-core", "hadamard"): lambda g, tol: hadamard.etf_core_to_hadamard(g, tol),
    ("hadamard", "etf-square"): lambda h, tol: hadamard.hadamard_to_etf_square(h).astype(np.int64),
    ("hadamard", "etf-core"): lambda h, tol: hadamard.hadamard_to_etf_core(h).astype(np.int64),
    ("etf-square", "complex-signature"): lambda g, tol: complex_lift.lift_square(g, tol)[1],
    ("etf-core", "complex-signature"): lambda g, tol: complex_lift.lift_core(g, tol),
}
_CONVERT_REPORT = {"hadamard": ("order",), "etf-square": ("rows", "cols"),
                   "etf-core": ("rows", "cols"), "complex-signature": ("n",)}
# --from, --level and --mode -> the optional flags each reads; the keys, in this order, are
# the argparse choices.  Hadamard doubling is exact, and SearchConfig holds the budget defaults.
_CONVERT_READS = {"etf-square": ("tol",), "etf-core": ("tol",), "hadamard": ()}
_DOUBLE_READS = {"hadamard": (), "frame": ("tol",)}
_BUDGET = ("seed", "restarts", "max_iters")
_SEARCH_READS = {"continuous": ("dim", "p", *_BUDGET, "out"), "discrete": (*_BUDGET, "out")}


def cmd_convert(args) -> tuple[bool, dict, np.ndarray]:
    _reject_unread(args, _CONVERT_READS, args.src, f"convert --from {args.src}")
    tol = _tolerances(args)
    convert = _CONVERSIONS.get((args.src, args.to))
    if convert is None:
        raise ValueError(f"conversion {args.src} -> {args.to} is not supported")
    out = convert(_load(args.file, ("real", "int")), tol)
    return True, dict(zip(_CONVERT_REPORT[args.to], out.shape)), out


def cmd_double(args) -> tuple[bool, dict, np.ndarray]:
    _reject_unread(args, _DOUBLE_READS, args.level, f"double --level {args.level}")
    if args.level == "hadamard":
        out = hadamard.double_hadamard(_load(args.file, ("int",)))
        return True, {"order": out.shape[0]}, out
    tol = _tolerances(args)
    doubled = hadamard.double_frame(_load(args.file, ("real", "int")), tol=tol)
    return True, {"d": doubled.shape[0], "n": doubled.shape[1]}, doubled


# --method -> diamond counter, looked up at call time as in _VERIFIERS; without
# --method every counter runs, in this order, and they must agree
_DIAMOND_COUNTERS = {
    "brute": lambda s: tournaments.count_diamonds_bruteforce(s),
    "formula": lambda s: tournaments.count_diamonds_formula(s),
}


def cmd_diamonds(args) -> tuple[bool, dict, None]:
    mat = _load(args.file, ("int",))
    methods = (args.method,) if args.method else tuple(_DIAMOND_COUNTERS)
    counts = {method: _DIAMOND_COUNTERS[method](mat) for method in methods}
    fields = {} if args.method else {f"delta_{method}": c for method, c in counts.items()}
    if len(set(counts.values())) > 1:
        return False, {**fields, "error": "diamond counts disagree"}, None
    fields["delta"] = delta = counts[methods[0]]
    n = mat.shape[0]
    if n % 2 == 1:
        bound = tournaments.diamond_upper_bound(n)
        fields["bound"] = bound if bound.denominator > 1 else bound.numerator
        fields["saturated"] = delta == bound
    return True, fields, None


def cmd_search(args) -> tuple[bool, dict, np.ndarray | None]:
    _reject_unread(args, _SEARCH_READS, args.mode, f"search --mode {args.mode}")
    cfg = search.SearchConfig(**{k: v for k, v in vars(args).items() if k in _BUDGET and v is not None})
    if args.mode == "discrete":
        out = search.discrete_diamond_search(args.n, cfg)
    else:
        if args.dim is None:
            raise ValueError("--dim is required for continuous searches")
        out = search.continuous_etf_search(args.dim, args.n, 2.0 if args.p is None else args.p, cfg)
    fields = {"success": out.success, "best_value": float(out.best_value),
              "restart": out.restart_index, "iterations": out.iterations_used}
    return out.success, fields, out.best_object if args.out else None


def cmd_gen(args) -> tuple[bool, dict, np.ndarray]:
    try:
        h = hadamard.seed_hadamard(args.hadamard_order)
    except ValueError as exc:
        # well-formed request the generator cannot fulfil: domain failure
        raise DomainError(str(exc)) from exc
    return True, {"order": h.shape[0]}, h


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sympetf",
        description="Verify, construct, convert, and search for equiangular "
        "tight frames in real symplectic space and skew Hadamard matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a matrix property and print a certificate")
    p.add_argument("kind", choices=tuple(_VERIFIERS))
    p.add_argument("file")
    p.add_argument("--dim", type=int, help="tight, etf: symplectic dimension; signature: complex dimension")
    p.add_argument("--tol", type=float, help="override residual_rel_tol; tight, etf, signature only; for etf "
                   "it bounds ||G - mu*S||_F / ||G||_F, the distance to the rounded Seidel matrix S")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("factor", help="factor a skew Gram matrix into a synthesis matrix")
    p.add_argument("file")
    p.add_argument("--dim", type=int, help="expected frame dimension")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("convert", help="convert between ETF Grams, Hadamard matrices, and signatures")
    p.add_argument("--from", dest="src", required=True, choices=tuple(_CONVERT_READS))
    p.add_argument("--to", required=True, choices=tuple(dict.fromkeys(b for _, b in _CONVERSIONS)))
    p.add_argument("file")
    p.add_argument("--tol", type=float, help="override residual_rel_tol; --from etf-square "
                   "and --from etf-core only")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("double", help="double a skew Hadamard matrix or an ETF synthesis matrix")
    p.add_argument("--level", required=True, choices=tuple(_DOUBLE_READS))
    p.add_argument("file")
    p.add_argument("--tol", type=float, help="override residual_rel_tol; --level frame only")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_double)

    p = sub.add_parser("diamonds", help="count diamonds in a tournament")
    p.add_argument("file")
    p.add_argument("--method", choices=("brute", "formula"))
    p.set_defaults(func=cmd_diamonds)

    p = sub.add_parser("search", help="run the continuous or discrete search")
    cfg = search.SearchConfig
    p.add_argument("--mode", required=True, choices=tuple(_SEARCH_READS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, help="symplectic dimension; continuous only, and required there")
    p.add_argument("--p", type=float, help="order of the frame potential (default 2); continuous only")
    p.add_argument("--seed", type=int, help=f"default {cfg.seed}")
    p.add_argument("--restarts", type=int, help=f"default {cfg.restarts}")
    p.add_argument("--max-iters", type=int, help=f"default {cfg.max_iters}")
    p.add_argument("--out")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("gen", help="generate a skew Hadamard seed: powers of two, Paley orders and doublings")
    p.add_argument("--hadamard-order", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise"):  # an input past float64 range is one error line
            ok, fields, out = args.func(args)
            if out is not None:
                matio.write_matrix(args.out, out)
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, DomainError) else 2
    if "error" in fields:  # a verdict's diagnostic
        print(f"error: {fields.pop('error')}", file=sys.stderr)
    try:
        for key, value in fields.items():
            _emit(key, value)
        sys.stdout.flush()
    except OSError as exc:  # a closed pipe or a full device; the exit flush must not fail again
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    return 0 if ok else 1
