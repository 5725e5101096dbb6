"""Command line front end.

Exit codes form a stable contract for scripting: 0 means verified or
success, 1 means the input was well formed but the domain operation
failed (not verified, no factorization, search missed), and 2 means a
usage or I/O problem.  Reports are ``key=value`` lines on stdout;
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace

import numpy as np

from . import complex_lift, frames, hadamard, matio, search, tournaments
from .errors import DomainError
from .skewlinalg import DEFAULT_TOL

class UsageError(Exception):
    pass


def _emit(key, value):
    if isinstance(value, bool):
        value = "true" if value else "false"
    elif isinstance(value, float):
        value = matio.format_real(value)
    print(f"{key}={value}")


def _load(path, want=None):
    try:
        kind, mat = matio.read_matrix(path)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    if want is not None and kind not in want:
        raise UsageError(f"{path}: expected a {' or '.join(want)} matrix, got {kind}")
    return kind, mat


def _tolerances(args):
    if getattr(args, "tol", None) is None:
        return DEFAULT_TOL
    if not (0.0 < args.tol < 1.0):
        raise UsageError("--tol must lie strictly between 0 and 1")
    return replace(DEFAULT_TOL, residual_rel_tol=args.tol)


def _require_even_dim(args):
    if args.dim is None:
        raise UsageError("--dim is required for this kind")
    if args.dim < 2 or args.dim % 2 != 0:
        raise UsageError(f"--dim must be even and >= 2, got {args.dim}")
    return args.dim


# Each verifier returns (verified, report fields); cmd_verify prints them in order.
def _verify_frame(args, tol):
    _, mat = _load(args.file, ("real", "int"))
    mat = mat.astype(float)
    ok = frames.is_frame(mat, tol)  # rejects an odd number of rows with ValueError
    fields = {"d": mat.shape[0], "n": mat.shape[1]}
    return ok, {**fields, **frames.frame_bounds(mat, tol)._asdict()} if ok else fields


def _verify_tight(args, tol):
    d = _require_even_dim(args)
    _, mat = _load(args.file, ("real", "int"))
    c = frames.is_tight(mat.astype(float), d, tol)
    return c is not None, {} if c is None else {"c": c}


def _verify_etf(args, tol):
    d = _require_even_dim(args)
    _, mat = _load(args.file, ("real", "int"))
    cert = frames.certify_etf(mat.astype(float), d, tol)
    return cert is not None, {} if cert is None else asdict(cert)


def _verify_exact(args, check, report_order=True):
    _, mat = _load(args.file, ("int",))
    return check(mat), {"order": mat.shape[0]} if report_order else {}


def _verify_signature(args, tol):
    if args.dim is None or args.dim < 1:
        raise UsageError("--dim (the complex dimension) is required for signatures")
    _, mat = _load(args.file, ("complex",))
    try:
        return complex_lift.signature_check(mat, args.dim, tol), {}
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False, {}


# kind -> verifier(args, tol); the keys, in this order, are the argparse choices.
# Library functions are looked up at call time, so tracers that rebind them see the calls.
_VERIFIERS = {
    "frame": _verify_frame,
    "tight": _verify_tight,
    "etf": _verify_etf,
    "conference": lambda args, tol: _verify_exact(args, hadamard.is_skew_conference),
    "hadamard": lambda args, tol: _verify_exact(args, hadamard.is_skew_hadamard),
    "doubly-regular": lambda args, tol: _verify_exact(args, tournaments.is_doubly_regular, False),
    "signature": _verify_signature,
}


def cmd_verify(args) -> int:
    ok, fields = _VERIFIERS[args.kind](args, _tolerances(args))
    _emit("verified", ok)
    for key, value in fields.items():
        _emit(key, value)
    return 0 if ok else 1


def cmd_factor(args) -> int:
    tol = _tolerances(args)
    _, mat = _load(args.file, ("real", "int"))
    g = mat.astype(float)
    phi = frames.factor_gram(g, tol)
    if args.dim is not None and phi.shape[0] != args.dim:
        print(
            f"error: factorization has dimension {phi.shape[0]}, expected {args.dim}",
            file=sys.stderr,
        )
        return 1
    residual = float(np.linalg.norm(frames.gram(phi) - g))
    matio.write_matrix(args.out, phi, "real")
    _emit("d", phi.shape[0])
    _emit("n", phi.shape[1])
    _emit("residual", residual)
    return 0


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


def cmd_convert(args) -> int:
    tol = _tolerances(args)
    convert = _CONVERSIONS.get((args.src, args.to))
    if convert is None:
        raise UsageError(f"conversion {args.src} -> {args.to} is not supported")
    _, mat = _load(args.file, ("real", "int"))
    out = convert(mat, tol)
    matio.write_matrix(args.out, out)
    for key, size in zip(_CONVERT_REPORT[args.to], out.shape):
        _emit(key, size)
    return 0


def cmd_double(args) -> int:
    tol = _tolerances(args)
    if args.level == "hadamard":
        _, mat = _load(args.file, ("int",))
        out = hadamard.double_hadamard(mat)
        matio.write_matrix(args.out, out, "int")
        _emit("order", out.shape[0])
        return 0
    _, mat = _load(args.file, ("real", "int"))
    doubled = hadamard.double_frame(mat.astype(float), tol=tol)
    matio.write_matrix(args.out, doubled, "real")
    _emit("d", doubled.shape[0])
    _emit("n", doubled.shape[1])
    return 0


def cmd_diamonds(args) -> int:
    _, mat = _load(args.file, ("int",))
    n = mat.shape[0]
    if args.method == "brute":
        delta = tournaments.count_diamonds_bruteforce(mat)
        _emit("delta", delta)
    elif args.method == "formula":
        delta = tournaments.count_diamonds_formula(mat)
        _emit("delta", delta)
    else:
        brute = tournaments.count_diamonds_bruteforce(mat)
        formula = tournaments.count_diamonds_formula(mat)
        _emit("delta_brute", brute)
        _emit("delta_formula", formula)
        if brute != formula:
            print("error: diamond counts disagree", file=sys.stderr)
            return 1
        delta = brute
        _emit("delta", delta)
    if n % 2 == 1:
        bound = tournaments.diamond_upper_bound(n)
        _emit("bound", bound if bound.denominator > 1 else bound.numerator)
        _emit("saturated", delta == bound)
    return 0


def cmd_search(args) -> int:
    cfg = search.SearchConfig(
        seed=args.seed,
        restarts=args.restarts,
        max_iters=args.max_iters,
        step=args.step,
        target_residual=args.target_residual,
    )
    if args.mode == "discrete":
        out = search.discrete_diamond_search(args.n, cfg)
        obj_kind = "int"
    else:
        if args.dim is None:
            raise UsageError("--dim is required for continuous searches")
        out = search.continuous_etf_search(args.dim, args.n, args.p, cfg)
        obj_kind = "real"
    _emit("success", out.success)
    _emit("best_value", float(out.best_value))
    _emit("restart", out.restart_index)
    _emit("iterations", out.iterations_used)
    if args.out:
        matio.write_matrix(args.out, out.best_object, obj_kind)
    return 0 if out.success else 1


def cmd_gen(args) -> int:
    try:
        h = hadamard.seed_hadamard(args.hadamard_order)
    except ValueError as exc:
        # well-formed request the generator cannot fulfil: domain failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    matio.write_matrix(args.out, h, "int")
    _emit("order", h.shape[0])
    return 0


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
    p.add_argument("--dim", type=int, help="symplectic dimension (or complex dimension for signatures)")
    p.add_argument("--tol", type=float, help="override the residual tolerance")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("factor", help="factor a skew Gram matrix into a synthesis matrix")
    p.add_argument("file")
    p.add_argument("--dim", type=int, help="expected frame dimension")
    p.add_argument("--tol", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("convert", help="convert between ETF Grams, Hadamard matrices, and signatures")
    p.add_argument("--from", dest="src", required=True, choices=tuple(dict.fromkeys(a for a, _ in _CONVERSIONS)))
    p.add_argument("--to", required=True, choices=tuple(dict.fromkeys(b for _, b in _CONVERSIONS)))
    p.add_argument("file")
    p.add_argument("--tol", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("double", help="double a skew Hadamard matrix or an ETF synthesis matrix")
    p.add_argument("--level", required=True, choices=("hadamard", "frame"))
    p.add_argument("file")
    p.add_argument("--tol", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_double)

    p = sub.add_parser("diamonds", help="count diamonds in a tournament")
    p.add_argument("file")
    p.add_argument("--method", choices=("brute", "formula"))
    p.set_defaults(func=cmd_diamonds)

    p = sub.add_parser("search", help="run the continuous or discrete search")
    p.add_argument("--mode", required=True, choices=("continuous", "discrete"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--max-iters", type=int, default=2000)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--target-residual", type=float, default=1e-6)
    p.add_argument("--out")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("gen", help="generate a power-of-two order skew Hadamard seed")
    p.add_argument("--hadamard-order", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
