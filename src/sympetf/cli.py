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
from dataclasses import replace

import numpy as np

from . import complex_lift, frames, hadamard, matio, search, tournaments
from .errors import DomainError
from .skewlinalg import DEFAULT_TOL

VERIFY_KINDS = (
    "frame",
    "tight",
    "etf",
    "conference",
    "hadamard",
    "doubly-regular",
    "signature",
)


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


def cmd_verify(args) -> int:
    tol = _tolerances(args)
    kind = args.kind
    if kind == "frame":
        _, mat = _load(args.file, ("real", "int"))
        mat = mat.astype(float)
        ok = frames.is_frame(mat, tol)  # rejects an odd number of rows with ValueError
        _emit("verified", ok)
        _emit("d", mat.shape[0])
        _emit("n", mat.shape[1])
        if ok:
            bounds = frames.frame_bounds(mat, tol)
            _emit("lower", bounds.lower)
            _emit("upper", bounds.upper)
        return 0 if ok else 1
    if kind == "tight":
        d = _require_even_dim(args)
        _, mat = _load(args.file, ("real", "int"))
        c = frames.is_tight(mat.astype(float), d, tol)
        _emit("verified", c is not None)
        if c is not None:
            _emit("c", c)
        return 0 if c is not None else 1
    if kind == "etf":
        d = _require_even_dim(args)
        _, mat = _load(args.file, ("real", "int"))
        cert = frames.certify_etf(mat.astype(float), d, tol)
        _emit("verified", cert is not None)
        if cert is not None:
            _emit("d", cert.d)
            _emit("n", cert.n)
            _emit("mu", cert.mu)
            _emit("c", cert.c)
            _emit("equiangular_residual", cert.equiangular_residual)
            _emit("tightness_residual", cert.tightness_residual)
        return 0 if cert is not None else 1
    if kind == "conference":
        _, mat = _load(args.file, ("int",))
        ok = hadamard.is_skew_conference(mat)
        _emit("verified", ok)
        _emit("order", mat.shape[0])
        return 0 if ok else 1
    if kind == "hadamard":
        _, mat = _load(args.file, ("int",))
        ok = hadamard.is_skew_hadamard(mat)
        _emit("verified", ok)
        _emit("order", mat.shape[0])
        return 0 if ok else 1
    if kind == "doubly-regular":
        _, mat = _load(args.file, ("int",))
        ok = tournaments.is_doubly_regular(mat)
        _emit("verified", ok)
        return 0 if ok else 1
    if kind == "signature":
        if args.dim is None or args.dim < 1:
            raise UsageError("--dim (the complex dimension) is required for signatures")
        _, mat = _load(args.file, ("complex",))
        try:
            ok = complex_lift.signature_check(mat, args.dim, tol)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            _emit("verified", False)
            return 1
        _emit("verified", ok)
        return 0 if ok else 1
    raise UsageError(f"unknown verification kind {kind!r}")


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


_CONVERSIONS = {
    ("etf-square", "hadamard"),
    ("etf-core", "hadamard"),
    ("hadamard", "etf-square"),
    ("hadamard", "etf-core"),
    ("etf-square", "complex-signature"),
    ("etf-core", "complex-signature"),
}


def cmd_convert(args) -> int:
    tol = _tolerances(args)
    pair = (args.src, args.to)
    if pair not in _CONVERSIONS:
        raise UsageError(f"conversion {args.src} -> {args.to} is not supported")
    _, mat = _load(args.file, ("real", "int"))
    if args.src == "hadamard":
        if args.to == "etf-square":
            out = hadamard.hadamard_to_etf_square(mat).astype(np.int64)
        else:
            out = hadamard.hadamard_to_etf_core(mat).astype(np.int64)
        matio.write_matrix(args.out, out, "int")
        _emit("rows", out.shape[0])
        _emit("cols", out.shape[1])
        return 0
    g = mat.astype(float)
    if args.to == "hadamard":
        if args.src == "etf-square":
            out = hadamard.etf_to_hadamard_square(g, tol)
        else:
            out = hadamard.etf_core_to_hadamard(g, tol)
        matio.write_matrix(args.out, out, "int")
        _emit("order", out.shape[0])
        return 0
    # complex signature targets
    if args.src == "etf-square":
        _, q = complex_lift.lift_square(g, tol)
    else:
        q = complex_lift.lift_core(g, tol)
    matio.write_matrix(args.out, q.astype(complex), "complex")
    _emit("n", q.shape[0])
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
    p.add_argument("kind", choices=VERIFY_KINDS)
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
    p.add_argument("--from", dest="src", required=True, choices=("etf-square", "etf-core", "hadamard"))
    p.add_argument("--to", required=True, choices=("hadamard", "etf-square", "etf-core", "complex-signature"))
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


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
