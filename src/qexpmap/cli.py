"""Command-line interface: normal-order expressions, emit matrices, run the
verification suites and manage golden files.

Exit codes: 0 success; 1 failed identity or golden mismatch; 2 parse, usage
or file error; 3 term-count guard exceeded; 4 internal error (a defect of
the program, reported with its traceback).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import expmap, goldens
from .algebra_a import apq_presentation
from .algebra_u import u_presentation
from .parser import parse
from .render import render_matrix, render_poly
from .rewrite import GuardExceeded, RewriteError, UsageError
from .suites import MAX_J_SUITES, MAX_LEN_SUITES, SUITES, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


class _Parser(argparse.ArgumentParser):
    """An argument parser, and through add_subparsers each of its
    subparsers, that takes -1/2 for a negative number as it takes -1, so
    `--z -1/2` reads like `--z=-1/2` instead of as an unknown option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="qexpmap",
        description="Exact symbolic toolkit for the two-parameter quantum "
                    "group of 2x2 matrices and its dual algebra.")
    sub = top.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json", "latex"),
                       default="text")

    p = sub.add_parser("normal-order", help="normal-order an expression")
    p.add_argument("--algebra", choices=("A", "U"), default="A")
    p.add_argument("expr")
    add_format(p)

    p = sub.add_parser("tmatrix", help="emit an exponentiated T-matrix")
    p.add_argument("--j", type=_fraction, required=True)
    p.add_argument("--z", type=_fraction, required=True)
    p.add_argument("--norm", choices=("symmetric", "rational"),
                   default="symmetric")
    p.add_argument("--form", choices=("closed", "factorized"),
                   default="closed")
    add_format(p)

    p = sub.add_parser("lmatrix", help="emit a spin-j L-matrix")
    p.add_argument("--sign", choices=("+", "-"), required=True)
    p.add_argument("--j", type=_fraction, required=True)
    p.add_argument("--norm", choices=("symmetric", "rational"),
                   default="symmetric")
    add_format(p)

    p = sub.add_parser("rmatrix", help="emit a represented R-matrix")
    p.add_argument("--j1", type=_fraction, required=True)
    p.add_argument("--z1", type=_fraction, required=True)
    p.add_argument("--j2", type=_fraction, required=True)
    p.add_argument("--z2", type=_fraction, required=True)
    p.add_argument("--norm", choices=("symmetric", "rational"),
                   default="rational")
    add_format(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--max-j", type=_fraction, default=None)
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--j", type=_fraction, default=None)
    p.add_argument("--z", type=_fraction, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("golden", help="record or compare golden files")
    p.add_argument("action", choices=("record", "compare"))
    p.add_argument("path")
    return top


def _cmd_normal_order(args) -> int:
    pres = apq_presentation() if args.algebra == "A" else u_presentation()
    try:
        poly = parse(args.expr, pres)
    except GuardExceeded:
        raise
    except RewriteError as exc:
        # an invalid atom of the user's expression, such as b^-1 in A
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(render_poly(poly, args.format))
    return EXIT_OK


def _cmd_tmatrix(args) -> int:
    build = expmap.t_matrix_closed if args.form == "closed" \
        else expmap.t_matrix_factorized
    print(render_matrix(build(args.j, args.z, args.norm), args.format))
    return EXIT_OK


def _cmd_lmatrix(args) -> int:
    print(render_matrix(expmap.l_matrix(args.sign, args.j, args.norm),
                        args.format))
    return EXIT_OK


def _cmd_rmatrix(args) -> int:
    print(render_matrix(
        expmap.r_matrix_rep(args.j1, args.z1, args.j2, args.z2, args.norm),
        args.format))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if (args.j is not None or args.z is not None) and args.suite != "comodule":
        raise UsageError("--j and --z apply only to --suite comodule")
    if args.z is not None and args.j is None:
        raise UsageError("--z needs --j")
    if args.max_j is not None:
        if args.suite not in MAX_J_SUITES:
            raise UsageError("--max-j applies only to --suite "
                             + ", ".join(MAX_J_SUITES))
        if args.j is not None:
            raise UsageError("--max-j and --j exclude each other")
        if args.max_j < Fraction(1, 2) or (2 * args.max_j).denominator != 1:
            raise UsageError("--max-j must be a positive half-integer")
    if args.max_len is not None:
        if args.suite not in MAX_LEN_SUITES:
            raise UsageError("--max-len applies only to --suite "
                             + ", ".join(MAX_LEN_SUITES))
        if args.max_len < 2:
            raise UsageError("--max-len must be at least 2")
    opts = {}
    if args.max_j is not None:
        opts["max_j"] = args.max_j
    if args.max_len is not None:
        opts["max_len"] = args.max_len
    if args.j is not None:
        opts["j"] = args.j
    if args.z is not None:
        opts["z"] = args.z
    results = run_suite(args.suite, **opts)
    report = {"suite": args.suite,
              "pass": all(r.passed for r in results),
              "checks": [r.to_json() for r in results]}
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK if report["pass"] else EXIT_FAIL


def _cmd_golden(args) -> int:
    if args.action == "record":
        written = goldens.record(args.path)
        print(json.dumps({"recorded": written}))
        return EXIT_OK
    try:
        mismatches = goldens.compare(args.path)
    except FileNotFoundError as exc:
        print(f"missing golden file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps({"mismatches": mismatches}))
    return EXIT_OK if not mismatches else EXIT_FAIL


_HANDLERS = {
    "normal-order": _cmd_normal_order,
    "tmatrix": _cmd_tmatrix,
    "lmatrix": _cmd_lmatrix,
    "rmatrix": _cmd_rmatrix,
    "verify": _cmd_verify,
    "golden": _cmd_golden,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        # imported here: at module level it adds about a sixth to start-up
        import traceback
        traceback.print_exc()
        print("internal error: please report this with the traceback above",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
