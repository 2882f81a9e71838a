"""Command-line driver: `guardlang check|eval|desugar FILE.gl`.

Exit codes: 0 on acceptance/success, 1 on type errors (and on stuck or
out-of-fuel evaluation, an encoding gap, or an encoded check out of
budget), 2 on usage, missing-file and parse errors, 3 when `check
--certify` finds that the accepted derivation does not replay, and 4, no
verdict, when the input nests too deeply for the checker, for erasure or
for the desugaring encoding to walk within Python's recursion limit (the
parser reads any depth).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import ctxanno, interp
from .parser import ParseError, format_derivation, parse_program, pretty, pretty_program
from .replay import SubDerivation, VerifyError, verify_typing
from .syntax import Program
from .typecheck import Report, typecheck_program

EXIT_OK = 0
EXIT_TYPE_ERROR = 1
EXIT_USAGE = 2
EXIT_NOT_CERTIFIED = 3
EXIT_TOO_DEEP = 4


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="guardlang",
        description="Typechecker and interpreter for a small functional "
        "language with intersection types, guards, merges and indexed types.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def budget(text: str) -> int:
        """The value of --max-depth or --fuel: an int, at least 0."""
        if int(text) < 0:
            raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
        return int(text)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("path", help="a .gl source file")
        p.add_argument("--max-depth", type=budget, default=512, metavar="N",
                       help="budget of typing rules for one program check, where "
                       "the rules of annotation forms are free, and a separate one "
                       "of N subtyping rules for each subtype query; not a bound "
                       "on total work (default 512)")

    p_check = sub.add_parser("check", help="typecheck a program")
    common(p_check)
    p_check.add_argument("--json", action="store_true",
                         help="emit the report as one JSON document")
    p_check.add_argument("--trace", action="store_true",
                         help="print the typing derivation")
    p_check.add_argument("--trace-sub", action="store_true",
                         help="print the subtyping derivations used")
    p_check.add_argument("--certify", action="store_true",
                         help="replay the accepted derivation rule by rule")

    p_eval = sub.add_parser("eval", help="typecheck, then evaluate main")
    common(p_eval)
    p_eval.add_argument("--fuel", type=budget, default=100_000, metavar="N",
                        help="step budget (default 100000)")
    p_eval.add_argument("--mode", choices=("erase", "annotated"),
                        default="erase",
                        help="evaluate the erased term or keep annotations")
    p_eval.add_argument("--unsafe-eval", action="store_true",
                        help="evaluate even if the program does not typecheck")

    p_desugar = sub.add_parser(
        "desugar", help="translate contextual annotations away"
    )
    common(p_desugar)
    p_desugar.add_argument("--verify", action="store_true",
                           help="check the original and the translated program "
                           "and compare the verdicts")
    return ap


def _load(path: str) -> Program:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as ex:
        raise ParseError(f"cannot read {path}: {ex.strerror}")
    except UnicodeDecodeError as ex:
        raise ParseError(
            f"cannot read {path}: not valid UTF-8 "
            f"(byte 0x{ex.object[ex.start]:02x} at offset {ex.start})"
        )
    return parse_program(text, path)


def report_to_dict(report: Report, *, derivation: bool = False) -> dict:
    out = {
        "verdict": report.verdict,
        "diagnostics": [d.as_dict() for d in report.diagnostics],
        "statistics": report.stats.as_dict(),
    }
    if report.checked_type is not None:
        out["type"] = pretty(report.checked_type)
    if derivation and report.derivation is not None:
        out["derivation"] = format_derivation(report.derivation)
    return out


def _print_report(report: Report, args) -> None:
    if args.json:
        print(json.dumps(report_to_dict(report, derivation=args.trace)))
        return
    if report.accepted:
        line = "accepted"
        if report.checked_type is not None:
            line += f" : {pretty(report.checked_type)}"
        print(line)
    else:
        print("rejected")
    for d in report.diagnostics:
        where = f"{d.span}: " if d.span else ""
        print(f"  {where}{d.message}", file=sys.stderr)
    if args.trace and report.derivation is not None:
        print(format_derivation(report.derivation))
    if args.trace_sub and report.derivation is not None:
        for sub in _collect_sub(report.derivation):
            print(format_derivation(sub))


def _collect_sub(d) -> list:
    out = []
    if isinstance(d, SubDerivation):
        out.append(d)
        return out
    for p in getattr(d, "premises", ()):
        out.extend(_collect_sub(p))
    return out


def cmd_check(args) -> int:
    prog = _load(args.path)
    report = typecheck_program(prog, max_depth=args.max_depth)
    _print_report(report, args)
    if not report.accepted:
        return EXIT_TYPE_ERROR
    if args.certify:
        try:
            verify_typing(prog.sig, report.derivation)
        except VerifyError as ex:
            print(f"error: derivation does not replay: {ex}", file=sys.stderr)
            return EXIT_NOT_CERTIFIED
        print("certified", file=sys.stderr)
    return EXIT_OK


def cmd_eval(args) -> int:
    prog = _load(args.path)
    if not args.unsafe_eval:
        report = typecheck_program(prog, max_depth=args.max_depth)
        if not report.accepted:
            print("rejected", file=sys.stderr)
            for d in report.diagnostics:
                where = f"{d.span}: " if d.span else ""
                print(f"  {where}{d.message}", file=sys.stderr)
            return EXIT_TYPE_ERROR
    if args.mode == "erase":
        try:
            term = interp.erase(prog.main)
        except interp.MergeMismatchError as ex:
            print(f"error: {ex}", file=sys.stderr)
            return EXIT_TYPE_ERROR
    else:
        term = prog.main
    result = interp.evaluate(term, fuel=args.fuel)
    if result.outcome == "value":
        value = result.term
        if args.mode == "annotated":
            # A mismatched merge can survive under a lambda value.
            try:
                value = interp.erase(value)
            except interp.MergeMismatchError as ex:
                print(f"error: {ex}", file=sys.stderr)
                return EXIT_TYPE_ERROR
        print(pretty(value))
        print(f"steps: {result.steps}")
        return EXIT_OK
    label = "out of fuel" if result.outcome == "fuel" else "stuck"
    print(f"error: {label}: {result.reason}", file=sys.stderr)
    return EXIT_TYPE_ERROR


def cmd_desugar(args) -> int:
    prog = _load(args.path)
    encoded = ctxanno.encode_program(prog)
    sys.stdout.write(pretty_program(encoded))
    if args.verify:
        try:
            check = ctxanno.verify_encoding(prog, max_depth=args.max_depth)
        except (ctxanno.EncodingGapError, ctxanno.EncodingBudgetError) as ex:
            print(f"error: {ex}", file=sys.stderr)
            return EXIT_TYPE_ERROR
        if check.original.accepted:
            a, b = check.sizes
            print(
                f"-- verified: derivation sizes {a} (contextual) / {b} (encoded)",
                file=sys.stderr,
            )
        else:
            print(
                "-- verified: the original and the encoded program are both rejected",
                file=sys.stderr,
            )
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as ex:
        return EXIT_USAGE if ex.code not in (0, None) else EXIT_OK
    try:
        if args.command == "check":
            return cmd_check(args)
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "desugar":
            return cmd_desugar(args)
    except ParseError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print(
            f"error: {args.path}: input nests too deeply for this checker",
            file=sys.stderr,
        )
        return EXIT_TOO_DEEP
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
