"""Batch front door: validate documents, compute the factor with an
optional full trace, run the identity-check suite, and compare the norm
character against the brute-force oracle.

Exit codes: 0 success, 1 validation/match failure, 2 arithmetic failure,
3 parse failure.
"""

import argparse
import json
import sys

from .document import load_document, parse_tower_literal
from .errors import (
    ArithmeticFailure,
    EndofactorError,
    ParseError,
    ValidationFailure,
)
from .etale import quadratic_field
from .factor import compute_delta, validate_package, validation_steps
from .localfield import (
    BaseField,
    brute_force_norm_oracle,
    norm_test,
    trivial_tower,
    valuation,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_ARITH = 2
EXIT_PARSE = 3


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read document: {exc}", path) from None


def cmd_validate(args, out):
    doc = load_document(_read(args.document), precision=args.precision)
    lines = []
    ok = True
    for step_lines, failure in validation_steps(doc.y, doc.x, doc.group, doc.endoscopic):
        lines.extend(step_lines)
        ok = ok and failure is None
    if args.json:
        out(json.dumps({"command": "validate", "ok": ok, "report": lines},
                       indent=2, sort_keys=True))
    else:
        for line in lines:
            out(line)
        out("valid" if ok else "invalid")
    return EXIT_OK if ok else EXIT_INVALID


def cmd_compute(args, out):
    doc = load_document(_read(args.document), precision=args.precision)
    value, trace = compute_delta(doc.y, doc.x, doc.group, doc.endoscopic)
    if args.json:
        payload = {
            "command": "compute",
            "delta": {"angle": str(value.angle), "value": value.render()},
        }
        if args.trace:
            payload["trace"] = trace.lines()
        out(json.dumps(payload, indent=2, sort_keys=True))
    else:
        if args.trace:
            for line in trace.lines():
                out(line)
        else:
            out(trace.total_line())
    return EXIT_OK


def cmd_check(args, out):
    from . import verify
    doc = load_document(_read(args.document), precision=args.precision)
    validate_package(doc.y, doc.x, doc.group, doc.endoscopic)
    results = verify.run_suite(doc.y, doc.x, doc.group, doc.endoscopic)
    ok = all(flag for _, flag in results)
    if args.json:
        out(json.dumps({
            "command": "check",
            "ok": ok,
            "results": [{"check": name, "ok": flag} for name, flag in results],
        }, indent=2, sort_keys=True))
    else:
        for name, flag in results:
            out(f"{name}: {'pass' if flag else 'FAIL'}")
        out("all checks passed" if ok else "some checks FAILED")
    return EXIT_OK if ok else EXIT_INVALID


def cmd_oracle(args, out):
    try:
        base = BaseField("p-adic", args.p, precision=args.precision)
    except ValueError as exc:
        raise ParseError(str(exc), "arguments") from None
    F = trivial_tower(base)
    delta = parse_tower_literal(args.delta, F, "delta")
    value = parse_tower_literal(args.value, F, "value")
    ext = quadratic_field(F, delta)
    depth = args.depth
    if depth is None:
        depth = valuation(F.element(4)) + (valuation(delta) % 2) + 1
    formula = norm_test(value, ext)
    oracle = brute_force_norm_oracle(value, ext, depth)
    agree = formula == oracle
    if args.json:
        out(json.dumps({"command": "oracle", "formula": formula,
                        "oracle": oracle, "agree": agree, "depth": depth},
                       indent=2, sort_keys=True))
    else:
        out(f"formula: {'+1' if formula == 1 else '-1'}")
        out(f"oracle:  {'+1' if oracle == 1 else '-1'} (depth {depth})")
        out(f"agree:   {'yes' if agree else 'NO'}")
    return EXIT_OK if agree else EXIT_INVALID


def build_parser():
    parser = argparse.ArgumentParser(
        prog="endofactor",
        description="Exact transfer factors for classical groups over local fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable JSON report")
        p.add_argument("--precision", type=int, default=None,
                       help="override the document's working precision")

    p = sub.add_parser("validate", help="run all structural validations")
    p.add_argument("document")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("compute", help="compute the transfer factor")
    p.add_argument("document")
    p.add_argument("--trace", action="store_true",
                   help="print every per-index quantity and prefactor")
    common(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("check", help="run the identity-check suite")
    p.add_argument("document")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("oracle", help="norm character vs brute-force search")
    p.add_argument("p", type=int, help="residue characteristic")
    p.add_argument("delta", help="discriminant literal, e.g. '5' or '2*5'")
    p.add_argument("value", help="the element to test")
    p.add_argument("--depth", type=int, default=None,
                   help="search depth (default: just past v(4*delta))")
    common(p)
    p.set_defaults(func=cmd_oracle, precision=64)     # no document to fall back on
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    out = lambda line: print(line)
    try:
        return args.func(args, out)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ArithmeticFailure as exc:
        print(f"arithmetic failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ARITH
    except ValidationFailure as exc:
        print(f"invalid: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except EndofactorError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
