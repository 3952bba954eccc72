"""Command-line front end: weights, single tests, traces, comparisons, fuzzing.

Numbers are always passed as strings so arbitrarily long inputs work.
The divisibility verdict goes to stdout, never into the exit code:
0 means the command ran, 1 a domain error, 2 a usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import analyzer, oracle
from .digits import parse
from .families import (
    BINOMIAL,
    FAMILIES,
    FAMILY_TABLE,
    LAST_DIGITS,
    SUM,
    TALMUD,
    TRIM,
    TestRule,
    apply_once,
    iterate,
)
from .weights import INVERSE, METHODS, ROUNDING, TABLE, weight_inverse, weight_rounding, weight_table


# '-', a decimal digit, then base-36 digits: a negative number, even with letters in it
_NEGATIVE_NUMBER = re.compile(r"-[0-9][0-9a-zA-Z]*")


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads ``-2u6`` as a negative number, as it reads ``-49``.

    A negative number whose first digit is a letter still needs ``--`` before it.
    """

    def _parse_optional(self, arg_string):
        return None if _NEGATIVE_NUMBER.fullmatch(arg_string) else super()._parse_optional(arg_string)


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _add_common(p: argparse.ArgumentParser, with_q: bool = True) -> None:
    if with_q:
        p.add_argument("-q", type=int, required=True, help="divisor under test")
    p.add_argument("--base", type=int, default=10, help="radix of the number text (2..36)")
    p.add_argument("--json", action="store_true", help="emit stable JSON instead of text")
    p.set_defaults(parser=p)


def _divisors(text: str) -> list[int]:
    """compare's -q: comma-separated integers, at least one; anything else is a usage error."""
    try:
        q_list = [int(part) for part in text.split(",") if part]
    except ValueError:
        q_list = []
    if not q_list:
        raise argparse.ArgumentTypeError(f"expected comma-separated integer divisors, got {text!r}")
    return q_list


def _rule(args) -> TestRule:
    """The rule for args.family, with the family's own q when -q is not given."""
    q = args.q if args.q is not None else FAMILY_TABLE[args.family].default_q
    if q is None:
        args.parser.error("argument -q is required for this --family")
    return TestRule(args.family, q, args.base)


def _cmd_weight(args) -> int:
    derive = {TABLE: weight_table, ROUNDING: weight_rounding, INVERSE: weight_inverse}
    if args.method != INVERSE and args.base != 10:
        raise ValueError(f"method {args.method!r} is base-10 only; use --method inverse")
    omega = derive[args.method](args.q) if args.base == 10 else weight_inverse(args.q, args.base)
    methods = {name: fn(args.q) for name, fn in derive.items()} if args.base == 10 else None
    agree = len(set(methods.values())) == 1 if methods else None
    if args.json:
        _emit_json(
            {
                "q": args.q,
                "base": args.base,
                "omega": omega,
                "method": args.method,
                "methods": methods,
                "agree": agree,
            }
        )
    else:
        tail = "n/a" if agree is None else ("yes" if agree else "NO")
        print(f"q={args.q} base={args.base} omega={omega:+d} method={args.method} agree={tail}")
    return 0


def _cmd_apply(args) -> int:
    rule = _rule(args)
    a = parse(args.number, args.base)
    result = apply_once(a, rule)
    if args.json:
        payload = {
            "family": rule.family,
            "q": rule.q,
            "base": rule.base,
            "input": a.render(),
            "result": result.render(),
        }
        if rule.k is not None:
            payload["k"] = rule.k
        _emit_json(payload)
    else:
        print(result.render())
    return 0


def _cmd_trace(args) -> int:
    rule = _rule(args)
    a = parse(args.number, args.base)
    trace = iterate(a, rule, stacked=args.stacked)
    # each chunk goes out as it is made; the first checks the base before any is written
    chunks = trace._json_chunks() if args.json else (line + "\n" for line in trace._lines())
    for chunk in chunks:
        sys.stdout.write(chunk)
    return 0


def _cmd_compare(args) -> int:
    numbers = [parse(text, args.base) for text in args.numbers]
    table = analyzer.compare(args.q, numbers, args.base)
    if args.json:
        _emit_json(table.as_json())
    else:
        print(table.to_csv(), end="")
    return 0


def _cmd_check(args) -> int:
    rule = _rule(args)
    report = oracle.fuzz_equivalence(rule, args.trials, args.max_digits, args.seed)
    if args.json:
        _emit_json(report.as_json())
    else:
        print(
            f"family={rule.family} q={rule.q} base={rule.base} trials={report.trials} "
            f"seed={report.seed} mismatches={report.mismatches} "
            f"mean_length_drop={report.mean_length_drop:.4f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="trimsum",
        description="Trimming, summing and binomial divisibility tests over arbitrary bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weight", help="derive the trimming weight for a divisor")
    _add_common(p)
    p.add_argument("--method", choices=METHODS, default=INVERSE)
    p.set_defaults(func=_cmd_weight)

    for family, name, blurb in [
        (TRIM, "trim", "apply one right trim"),
        (SUM, "sum", "weighted digit sum, weights from the top digit"),
        (BINOMIAL, "binomial", "binomial digit sum, weights from the last digit"),
        (LAST_DIGITS, "lastdigit", "keep the low digits (q must divide a base power)"),
        (TALMUD, "talmud", "twice the hundreds plus the last two digits (q=7)"),
    ]:
        p = sub.add_parser(name, help=blurb)
        _add_common(p, with_q=FAMILY_TABLE[family].default_q is None)
        p.add_argument("number", help="the number, as text in the chosen base")
        p.set_defaults(func=_cmd_apply, family=family, q=None)

    p = sub.add_parser("trace", help="iterate a rule to its verdict, printing each step")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("-q", type=int, default=None, help="divisor (optional for talmud)")
    _add_common(p, with_q=False)
    p.add_argument("--stacked", action="store_true", help="trim on stacked coefficients")
    p.add_argument("number")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("compare", help="cost table across binomial, sum and trim")
    p.add_argument("-q", type=_divisors, required=True, help="comma-separated divisors, e.g. 7,9,11")
    p.add_argument("--base", type=int, default=10)
    p.add_argument("--json", action="store_true")
    p.add_argument("numbers", nargs="+")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("check", help="seeded fuzz: a rule must preserve divisibility")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("-q", type=int, default=None, help="divisor (optional for talmud)")
    _add_common(p, with_q=False)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--max-digits", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check)

    return parser


# parse_args leaves the parser as it was, so one serves every call
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
