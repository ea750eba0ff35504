"""Command-line surface: tables, conversions, renderings, verification runs.

Machine formats never contain floats: probabilities serialize as exact
``p/q`` strings and decimal columns are presentation-only renderings at
a configurable precision. CSV uses a fixed header order and LF line
endings; the JSON schema is documented in docs/output-schema.md with a
golden example.

Exit codes are stable across subcommands: 0 success, 1 failed
verification, 2 usage or parse error, 3 resource cap exceeded, 4 domain
validity error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import DyckPath, KTuple, ktuple_of_path, path_of_ktuple
from .errors import (
    MalformedInputError,
    ResourceLimitError,
    SockPathError,
    ValidityError,
)
from .probability import (
    full_distribution,
    marginal_xk,
    max_distribution,
    permutation_count,
    tuple_probability,
)

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INVALID = 4

DEFAULT_PRECISION = 6


# ----------------------------------------------------------------------
# Formatting and parsing
# ----------------------------------------------------------------------

def format_decimal(value: Fraction, precision: int) -> str:
    """Correctly rounded (half-even) fixed-point rendering of a rational."""
    scale = 10 ** precision
    quotient, remainder = divmod(value.numerator * scale, value.denominator)
    if 2 * remainder > value.denominator or (
        2 * remainder == value.denominator and quotient % 2
    ):
        quotient += 1
    whole, frac = divmod(quotient, scale)
    return f"{whole}.{frac:0{precision}d}"


def format_fraction(value: Fraction) -> str:
    """Lossless ``p/q`` string (plain integer when q = 1)."""
    return str(value)


def parse_tuple_literal(text: str) -> KTuple:
    """Comma-separated positive integers, optional surrounding parentheses."""
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    entries = []
    for token in body.split(","):
        token = token.strip()
        try:
            entries.append(int(token))
        except ValueError:
            raise MalformedInputError(
                f"invalid tuple entry {token!r}: expected a positive integer"
            ) from None
    return KTuple(entries)


def parse_path_literal(text: str) -> DyckPath:
    """Space- or comma-separated heights; validity checked on construction."""
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise MalformedInputError("empty path literal")
    heights = []
    for token in tokens:
        try:
            heights.append(int(token))
        except ValueError:
            raise MalformedInputError(
                f"invalid path entry {token!r}: expected an integer height"
            ) from None
    return DyckPath(heights)


def render_ascii(path: DyckPath) -> str:
    """Mountain view: one column per draw, a mark wherever the height reaches the row."""
    lines = []
    for row in range(path.max_height, 0, -1):
        lines.append("".join("•" if h >= row else " " for h in path).rstrip())
    return "\n".join(lines)


@dataclass(frozen=True)
class OutputRecord:
    """One table row in its serialized form.

    ``path`` is populated only for formats that carry it (JSON); the CSV
    column set is fixed and path-free.
    """

    tuple: KTuple
    probability_exact: str
    probability_decimal: str
    permutation_count: str
    path: DyckPath | None

    def json_object(self) -> dict:
        assert self.path is not None
        return {
            "tuple": list(self.tuple),
            "probability": self.probability_exact,
            "probability_decimal": self.probability_decimal,
            "count": self.permutation_count,
            "path": list(self.path),
        }

    def csv_row(self) -> list[str]:
        return [
            str(self.tuple),
            self.probability_exact,
            self.probability_decimal,
            self.permutation_count,
        ]


def _record(
    t: KTuple, probability: Fraction, precision: int, with_path: bool
) -> OutputRecord:
    return OutputRecord(
        tuple=t,
        probability_exact=format_fraction(probability),
        probability_decimal=format_decimal(probability, precision),
        permutation_count=str(permutation_count(t)),
        path=path_of_ktuple(t) if with_path else None,
    )


def _emit_csv(header: list[str], rows: Iterable[Sequence[str]]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _resolve_workers() -> int:
    """Worker bound from SOCKPATH_THREADS: unset -> 1, 0 -> all CPUs, N -> min(N, CPUs)."""
    raw = os.environ.get("SOCKPATH_THREADS")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        print(
            f"warning: ignoring non-integer SOCKPATH_THREADS={raw!r}", file=sys.stderr
        )
        return 1
    if value < 0:
        print(f"warning: ignoring negative SOCKPATH_THREADS={raw}", file=sys.stderr)
        return 1
    cpus = os.cpu_count() or 1
    return cpus if value == 0 else min(value, cpus)


def _cap_override(args: argparse.Namespace) -> int | None:
    if args.max_n is None:
        return None
    print(
        f"warning: enumeration caps overridden to n <= {args.max_n}; "
        "costs grow like Catalan(n) or (2n)!",
        file=sys.stderr,
    )
    return args.max_n


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def _cmd_prob(args: argparse.Namespace) -> int:
    t = parse_tuple_literal(args.tuple)
    p = tuple_probability(t)
    print(f"{format_fraction(p)} ({format_decimal(p, args.precision)})")
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    cap = _cap_override(args)
    table = full_distribution(args.n, cap=cap)
    pairs = list(table.entries.items())
    if args.sort == "prob":
        # highest probability first; ties broken lexicographically
        pairs.sort(key=lambda item: (-item[1], item[0]))
    with_path = args.format == "json"
    records = [_record(t, p, args.precision, with_path) for t, p in pairs]
    if args.format == "json":
        _emit_json(
            {
                "n": args.n,
                "generator": "exact",
                "rows": [r.json_object() for r in records],
                "metadata": {"precision": args.precision},
            }
        )
    else:
        _emit_csv(
            ["tuple", "probability", "probability_decimal", "count"],
            (r.csv_row() for r in records),
        )
    return EXIT_OK


def _cmd_path(args: argparse.Namespace) -> int:
    t = parse_tuple_literal(args.tuple)
    p = path_of_ktuple(t)
    print(str(p))
    if args.ascii:
        print(render_ascii(p))
    return EXIT_OK


def _cmd_ktuple(args: argparse.Namespace) -> int:
    p = parse_path_literal(args.path)
    t = ktuple_of_path(p)
    print(",".join(str(v) for v in t))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .process import brute_force_counts  # numpy loads only for sampling commands

    cap = _cap_override(args)
    counts = brute_force_counts(args.n, cap=cap, workers=_resolve_workers())
    total = sum(counts.values())
    expected_total = math.factorial(2 * args.n)
    failures = 0
    for t, tally in counts.items():
        expected = permutation_count(t)
        if tally == expected:
            print(f"PASS {t}: {tally} orderings")
        else:
            failures += 1
            print(f"FAIL {t}: {tally} orderings, expected {expected}")
    if total != expected_total:
        failures += 1
        print(f"FAIL total: {total} orderings tallied, expected {expected_total}")
    verdict = "PASS" if failures == 0 else "FAIL"
    print(f"{verdict}, {len(counts)} tuples checked against {expected_total} orderings")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .process import monte_carlo  # numpy loads only for sampling commands

    cap = _cap_override(args)
    report = monte_carlo(
        args.n, args.trials, args.seed, workers=_resolve_workers(), cap=cap
    )
    precision = args.precision
    max_dev = report.max_abs_deviation
    if args.format == "json":
        rows = [
            {
                "tuple": list(t),
                "count": report.empirical[t],
                "frequency": format_fraction(row.frequency),
                "frequency_decimal": format_decimal(row.frequency, precision),
                "probability": format_fraction(row.probability),
                "probability_decimal": format_decimal(row.probability, precision),
                "abs_deviation": format_fraction(row.deviation),
                "abs_deviation_decimal": format_decimal(row.deviation, precision),
            }
            for t, row in report.comparison.items()
        ]
        _emit_json(
            {
                "n": report.n,
                "generator": "simulation",
                "rows": rows,
                "metadata": {
                    "seed": report.seed,
                    "trials": report.trials,
                    "precision": precision,
                    "max_abs_deviation": format_fraction(max_dev),
                    "max_abs_deviation_decimal": format_decimal(max_dev, precision),
                },
            }
        )
    else:
        body = [
            [
                str(t),
                str(report.empirical[t]),
                format_fraction(row.frequency),
                format_fraction(row.probability),
                format_decimal(row.deviation, precision),
            ]
            for t, row in report.comparison.items()
        ]
        body.append(
            ["max_abs_deviation", "", "", "", format_decimal(max_dev, precision)]
        )
        _emit_csv(
            ["tuple", "count", "frequency", "probability", "abs_deviation"], body
        )
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    cap = _cap_override(args)
    precision = args.precision
    if args.what == "xk":
        if args.k is None:
            raise MalformedInputError("--what xk requires --k")
        stat = marginal_xk(args.n, args.k, cap=cap)
        law = stat.law
        moments = [("mean", stat.mean), ("variance", stat.variance)]
    else:
        law = max_distribution(args.n, cap=cap)
        moments = []
    if args.format == "json":
        payload: dict = {
            "n": args.n,
            "generator": "exact",
            "what": args.what,
            "rows": [
                {
                    "height": h,
                    "probability": format_fraction(p),
                    "probability_decimal": format_decimal(p, precision),
                }
                for h, p in law.items()
            ],
        }
        if args.what == "xk":
            payload["k"] = args.k
        for name, value in moments:
            payload[name] = format_fraction(value)
            payload[f"{name}_decimal"] = format_decimal(value, precision)
        _emit_json(payload)
    else:
        rows = [
            [str(h), format_fraction(p), format_decimal(p, precision)]
            for h, p in law.items()
        ]
        rows.extend(
            [name, format_fraction(value), format_decimal(value, precision)]
            for name, value in moments
        )
        _emit_csv(["height", "probability", "probability_decimal"], rows)
    return EXIT_OK


# ----------------------------------------------------------------------
# Parser and dispatch
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--precision",
        type=int,
        default=DEFAULT_PRECISION,
        help="decimal digits for display columns (default %(default)s)",
    )
    common.add_argument(
        "--max-n",
        type=int,
        default=None,
        metavar="N",
        help="override enumeration/simulation caps (prints a warning)",
    )
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format",
        choices=("csv", "json"),
        default="csv",
        help="output format (default %(default)s)",
    )

    parser = argparse.ArgumentParser(
        prog="sockpath",
        description="Exact combinatorics of the sock-sorting process.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "prob", parents=[common], help="exact probability of a tuple"
    )
    p.add_argument("tuple", help="tuple literal, e.g. 2,4,3,2,1 or (2,1)")
    p.set_defaults(func=_cmd_prob)

    p = sub.add_parser(
        "table", parents=[common, fmt], help="full distribution table for order n"
    )
    p.add_argument("n", type=int)
    p.add_argument(
        "--sort",
        choices=("prob", "lex"),
        default="lex",
        help="row order: lexicographic tuples or descending probability "
        "(lexicographic tie-break); default %(default)s",
    )
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser(
        "path", parents=[common], help="Dyck path realizing a tuple"
    )
    p.add_argument("tuple")
    p.add_argument("--ascii", action="store_true", help="also draw the path")
    p.set_defaults(func=_cmd_path)

    p = sub.add_parser(
        "ktuple", parents=[common], help="completion-height tuple of a path"
    )
    p.add_argument("path", help="height sequence, e.g. 1,2,1,0 or '1 2 1 0'")
    p.set_defaults(func=_cmd_ktuple)

    p = sub.add_parser(
        "verify",
        parents=[common],
        help="check every brute-force tally against the formula",
    )
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "simulate", parents=[common, fmt], help="Monte Carlo vs the exact law"
    )
    p.add_argument("n", type=int)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "stats", parents=[common, fmt], help="exact marginal laws and moments"
    )
    p.add_argument("n", type=int)
    p.add_argument(
        "--what",
        choices=("xk", "max"),
        default="xk",
        help="table count after draw k, or the running maximum",
    )
    p.add_argument("--k", type=int, default=None, help="draw index for --what xk")
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.precision < 1:
        print(f"sockpath: precision must be >= 1, got {args.precision}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"sockpath: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValidityError as exc:
        print(f"sockpath: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MalformedInputError as exc:
        print(f"sockpath: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SockPathError as exc:
        print(f"sockpath: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """Console-script entry point."""
    # machine outputs are UTF-8 regardless of locale
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
    raise SystemExit(main())


if __name__ == "__main__":
    run()
