"""Command-line surface: tables, conversions, renderings, verification runs.

Machine formats never contain floats: probabilities serialize as exact
``p/q`` strings and decimal columns are presentation-only renderings at
a configurable precision. CSV uses a fixed header order and LF line
endings; the JSON schema is documented in docs/output-schema.md with a
golden example.

``table`` and ``simulate`` write each row as soon as it is produced, so
a consumer that closes the pipe early stops the command.

Exit codes are stable across subcommands: 0 success, 1 failed
verification, 2 usage or parse error, 3 resource cap exceeded, 4 domain
validity error, 141 (128 + SIGPIPE) stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    DyckPath,
    KTuple,
    _check_cap,
    _climb,
    _dyck_paths_iter,
    ktuple_of_path,
    path_of_ktuple,
)
from .errors import (
    MalformedInputError,
    ResourceLimitError,
    SockPathError,
    ValidityError,
)
from .probability import (
    _count_rows,
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
EXIT_BROKEN_PIPE = 141

DEFAULT_PRECISION = 6

# Highest --precision: CPython's default limit on the digits of an int
# written as text, so every precision that ever printed still does.
MAX_PRECISION = 4300


# ----------------------------------------------------------------------
# Formatting and parsing
# ----------------------------------------------------------------------

def format_decimal(value: Fraction, precision: int) -> str:
    """Correctly rounded (half-even) fixed-point rendering of a rational."""
    return _decimal(value.numerator, value.denominator, precision)


def _decimal(num: int, den: int, precision: int) -> str:
    # The digits of num/den do not depend on whether it is reduced: the
    # quotient and the remainder's ratio to den are the same either way.
    scale = 10 ** precision
    quotient, remainder = divmod(num * scale, den)
    if 2 * remainder > den or (2 * remainder == den and quotient % 2):
        quotient += 1
    whole, frac = divmod(quotient, scale)
    return f"{whole}.{frac:0{precision}d}"


def format_fraction(value: Fraction) -> str:
    """Lossless ``p/q`` string (plain integer when q = 1)."""
    return str(value)


def _ratio(num: int, den: int) -> str:
    # format_fraction(Fraction(num, den)) without building the Fraction.
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


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


def _csv_writer(header: list[str]):
    """A CSV writer on the current stdout, with ``header`` already written."""
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    return writer


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


# Streamed JSON reproduces json.dumps(indent=2) byte for byte: each row
# object sits at depth 2 and each list in it puts one element per line
# at depth 4. The strings filled in are digits, "/" and "." only, which
# JSON never escapes.
_TABLE_ROW_JSON = (
    '    {\n'
    '      "tuple": [\n        %s\n      ],\n'
    '      "probability": "%s",\n'
    '      "probability_decimal": "%s",\n'
    '      "count": "%s",\n'
    '      "path": [\n        %s\n      ]\n'
    '    }'
)

_SIMULATE_ROW_JSON = (
    '    {\n'
    '      "tuple": [\n        %s\n      ],\n'
    '      "count": %d,\n'
    '      "frequency": "%s",\n'
    '      "frequency_decimal": "%s",\n'
    '      "probability": "%s",\n'
    '      "probability_decimal": "%s",\n'
    '      "abs_deviation": "%s",\n'
    '      "abs_deviation_decimal": "%s"\n'
    '    }'
)


def _probability_texts(n: int, precision: int) -> Callable[[int], tuple[str, str, str]]:
    """``(p/q, decimal, count)`` strings of an ordering count over ``(2n)!``.

    Memoized per call: rows share few distinct products (808 among the
    208,012 rows of order 12), so each is rendered once.
    """
    denominator = math.factorial(2 * n)
    memo: dict[int, tuple[str, str, str]] = {}

    def texts(count: int) -> tuple[str, str, str]:
        found = memo.get(count)
        if found is None:
            found = memo[count] = (
                _ratio(count, denominator),
                _decimal(count, denominator, precision),
                str(count),
            )
        return found

    return texts


def _json_items(n: int) -> Callable[[Iterable[int]], str]:
    """Renderer of the elements of a row's list whose entries lie in ``0..n``."""
    digits = [str(v) for v in range(n + 1)]
    separator = ",\n        "

    def render(values: Iterable[int]) -> str:
        return separator.join([digits[v] for v in values])

    return render


def _stream_json(
    head: dict, rows: Iterable[str], metadata: Callable[[], dict]
) -> None:
    """Write ``head`` plus ``rows`` and ``metadata()`` as json.dumps(indent=2) would.

    Each row is written as soon as it is produced; ``metadata`` is called
    after the last one, so it may report on them. ``rows`` must not be
    empty.
    """
    out = sys.stdout  # looked up per call: callers may redirect stdout
    out.write(json.dumps(head, indent=2)[:-2] + ',\n  "rows": [\n')
    rows = iter(rows)
    out.write(next(rows))
    for row in rows:
        out.write(",\n" + row)
    tail = json.dumps(metadata(), indent=2).replace("\n", "\n  ")
    out.write('\n  ],\n  "metadata": ' + tail + "\n}\n")


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
        f"warning: caps overridden to n <= {args.max_n}; costs grow like "
        "Catalan(n) for table and simulate, (2n)! for verify, and n^2 or n^3 "
        "for stats",
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
    """Write the table row by row from the lexicographic row generator.

    Each valid tuple comes with its integer ordering count, so a row is
    rendered from integers over the shared denominator ``(2n)!`` and
    written at once. JSON paths come from the walk of ``dyck_paths``:
    the tuple-to-path bijection keeps lexicographic order, so the walk
    meets the paths in the rows' order. ``--sort prob`` holds only
    ``(-count, tuple)`` pairs, sorts them, then renders, rebuilding each
    path from its tuple.
    """
    n = args.n
    _check_cap(n, _cap_override(args), "distribution table")
    texts = _probability_texts(n, args.precision)
    rows: Iterable[tuple[KTuple, int]] = _count_rows(n)
    paths: Iterable[DyckPath] = _dyck_paths_iter(n)
    if args.sort == "prob":
        # highest probability first; ties broken lexicographically
        order = sorted((-count, t) for t, count in rows)
        rows = ((t, -neg) for neg, t in order)
        paths = (_climb(t) for _, t in order)
    if args.format == "json":
        json_items = _json_items(n)
        _stream_json(
            {"n": n, "generator": "exact"},
            (
                _TABLE_ROW_JSON % (json_items(t), *texts(count), json_items(path))
                for (t, count), path in zip(rows, paths)
            ),
            lambda: {"precision": args.precision},
        )
    else:
        _csv_writer(["tuple", "probability", "probability_decimal", "count"]).writerows(
            (str(t), *texts(count)) for t, count in rows
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
    """Write each tuple's sampled count beside its exact law, row by row.

    The sampled tally holds only the tuples hit; the lexicographic row
    generator supplies the rest with a count of zero. Every deviation
    ``|hits/trials - count/(2n)!|`` is one integer numerator over
    ``trials * (2n)!``, so the running maximum is exact and is written
    after the rows.
    """
    from .process import _sampled_counts  # numpy loads only for sampling commands

    n, trials, seed, precision = args.n, args.trials, args.seed, args.precision
    hits = _sampled_counts(
        n, trials, seed, workers=_resolve_workers(), cap=_cap_override(args)
    )
    texts = _probability_texts(n, precision)
    denominator = math.factorial(2 * n)
    scale = trials * denominator
    worst = 0

    def compared() -> Iterator[tuple[KTuple, int, str, str, int]]:
        nonlocal worst
        for t, count in _count_rows(n):
            hit = hits.get(t, 0)
            exact, decimal, _ = texts(count)
            deviation = abs(hit * denominator - count * trials)
            worst = max(worst, deviation)
            yield t, hit, exact, decimal, deviation

    if args.format == "json":
        json_items = _json_items(n)
        _stream_json(
            {"n": n, "generator": "simulation"},
            (
                _SIMULATE_ROW_JSON
                % (
                    json_items(t),
                    hit,
                    _ratio(hit, trials),
                    _decimal(hit, trials, precision),
                    exact,
                    decimal,
                    _ratio(deviation, scale),
                    _decimal(deviation, scale, precision),
                )
                for t, hit, exact, decimal, deviation in compared()
            ),
            lambda: {
                "seed": seed,
                "trials": trials,
                "precision": precision,
                "max_abs_deviation": _ratio(worst, scale),
                "max_abs_deviation_decimal": _decimal(worst, scale, precision),
            },
        )
    else:
        writer = _csv_writer(
            ["tuple", "count", "frequency", "probability", "abs_deviation"]
        )
        writer.writerows(
            (
                str(t),
                hit,
                _ratio(hit, trials),
                exact,
                _decimal(deviation, scale, precision),
            )
            for t, hit, exact, _, deviation in compared()
        )
        writer.writerow(
            ["max_abs_deviation", "", "", "", _decimal(worst, scale, precision)]
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
        _csv_writer(["height", "probability", "probability_decimal"]).writerows(rows)
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
    if args.precision > MAX_PRECISION:
        print(
            f"sockpath: precision must be <= {MAX_PRECISION}, got {args.precision}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.max_n is not None and args.max_n < 1:
        print(f"sockpath: --max-n must be >= 1, got {args.max_n}", file=sys.stderr)
        return EXIT_USAGE
    # Exact p/q output may need more digits than CPython converts by
    # default: (2n-1)!!, the denominator for n ones, passes 4300 at n = 1424.
    lift = hasattr(sys, "set_int_max_str_digits")  # absent before 3.10.7
    if lift:
        digit_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
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
    finally:
        if lift:
            sys.set_int_max_str_digits(digit_limit)


def run() -> None:
    """Console-script entry point."""
    # machine outputs are UTF-8 regardless of locale
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone. Point stdout at devnull so the interpreter's
        # final flush of what is still buffered cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    raise SystemExit(code)


if __name__ == "__main__":
    run()
