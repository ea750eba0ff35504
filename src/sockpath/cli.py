"""Command-line surface: tables, conversions, renderings, verification runs.

Machine formats never contain floats: probabilities serialize as exact
``p/q`` strings and decimal columns are presentation-only renderings at
a configurable precision. CSV uses a fixed header order and LF line
endings; the JSON schema is documented in docs/output-schema.md with a
golden example.

``table`` and ``simulate`` write their rows as they are rendered, so a
consumer that closes the pipe early stops the command. The engine
yields integers only; every row's text is rendered here. :func:`_blocks`
brings each tuple prefix the odometer steps with its block of tails,
the text of each prefix and of each tail in its table rendered once per
call. In walk order, ``table`` joins each row from those texts and the
cells of its ordering count, rendered once per distinct count, in one
generator expression over the blocks, and ``writelines`` writes the rows
one by one. ``simulate`` writes each block's rows as one string. It
never decodes its sample: a row's path code is joined from its prefix's
part and its tail's, and the sorted codes hit are looked up only in the
blocks whose range holds some of them. These lines, and those of
``stats``'s CSV, are byte for byte what ``csv.writer`` and
``json.dumps(indent=2)`` would write; ``stats`` writes its JSON, at
most ``n + 1`` rows, with one ``json.dump``.

Exit codes are stable across subcommands: 0 success, 1 failed
verification, 2 usage or parse error, 3 resource cap exceeded, 4 domain
validity error, 141 (128 + SIGPIPE) stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import gc
import math
import os
import sys
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .core import (
    DyckPath,
    KTuple,
    _check_cap,
    _climb,
    _walk,
    ktuple_of_path,
    path_of_ktuple,
)
from .errors import (
    MalformedInputError,
    ResourceLimitError,
    SockPathError,
    ValidityError,
)
from .probability import _count_rows, marginal_xk, max_distribution, tuple_probability

if TYPE_CHECKING:  # only prob and stats, which build Fractions, load fractions
    from fractions import Fraction

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
    """Correctly rounded (half-even) fixed-point rendering of a rational.

    A negative value's magnitude is rounded, then signed; one that
    rounds to zero is written unsigned, as ``round`` gives 0.
    """
    text = _decimal(abs(value.numerator), value.denominator, precision)
    return "-" + text if value < 0 and text.strip("0.") else text


def _decimal(num: int, den: int, precision: int) -> str:
    # For num >= 0 only: divmod floors, which would round a negative
    # quotient the wrong way. The digits of num/den do not depend on
    # whether it is reduced: the quotient and the remainder's ratio to
    # den are the same either way.
    scale = 10 ** precision
    quotient, remainder = divmod(num * scale, den)
    if 2 * remainder > den or (2 * remainder == den and quotient % 2):
        quotient += 1
    whole, frac = divmod(quotient, scale)
    return f"{whole}.{frac:0{precision}d}"


def _ratio(num: int, den: int) -> str:
    # str(Fraction(num, den)) without building the Fraction.
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _ints(tokens: Iterable[str], what: str, expected: str) -> list[int]:
    # The integers a literal's tokens spell; the first that spells none is named.
    values = []
    for token in tokens:
        try:
            values.append(int(token))
        except ValueError:
            raise MalformedInputError(
                f"invalid {what} entry {token!r}: expected {expected}"
            ) from None
    return values


def parse_tuple_literal(text: str) -> KTuple:
    """Comma-separated positive integers, optional surrounding parentheses."""
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    tokens = [token.strip() for token in body.split(",")]
    return KTuple(_ints(tokens, "tuple", "a positive integer"))


def parse_path_literal(text: str) -> DyckPath:
    """Space- or comma-separated heights; validity checked on construction."""
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise MalformedInputError("empty path literal")
    return DyckPath(_ints(tokens, "path", "an integer height"))


def render_ascii(path: DyckPath) -> str:
    """Mountain view: one column per draw, a mark wherever the height reaches the row."""
    lines = []
    for row in range(path.max_height, 0, -1):
        lines.append("".join("•" if h >= row else " " for h in path).rstrip())
    return "\n".join(lines)


# Streamed JSON reproduces json.dumps(indent=2) byte for byte: each row
# object sits at depth 2 and each list in it puts one element per line
# at depth 4. A row is ",\n", which _stream_json drops from the first,
# _JSON_ROW_OPEN, the tuple's elements joined by _JSON_ITEM, then its
# cells: for table, _JSON_TABLE_CELLS, the path's elements and
# _JSON_ROW_CLOSE; for simulate, _JSON_SIMULATE_CELLS. The strings
# filled in are digits, "/" and "." only, which JSON never escapes.
_JSON_ITEM = ",\n        "
_JSON_ROW_OPEN = '    {\n      "tuple": [\n        '
_JSON_ROW_CLOSE = "\n      ]\n    }"

_JSON_TABLE_CELLS = (
    '\n      ],\n'
    '      "probability": "%s",\n'
    '      "probability_decimal": "%s",\n'
    '      "count": "%s",\n'
    '      "path": [\n        '
)

_JSON_SIMULATE_CELLS = (
    '\n      ],\n'
    '      "count": %d,\n'
    '      "frequency": "%s",\n'
    '      "frequency_decimal": "%s",\n'
    '      "probability": "%s",\n'
    '      "probability_decimal": "%s",\n'
    '      "abs_deviation": "%s",\n'
    '      "abs_deviation_decimal": "%s"\n'
    '    }'
)


# The path slots of _blocks that stay empty, as in table's CSV
_NO_PATH = ("", lambda s, prev, v: "", lambda a, v: "")


def _blocks(n: int, fmt: str, slots: tuple = _NO_PATH) -> Iterator[tuple[tuple, list]]:
    """Every prefix block of order ``n`` as ``(head, tails)``, lexicographically.

    The walk of :func:`~sockpath.core._walk` keeps, per odometer prefix,
    the head ``(pre, 2^n * n! * prod(pre), text, slot)`` and, per
    tail ``a`` in its table, ``(a, prod(a), text, slot)``: a row's
    tuple is ``pre + a``, its ordering count the product of the two
    and its tuple text the two texts joined. In CSV that text is the
    cell ``(k_1,...,k_n)``, quoted as csv.writer quotes a cell with a
    comma, from ``n = 2`` on; in JSON it is the row object up to the
    tuple's elements. ``slots``, ``(start, entry, tail)``, fills the
    path slots: ``start`` is the empty prefix's, ``entry(slot, prev,
    v)`` a prefix's once ``v`` follows the prefix of slot ``slot``,
    which ends in ``prev`` (1 if empty), and ``tail(a, v)`` tail ``a``'s
    after a prefix ending in ``v``. :func:`_json_path`'s slots hold the
    text of the row's path, :func:`~sockpath.process._code_slots`'s its
    path code; without ``slots`` they are empty.
    """
    if fmt == "json":
        before, sep, after = _JSON_ROW_OPEN, _JSON_ITEM, ""
    else:
        quote = '"' if n > 1 else ""
        before, sep, after = quote + "(", ",", ")" + quote
    # entries lie in 1..n
    items = [f"{v}{sep}" for v in range(n + 1)]
    path, climb, path_tail = slots

    def entry(s: tuple, prev: int, v: int) -> tuple:
        return (*s[0], v), s[1] * v, s[2] + items[v], climb(s[3], prev, v)

    def tail(a: tuple, v: int) -> tuple:
        return a, math.prod(a), sep.join(map(str, a)) + after, path_tail(a, v)

    start = ((), (1 << n) * math.factorial(n), before, path)
    return _walk(n, start, entry, tail)


def _json_path() -> tuple[str, Callable, Callable]:
    """The path slots of :func:`_blocks` whose texts are the JSON elements of a row's path.

    A prefix's text runs through its last down-step; a tail's holds its
    own heights, then ``_JSON_ROW_CLOSE``.
    """
    # the text of entry v after prev, rendered once per pair
    climbs = _Cells(lambda pv: "".join([f"{h}{_JSON_ITEM}" for h in _climb((pv[1],), pv[0])]))
    return (
        "",
        lambda s, prev, v: s + climbs[prev, v],
        lambda a, v: _JSON_ITEM.join(map(str, _climb(a, v))) + _JSON_ROW_CLOSE,
    )


class _Cells(dict):
    """``cells[key]`` is ``render(key)``, rendered once: a hit is a plain dict lookup."""

    def __init__(self, render: Callable[[object], str | tuple]) -> None:
        super().__init__()
        self.render = render

    def __missing__(self, key: object) -> str | tuple:
        text = self[key] = self.render(key)
        return text


def _stream_json(head: dict, rows: Iterable[str], tail: Callable[[], dict]) -> None:
    """Write ``head``, ``rows`` and ``tail()`` as json.dumps(indent=2) would.

    ``rows`` are the rendered elements of the ``"rows"`` list, or runs of
    them, each led by the ``",\\n"`` that separates it from the one
    before, which is dropped from the first; each is written as soon as
    it is produced.
    ``tail`` is called after the last one, so its fields, which follow
    the list, may report on them. Neither may be empty.
    """
    import json  # loaded only for the commands that write JSON

    out = sys.stdout  # looked up per call: callers may redirect stdout
    out.write(json.dumps(head, indent=2)[:-2] + ',\n  "rows": [\n')
    rows = iter(rows)
    out.write(next(rows)[2:])
    out.writelines(rows)
    # tail's own object at depth 0 is its fields' text at depth 1
    out.write("\n  ]," + json.dumps(tail(), indent=2)[1:] + "\n")


def _resolve_workers() -> int:
    """Worker bound from SOCKPATH_THREADS: unset -> 1, 0 -> all CPUs, N -> N.

    The engines clamp the bound to the CPU count themselves.
    """
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
    return (os.cpu_count() or 1) if value == 0 else value


def _cap_override(args: argparse.Namespace, ceiling: int | None = None) -> int | None:
    """The ``--max-n`` cap, announced with a cost warning.

    No warning is printed when ``n`` exceeds the engine's ``ceiling``, a
    limit no cap lifts: that run is refused, not costly.
    """
    if args.max_n is None:
        return None
    if ceiling is not None and args.n > ceiling:
        return args.max_n
    print(
        f"warning: caps overridden to n <= {args.max_n}; costs grow like "
        "Catalan(n) for table and simulate, (2n)! for verify, n for stats "
        "--what xk and n^3 for stats --what max",
        file=sys.stderr,
    )
    return args.max_n


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def _cmd_prob(args: argparse.Namespace) -> int:
    t = parse_tuple_literal(args.tuple)
    p = tuple_probability(t)
    print(f"{p} ({format_decimal(p, args.precision)})")
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    """Write the table in one pass over the walk's blocks, each row joined from fragments.

    The blocks of :func:`_blocks` bring each prefix's head and its tails:
    a row's ordering count is the product of theirs, and its text comes
    in two parts, the head's and the tail's, whatever its length: the
    CSV cell, or the JSON row's opening, tuple and path. The cells that
    depend on the count alone (``p/q``, decimal, count) are rendered
    once per distinct count. ``--sort lex`` renders the rows in walk
    order, each block's tails unpacked in one generator expression.

    ``--sort prob`` sorts by count classes, not rows: there are 286
    distinct counts at ``n = 10`` and 2,142 at ``n = 14``. The tails of
    each of the walk's blocks are split once by their own count, and
    each prefix appends its head and each such run of tails, the objects
    the walk shares, to one flat list per row count. The lists are
    written from the highest count down, each dropped once written: in
    CSV one class per write, in JSON one row per write. A prefix's rows
    enter a list in walk order, so ties stay lexicographic.
    """
    n, precision = args.n, args.precision
    _check_cap(n, _cap_override(args), "distribution table")
    den = math.factorial(2 * n)
    is_json = args.format == "json"
    lead = ",\n" if is_json else ""  # what comes before a row
    template = _JSON_TABLE_CELLS if is_json else ",%s,%s,%s\n"
    cells = _Cells(lambda c: template % (_ratio(c, den), _decimal(c, den, precision), c))
    blocks = _blocks(n, args.format, _json_path() if is_json else _NO_PATH)
    if args.sort == "prob":
        classes: dict[int, list] = collections.defaultdict(list)
        # the walk yields the same few block lists over and over
        runs_of: dict[int, list] = {}
        for h, block in blocks:
            runs = runs_of.get(id(block))
            if runs is None:
                by_count = collections.defaultdict(list)
                for t in block:
                    by_count[t[1]].append(t)
                runs = runs_of[id(block)] = list(by_count.items())
            hc = h[1]
            for c, tails in runs:
                classes[hc * c] += h, tails

        def descending() -> Iterator[tuple[str, Iterator]]:
            for count in sorted(classes, reverse=True):
                flat = iter(classes.pop(count))
                yield cells[count], zip(flat, flat)

        if is_json:
            lines = (
                f"{lead}{pre}{text}{cell}{climb}{rest}"
                for cell, pairs in descending()
                for (_, _, pre, climb), tails in pairs
                for _, _, text, rest in tails
            )
        else:
            # a class's lines in one write
            lines = (
                "".join([h[2] + t[2] + cell for h, tails in pairs for t in tails])
                for cell, pairs in descending()
            )
    else:
        # One generator over the walk's blocks, so that rows are written
        # as they are rendered: a list per block ran as fast but wrote in
        # bursts that left a pipe's reader a full pipe far more often. In
        # CSV the lead and the path texts are empty.
        lines = (
            f"{lead}{pre}{text}{cells[hc * c]}{climb}{rest}"
            for (_, hc, pre, climb), block in blocks
            for _, c, text, rest in block
        )
    if is_json:
        _stream_json(
            {"n": n, "generator": "exact"},
            lines,
            lambda: {"metadata": {"precision": precision}},
        )
    else:
        out = sys.stdout
        out.write("tuple,probability,probability_decimal,count\n")
        out.writelines(lines)
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
    # numpy loads only for sampling commands
    from .process import _MAX_WALKABLE_N, brute_force_counts

    cap = _cap_override(args, _MAX_WALKABLE_N)
    counts = brute_force_counts(args.n, cap=cap, workers=_resolve_workers())
    total = sum(counts.values())
    expected_total = math.factorial(2 * args.n)
    failures = 0
    # Every valid tuple is checked, tallied or not, and so is every
    # tallied tuple, valid or not (no ordering realizes an invalid one).
    expected = dict(_count_rows(args.n))
    checked = sorted(expected.keys() | counts.keys())
    for t in checked:
        tally, want = counts.get(t, 0), expected.get(t, 0)
        if tally == want:
            print(f"PASS {t}: {tally} orderings")
        else:
            failures += 1
            print(f"FAIL {t}: {tally} orderings, expected {want}")
    if total != expected_total:
        failures += 1
        print(f"FAIL total: {total} orderings tallied, expected {expected_total}")
    verdict = "PASS" if failures == 0 else "FAIL"
    print(f"{verdict}, {len(checked)} tuples checked against {expected_total} orderings")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def _cmd_simulate(args: argparse.Namespace) -> int:
    """Write each tuple's sampled count beside its exact law, a block of rows at a time.

    The sample is the tally of path codes from
    :func:`~sockpath.process._sample_codes`, never decoded:
    :func:`_blocks` supplies every row, hit or not, with its tuple text
    and its ordering count, as for ``table``, and, through
    :func:`~sockpath.process._code_slots`, with its path code. The codes
    of a prefix's rows fill one range, and the sorted codes hit and the
    prefixes ascend together: a pointer into the codes shows which blocks
    have hits. A block without them renders its rows from cells keyed by
    their count alone, and a block with them looks each row's code up.
    Each block is written as one string. ``deviation`` gives each row's
    ``|hits/trials - count/(2n)!|`` as one integer over
    ``trials * (2n)!``. A row's cells depend on its ``(hits, count)``
    pair alone, so they are rendered once per distinct pair (4,538 of
    208,012 rows at ``simulate 12 --trials 200000``). The largest
    deviation, written after the rows, is the one over those pairs, as
    the :func:`~sockpath.process.monte_carlo` report's is over its rows.
    """
    # numpy loads only for sampling commands
    from .process import _MAX_PATH_N, _code_slots, _sample_codes

    n, trials, seed, precision = args.n, args.trials, args.seed, args.precision
    hits = _sample_codes(
        n, trials, seed, workers=_resolve_workers(), cap=_cap_override(args, _MAX_PATH_N)
    )
    den = math.factorial(2 * n)
    scale = trials * den

    def deviation(hit: int, count: int) -> int:
        # |hit/trials - count/(2n)!| over trials * (2n)!, as the report's
        return abs(hit * den - count * trials)

    # The cells after a row's tuple, from its hits and its ordering count:
    # the hits, then the frequency, the exact law and the deviation. JSON
    # gives each of the three as p/q and as a decimal; CSV gives the
    # frequency and the law as p/q and the deviation as a decimal, and
    # renders nothing else. The frequency's and the law's texts are
    # rendered once per hit count and per ordering count, not per
    # (hits, count) pair.
    ratios = _Cells(lambda key: _ratio(*key))
    if args.format == "json":
        decimals = _Cells(lambda key: _decimal(*key, precision))

        def cells(hit: int, count: int) -> str:
            dev = deviation(hit, count)
            return _JSON_SIMULATE_CELLS % (
                hit,
                ratios[hit, trials],
                decimals[hit, trials],
                ratios[count, den],
                decimals[count, den],
                _ratio(dev, scale),
                _decimal(dev, scale, precision),
            )

    else:

        def cells(hit: int, count: int) -> str:
            dev = _decimal(deviation(hit, count), scale, precision)
            return f",{hit},{ratios[hit, trials]},{ratios[count, den]},{dev}\n"

    rendered = _Cells(lambda key: cells(*key))
    missed = _Cells(lambda count: rendered[0, count])
    lead = ",\n" if args.format == "json" else ""  # what comes before a row

    def lines() -> Iterator[str]:
        # A block's rows in one string, each the head's text and its own.
        # codes[i] is the first code hit past the blocks already written.
        codes, get, i = sorted(hits), hits.get, 0
        for (_, hc, head, (base, room)), block in _blocks(n, args.format, _code_slots(n)):
            joint, top = lead + head, base + (1 << room)
            if i < len(codes) and codes[i] < top:
                i = bisect.bisect_left(codes, top, i)
                suffixes = [text + rendered[get(base | code, 0), hc * c]
                            for _, c, text, code in block]
            else:
                suffixes = [text + missed[hc * c] for _, c, text, _ in block]
            yield joint + joint.join(suffixes)

    def largest() -> int:  # called once, after the rows are written
        return max(deviation(*key) for key in rendered)

    if args.format == "json":
        _stream_json(
            {"n": n, "generator": "simulation"},
            lines(),
            lambda: {
                "metadata": {
                    "seed": seed,
                    "trials": trials,
                    "precision": precision,
                    "max_abs_deviation": _ratio(worst := largest(), scale),
                    "max_abs_deviation_decimal": _decimal(worst, scale, precision),
                }
            },
        )
    else:
        out = sys.stdout
        out.write("tuple,count,frequency,probability,abs_deviation\n")
        out.writelines(lines())
        out.write(f"max_abs_deviation,,,,{_decimal(largest(), scale, precision)}\n")
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
        if args.k is not None:
            raise MalformedInputError("--k applies only to --what xk")
        law = max_distribution(args.n, cap=cap)
        moments = []
    if args.format == "json":
        import json  # loaded only for the commands that write JSON

        # the rows, then k, the moments and the metadata
        rows = [
            {
                "height": h,
                "probability": str(p),
                "probability_decimal": format_decimal(p, precision),
            }
            for h, p in law.items()
        ]
        payload: dict = {"n": args.n, "generator": "exact", "what": args.what, "rows": rows}
        if args.what == "xk":
            payload["k"] = args.k
        for name, value in moments:
            payload[name] = str(value)
            payload[f"{name}_decimal"] = format_decimal(value, precision)
        payload["metadata"] = {"precision": precision}
        # dump writes the text as it is encoded, never all of it at once
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        # the moments follow the heights as rows of the same shape
        out = sys.stdout
        out.write("height,probability,probability_decimal\n")
        out.writelines(
            f"{h},{p},{format_decimal(p, precision)}\n"
            for h, p in [*law.items(), *moments]
        )
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
    except SockPathError as exc:
        print(f"sockpath: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if lift:
            sys.set_int_max_str_digits(digit_limit)


def run() -> None:
    """Console-script entry point.

    Once the command has finished and stdout is flushed, or the reader
    has gone, the heap is frozen (:func:`gc.freeze`) just before the
    exit: the interpreter's shutdown collections then skip the objects
    the imports left tracked (argparse, fractions, numpy), 6 to 22 ms
    of a small command's wall time on a 2-vCPU guest. Nothing else
    about the exit changes: atexit handlers, the join of worker threads
    and the final flush of the standard streams still run. The
    collector stays enabled while the command runs, and :func:`main`
    and the library never touch it.
    """
    # No command calls BLAS, yet numpy's OpenBLAS starts a thread per CPU
    # on import; one thread is enough. A value set by the user still wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
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
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    run()
