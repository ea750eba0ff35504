"""The three workloads: their ``sockpath`` command sequences and output checks.

Each command has a full-size form, timed for ``wall_s`` and the other
end-to-end metrics, and a twin at the smallest size (``n = 1``,
``--trials 1``), timed for ``setup_s``. Every output of either size is
checked against :mod:`oracle`, which shares no code with ``sockpath``.
A checker returns the list of problems it found; an empty list passes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass

import oracle

WORKLOADS = ("table-export", "marginals", "oracles")

# Full sizes. Each keeps its workload's dominant layer while letting a
# run hold several rounds; ``layers.py`` traces the same sizes.
TABLE_N = 10
STATS_N = 11
VERIFY_N = 5
SIMULATE = ((5, 1_000_000), (11, 20_000))

# Problems reported per output before a checker stops looking.
_MAX_PROBLEMS = 5


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]
    small: tuple[str, ...]
    # (checker name, keyword arguments) for the full size and the small twin
    check: tuple[str, dict]
    check_small: tuple[str, dict]
    # Also run with two workers, whose output must be byte-equal.
    worker_check: bool = False


def inputs(workload: str, seed: int) -> dict:
    """The seeded inputs of one run; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    return {
        "precision": rng.randint(5, 8),
        "k": rng.randint(STATS_N - 2, STATS_N + 2),
        "sim_seeds": (rng.getrandbits(64), rng.getrandbits(64)),
    }


def commands(workload: str, seed: int) -> list[Command]:
    p = inputs(workload, seed)
    prec = ("--precision", str(p["precision"]))
    if workload == "table-export":
        return [
            _table(TABLE_N, "json", "lex", p["precision"]),
            _table(TABLE_N, "csv", "prob", p["precision"]),
        ]
    if workload == "marginals":
        return [
            Command(
                ("stats", str(STATS_N), "--what", "xk", "--k", str(p["k"]), *prec),
                ("stats", "1", "--what", "xk", "--k", "1", *prec),
                ("check_stats", dict(n=STATS_N, what="xk", k=p["k"], fmt="csv", precision=p["precision"])),
                ("check_stats", dict(n=1, what="xk", k=1, fmt="csv", precision=p["precision"])),
            ),
            Command(
                ("stats", str(STATS_N), "--what", "max", "--format", "json", *prec),
                ("stats", "1", "--what", "max", "--format", "json", *prec),
                ("check_stats", dict(n=STATS_N, what="max", k=None, fmt="json", precision=p["precision"])),
                ("check_stats", dict(n=1, what="max", k=None, fmt="json", precision=p["precision"])),
            ),
        ]
    if workload == "oracles":
        sims = [
            Command(
                ("simulate", str(n), "--trials", str(trials), "--seed", str(sim_seed), *fmt, *prec),
                ("simulate", "1", "--trials", "1", "--seed", str(sim_seed), *fmt, *prec),
                ("check_simulate", dict(n=n, trials=trials, precision=p["precision"])),
                ("check_simulate", dict(n=1, trials=1, precision=p["precision"])),
                worker_check=True,
            )
            for (n, trials), sim_seed, fmt in zip(SIMULATE, p["sim_seeds"], ((), ("--format", "csv")))
        ]
        return [
            Command(("verify", str(VERIFY_N)), ("verify", "1"),
                    ("check_verify", dict(n=VERIFY_N)), ("check_verify", dict(n=1))),
            *sims,
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _table(n: int, fmt: str, sort: str, precision: int) -> Command:
    tail = ("--format", fmt, "--sort", sort, "--precision", str(precision))
    return Command(
        ("table", str(n), *tail),
        ("table", "1", *tail),
        ("check_table", dict(n=n, fmt=fmt, sort=sort, precision=precision)),
        ("check_table", dict(n=1, fmt=fmt, sort=sort, precision=precision)),
    )


# ----------------------------------------------------------------------
# Parsing helpers
# ----------------------------------------------------------------------

def _csv_rows(out: bytes) -> list[list[str]]:
    text = out.decode("utf-8")
    if "\r" in text:
        raise ValueError("CSV output holds a carriage return; lines must end in LF")
    return list(csv.reader(io.StringIO(text)))


def _tuple_text(text: str) -> tuple[int, ...]:
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"tuple cell {text!r} is not parenthesized")
    return tuple(int(v) for v in text[1:-1].split(","))


class _Problems(list):
    def add(self, message: str) -> bool:
        """Record a problem; true once enough are recorded to stop looking."""
        self.append(message)
        return len(self) >= _MAX_PROBLEMS


def _guarded(check):
    """Turn a parse failure inside ``check`` into a reported problem."""

    def wrapper(out: bytes, **kw) -> list[str]:
        try:
            return check(out, **kw)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unparsable output: {type(exc).__name__}: {exc}"]

    wrapper.__name__ = check.__name__
    wrapper.__doc__ = check.__doc__
    return wrapper


def _check_tuple_set(rows: list[tuple[int, ...]], n: int, problems: _Problems) -> None:
    """Catalan(n) distinct realizable tuples of order n (order checked by the caller)."""
    if len(rows) != oracle.catalan(n):
        problems.add(f"{len(rows)} rows, Catalan({n}) = {oracle.catalan(n)}")
    if len(set(rows)) != len(rows):
        problems.add("a tuple appears twice")
    for t in rows:
        if len(t) != n or not oracle.realizable(t):
            if problems.add(f"tuple {t} is not a realizable tuple of order {n}"):
                return


# ----------------------------------------------------------------------
# Checkers
# ----------------------------------------------------------------------

@_guarded
def check_table(out: bytes, *, n: int, fmt: str, sort: str, precision: int) -> list[str]:
    """Rows of ``table``: set, order, p/q, decimal, count, path, total mass."""
    problems = _Problems()
    if fmt == "json":
        doc = json.loads(out)
        if doc["n"] != n or doc["generator"] != "exact" or doc["metadata"] != {"precision": precision}:
            problems.add("JSON header fields differ from n, generator and precision")
        rows = [
            (tuple(r["tuple"]), r["probability"], r["probability_decimal"], r["count"], r["path"])
            for r in doc["rows"]
        ]
    else:
        lines = _csv_rows(out)
        if lines[0] != ["tuple", "probability", "probability_decimal", "count"]:
            problems.add(f"CSV header is {lines[0]}")
        rows = [(_tuple_text(r[0]), r[1], r[2], r[3], None) for r in lines[1:]]
    tuples = [r[0] for r in rows]
    _check_tuple_set(tuples, n, problems)
    if sort == "lex":
        keys = tuples
    else:
        keys = [(-oracle.ordering_count(t), t) for t in tuples]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        problems.add(f"rows are not in {sort} order")
    total = math.factorial(2 * n)
    mass = 0
    for t, prob, dec, count, path in rows:
        c = oracle.ordering_count(t)
        num, den = oracle.reduced(c, total)
        if prob != oracle.ratio_text(c, total) or dec != oracle.half_even(num, den, precision) \
                or count != str(c):
            if problems.add(f"row {t}: {prob} {dec} {count}, oracle {num}/{den} {c}"):
                break
        if path is not None and oracle.walk_down(path) != t:
            if problems.add(f"row {t}: path {path} does not walk back to it"):
                break
        p, q = oracle.parse_ratio(prob)
        if total % q:
            problems.add(f"row {t}: denominator {q} does not divide (2n)!")
            break
        mass += p * (total // q)
    if not problems and mass != total:
        problems.add(f"probabilities sum to {mass}/{total}, not 1")
    return problems


@_guarded
def check_stats(out: bytes, *, n: int, what: str, k: int | None, fmt: str, precision: int) -> list[str]:
    """Law, mean and variance of ``stats`` against the Markov-chain DP."""
    law = oracle.xk_law(n, k) if what == "xk" else oracle.max_law(n)
    want_rows = [[str(h), oracle.ratio_text(p, q), oracle.half_even(p, q, precision)]
                 for h, (p, q) in sorted(law.items())]
    moments = []
    if what == "xk":
        (mp, mq), (vp, vq) = oracle.law_moments(law)
        moments = [["mean", oracle.ratio_text(mp, mq), oracle.half_even(mp, mq, precision)],
                   ["variance", oracle.ratio_text(vp, vq), oracle.half_even(vp, vq, precision)]]
    if fmt == "json":
        doc = json.loads(out)
        got_rows = [[str(r["height"]), r["probability"], r["probability_decimal"]] for r in doc["rows"]]
        got_moments = [[m, doc[m], doc[f"{m}_decimal"]] for m in ("mean", "variance") if m in doc]
        header = {key: doc.get(key) for key in ("n", "generator", "what", "k")}
        if header != {"n": n, "generator": "exact", "what": what, "k": k}:
            return [f"JSON header fields are {header}"]
    else:
        lines = _csv_rows(out)
        if lines[0] != ["height", "probability", "probability_decimal"]:
            return [f"CSV header is {lines[0]}"]
        got_rows = [r for r in lines[1:] if r[0] not in ("mean", "variance")]
        got_moments = [r for r in lines[1:] if r[0] in ("mean", "variance")]
    problems = []
    if got_rows != want_rows:
        problems.append(f"law {got_rows[:4]}... differs from the DP {want_rows[:4]}...")
    if got_moments != moments:
        problems.append(f"moments {got_moments} differ from the DP {moments}")
    return problems


_VERIFY_LINE = re.compile(r"PASS \(([0-9,]+)\): ([0-9]+) orderings")


@_guarded
def check_verify(out: bytes, *, n: int) -> list[str]:
    """Catalan(n) tallies equal to the formula, summing to (2n)!."""
    problems = _Problems()
    lines = out.decode("utf-8").splitlines()
    total = math.factorial(2 * n)
    want_last = f"PASS, {oracle.catalan(n)} tuples checked against {total} orderings"
    if not lines or lines[-1] != want_last:
        problems.add(f"last line {lines[-1:]} is not {want_last!r}")
    tallies = []
    for line in lines[:-1]:
        m = _VERIFY_LINE.fullmatch(line)
        if not m:
            problems.add(f"line {line!r} is not a PASS tally")
            return problems
        tallies.append((tuple(int(v) for v in m.group(1).split(",")), int(m.group(2))))
    tuples = [t for t, _ in tallies]
    _check_tuple_set(tuples, n, problems)
    if tuples != sorted(tuples):
        problems.add("tallies are not in lexicographic order")
    for t, tally in tallies:
        if tally != oracle.ordering_count(t):
            if problems.add(f"{t}: {tally} orderings, formula says {oracle.ordering_count(t)}"):
                break
    if sum(c for _, c in tallies) != total:
        problems.add(f"tallies sum to {sum(c for _, c in tallies)}, not {total}")
    return problems


@_guarded
def check_simulate(out: bytes, *, n: int, trials: int, precision: int) -> list[str]:
    """Monte Carlo table: exact columns, then the tallies through :func:`tally_problems`."""
    problems = _Problems()
    lines = _csv_rows(out)
    if lines[0] != ["tuple", "count", "frequency", "probability", "abs_deviation"]:
        problems.add(f"CSV header is {lines[0]}")
    body, last = lines[1:-1], lines[-1]
    rows = [(_tuple_text(r[0]), int(r[1]), r[2], r[3], r[4]) for r in body]
    tuples = [r[0] for r in rows]
    if any(a >= b for a, b in zip(tuples, tuples[1:])):
        problems.add("rows are not in strictly lexicographic order")
    total = math.factorial(2 * n)
    # |count/trials - c/(2n)!| over the common denominator trials * (2n)!
    den = trials * total
    worst = 0
    for t, count, freq, prob, dev in rows:
        c = oracle.ordering_count(t)
        gap = abs(count * total - c * trials)
        worst = max(worst, gap)
        num, q = oracle.reduced(gap, den)
        if freq != oracle.ratio_text(count, trials) or prob != oracle.ratio_text(c, total) \
                or dev != oracle.half_even(num, q, precision):
            if problems.add(f"row {t}: {freq} {prob} {dev} differ from the oracle"):
                break
    num, q = oracle.reduced(worst, den)
    if last != ["max_abs_deviation", "", "", "", oracle.half_even(num, q, precision)]:
        problems.add(f"last row {last} differs from the oracle's maximum deviation")
    problems.extend(tally_problems(n, trials, {r[0]: r[1] for r in rows}))
    return problems


def tally_problems(n: int, trials: int, counts: dict[tuple[int, ...], int]) -> list[str]:
    """Monte Carlo tallies of order ``n``, tuple to count, against the oracle.

    Every realizable tuple appears once, the counts sum to ``trials``, and
    each count, and the counts grouped by the tuple maximum against the
    DP's max law, lie within the fit bound.
    """
    problems = _Problems()
    _check_tuple_set(sorted(counts), n, problems)
    if sum(counts.values()) != trials:
        problems.add(f"counts sum to {sum(counts.values())}, not {trials}")
    total = math.factorial(2 * n)
    by_max: dict[int, int] = {}
    for t, count in counts.items():
        by_max[max(t)] = by_max.get(max(t), 0) + count
        c = oracle.ordering_count(t)
        if abs(count - trials * c / total) > oracle.count_bound(trials, c, total, len(counts)):
            if problems.add(f"{t}: count {count} fails the fit bound around {trials * c / total:.1f}"):
                break
    for m, (p, q) in oracle.max_law(n).items():
        got = by_max.get(m, 0)
        if abs(got - trials * p / q) > oracle.count_bound(trials, p, q, n):
            problems.add(f"{got} trials peak at {m}, fit bound around {trials * p / q:.1f}")
    return problems


CHECKERS = {f.__name__: f for f in (check_table, check_stats, check_verify, check_simulate)}


def run_check(check: tuple[str, dict], out: bytes) -> list[str]:
    name, kw = check
    return CHECKERS[name](out, **kw)
