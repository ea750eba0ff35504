"""Exact probability law of the sock-sorting process.

Every quantity here is an exact rational (:class:`fractions.Fraction`,
arbitrary precision, always in lowest terms). Floating point appears
nowhere; decimal strings are a CLI display concern.

The law: a valid completion-height tuple ``(k_1, ..., k_n)`` is realized
by exactly ``2^n * n! * prod(k_i)`` of the ``(2n)!`` equally likely
orderings of the ``2n`` distinguishable socks, so its probability is
``2^n * n! * prod(k_i) / (2n)!``. Tuples no Dyck path realizes have
probability zero.

Whole tables come from one row generator: an odometer steps through the
valid tuples in lexicographic order, and each row carries the tuple's
integer ordering count built from the odometer's state, with no row
validated again. Rows carry no paths: the tuple-to-path bijection keeps
lexicographic order, so the walk of :func:`~sockpath.core.dyck_paths`
meets the paths in the rows' order. Every row shares the denominator
``(2n)!``, so nothing needs a Fraction until the API boundary:
:func:`full_distribution` and the Monte Carlo report build them there,
while the CLI streams rows straight from the integers.

Marginal statistics (the table count after draw ``k``, the running
maximum) come from the Markov chain on the table count instead of an
enumeration of tuples: with ``h`` socks on the table after ``i`` draws,
``h`` of the ``2n - i`` socks left complete a pair and the others open
one. Counting orderings height by height takes O(n^2) integer steps for
the law after one draw and O(n^3) for the maximum; no closed forms are
assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .core import KTuple, _check_cap, validate_ktuple
from .errors import MalformedInputError, TupleValidityError

__all__ = [
    "ExactProb",
    "DistributionTable",
    "MarginalStat",
    "tuple_probability",
    "permutation_count",
    "enumerate_ktuples",
    "full_distribution",
    "marginal_xk",
    "max_distribution",
]

# Probabilities are plain Fractions; the alias documents intent in signatures.
ExactProb = Fraction

# Default caps of the height-count DP, each near a second on one core:
# marginal_xk is O(n^2) big-integer steps (0.6 s at n = 1000) and
# max_distribution O(n^3) (1.5 s at n = 200, 8 s at 300).
_MARGINAL_CAP = 1000
_MAX_LAW_CAP = 200


def permutation_count(t: KTuple | Iterable[int]) -> int:
    """Number of sock orderings realizing the valid tuple ``t``.

    Counts ``2^n * n! * prod(k_i)``: each first-drawn sock of a pair may
    be left or right (``2^n``), the pair types may occupy the first-draw
    positions in any order (``n!``), and the ``i``-th completion may match
    any of the ``k_i`` socks then on the table.
    """
    k = KTuple(t)
    if not validate_ktuple(k):
        raise TupleValidityError(
            f"no ordering realizes the invalid tuple {k}", index=None
        )
    n = len(k)
    return (1 << n) * math.factorial(n) * math.prod(k)


def tuple_probability(t: KTuple | Iterable[int]) -> Fraction:
    """Exact probability that the process realizes ``t``.

    ``2^n * n! * prod(k_i) / (2n)!`` in lowest terms for valid tuples;
    exactly 0 for well-formed tuples no Dyck path realizes (that zero is
    a modeled outcome, not an error). Malformed input raises
    :class:`MalformedInputError`.
    """
    k = KTuple(t)
    if not validate_ktuple(k):
        return Fraction(0)
    n = len(k)
    num = (1 << n) * math.factorial(n) * math.prod(k)
    return Fraction(num, math.factorial(2 * n))


def enumerate_ktuples(n: int, *, cap: int | None = None) -> Iterator[KTuple]:
    """Yield every valid tuple of order ``n`` exactly once, lexicographically.

    Recursion bounds: ``k_1`` ranges over ``1..n``; given ``k_i``, the
    next entry ranges over ``max(1, k_i - 1) .. n - i`` (at most ``n - i``
    pairs are still open after the ``i``-th completion); the final entry
    is forced to 1. Implemented iteratively as an odometer: bump the
    rightmost entry below its bound, refill the suffix with minimal
    values. Count equals ``catalan(n)``.
    """
    _check_cap(n, cap, "tuple enumeration")
    return _ktuples_iter(n)


def _ktuples_iter(n: int) -> Iterator[KTuple]:
    k = [1] * n
    trusted = KTuple._trusted
    for _ in _odometer(k):
        yield trusted(tuple(k))


def _odometer(k: list[int]) -> Iterator[int]:
    """Step ``k`` in place through every valid tuple of its order, lexicographically.

    ``k`` must start as all ones. Before each step the generator yields
    the index of the first entry changed since the previous tuple (0 for
    the first), so callers can update state kept per prefix.
    """
    n = len(k)
    i = 0
    while True:
        yield i
        i = n - 2
        while i >= 0 and k[i] >= n - i:
            i -= 1
        if i < 0:
            return
        k[i] += 1
        for j in range(i + 1, n):
            prev = k[j - 1]
            k[j] = prev - 1 if prev > 2 else 1


def _count_rows(n: int) -> Iterator[tuple[KTuple, int]]:
    """Every valid tuple of order ``n`` with its ordering count, lexicographically.

    Yields ``(t, 2^n * n! * prod(t))``. Products are kept per prefix, so
    a step recomputes only what follows the first entry the odometer
    changed; no row is validated again. Paths are not built here: the
    tuple-to-path bijection keeps lexicographic order, so the rows pair
    one to one with the paths of :func:`~sockpath.core.dyck_paths`.
    Callers check caps.
    """
    k = [1] * n
    # prods[j] = 2^n * n! * k_1 * ... * k_j
    prods = [(1 << n) * math.factorial(n)] * (n + 1)
    ktuple = KTuple._trusted
    for i in _odometer(k):
        for j in range(i, n):
            prods[j + 1] = prods[j] * k[j]
        yield ktuple(k), prods[n]


@dataclass(frozen=True)
class DistributionTable:
    """Exact law of the process at order ``n``: every valid tuple with its probability.

    Entries are keyed in lexicographic tuple order; they number
    ``catalan(n)`` and sum exactly to 1. Treat as immutable once built.
    """

    n: int
    entries: dict[KTuple, Fraction]

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, t: KTuple | Iterable[int]) -> Fraction:
        return self.entries[KTuple(t)]

    def __iter__(self) -> Iterator[KTuple]:
        return iter(self.entries)

    def total(self) -> Fraction:
        """Sum of all probabilities; exactly 1 for a correctly built table.

        Summed as integers over the least common denominator, which is
        ``(2n)!`` or a divisor of it for a table this module built.
        """
        values = self.entries.values()
        den = math.lcm(*(p.denominator for p in values))
        return Fraction(sum(p.numerator * (den // p.denominator) for p in values), den)


def full_distribution(n: int, *, cap: int | None = None) -> DistributionTable:
    """Build the complete distribution table for order ``n``.

    Factorials and the ``2^n * n!`` prefactor are computed once per call;
    there is no global cache.
    """
    _check_cap(n, cap, "distribution table")
    denominator = math.factorial(2 * n)
    entries = {t: Fraction(c, denominator) for t, c in _count_rows(n)}
    return DistributionTable(n=n, entries=entries)


@dataclass(frozen=True)
class MarginalStat:
    """Exact law and moments of the table count after one fixed draw.

    ``law`` maps each reachable height to its probability; reachable
    heights share the parity of ``k`` and lie in ``[0, min(k, 2n - k)]``.
    """

    n: int
    k: int
    law: dict[int, Fraction]
    mean: Fraction
    variance: Fraction


def _law_moments(law: dict[int, Fraction]) -> tuple[Fraction, Fraction]:
    mean = sum((h * p for h, p in law.items()), Fraction(0))
    second = sum((h * h * p for h, p in law.items()), Fraction(0))
    return mean, second - mean * mean


def _height_counts(n: int, draws: int, ceiling: int) -> list[int]:
    """Orderings of the first ``draws`` socks, indexed by the table count after them.

    Entry ``h`` counts the sequences of ``draws`` distinct socks out of
    ``2n`` that leave ``h`` socks on the table and never put more than
    ``ceiling`` there. From height ``h`` after ``i`` draws, ``h`` of the
    ``2n - i`` socks left step down and the other ``2n - i - h`` step up.
    """
    counts = [1] + [0] * ceiling
    for i in range(draws):
        left = 2 * n - i
        nxt = [0] * (ceiling + 1)
        for h, c in enumerate(counts):
            if c:
                if h:
                    nxt[h - 1] += c * h
                if h < ceiling:
                    nxt[h + 1] += c * (left - h)
        counts = nxt
    return counts


def marginal_xk(n: int, k: int, *, cap: int | None = None) -> MarginalStat:
    """Exact law of the table count after draw ``k``, with mean and variance.

    The height counts of :func:`_height_counts` after ``k`` draws sum to
    the ``(2n)! / (2n - k)!`` ordered choices of the first ``k`` socks;
    each height's share of them is its probability.
    """
    _check_cap(
        n, cap, "marginal law", default=_MARGINAL_CAP, cost="O(n^2) height count"
    )
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= 2 * n:
        raise MalformedInputError(
            f"draw index k = {k!r} out of range 1..{2 * n} for n = {n}"
        )
    total = math.perm(2 * n, k)
    law = {
        h: Fraction(c, total) for h, c in enumerate(_height_counts(n, k, n)) if c
    }
    mean, variance = _law_moments(law)
    return MarginalStat(n=n, k=k, law=law, mean=mean, variance=variance)


def max_distribution(n: int, *, cap: int | None = None) -> dict[int, Fraction]:
    """Exact law of the highest table count over a whole run.

    Capping the heights of :func:`_height_counts` at ``m`` and running
    all ``2n`` draws counts, at height 0, the orderings whose maximum is
    at most ``m``; the mass at ``m`` is the difference between
    consecutive caps. Every height ``1..n`` has positive mass. Keys
    ascend; masses sum to 1.
    """
    _check_cap(
        n, cap, "maximum law", default=_MAX_LAW_CAP, cost="O(n^3) height count"
    )
    total = math.factorial(2 * n)
    law: dict[int, Fraction] = {}
    below = 0
    for m in range(1, n + 1):
        upto = _height_counts(n, 2 * n, m)[0]
        law[m] = Fraction(upto - below, total)
        below = upto
    return law
