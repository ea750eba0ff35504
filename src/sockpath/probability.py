"""Exact probability law of the sock-sorting process.

Every quantity here is an exact rational (:class:`fractions.Fraction`,
arbitrary precision, always in lowest terms). Floating point appears
nowhere; decimal strings are a CLI display concern.

The law: a valid completion-height tuple ``(k_1, ..., k_n)`` is realized
by exactly ``2^n * n! * prod(k_i)`` of the ``(2n)!`` equally likely
orderings of the ``2n`` distinguishable socks, so its probability is
``2^n * n! * prod(k_i) / (2n)!``. Tuples no Dyck path realizes have
probability zero.

Whole tables come from one walk, in lexicographic order:
:func:`~sockpath.core._walk` steps only each tuple's prefix, all but its
last ``min(6, n)`` entries, and a table of those tails, built once per
call, fills in the rest, a whole block of rows per step.
:func:`_count_rows` keeps each prefix's part of the integer ordering
count with the odometer's state, and each tail's in the table, so a
row's count is one product and no row is validated again. Every row
shares the denominator ``(2n)!``, so nothing needs a Fraction until the
API boundary: :func:`full_distribution` builds them there, while the
Monte Carlo report compares its tallies with the integers and the CLI
streams rows straight from them.

Marginal statistics enumerate no tuples. The set of the first ``k``
socks alone fixes the table count after draw ``k``, so its integer
kernel :func:`_xk_law` is a closed form over ``C(2n, k)``; that of the
running maximum, :func:`_max_law`, counts Flajolet's Hermite histories,
the perfect matchings of the draw positions, under each ceiling in
O(n^2) integer steps, over ``(2n - 1)!!``. The API builds Fractions from
the kernels, and the CLI renders their integers, as it renders
:func:`_tuple_odds` for a single tuple.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .core import KTuple, _check_cap, _walk, validate_ktuple
from .errors import MalformedInputError, TupleValidityError

# Each function that builds a Fraction imports it, so that the CLI,
# whose commands all render integers and build none, loads neither
# fractions nor the decimal module it imports.
if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "DistributionTable",
    "MarginalStat",
    "tuple_probability",
    "permutation_count",
    "enumerate_ktuples",
    "full_distribution",
    "marginal_xk",
    "max_distribution",
]

# Default caps of the marginal laws: _xk_law sums O(n) binomial terms
# (marginal_xk takes 24 ms at n = 1000 in-process, stats 1000 --k 1000
# 76 ms as a fresh process), and _max_law walks O(n^3) big-integer
# steps, under a second at its cap (stats 200 --what max takes 0.57 to
# 0.78 s, 2.2 s at 300; fresh processes on a 2-vCPU machine).
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


def _tuple_odds(t: KTuple | Iterable[int]) -> tuple[int, int]:
    """``(permutation_count(t), (2n)!)``, or ``(0, (2n)!)`` if no ordering realizes ``t``."""
    k = KTuple(t)
    try:
        count = permutation_count(k)
    except TupleValidityError:
        count = 0
    return count, math.factorial(2 * len(k))


def tuple_probability(t: KTuple | Iterable[int]) -> Fraction:
    """Exact probability that the process realizes ``t``.

    ``permutation_count(t) / (2n)!`` in lowest terms for valid tuples;
    exactly 0 for well-formed tuples no Dyck path realizes (that zero is
    a modeled outcome, not an error). Malformed input raises
    :class:`MalformedInputError`.
    """
    from fractions import Fraction

    return Fraction(*_tuple_odds(t))


def enumerate_ktuples(n: int, *, cap: int | None = None) -> Iterator[KTuple]:
    """Yield every valid tuple of order ``n`` exactly once, lexicographically.

    Recursion bounds: ``k_1`` ranges over ``1..n``; given ``k_i``, the
    next entry ranges over ``max(1, k_i - 1) .. n - i`` (at most ``n - i``
    pairs are still open after the ``i``-th completion); the final entry
    is forced to 1. Implemented iteratively as an odometer over all but
    the last ``min(6, n)`` entries (bump the rightmost entry below its
    bound, refill the rest with minimal values), each prefix followed by
    the valid tails of that order whose first entry is at least
    ``max(1, v - 1)`` for the prefix's last entry ``v``. Count equals
    ``catalan(n)``.
    """
    _check_cap(n, cap, "tuple enumeration")
    return _ktuples_iter(n)


def _ktuples_iter(n: int) -> Iterator[KTuple]:
    trusted = KTuple._trusted
    for head, block in _walk(n, (), lambda s, prev, v: (*s, v), lambda a, v: a):
        yield from [trusted(head + a) for a in block]


def _count_rows(n: int) -> Iterator[tuple[KTuple, int]]:
    """Every valid tuple of order ``n`` with its ordering count, lexicographically.

    Yields ``(t, 2^n * n! * prod(t))``. A prefix's state in the walk is
    ``(pre, 2^n * n! * prod(pre))`` and a tail ``a``'s part is ``(a,
    prod(a))``, so a row joins two tuples and multiplies two counts. No
    row is validated again. Paths are not built here: the tuple-to-path
    bijection keeps lexicographic order, so the rows pair one to one with
    the paths of :func:`~sockpath.core.dyck_paths`. Callers check caps.
    """
    ktuple = KTuple._trusted
    walk = _walk(
        n,
        ((), (1 << n) * math.factorial(n)),
        lambda s, prev, v: ((*s[0], v), s[1] * v),
        lambda a, v: (a, math.prod(a)),
    )
    for (pre, product), block in walk:
        yield from [(ktuple(pre + a), product * c) for a, c in block]


class DistributionTable:
    """Exact law of the process at order ``n``: every valid tuple with its probability.

    Entries are keyed in lexicographic tuple order; they number
    ``catalan(n)`` and sum exactly to 1. Attributes are read-only, and
    the ``entries`` dict is to be treated as immutable once built.
    """

    # A small slotted class, not a tuple: len, [] and iteration are the
    # table's, not its two fields'.
    __slots__ = ("n", "entries")

    n: int
    entries: dict[KTuple, Fraction]

    def __init__(self, n: int, entries: dict[KTuple, Fraction]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # pickle and copy rebuild through __init__, not the blocked setattr
        return DistributionTable, (self.n, self.entries)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.entries == other.entries

    def __repr__(self) -> str:
        return f"DistributionTable(n={self.n!r}, entries={self.entries!r})"

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
        from fractions import Fraction

        values = self.entries.values()
        den = math.lcm(*(p.denominator for p in values))
        return Fraction(sum(p.numerator * (den // p.denominator) for p in values), den)


def full_distribution(n: int, *, cap: int | None = None) -> DistributionTable:
    """Build the complete distribution table for order ``n``.

    Factorials and the ``2^n * n!`` prefactor are computed once per call;
    there is no global cache.
    """
    _check_cap(n, cap, "distribution table")
    from fractions import Fraction

    denominator = math.factorial(2 * n)
    entries = {t: Fraction(c, denominator) for t, c in _count_rows(n)}
    return DistributionTable(n=n, entries=entries)


class MarginalStat(NamedTuple):
    """Exact law and moments of the table count after one fixed draw.

    ``law`` maps each reachable height to its probability; reachable
    heights share the parity of ``k`` and lie in ``[0, min(k, 2n - k)]``.
    """

    n: int
    k: int
    law: dict[int, Fraction]
    mean: Fraction
    variance: Fraction


def _hermite_histories(n: int, ceiling: int) -> int:
    """Perfect matchings of the ``2n`` draw positions whose path never tops ``ceiling``.

    A Dyck path stands for ``prod(k_i)`` matchings, one partner on the
    table per down-step, so an up-step weighs 1 and a down-step from ``h``
    weighs ``h``.
    """
    weights = [1] + [0] * ceiling
    for i in range(2 * n):
        nxt = [0] * (ceiling + 1)
        # after i steps, only heights of i's parity that can still get
        # back to 0 in the 2n - i steps left carry weight
        for h in range(i % 2, min(i, 2 * n - i, ceiling) + 1, 2):
            w = weights[h]
            if h:
                nxt[h - 1] += w * h
            if h < ceiling:
                nxt[h + 1] += w
        weights = nxt
    return weights[0]


def _xk_law(n: int, k: int, cap: int | None = None) -> tuple[dict[int, int], int]:
    """Sets of the first ``k`` socks per table count after draw ``k``, and ``C(2n, k)``.

    ``C(n, j) * C(n - j, h) * 2^h`` of the ``C(2n, k)`` sets complete
    ``j = (k - h) / 2`` pairs and leave ``h`` socks on the table. Every
    such ``h`` has a positive count; keys ascend.
    """
    _check_cap(
        n, cap, "marginal law", default=_MARGINAL_CAP, cost="O(n) binomial sum"
    )
    if not isinstance(k, int) or isinstance(k, bool):
        raise MalformedInputError(f"draw index k must be an integer, got {k!r}")
    if not 1 <= k <= 2 * n:
        raise MalformedInputError(
            f"draw index k = {k!r} out of range 1..{2 * n} for n = {n}"
        )
    law = {}
    for h in range(k % 2, min(k, 2 * n - k) + 1, 2):
        j = (k - h) // 2
        law[h] = math.comb(n, j) * math.comb(n - j, h) << h
    return law, math.comb(2 * n, k)


def _moments(law: dict[int, int], total: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Mean and variance of the law ``law[h] / total``, as unreduced ``(num, den)`` pairs.

    With ``s1 = sum(h * w)`` and ``s2 = sum(h^2 * w)``, they are
    ``s1 / total`` and ``(s2 * total - s1^2) / total^2``.
    """
    s1 = sum(h * w for h, w in law.items())
    s2 = sum(h * h * w for h, w in law.items())
    return (s1, total), (s2 * total - s1 * s1, total * total)


def marginal_xk(n: int, k: int, *, cap: int | None = None) -> MarginalStat:
    """Exact law of the table count after draw ``k``, with mean and variance.

    The law is :func:`_xk_law`'s counts over ``C(2n, k)``: reachable
    heights share the parity of ``k``, each has positive mass, and keys
    ascend.
    """
    law, total = _xk_law(n, k, cap)
    from fractions import Fraction

    mean, variance = _moments(law, total)
    masses = {h: Fraction(w, total) for h, w in law.items()}
    return MarginalStat(n, k, masses, Fraction(*mean), Fraction(*variance))


def _max_law(n: int, cap: int | None = None) -> tuple[dict[int, int], int]:
    """Matchings per highest table count over a whole run, and ``(2n - 1)!!``.

    The count at ``m`` is :func:`_hermite_histories`'s under ceiling ``m``
    and not under ``m - 1``; every height ``1..n`` has one, keys ascending.
    """
    _check_cap(
        n, cap, "maximum law", default=_MAX_LAW_CAP, cost="O(n^3) height count"
    )
    upto = [0] + [_hermite_histories(n, m) for m in range(1, n + 1)]
    law = {m: upto[m] - upto[m - 1] for m in range(1, n + 1)}
    return law, math.prod(range(1, 2 * n, 2))


def max_distribution(n: int, *, cap: int | None = None) -> dict[int, Fraction]:
    """Exact law of the highest table count over a whole run.

    Each of the ``(2n - 1)!!`` matchings stands for ``2^n * n!`` orderings,
    so the mass at ``m`` is :func:`_max_law`'s share of the matchings
    whose path tops out at ``m``. Every height ``1..n`` has positive
    mass. Keys ascend; masses sum to 1.
    """
    law, total = _max_law(n, cap)
    from fractions import Fraction

    return {m: Fraction(w, total) for m, w in law.items()}
