"""Domain types and the tuple/path bijection for the sock-sorting process.

A sorting run of ``n`` pairs is summarized two equivalent ways:

* a :class:`DyckPath` ``(x_1, ..., x_2n)``: the number of unmatched socks
  on the table after each draw, with ``x_0 = 0`` implicit and never stored;
* a :class:`KTuple` ``(k_1, ..., k_n)``: the table height from which each
  of the ``n`` down-steps is taken, i.e. the table count at the moment
  each pair is completed.

Indices in documentation, error messages and CLI output are 1-based to
match the usual mathematical convention; internal storage is plain
0-based tuples and never leaks.

A tuple is *valid* exactly when some Dyck path realizes it:
``k_{i+1} >= k_i - 1`` for all ``i < n`` and ``k_n = 1``.
:func:`ktuple_of_path` and :func:`path_of_ktuple` are mutually inverse
bijections between valid tuples and Dyck paths of the same order.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator

from .errors import (
    MalformedInputError,
    PathValidityError,
    ResourceLimitError,
    TupleValidityError,
)

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "KTuple",
    "DyckPath",
    "catalan",
    "validate_ktuple",
    "ktuple_of_path",
    "path_of_ktuple",
    "down_step_indices",
    "dyck_paths",
]

# Catalan(14) = 2,674,440 paths; past this, exhaustive enumeration stops
# being an interactive operation. Overridable per call.
DEFAULT_ENUMERATION_CAP = 14


def catalan(n: int) -> int:
    """Number of Dyck paths of semilength ``n`` (and of valid tuples of order ``n``).

    ``catalan(0) == 1``, the empty path. A bool, a non-integer or a
    negative ``n`` raises :class:`MalformedInputError`.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise MalformedInputError(f"n must be a non-negative integer, got {n!r}")
    return math.comb(2 * n, n) // (n + 1)


def _entries(values: Iterable, what: str) -> tuple:
    # A value that cannot be iterated denotes no model object at all.
    try:
        items = iter(values)
    except TypeError:
        raise MalformedInputError(
            f"{what} must be iterable, got {type(values).__name__}"
        ) from None
    return tuple(items)


class KTuple(tuple):
    """Completion-height tuple ``(k_1, ..., k_n)``.

    Entry ``k_i`` is the number of socks on the table when the ``i``-th
    pair is completed. Construction only enforces well-formedness
    (non-empty, integer entries >= 1); whether a Dyck path realizes the
    tuple is a separate question answered by :func:`validate_ktuple`,
    because invalid tuples are still meaningful inputs (they carry
    probability zero).
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable[int]) -> "KTuple":
        if isinstance(entries, KTuple):
            return entries
        vals = _entries(entries, "a tuple")
        if not vals:
            raise MalformedInputError("tuple must be non-empty")
        for i, v in enumerate(vals, 1):
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise MalformedInputError(
                    f"tuple entry k_{i} = {v!r} is not a positive integer"
                )
        return super().__new__(cls, vals)

    @classmethod
    def _trusted(cls, entries: Iterable[int]) -> "KTuple":
        # Hot-path constructor for callers that guarantee well-formedness
        # (enumeration, extraction); skips per-entry validation.
        return tuple.__new__(cls, entries)

    @property
    def n(self) -> int:
        """Number of sock pairs."""
        return len(self)

    def __repr__(self) -> str:
        return f"KTuple({super().__repr__()})"

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for v in self) + ")"


class DyckPath(tuple):
    """Table-height sequence ``(x_1, ..., x_2n)`` of a sorting run.

    Invariants, checked at construction: ``x_1 = 1``, consecutive heights
    differ by exactly 1, all heights are >= 0, and ``x_2n = 0`` (which
    forces even length and equally many up- and down-steps). The implicit
    starting height ``x_0 = 0`` is never stored. Violations raise
    :class:`PathValidityError` naming the first offending 1-based index.
    """

    __slots__ = ()

    def __new__(cls, heights: Iterable[int]) -> "DyckPath":
        if isinstance(heights, DyckPath):
            return heights
        x = _entries(heights, "a path")
        if not x:
            raise PathValidityError("path must be non-empty", index=1)
        for i, v in enumerate(x, 1):
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise PathValidityError(
                    f"height x_{i} = {v!r} is not a non-negative integer", index=i
                )
        if x[0] != 1:
            raise PathValidityError(f"x_1 = {x[0]} but a path must start at 1", index=1)
        for i in range(1, len(x)):
            if abs(x[i] - x[i - 1]) != 1:
                raise PathValidityError(
                    f"x_{i + 1} = {x[i]} does not differ from x_{i} = {x[i - 1]} by 1",
                    index=i + 1,
                )
        if len(x) % 2:
            raise PathValidityError(
                f"path has odd length {len(x)}; draws come in completed pairs",
                index=len(x),
            )
        if x[-1] != 0:
            raise PathValidityError(
                f"x_{len(x)} = {x[-1]} but a path must end at 0", index=len(x)
            )
        return super().__new__(cls, x)

    @classmethod
    def _trusted(cls, heights: Iterable[int]) -> "DyckPath":
        # For internal construction sites that guarantee the invariants.
        return tuple.__new__(cls, heights)

    @property
    def n(self) -> int:
        """Semilength: the number of sock pairs."""
        return len(self) // 2

    @property
    def max_height(self) -> int:
        return max(self)

    def __repr__(self) -> str:
        return f"DyckPath({super().__repr__()})"

    def __str__(self) -> str:
        return " ".join(str(v) for v in self)


def _first_violation(k: tuple) -> tuple[int, str] | None:
    """First 1-based index where ``k`` breaks the realizability rule, or None."""
    n = len(k)
    for i in range(n - 1):
        if k[i + 1] < k[i] - 1:
            return (
                i + 2,
                f"k_{i + 2} >= k_{i + 1} - 1 violated: "
                f"k_{i + 2} = {k[i + 1]} < {k[i] - 1}",
            )
    if k[n - 1] != 1:
        return n, f"k_n = 1 violated: k_{n} = {k[n - 1]}"
    return None


def validate_ktuple(t: KTuple | Iterable[int]) -> bool:
    """True iff some Dyck path realizes ``t``.

    The rule: each completion can drop the table count by at most one
    (``k_{i+1} >= k_i - 1``) and the last completion empties the table
    (``k_n = 1``). Malformed input (empty, entries < 1) raises
    :class:`MalformedInputError` rather than returning False.
    """
    return _first_violation(KTuple(t)) is None


def down_step_indices(p: DyckPath | Iterable[int]) -> tuple[int, ...]:
    """1-based indices ``i`` with ``x_{i+1} = x_i - 1``, in increasing order.

    These are the positions from which the path steps down; the height at
    the ``j``-th of them is ``k_j``. Note the final index is always
    ``2n - 1``.
    """
    x = DyckPath(p)
    return tuple(i for i in range(1, len(x)) if x[i] == x[i - 1] - 1)


def ktuple_of_path(p: DyckPath | Iterable[int]) -> KTuple:
    """Extract the completion-height tuple of a Dyck path.

    Reads off the height at each position from which the path steps down.
    The result is always a valid tuple of the same order.
    """
    x = DyckPath(p)
    ks = tuple(x[i - 1] for i in down_step_indices(x))
    return KTuple._trusted(ks)


def path_of_ktuple(t: KTuple | Iterable[int]) -> DyckPath:
    """Reconstruct the unique Dyck path realizing a valid tuple.

    The path rises to ``k_1``, then for each completion takes one
    down-step and rises to the next required height. Raises
    :class:`TupleValidityError` naming the first index at which ``t``
    breaks the realizability rule.
    """
    k = KTuple(t)
    violation = _first_violation(k)
    if violation is not None:
        index, reason = violation
        raise TupleValidityError(f"no Dyck path realizes {k}: {reason}", index=index)
    return DyckPath._trusted(_climb(k))


def _climb(k: tuple, prev: int = 1) -> tuple[int, ...]:
    # The heights of valid entries k after a completion at height prev
    # (1 for none): each entry rises from the one before it to itself,
    # then steps down once.
    x = []
    for v in k:
        x.extend(range(prev, v + 1))
        x.append(v - 1)
        prev = v
    return tuple(x)


def _require_positive_int(name: str, value: object) -> None:
    # bool is an int subclass, but True is not a count of anything.
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise MalformedInputError(f"{name} must be a positive integer, got {value!r}")


def _check_cap(
    n: int,
    cap: int | None,
    what: str,
    *,
    default: int = DEFAULT_ENUMERATION_CAP,
    cost: str | None = None,
    ceiling: tuple[int, str] | None = None,
) -> None:
    # ``cost`` names the work the cap bounds; by default the Catalan(n)
    # objects an enumeration visits. No cap lifts ``n`` past a ``ceiling``
    # ``(limit, reason)``; it is checked second, so the cap error wins.
    limit = default if cap is None else cap
    _require_positive_int("n", n)
    if cap is not None:
        _require_positive_int("cap", cap)
    if n > limit:
        if cost is None:
            # Past n = 100 the count has more than 57 digits, and from
            # n = 7,153 more than str() converts by default: name it only.
            count = f" = {catalan(n)}" if n <= 100 else ""
            cost = f"enumeration cap {limit} (Catalan({n}){count} objects)"
        else:
            cost = f"cap {limit} of its {cost}"
        raise ResourceLimitError(
            f"{what} for n = {n} exceeds the {cost}; "
            "pass a higher cap= (--max-n in the CLI) to override",
            n=n,
            cap=limit,
        )
    if ceiling is not None and n > ceiling[0]:
        top, reason = ceiling
        raise ResourceLimitError(
            f"{what} for n = {n} exceeds {top} pairs, a limit no cap lifts: {reason}",
            n=n,
            cap=top,
        )


def dyck_paths(n: int, *, cap: int | None = None) -> Iterator[DyckPath]:
    """Yield every Dyck path of semilength ``n`` exactly once.

    Paths come in lexicographic order of their height sequences; the
    total count is ``catalan(n)``. The tuple-to-path bijection keeps
    lexicographic order, so the paths follow :func:`_walk` of the
    tuples: each is the path through its prefix's last down-step, kept
    per prefix entry, followed by its tail's heights, climbed on from
    the prefix's last entry.
    """
    _check_cap(n, cap, "path enumeration")
    return _dyck_paths_iter(n)


def _dyck_paths_iter(n: int) -> Iterator[DyckPath]:
    trusted = DyckPath._trusted
    walk = _walk(n, (), lambda x, prev, v: x + _climb((v,), prev), _climb)
    for head, block in walk:
        yield from [trusted(head + tail) for tail in block]


# Entries of each tuple that come from a table instead of the odometer.
# The table holds Catalan(_TAIL) tails (132 at 6) in _TAIL + 1 blocks;
# each odometer step then yields a whole block of rows. 6 walked fastest
# at n = 10 and 11; 7 gains about 15% at n = 12 but builds a table of
# 429 tails, not 132, on every call.
_TAIL = 6


def _walk(
    n: int,
    start: object,
    entry: Callable[[object, int, int], object],
    tail: Callable[[tuple, int], object],
) -> Iterator[tuple[object, list]]:
    """Each valid prefix of order ``n`` with its block of tails, lexicographically.

    Order ``n`` splits into ``P = n - L`` entries stepped by
    :func:`_odometer` and ``L = min(_TAIL, n)`` taken from a table: the
    valid tuples of order ``n`` are exactly each valid prefix followed by
    each valid order-``L`` tuple ``a`` with ``a_1 >= max(1, v - 1)``,
    where ``v`` ends the prefix. The table is built once per call by the
    same odometer and split into blocks by that smallest first entry.

    Yields ``(head, block)`` per prefix. ``head`` is the prefix's state:
    ``start`` for the empty prefix, and ``entry(s, prev, v)`` for a
    prefix of state ``s`` ending in ``prev`` (1 if empty) once ``v`` is
    appended; it is kept per entry, so a step remakes only the states
    after the first entry it changed. ``block`` lists ``tail(a, v)`` for
    each tail ``a`` the prefix allows, in lexicographic order; an empty
    prefix (``P = 0``) takes every tail.
    """
    size = min(_TAIL, n)
    a = [1] * size
    table = [tuple(a) for _ in _odometer(a, size)]
    blocks = {
        v: [tail(t, v) for t in table if t[0] >= v - 1] for v in range(1, size + 2)
    }
    prefix = n - size
    k = [1] * prefix
    heads = [start] * (prefix + 1)
    for i in _odometer(k, n):
        for j in range(i, prefix):
            heads[j + 1] = entry(heads[j], k[j - 1] if j else 1, k[j])
        yield heads[-1], blocks[k[-1] if k else 1]


def _odometer(k: list[int], top: int) -> Iterator[int]:
    """Step ``k`` in place through the valid prefixes of order ``top``, lexicographically.

    ``k`` must start as all ones. It takes each distinct value of the
    first ``len(k)`` entries of the valid tuples of order ``top`` once;
    with ``len(k) == top`` those are the valid tuples themselves. Before
    each step the generator yields the index of the first entry changed
    since the previous prefix (0 for the first); that entry rose by one
    and every entry after it holds its minimum, ``max(1, k_{j-1} - 1)``.
    :func:`_walk` remakes only the prefix states that follow that
    index. Entry ``i`` (0-based) is at most ``top - i``,
    the pairs not yet completed when it is taken.
    """
    size = len(k)
    i = 0
    while True:
        yield i
        i = size - 1
        while i >= 0 and k[i] >= top - i:
            i -= 1
        if i < 0:
            return
        k[i] += 1
        for j in range(i + 1, size):
            prev = k[j - 1]
            k[j] = prev - 1 if prev > 2 else 1
