"""The physical model: drawing socks, brute-force counting, Monte Carlo.

Socks are the ``2n`` distinguishable items ``(sock_type, side)`` with
``sock_type`` in ``1..n`` and ``side`` 0 (left) or 1 (right). A draw
order is a permutation of all of them; the table height rises by one
when a sock's type has not been seen among earlier draws and falls by
one when it has (the pair is completed and leaves the table). Side
flags never affect the path.

Two verification engines live here:

* :func:`brute_force_counts` walks *every* one of the ``(2n)!`` orderings
  and tallies the resulting tuples. In lexicographic order the orderings
  come as prefixes of length ``2n - m`` (``m = min(7, 2n)``), each
  followed by its ``m`` remaining sock ids in all ``m!`` arrangements. A
  chunk is a fixed block of consecutive prefixes: only those prefixes
  are unranked, and one table of the ``m!`` suffix permutations spreads
  each prefix's remaining ids into its rows. Chunk tallies merge by
  summation. Chunk boundaries do not depend on the worker count, so
  results never do either.
* :func:`monte_carlo` samples orderings uniformly by shuffling tiles of
  sock ids. Trials are cut into fixed chunks of at most 500,000 rows,
  and chunk ``i`` draws from its own counter-based stream,
  ``Philox(key=seed)`` jumped ``i`` times, so reports are bit-identical
  for any worker count.

Both engines build each chunk inside the worker that tallies it, and a
chunk is handed to a worker only when one is free, so no more than
``workers`` chunks are held at once.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .core import DyckPath, KTuple, _require_positive_int
from .errors import MalformedInputError, ResourceLimitError
from .probability import _count_rows

__all__ = [
    "DEFAULT_BRUTE_FORCE_CAP",
    "DEFAULT_SIMULATION_CAP",
    "Sock",
    "SockSequence",
    "ProcessTrace",
    "SimComparison",
    "SimulationReport",
    "run_process",
    "random_permutation",
    "monte_carlo",
    "brute_force_counts",
    "permutation_rank",
    "permutation_from_rank",
    "sequence_from_rank",
]

# (2*5)! = 3,628,800 orderings: a few seconds. Each further pair is
# roughly a 400x blowup, so the default stops at 5.
DEFAULT_BRUTE_FORCE_CAP = 5

# Simulation reports list every tuple of the exact law, Catalan(n) rows,
# so the cap matches the enumeration default.
DEFAULT_SIMULATION_CAP = 14

# Largest n brute force accepts whatever the cap. Already (2*10)! is
# about 2.4e18 orderings, millennia at ten million a second; 22! is a
# thousand times more. Nothing past it can be walked.
_MAX_WALKABLE_N = 10

# Largest n whose 2n-step path code fits a signed 64-bit integer.
_MAX_PATH_N = 31


class Sock(NamedTuple):
    """One sock: its pair type (1-based) and which side it is (0 left, 1 right)."""

    sock_type: int
    side: int


def _all_socks(n: int) -> list[Sock]:
    return [Sock(t, s) for t in range(1, n + 1) for s in (0, 1)]


class SockSequence(tuple):
    """A draw order: a permutation of all ``2n`` socks of ``n`` pairs.

    Entries may be given as ``Sock`` values or bare ``(type, side)``
    pairs. Duplicate or missing socks raise :class:`MalformedInputError`.
    """

    __slots__ = ()

    def __new__(cls, draws: Iterable[Sock | tuple]) -> "SockSequence":
        if isinstance(draws, SockSequence):
            return draws
        items = tuple(Sock(t, s) for t, s in draws)
        if not items or len(items) % 2:
            raise MalformedInputError(
                f"a draw order must list all socks of whole pairs, got {len(items)} draws"
            )
        n = len(items) // 2
        expected = set(_all_socks(n))
        seen: set[Sock] = set()
        for i, sock in enumerate(items, 1):
            if sock not in expected:
                raise MalformedInputError(
                    f"draw {i} is {sock!r}, not a sock of {n} pairs"
                )
            if sock in seen:
                raise MalformedInputError(f"draw {i} repeats {sock!r}")
            seen.add(sock)
        # len match + no duplicates + subset of expected => nothing missing
        return super().__new__(cls, items)

    @property
    def n(self) -> int:
        return len(self) // 2


@dataclass(frozen=True)
class ProcessTrace:
    """Full record of one sorting run: the draw order, its path, its tuple."""

    omega: SockSequence
    path: DyckPath
    tuple: KTuple


def run_process(omega: SockSequence | Iterable) -> ProcessTrace:
    """Sort one draw order and record the table height after every draw.

    A sock whose type is already on the table completes that pair: the
    height it is taken from becomes the next tuple entry and the pair
    leaves. Otherwise the sock joins the table. Side flags are ignored.
    """
    draws = SockSequence(omega)
    open_types: set[int] = set()
    heights: list[int] = []
    ks: list[int] = []
    height = 0
    for sock in draws:
        if sock.sock_type in open_types:
            open_types.remove(sock.sock_type)
            ks.append(height)
            height -= 1
        else:
            open_types.add(sock.sock_type)
            height += 1
        heights.append(height)
    return ProcessTrace(
        omega=draws,
        path=DyckPath(heights),
        tuple=KTuple._trusted(tuple(ks)),
    )


def random_permutation(n: int, rng: random.Random) -> SockSequence:
    """Uniformly random draw order of ``n`` pairs, from the given rng.

    Uses an unbiased in-place shuffle, so each of the ``(2n)!`` orderings
    is equally likely; the result is a deterministic function of the rng
    state.
    """
    _require_positive_int("n", n)
    socks = _all_socks(n)
    rng.shuffle(socks)
    return SockSequence(socks)


# ----------------------------------------------------------------------
# Lexicographic rank <-> permutation of range(size)
# ----------------------------------------------------------------------

def permutation_rank(perm: Sequence[int]) -> int:
    """Lexicographic rank of a permutation of ``range(len(perm))``."""
    size = len(perm)
    if sorted(perm) != list(range(size)):
        raise MalformedInputError(f"{perm!r} is not a permutation of range({size})")
    remaining = list(range(size))
    rank = 0
    for i, v in enumerate(perm):
        pos = remaining.index(v)
        rank += pos * math.factorial(size - 1 - i)
        remaining.pop(pos)
    return rank


def permutation_from_rank(rank: int, size: int) -> tuple[int, ...]:
    """Permutation of ``range(size)`` with the given lexicographic rank."""
    total = math.factorial(size)
    if not 0 <= rank < total:
        raise MalformedInputError(f"rank {rank} out of range 0..{total - 1}")
    remaining = list(range(size))
    out = []
    for i in range(size):
        f = math.factorial(size - 1 - i)
        pos, rank = divmod(rank, f)
        out.append(remaining.pop(pos))
    return tuple(out)


def _sock_of_id(sock_id: int) -> Sock:
    # Sock ids 0..2n-1: id 2t, 2t+1 are the left/right socks of type t+1.
    return Sock(sock_type=(sock_id >> 1) + 1, side=sock_id & 1)


def sequence_from_rank(rank: int, n: int) -> SockSequence:
    """Draw order with the given lexicographic rank among all ``(2n)!``."""
    ids = permutation_from_rank(rank, 2 * n)
    return SockSequence(_sock_of_id(i) for i in ids)


# ----------------------------------------------------------------------
# Vectorized batch engine (shared by brute force and Monte Carlo)
# ----------------------------------------------------------------------

def _path_codes(perm: np.ndarray) -> np.ndarray:
    """Run the table process on a batch of sock-id rows.

    Returns one integer per row: bit ``i`` is set when draw ``i`` is an
    up-step, that is, the first sock of its type. The code has ``2n``
    bits, so it is valid for ``n <= _MAX_PATH_N``.
    """
    batch, size = perm.shape
    types = (perm >> 1).T.copy()
    seen = np.zeros(batch, dtype=np.int64)
    code = np.zeros(batch, dtype=np.int64)
    for step in range(size):
        bit = np.left_shift(1, types[step], dtype=np.int64)
        code |= ((seen & bit) == 0).astype(np.int64) << step
        seen |= bit
    return code


def _decode_code(code: int) -> KTuple:
    # After the last up-step (highest set bit) only down-steps remain.
    ks: list[int] = []
    height = 0
    while code or height:
        if code & 1:
            height += 1
        else:
            ks.append(height)
            height -= 1
        code >>= 1
    return KTuple._trusted(tuple(ks))


def _tally_codes(codes: np.ndarray) -> Counter:
    values, counts = np.unique(codes, return_counts=True)
    return Counter(dict(zip(values.tolist(), counts.tolist())))


def _run_chunks(
    make_chunk: Callable[[int], np.ndarray], count: int, workers: int
) -> Counter:
    # Chunk i is built from its index inside the worker that tallies it.
    def process(index: int) -> Counter:
        return _tally_codes(_path_codes(make_chunk(index)))

    tally: Counter = Counter()
    if workers > 1 and count > 1:
        # Submit a chunk only when one finishes: a future per chunk held
        # up front would grow with the chunk count, not the worker count.
        with ThreadPoolExecutor(max_workers=workers) as pool:
            running: set = set()
            for index in range(count):
                if len(running) == workers:
                    done, running = wait(running, return_when=FIRST_COMPLETED)
                    for future in done:
                        tally.update(future.result())
                running.add(pool.submit(process, index))
            for future in running:
                tally.update(future.result())
    else:
        for index in range(count):
            tally.update(process(index))
    return tally


# Most rows a chunk holds, in both engines.
_CHUNK_ROWS = 500_000

# Brute force permutes the last _SUFFIX_LEN sock ids through one table of
# all their arrangements (7! = 5,040 rows), _PREFIX_BLOCK prefixes a chunk.
_SUFFIX_LEN = 7
_PREFIX_BLOCK = _CHUNK_ROWS // math.factorial(_SUFFIX_LEN)


def _lexicographic_chunks(size: int) -> tuple[Callable[[int], np.ndarray], int]:
    """All permutations of ``range(size)`` in lexicographic order, chunked.

    Returns ``(make_chunk, count)``: the tiles ``make_chunk(0)``, ...,
    ``make_chunk(count - 1)``, stacked, are the ``size!`` permutations in
    rank order, one per row. Tile ``i`` covers prefixes
    ``i * _PREFIX_BLOCK`` onward and is built from ``i`` alone.
    """
    m = min(_SUFFIX_LEN, size)
    head = size - m
    arrangements = math.factorial(m)
    prefixes = math.factorial(size) // arrangements
    suffixes = np.array(list(itertools.permutations(range(m))), dtype=np.int8)

    def make_chunk(index: int) -> np.ndarray:
        # Rank j * m! is prefix j followed by its remaining ids in
        # ascending order; the next m! ranks arrange those ids in the
        # order of the suffix table.
        lo = index * _PREFIX_BLOCK
        firsts = np.array(
            [
                permutation_from_rank(j * arrangements, size)
                for j in range(lo, min(lo + _PREFIX_BLOCK, prefixes))
            ],
            dtype=np.int8,
        )
        tile = np.empty((len(firsts), arrangements, size), dtype=np.int8)
        tile[:, :, :head] = firsts[:, None, :head]
        tile[:, :, head:] = firsts[:, head:][:, suffixes]
        return tile.reshape(-1, size)

    return make_chunk, -(-prefixes // _PREFIX_BLOCK)


def brute_force_counts(
    n: int,
    *,
    cap: int | None = None,
    workers: int = 1,
    collapse_sides: bool = False,
) -> dict[KTuple, int]:
    """Tally the tuple realized by every one of the ``(2n)!`` draw orders.

    This is the ground-truth oracle: the tally of a valid tuple must
    equal ``permutation_count`` and the tallies must sum to ``(2n)!``.
    Runtime is O((2n)!), so the default cap is 5; ``n`` above 10 is
    refused whatever the cap.

    Orderings are walked in lexicographic order of their sock ids, in
    chunks of 99 consecutive prefixes of length ``2n - 7`` (one prefix
    of length 0 when ``n <= 3``). Each prefix's remaining ids are
    arranged through one table of all ``7!`` suffix permutations, built
    once per call, so a chunk holds at most 498,960 orderings and
    ``workers`` chunks run at once. The tally does not depend on
    ``workers``.

    With ``collapse_sides=True`` only the ``(2n)!/2^n`` distinct type
    sequences are walked and each tally is scaled by ``2^n`` (side flags
    cannot change a path); both modes agree exactly.
    """
    limit = DEFAULT_BRUTE_FORCE_CAP if cap is None else cap
    _require_positive_int("n", n)
    _require_positive_int("workers", workers)
    if n > limit:
        raise ResourceLimitError(
            f"brute force over (2*{n})! = {math.factorial(2 * n)} orderings exceeds "
            f"the cap {limit}; use monte_carlo for an empirical check instead",
            n=n,
            cap=limit,
        )
    if n > _MAX_WALKABLE_N:
        raise ResourceLimitError(
            f"(2*{n})! = {math.factorial(2 * n)} orderings cannot be walked; "
            f"brute force refuses n > {_MAX_WALKABLE_N} whatever the cap; "
            "use monte_carlo instead",
            n=n,
            cap=_MAX_WALKABLE_N,
        )

    if collapse_sides:
        tally = Counter()
        for types in _distinct_type_orders(n):
            tally[_walk_types(types)] += 1
        scale = 1 << n
    else:
        tally = _run_chunks(*_lexicographic_chunks(2 * n), workers)
        scale = 1
    return dict(sorted((_decode_code(code), count * scale) for code, count in tally.items()))


def _walk_types(types: Sequence[int]) -> int:
    # Scalar type-sequence walk, returning the same path code as _path_codes.
    seen = 0
    code = 0
    for step, t in enumerate(types):
        bit = 1 << t
        if not seen & bit:
            code |= 1 << step
        seen |= bit
    return code


def _distinct_type_orders(n: int) -> Iterator[tuple[int, ...]]:
    # All distinct arrangements of the multiset {0,0,1,1,...,n-1,n-1},
    # lexicographic. Each stands for 2^n full orderings.
    counts = [2] * n
    seq: list[int] = []
    total = 2 * n

    def extend() -> Iterator[tuple[int, ...]]:
        if len(seq) == total:
            yield tuple(seq)
            return
        for t in range(n):
            if counts[t]:
                counts[t] -= 1
                seq.append(t)
                yield from extend()
                seq.pop()
                counts[t] += 1

    return extend()


# ----------------------------------------------------------------------
# Monte Carlo
# ----------------------------------------------------------------------

class SimComparison(NamedTuple):
    """Per-tuple empirical vs exact comparison, all exact rationals."""

    frequency: Fraction
    probability: Fraction
    deviation: Fraction


@dataclass(frozen=True)
class SimulationReport:
    """Outcome of a Monte Carlo run against the exact law.

    ``empirical`` maps every valid tuple of order ``n`` to its trial
    count (zero when never hit); counts sum to ``trials``. ``comparison``
    holds, per tuple, the empirical frequency, the exact probability and
    their absolute difference. Keys are in lexicographic tuple order.
    """

    n: int
    trials: int
    seed: int
    empirical: dict[KTuple, int]
    comparison: dict[KTuple, SimComparison]

    @property
    def max_abs_deviation(self) -> Fraction:
        return max(
            (row.deviation for row in self.comparison.values()), default=Fraction(0)
        )


def monte_carlo(
    n: int,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
    cap: int | None = None,
) -> SimulationReport:
    """Estimate the law empirically and compare with the exact one.

    Trials are cut into fixed chunks of at most 500,000 rows. Chunk
    ``i`` draws from ``Generator(Philox(key=seed).jumped(i))``, which
    shuffles each row of a ``(rows, 2n)`` tile of sock ids independently,
    and the shuffled rows run through the vectorized walk. The report is
    therefore a deterministic function of ``(n, trials, seed)`` alone:
    ``workers`` only bounds how many chunks run at once, and never
    changes the result. Whatever the cap, ``n`` above 31 raises
    :class:`ResourceLimitError`, since a run's path code must fit 64 bits.
    """
    hits = _sampled_counts(n, trials, seed, workers=workers, cap=cap)
    denominator = math.factorial(2 * n)
    empirical = {}
    comparison = {}
    for t, count, _ in _count_rows(n):
        empirical[t] = hits.get(t, 0)
        freq = Fraction(empirical[t], trials)
        p = Fraction(count, denominator)
        comparison[t] = SimComparison(
            frequency=freq, probability=p, deviation=abs(freq - p)
        )
    return SimulationReport(
        n=n, trials=trials, seed=seed, empirical=empirical, comparison=comparison
    )


def _sampled_counts(
    n: int, trials: int, seed: int, *, workers: int, cap: int | None
) -> dict[KTuple, int]:
    """Run :func:`monte_carlo`'s checks and sampling; return the hit tuples' counts.

    Only tuples some trial realized appear, so memory grows with the
    distinct outcomes drawn, not with Catalan(n).
    """
    limit = DEFAULT_SIMULATION_CAP if cap is None else cap
    _require_positive_int("trials", trials)
    _require_positive_int("n", n)
    _require_positive_int("workers", workers)
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise MalformedInputError(
            f"seed must be an unsigned 64-bit integer, got {seed!r}"
        )
    if n > limit:
        raise ResourceLimitError(
            f"simulation comparison for n = {n} exceeds the cap {limit}",
            n=n,
            cap=limit,
        )
    if n > _MAX_PATH_N:
        raise ResourceLimitError(
            f"simulation for n = {n} exceeds the {_MAX_PATH_N} pairs a 64-bit "
            "path code holds",
            n=n,
            cap=_MAX_PATH_N,
        )

    sock_ids = np.arange(2 * n, dtype=np.int8)

    def shuffled(index: int) -> np.ndarray:
        rows = min(_CHUNK_ROWS, trials - index * _CHUNK_ROWS)
        rng = np.random.Generator(np.random.Philox(key=seed).jumped(index))
        return rng.permuted(np.broadcast_to(sock_ids, (rows, 2 * n)), axis=1)

    tally = _run_chunks(shuffled, -(-trials // _CHUNK_ROWS), workers)
    return {_decode_code(code): c for code, c in tally.items()}
