"""The physical model: drawing socks, brute-force counting, Monte Carlo.

Socks are the ``2n`` distinguishable items ``(sock_type, side)`` with
``sock_type`` in ``1..n`` and ``side`` 0 (left) or 1 (right). A draw
order is a permutation of all of them; the table height rises by one
when a sock's type has not been seen among earlier draws and falls by
one when it has (the pair is completed and leaves the table). Side
flags never affect the path.

Two verification engines live here:

* :func:`brute_force_counts` walks *every* one of the ``(2n)!`` orderings
  and tallies the resulting tuples. Orderings are identified with their
  lexicographic rank in ``0 .. (2n)!-1``; the rank space is cut into
  fixed chunks, each chunk is unranked and processed as a batch of
  integer arrays, and chunk tallies merge by summation. Chunk boundaries
  do not depend on the worker count, so results never do either.
* :func:`monte_carlo` samples orderings uniformly. All randomness is a
  single counter-based (Philox) stream keyed by the seed, materialized
  as one rank per trial up front; workers only split the precomputed
  ranks, so reports are bit-identical for any worker count.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .core import DyckPath, KTuple, _require_positive_int
from .errors import MalformedInputError, ResourceLimitError
from .probability import full_distribution

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

# Simulation reports compare against the exact law, which requires full
# tuple enumeration, so the cap matches the enumeration default.
DEFAULT_SIMULATION_CAP = 14

# Largest n whose (2n)! still fits the 64-bit rank arithmetic used by the
# vectorized engines: 20! < 2^64 <= 22!.
_MAX_RANKABLE_N = 10


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

def _unrank_batch(ranks: np.ndarray, size: int) -> np.ndarray:
    """Unrank a batch: (B,) ranks -> (B, size) permutations of 0..size-1."""
    batch = ranks.shape[0]
    rem = ranks.astype(np.int64, copy=True)
    # factorial-base digits: digit j counts remaining items skipped at slot j
    digits = np.empty((batch, size), dtype=np.int8)
    for j in range(size):
        f = math.factorial(size - 1 - j)
        np.floor_divide(rem, f, out=digits[:, j], casting="unsafe")
        rem %= f
    perm = np.empty((batch, size), dtype=np.int8)
    alive = np.ones((batch, size), dtype=np.int8)
    rows = np.arange(batch)
    cum = np.empty((batch, size), dtype=np.int8)
    for j in range(size):
        np.cumsum(alive, axis=1, dtype=np.int8, out=cum)
        pos = np.argmax(cum == (digits[:, j] + 1)[:, None], axis=1)
        perm[:, j] = pos
        alive[rows, pos] = 0
    return perm


def _ktuple_codes(perm: np.ndarray, n: int) -> np.ndarray:
    """Run the table process on a batch of id-permutations.

    Returns one integer per row: the completion-height tuple encoded in
    base ``n + 1`` (entry ``k_j`` at digit ``j``).
    """
    batch, size = perm.shape
    types = perm >> 1
    seen = np.zeros(batch, dtype=np.int32)
    height = np.zeros(batch, dtype=np.int8)
    kmat = np.zeros((batch, n), dtype=np.int64)
    completed = np.zeros(batch, dtype=np.int64)
    rows = np.arange(batch)
    kflat = kmat.reshape(-1)
    for step in range(size):
        bit = np.left_shift(1, types[:, step], dtype=np.int32)
        down = (seen & bit) != 0
        idx = rows[down]
        kflat[idx * n + completed[idx]] = height[idx]
        completed[idx] += 1
        seen |= bit
        height += np.where(down, -1, 1).astype(np.int8)
    powers = (n + 1) ** np.arange(n, dtype=np.int64)
    return kmat @ powers


def _decode_code(code: int, n: int) -> KTuple:
    base = n + 1
    out = []
    for _ in range(n):
        code, digit = divmod(code, base)
        out.append(int(digit))
    return KTuple._trusted(tuple(out))


def _tally_codes(codes: np.ndarray) -> Counter:
    values, counts = np.unique(codes, return_counts=True)
    return Counter(dict(zip(values.tolist(), counts.tolist())))


def _run_chunks(
    chunks: list[np.ndarray], n: int, workers: int
) -> Counter:
    def process(ranks: np.ndarray) -> Counter:
        return _tally_codes(_ktuple_codes(_unrank_batch(ranks, 2 * n), n))

    tally: Counter = Counter()
    if workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(process, chunks):
                tally.update(part)
    else:
        for ranks in chunks:
            tally.update(process(ranks))
    return tally


_RANK_CHUNK = 500_000


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
    Runtime is O((2n)!), so the default cap is 5.

    With ``collapse_sides=True`` only the ``(2n)!/2^n`` distinct type
    sequences are walked and each tally is scaled by ``2^n`` (side flags
    cannot change a path); both modes agree exactly.
    """
    limit = DEFAULT_BRUTE_FORCE_CAP if cap is None else cap
    _require_positive_int("n", n)
    if n > limit:
        raise ResourceLimitError(
            f"brute force over (2*{n})! = {math.factorial(2 * n)} orderings exceeds "
            f"the cap {limit}; use monte_carlo for an empirical check instead",
            n=n,
            cap=limit,
        )
    if n > _MAX_RANKABLE_N:
        raise ResourceLimitError(
            f"(2*{n})! exceeds the 64-bit rank space; brute force supports "
            f"n <= {_MAX_RANKABLE_N}; use monte_carlo instead",
            n=n,
            cap=_MAX_RANKABLE_N,
        )

    if collapse_sides:
        tally = Counter()
        for types in _distinct_type_orders(n):
            tally[_walk_types(types)] += 1
        scale = 1 << n
        decoded = ((_decode_code(code, n), count * scale) for code, count in tally.items())
    else:
        total = math.factorial(2 * n)
        chunks = [
            np.arange(lo, min(lo + _RANK_CHUNK, total), dtype=np.int64)
            for lo in range(0, total, _RANK_CHUNK)
        ]
        tally = _run_chunks(chunks, n, workers)
        decoded = ((_decode_code(code, n), count) for code, count in tally.items())
    return dict(sorted(decoded))


def _walk_types(types: Sequence[int]) -> int:
    # Scalar type-sequence walk, returning the base-(n+1) tuple code.
    n = len(types) // 2
    seen = 0
    height = 0
    code = 0
    power = 1
    base = n + 1
    for t in types:
        bit = 1 << t
        if seen & bit:
            code += height * power
            power *= base
            height -= 1
        else:
            seen |= bit
            height += 1
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


def _derive_trial_seed(seed: int, index: int) -> int:
    # splitmix64 finalizer over (seed, index): a stable 64-bit per-trial
    # substream key, independent of how trials are batched.
    z = (seed * 0x9E3779B97F4A7C15 + index) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def monte_carlo(
    n: int,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
    cap: int | None = None,
) -> SimulationReport:
    """Estimate the law empirically and compare with the exact one.

    The report is a deterministic function of ``(n, trials, seed)`` alone:

    * for ``n <= 10``, one Philox stream keyed by ``seed`` yields an
      unbiased lexicographic rank per trial (all materialized before any
      splitting), and trials are processed through the batch unranker;
    * for larger ``n`` (ranks would overflow 64 bits), each trial gets
      its own generator keyed by a 64-bit mix of ``(seed, trial index)``
      and is run through the scalar process.

    ``workers`` only bounds how many precomputed batches run at once; it
    never changes the result.
    """
    limit = DEFAULT_SIMULATION_CAP if cap is None else cap
    _require_positive_int("trials", trials)
    _require_positive_int("n", n)
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

    if n <= _MAX_RANKABLE_N:
        rng = np.random.Generator(np.random.Philox(key=seed))
        ranks = rng.integers(
            0, math.factorial(2 * n), size=trials, dtype=np.uint64
        ).astype(np.int64)
        chunks = [
            ranks[lo : lo + _RANK_CHUNK] for lo in range(0, trials, _RANK_CHUNK)
        ]
        tally = _run_chunks(chunks, n, workers)
        counts = {_decode_code(code, n): c for code, c in tally.items()}
    else:
        counts = Counter()
        for i in range(trials):
            rng_i = random.Random(_derive_trial_seed(seed, i))
            counts[run_process(random_permutation(n, rng_i)).tuple] += 1

    exact = full_distribution(n, cap=limit)
    empirical = {t: counts.get(t, 0) for t in exact.entries}
    comparison = {}
    for t, p in exact.entries.items():
        freq = Fraction(empirical[t], trials)
        comparison[t] = SimComparison(
            frequency=freq, probability=p, deviation=abs(freq - p)
        )
    return SimulationReport(
        n=n, trials=trials, seed=seed, empirical=empirical, comparison=comparison
    )
