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
  chunk is a fixed block of consecutive prefixes, taken in order from
  ``itertools.permutations``. Each prefix is walked once, and its table
  state is carried into the ``m`` suffix draws of its ``m!`` orderings,
  which one lexicographic table of suffix permutations arranges. The
  suffix draws are walked as a tree: orderings that share their first
  ``j`` suffix draws share those steps, and the last draw, which always
  completes a pair, is not walked. The two socks left before it are one
  pair or two socks that each close an open pair, so both of their
  orders give one path: each walked leaf stands for both, and is counted
  twice. Each worker writes its walks into one set of buffers that it
  keeps for the whole call, and the last draw's codes are sorted where
  they lie. Chunk tallies merge by summation. Chunk boundaries do not
  depend on the worker count, so results never do either.
* :func:`monte_carlo` samples orderings uniformly by shuffling tiles of
  sock ids. Trials are cut into fixed chunks of at most 500,000 rows,
  and chunk ``i`` draws from its own counter-based stream,
  ``Philox(key=seed)`` jumped ``i`` times, so reports are bit-identical
  for any worker count. A chunk is shuffled and walked a tile of at most
  ``_TILE_ITEMS`` sock ids at a time, each tile continuing the chunk's
  stream, and a tally is decoded a tile at a time too.

Both engines build each chunk inside the worker that tallies it, and
chunks run in rounds of at most ``workers``, so no more than ``workers``
chunks are held at once. The worker count is clamped to the CPU count
here, and nowhere else. Both walk on the narrowest signed integer whose
value bits hold ``2n``, from int16 on: int16 for ``n <= 7``, int32 for
``n <= 15`` and int64 up to ``n = 31``, so each pass moves as few bytes
as the path code allows. A code holds the first draw in its highest
bit, so codes sort as their tuples do, and both engines return their
tallies in lexicographic order through one helper, whatever the worker
count.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import random
import threading
from collections import Counter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

import numpy as np

# The package keeps the export list: it binds these names lazily, without
# importing numpy.
from . import _PROCESS_NAMES as __all__
from .core import (
    DEFAULT_ENUMERATION_CAP,
    DyckPath,
    KTuple,
    _check_cap,
    _entries,
    _require_positive_int,
)
from .errors import MalformedInputError
from .probability import _count_rows

if TYPE_CHECKING:  # max_abs_deviation imports it: sampling builds no Fraction
    from fractions import Fraction

# (2*5)! = 3,628,800 orderings walk in about 12 ms on one worker, each
# walked leaf standing for both orders of the last two socks. n = 6 has
# 12 * 11 = 132 times as many, about 1 s on one core of a 2-vCPU
# machine, and n = 7 another 182 times that: the default stops at 5.
DEFAULT_BRUTE_FORCE_CAP = 5

# A report holds only the tuples hit, but its rows() walk, which
# max_abs_deviation takes, and the CLI's walk of the table blocks, which
# simulate takes, visit all Catalan(n) tuples, so the cap matches the
# enumeration default.
DEFAULT_SIMULATION_CAP = DEFAULT_ENUMERATION_CAP

# Largest n brute force accepts whatever the cap. Already (2*10)! is
# about 2.4e18 orderings, some 240 years at 320 million a second;
# 22! is a thousand times more. Nothing past it can be walked.
_MAX_WALKABLE_N = 10

# Largest n whose 2n-step path code fits a signed 64-bit integer.
_MAX_PATH_N = 31


class Sock(NamedTuple):
    """One sock: its pair type (1-based) and which side it is (0 left, 1 right)."""

    sock_type: int
    side: int


def _all_socks(n: int) -> list[Sock]:
    return [Sock(t, s) for t in range(1, n + 1) for s in (0, 1)]


def _sock(i: int, draw: object) -> Sock:
    try:
        sock_type, side = draw
    except (TypeError, ValueError):
        raise MalformedInputError(
            f"draw {i} is {draw!r}, not a (type, side) pair"
        ) from None
    return Sock(sock_type, side)


class SockSequence(tuple):
    """A draw order: a permutation of all ``2n`` socks of ``n`` pairs.

    Entries may be given as ``Sock`` values or bare ``(type, side)``
    pairs. Duplicate or missing socks, an entry that is not a pair, a
    field that is not an int (bool and float included) and a value that
    is not iterable raise :class:`MalformedInputError`.
    """

    __slots__ = ()

    def __new__(cls, draws: Iterable[Sock | tuple]) -> "SockSequence":
        if isinstance(draws, SockSequence):
            return draws
        numbered = enumerate(_entries(draws, "a draw order"), 1)
        items = tuple(_sock(i, draw) for i, draw in numbered)
        if not items or len(items) % 2:
            raise MalformedInputError(
                f"a draw order must list all socks of whole pairs, got {len(items)} draws"
            )
        n = len(items) // 2
        expected = set(_all_socks(n))
        seen: set[Sock] = set()
        for i, sock in enumerate(items, 1):
            # 1.0 and True equal 1 in the set lookup, so the fields are
            # checked to be ints first; that also keeps unhashable ones out
            ints = all(isinstance(f, int) and not isinstance(f, bool) for f in sock)
            if not (ints and sock in expected):
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


class ProcessTrace(NamedTuple):
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
    state. An rng with no callable ``shuffle`` raises MalformedInputError.
    """
    _require_positive_int("n", n)
    if not callable(getattr(rng, "shuffle", None)):
        raise MalformedInputError(f"rng needs a shuffle method, got {type(rng).__name__}")
    socks = _all_socks(n)
    rng.shuffle(socks)
    # Every sock once, by construction: nothing for SockSequence to check.
    return tuple.__new__(SockSequence, socks)


# ----------------------------------------------------------------------
# Vectorized batch engine (shared by brute force and Monte Carlo)
# ----------------------------------------------------------------------

def _state_dtype(n: int) -> type:
    # A walk's seen mask has n bits and its path code 2n - 1: both fit
    # the narrowest signed integer whose value bits hold 2n, from int16
    # on, as numpy sorts int8 codes about fifteen times slower.
    widths = (np.int16, np.int32, np.int64)
    return next(t for t in widths if 2 * n < np.iinfo(t).bits)


# Most sock ids (or decoded steps) a tile holds: 512 KB of intp. Monte
# Carlo shuffles and walks a chunk, and decodes a tally, a tile at a time.
_TILE_ITEMS = 1 << 16


def _tile_rows(n: int) -> int:
    return max(1, _TILE_ITEMS // (2 * n))


def _walk(
    bits: Iterable[np.ndarray],
    dtype: type,
    codes: Iterable[np.ndarray | None] = itertools.repeat(None),
) -> np.ndarray:
    """Run a batch of walks from an empty table; return their path codes.

    Item ``i`` of ``bits`` holds ``1 << t`` for draw ``i``'s pair type
    ``t``, for every walk, as ``dtype``. Each draw shifts the code left
    and sets its low bit for an up-step, the first sock of its type, so
    codes order as their paths do: lexicographically. A draw is an
    up-step when it changes the mask of types drawn so far (``seen``),
    which is written over its item, so each item must be writable and of
    no further use to the caller. Both callers leave out the last draw,
    which always completes a pair. An item may broadcast against the
    state so far: brute force walks its suffix draws as a tree, and each
    suffix draw but the folded last one adds a leading axis that branches
    every node. Item ``i`` of ``codes``, when it is an array, takes draw
    ``i``'s codes; otherwise numpy allocates them.
    """
    seen = code = dtype(0)
    for row, out in zip(bits, codes):
        now = np.bitwise_or(seen, row, out=row)
        # in place: the codes of the draw before have no other reader
        code <<= 1
        code = np.bitwise_or(np.not_equal(now, seen, out=out), code, out=out)
        seen = now
    return code


def _path_codes(perm: np.ndarray) -> np.ndarray:
    """Run the table process on a batch of sock-id rows.

    Returns one integer per row: bit ``2n - 2 - i`` is set when draw
    ``i`` is an up-step. The last draw always completes a pair, so it is
    not walked and the code has ``2n - 1`` bits. It is valid for
    ``n <= _MAX_PATH_N``, and its dtype is ``_state_dtype(n)``.
    Ids of any integer dtype are walked as int8 types; Monte Carlo passes
    one tile of at most ``_TILE_ITEMS`` ids at a time.
    """
    dtype = _state_dtype(perm.shape[1] // 2)
    types = perm[:, :-1].T.astype(np.int8) >> 1
    return _walk(np.left_shift(1, types, dtype=dtype), dtype)


def _decode_codes(codes: list[int] | np.ndarray, n: int) -> list[KTuple]:
    """The tuples of a batch of path codes, in the batch's order.

    Draw ``i`` is an up-step, ``+1``, when bit ``2n - 2 - i`` is set, and
    a down-step, ``-1``, when not; the last draw, which the walk leaves
    out, is always one. A row's running sum is the table height after
    each draw, and a down-step's entry is the height before it, one more
    than after. Rows are int8, as heights never pass ``n <= 31``, and are
    decoded ``_TILE_ITEMS // (2n)`` codes at a time, so the step matrices
    stay a tile's size however many codes there are.
    """
    codes = np.asarray(codes, dtype=np.int64)
    tuples: list[KTuple] = []
    step = _tile_rows(n)
    for start in range(0, len(codes), step):
        block = codes[start:start + step]
        up = np.zeros((len(block), 2 * n), dtype=np.int8)
        for i in range(2 * n - 1):
            up[:, i] = (block >> (2 * n - 2 - i)) & 1
        after = np.cumsum(2 * up - 1, axis=1, dtype=np.int8)
        ks = (after + 1)[up == 0].reshape(-1, n)
        tuples.extend(map(KTuple._trusted, ks.tolist()))
    return tuples


def _tally_codes(codes: np.ndarray, weight: int = 1, first: np.ndarray | None = None) -> Counter:
    # Each code's count, times weight. The codes are sorted in place, and
    # first, a bool array of their size, marks where each run starts:
    # np.unique would copy them.
    codes = codes.reshape(-1)
    codes.sort()
    first = np.empty(codes.size, bool) if first is None else first
    first[0] = True
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=codes.size) * weight
    return Counter(dict(zip(codes[starts].tolist(), counts.tolist())))


def _tally_table(tally: Counter, n: int) -> dict[KTuple, int]:
    # Sorted codes decode to lexicographic tuples, in whatever order chunks finished.
    codes = sorted(tally)
    return dict(zip(_decode_codes(codes, n), map(tally.get, codes)))


def _run_chunks(tally: Callable[..., Counter], chunks: Iterable, workers: int) -> Counter:
    # Each chunk is built from its spec inside the worker that tallies it.
    # Chunks run in rounds of one per worker, on no more threads than
    # CPUs, and a run of one chunk stays in this thread.
    chunks = iter(chunks)
    first = list(itertools.islice(chunks, 2))
    chunks = itertools.chain(first, chunks)
    workers = min(workers, os.cpu_count() or 1) if len(first) > 1 else 1
    total: Counter = Counter()
    if workers > 1:
        # Imported here: the pool's module loads logging and queue, which
        # a one-worker run never uses.
        from concurrent.futures import ThreadPoolExecutor

        # Chunks are blocks of one size, so a round's chunks finish about
        # together, and only a round's chunks and futures are held at
        # once, whatever the chunk count.
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for batch in iter(lambda: list(itertools.islice(chunks, workers)), []):
                for part in pool.map(tally, batch):
                    total.update(part)
    else:
        # One worker runs in this thread: a one-thread pool peaks about
        # 2 MB higher on simulate 5 --trials 1000000.
        for chunk in chunks:
            total.update(tally(chunk))
    return total


# Most rows a chunk holds, in both engines. Monte Carlo shuffles and
# walks a chunk a tile of at most _TILE_ITEMS sock ids at a time.
_CHUNK_ROWS = 500_000

# Brute force permutes the last _SUFFIX_LEN sock ids through one table of
# all their arrangements (7! = 5,040 rows), _PREFIX_BLOCK prefixes a chunk.
_SUFFIX_LEN = 7
_PREFIX_BLOCK = _CHUNK_ROWS // math.factorial(_SUFFIX_LEN)


def _tally_block(
    prefixes: list[tuple[int, ...]], levels: list[np.ndarray], buffers: dict
) -> Counter:
    """Tally every ordering that starts with one of ``prefixes``.

    The orderings of a prefix follow it with its ``m`` remaining ids,
    ascending, rearranged by each row of the lexicographic table of all
    arrangements of ``range(m)`` in turn. Each prefix is walked once, and
    its suffix draws as the tree that ``levels`` lays out (see
    :func:`brute_force_counts`), each leaf counted twice. The walk writes
    into ``buffers``, one flat array per role sized for the largest
    level, which the caller keeps from block to block, and the last
    level's codes are sorted where they lie.
    """
    head = np.array(prefixes, dtype=np.int8)
    rows, start = head.shape
    m = len(levels) + 1
    dtype = _state_dtype((start + m) // 2)
    taken = np.zeros((rows, start + m), dtype=bool)
    taken[np.arange(rows)[:, None], head] = True
    rest_types = np.nonzero(~taken)[1].reshape(rows, m).T >> 1
    rest_bits = np.left_shift(1, rest_types, dtype=dtype)
    room = levels[-1].size * rows

    def buffer(key: object, shape: tuple, kind: type = dtype) -> np.ndarray:
        flat = buffers.get(key)
        if flat is None or flat.size < room:
            flat = buffers[key] = np.empty(room, kind)
        return flat[: math.prod(shape)].reshape(shape)

    # Level j reads level j - 1's masks and codes, so the levels alternate
    # between two sets. The prefix draws are a row each and allocate.
    # The gathered bits become the masks in place. np.take buffers its
    # out array unless the indices go unchecked; they are all in range.
    shapes = [level.shape + (rows,) for level in levels]
    suffix_bits = (
        np.take(rest_bits, level, axis=0, out=buffer(("seen", j % 2), shape), mode="clip")
        for j, (level, shape) in enumerate(zip(levels, shapes))
    )
    suffix_codes = (buffer(("code", j % 2), shape) for j, shape in enumerate(shapes))
    codes = _walk(
        itertools.chain(np.left_shift(1, head.T >> 1, dtype=dtype), suffix_bits),
        dtype,
        itertools.chain(itertools.repeat(None, start), suffix_codes),
    )
    return _tally_codes(codes, 2, buffer("first", (codes.size,), bool))


def brute_force_counts(
    n: int,
    *,
    cap: int | None = None,
    workers: int = 1,
) -> dict[KTuple, int]:
    """Tally the tuple realized by every one of the ``(2n)!`` draw orders.

    This is the ground-truth oracle: the tally of a valid tuple must
    equal ``permutation_count`` and the tallies must sum to ``(2n)!``.
    Runtime is O((2n)!), so the default cap is 5; ``n`` above 10 is
    refused whatever the cap.

    Orderings are walked in lexicographic order of their sock ids, in
    chunks of 99 consecutive prefixes of length ``2n - 7`` (one prefix
    of length 0 when ``n <= 3``), taken from ``itertools.permutations``.
    Each prefix is walked once; its remaining ids are arranged through
    one lexicographic table of all ``7!`` suffix permutations, built once
    per call. The suffix draws are walked as a tree of shared suffix
    prefixes. The last draw always completes a pair and is not walked,
    and the second-to-last gives the same step in either order of the two
    socks left, so it is walked once for both and each walked leaf counts
    two orderings: 6,139 steps per prefix where one walk per ordering
    takes 7 * 5,040 = 35,280. A chunk holds at most 498,960 orderings
    and ``workers`` chunks run at once, each worker writing its walk into
    one set of buffers that it keeps for the whole call. The tally does
    not depend on ``workers``.
    """
    _require_positive_int("workers", workers)
    _check_cap(
        n,
        cap,
        "brute force",
        default=DEFAULT_BRUTE_FORCE_CAP,
        cost="(2n)! orderings (use monte_carlo or simulate for an empirical check)",
        ceiling=(_MAX_WALKABLE_N, "too many orderings; use monte_carlo or simulate"),
    )

    size = 2 * n
    m = min(_SUFFIX_LEN, size)
    # The suffix tree's nodes of depth d are rows ::(m - d - 1)! of the
    # lexicographic table of suffix arrangements. Level j holds draw j of
    # the nodes of depth min(j, m - 3): indexed newest draw first and
    # prefix last, each level up to m - 3 has one more leading axis than
    # the one before, so the walk broadcasts each node's state over its
    # m - j children. The two socks left after draw m - 3 give one path
    # in either order, so draw m - 2 is walked on the first of each
    # node's two rows, at depth m - 3's shape.
    table = np.array(list(itertools.permutations(range(m))), dtype=np.intp)
    levels = [
        table[:: math.factorial(m - d - 1), j].reshape(range(m, m - d - 1, -1)).T
        for j in range(m - 1)
        for d in [min(j, m - 3)]
    ]
    prefixes = itertools.permutations(range(size), size - m)
    blocks = iter(lambda: list(itertools.islice(prefixes, _PREFIX_BLOCK)), [])
    # One set of walk buffers per worker thread, all gone with this call
    local = threading.local()
    tally = _run_chunks(lambda block: _tally_block(block, levels, vars(local)), blocks, workers)
    return _tally_table(tally, n)


# ----------------------------------------------------------------------
# Monte Carlo
# ----------------------------------------------------------------------

# (2n)! once per n, not once per row of a report's deviation walk: a
# report is a named tuple, with no room to cache it.
_orderings = functools.cache(lambda n: math.factorial(2 * n))


class SimulationReport(NamedTuple):
    """Outcome of a Monte Carlo run: the tallies of the tuples hit.

    ``hits`` maps each tuple some trial realized to its trial count,
    lexicographically, whatever the worker count; the counts sum to
    ``trials``. :meth:`rows` pairs every valid tuple with its hits and
    its ordering count, and :meth:`deviation` gives a row's distance
    from the exact law as one integer over ``trials * (2n)!``.
    ``empirical`` and ``max_abs_deviation`` walk the rows on each access.
    """

    n: int
    trials: int
    seed: int
    hits: dict[KTuple, int]

    def rows(self) -> Iterator[tuple[KTuple, int, int]]:
        """Every valid tuple as ``(t, hits, ordering count)``, lexicographically."""
        hits = self.hits
        for t, count in _count_rows(self.n):
            yield t, hits.get(t, 0), count

    def deviation(self, hit: int, count: int) -> int:
        """``|hit/trials - count/(2n)!|`` as its numerator over ``trials * (2n)!``."""
        return abs(hit * _orderings(self.n) - count * self.trials)

    @property
    def empirical(self) -> dict[KTuple, int]:
        """Every valid tuple's trial count, zero when never hit, lexicographically."""
        return {t: hit for t, hit, _ in self.rows()}

    @property
    def max_abs_deviation(self) -> Fraction:
        """The largest :meth:`deviation` over the rows, as a Fraction."""
        from fractions import Fraction

        worst = max(self.deviation(hit, count) for _, hit, count in self.rows())
        return Fraction(worst, self.trials * _orderings(self.n))


def monte_carlo(
    n: int,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
    cap: int | None = None,
) -> SimulationReport:
    """Sample ``trials`` draw orders and report the tuples they realize.

    Trials are cut into fixed chunks of at most 500,000 rows. Chunk
    ``i`` draws from ``Generator(Philox(key=seed).jumped(i))``, which
    shuffles each row of sock ids independently, a tile of at most
    ``_TILE_ITEMS`` ids at a time, and each tile's rows run through the
    vectorized walk; the chunk keeps one path code per row. The tiles
    continue one stream, so they draw what one shuffle of the whole
    chunk would, and the tally is decoded a tile at a time. The report is
    therefore a deterministic function of ``(n, trials, seed)`` alone:
    ``workers`` only bounds how many chunks run at once, and never
    changes the result. The report keeps only the tallies of the tuples
    hit, in lexicographic order; comparing them with the exact law walks
    the rows, which the cap bounds. Whatever the cap, ``n`` above 31 raises
    :class:`ResourceLimitError`, since a run's path code must fit 64 bits.
    """
    _require_positive_int("trials", trials)
    _require_positive_int("workers", workers)
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise MalformedInputError(
            f"seed must be an unsigned 64-bit integer, got {seed!r}"
        )
    _check_cap(
        n, cap, "simulation comparison", default=DEFAULT_SIMULATION_CAP,
        ceiling=(_MAX_PATH_N, "a run's path code must fit 64 bits"),
    )

    # Pointer-size ids take permuted's compiled swap; its draws depend
    # only on the row length, so the permutations are an int8 tile's.
    sock_ids = np.arange(2 * n, dtype=np.intp)
    tile_rows = _tile_rows(n)

    def tally_chunk(index: int) -> Counter:
        rows = min(_CHUNK_ROWS, trials - index * _CHUNK_ROWS)
        rng = np.random.Generator(np.random.Philox(key=seed).jumped(index))
        codes = np.empty(rows, _state_dtype(n))
        # Each tile continues the chunk's stream, row by row
        for start in range(0, rows, tile_rows):
            size = min(tile_rows, rows - start)
            tile = rng.permuted(np.broadcast_to(sock_ids, (size, 2 * n)), axis=1)
            codes[start:start + size] = _path_codes(tile)
        return _tally_codes(codes)

    tally = _run_chunks(tally_chunk, range(-(-trials // _CHUNK_ROWS)), workers)
    return SimulationReport(n, trials, seed, _tally_table(tally, n))
