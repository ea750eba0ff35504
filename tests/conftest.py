"""Shared hypothesis strategies for sock-sorting objects, a peak-RSS and
page-fault probe, a record check, and two references that share no code
with sockpath: the table-count chain, for every row, and a walk of every
ordering."""

import copy
import functools
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import strategies as st

import sockpath
from sockpath import DyckPath, KTuple, Sock, catalan

# A child's ru_maxrss starts at the peak RSS of the process that started
# it, so a small launcher, not the test process, reaps the child with
# os.wait4 and prints its peak in kilobytes and its minor page faults.
_LAUNCHER = (
    "import os, subprocess, sys\n"
    "proc = subprocess.Popen([sys.executable, '-c', *sys.argv[1:]],\n"
    "    stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "assert os.waitstatus_to_exitcode(status) == 0\n"
    "print(usage.ru_maxrss, usage.ru_minflt)\n"
)


def reap(code: str, *argv: str) -> tuple[int, int]:
    """Peak RSS in kilobytes and minor page faults of a fresh
    ``python -c code *argv`` on ``src/``.

    The caller's ``PYTHON*`` and ``SOCKPATH_*`` settings are dropped, so
    that bytecode is cached and one worker runs, as for a user's shell.
    """
    src = Path(sockpath.__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "SOCKPATH_"))}
    env["PYTHONPATH"] = str(src)
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, code, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    peak, faults = proc.stdout.split()
    return int(peak), int(faults)


def peak_rss_kb(code: str, *argv: str) -> int:
    """Peak RSS in kilobytes of a fresh ``python -c code *argv``: :func:`reap`'s first figure."""
    return reap(code, *argv)[0]


def assert_record(record, text: str, **fields) -> None:
    """``record`` equals the record rebuilt from ``fields`` and its copy,
    prints as ``text``, and refuses assignment to every field."""
    assert record == type(record)(**fields) == copy.copy(record)
    assert repr(record) == text
    for name, value in fields.items():
        try:
            setattr(record, name, None)
        except AttributeError:
            pass
        else:
            raise AssertionError(f"{name} of {type(record).__name__} was assigned")
        assert getattr(record, name) == value


def chain_rows(n: int):
    """Every valid tuple of order ``n`` as ``(tuple, orderings, path)``, lexicographically.

    A depth-first walk of the table-count chain, sharing no code with
    sockpath. With ``h`` socks on the table and ``L`` left to draw, ``h``
    of them complete a pair: a down-step of weight ``h``, whose entry is
    ``h``. The other ``L - h`` open one: an up-step of weight ``L - h``.
    A leaf's orderings are the product of its steps' weights, and its path
    the heights after each draw. Taking the down-step first yields the
    tuples in lexicographic order. The stack is explicit and the tuple and
    path are written in place, so order 13 streams.
    """
    size = 2 * n
    ks, path = [0] * n, [0] * size
    # (draws taken, height after them, orderings so far, entry the last
    # draw completed or 0 for an up-step)
    stack = [(0, 0, 1, 0)]
    while stack:
        i, h, count, k = stack.pop()
        if i:
            path[i - 1] = h
        if k:
            # (i - h) / 2 of the i draws so far were down-steps
            ks[(i - h) // 2 - 1] = k
        if i == size:
            yield tuple(ks), count, tuple(path)
            continue
        left = size - i
        if left > h:
            stack.append((i + 1, h + 1, count * (left - h), 0))
        if h:  # pushed last, so walked first
            stack.append((i + 1, h - 1, count * h, h))


@functools.cache
def chain_table(n: int) -> tuple:
    """:func:`chain_rows` of order ``n`` as a tuple, built once per order.

    For references that read the rows more than once; at order 11 the
    table holds 58,786 rows.
    """
    return tuple(chain_rows(n))


def follow_chain(n: int, *streams) -> int:
    """Check each stream's ``(tuple, orderings)`` rows against :func:`chain_rows`.

    All streams are compared row by row in one pass, so no table of order
    ``n`` is held. The chain's rows also meet their closed forms: Catalan(n)
    rows, ``(2n)!`` orderings, and ``(2n - 1)!!`` for the sum over rows of
    ``prod(k)``, the perfect matchings of ``2n`` draw positions. Returns
    the row count.
    """
    rows = orderings = products = 0
    for (t, count, _), *got in zip(chain_rows(n), *streams, strict=True):
        assert got == [(t, count)] * len(streams)
        rows += 1
        orderings += count
        products += math.prod(t)
    assert rows == catalan(n)
    assert orderings == math.factorial(2 * n)
    assert products == math.prod(range(1, 2 * n, 2))
    return rows


def oracle_statistics(n: int):
    """Walk every ordering of ``2n`` labelled socks with a plain table simulation.

    Returns the ordering counts by completion-height tuple, by path
    maximum, and by height after each draw (one dict per draw). Written
    from the model description, sharing no code with sockpath; ``(2n)!``
    orderings, so for n <= 4.
    """
    socks = [(t, s) for t in range(1, n + 1) for s in (0, 1)]
    tuple_counts = {}
    max_counts = {}
    height_counts = [dict() for _ in range(2 * n)]
    for order in itertools.permutations(socks):
        on_table = set()
        completion_heights = []
        heights = []
        for sock_type, _side in order:
            if sock_type in on_table:
                completion_heights.append(len(on_table))
                on_table.remove(sock_type)
            else:
                on_table.add(sock_type)
            heights.append(len(on_table))
        key = tuple(completion_heights)
        tuple_counts[key] = tuple_counts.get(key, 0) + 1
        m = max(heights)
        max_counts[m] = max_counts.get(m, 0) + 1
        for i, h in enumerate(heights):
            height_counts[i][h] = height_counts[i].get(h, 0) + 1
    return tuple_counts, max_counts, height_counts


@st.composite
def valid_ktuples(draw, max_n: int = 8) -> KTuple:
    """A tuple some Dyck path realizes, built directly from the rules."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    entries = []
    prev = None
    for i in range(1, n + 1):
        if i == n:
            entries.append(1)
            break
        lo = 1 if prev is None else max(1, prev - 1)
        hi = n - i + 1
        prev = draw(st.integers(min_value=lo, max_value=hi))
        entries.append(prev)
    return KTuple(entries)


@st.composite
def dyck_path_heights(draw, max_n: int = 8) -> DyckPath:
    """A Dyck path built by feasible random steps."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    heights = []
    h = 0
    for i in range(2 * n):
        remaining = 2 * n - i - 1
        can_up = h + 1 <= remaining
        can_down = h >= 1
        if can_up and can_down:
            h += draw(st.sampled_from((-1, 1)))
        elif can_up:
            h += 1
        else:
            h -= 1
        heights.append(h)
    return DyckPath(heights)


@st.composite
def sock_orders(draw, max_n: int = 4) -> tuple:
    """A uniform-ish draw order of all socks of up to max_n pairs."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    socks = [Sock(t, s) for t in range(1, n + 1) for s in (0, 1)]
    return tuple(draw(st.permutations(socks)))
