"""Shared hypothesis strategies for sock-sorting objects, a peak-RSS probe and a record check."""

import copy
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import strategies as st

import sockpath
from sockpath import DyckPath, KTuple, Sock

# A child's ru_maxrss starts at the peak RSS of the process that started
# it, so a small launcher, not the test process, reaps the child with
# os.wait4 and prints its peak in kilobytes.
_LAUNCHER = (
    "import os, subprocess, sys\n"
    "proc = subprocess.Popen([sys.executable, '-c', *sys.argv[1:]],\n"
    "    stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "assert os.waitstatus_to_exitcode(status) == 0\n"
    "print(usage.ru_maxrss)\n"
)


def peak_rss_kb(code: str, *argv: str) -> int:
    """Peak RSS in kilobytes of a fresh ``python -c code *argv`` on ``src/``."""
    src = Path(sockpath.__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "SOCKPATH_THREADS"}
    env["PYTHONPATH"] = str(src)
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, code, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


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
