"""Fixed reference program that measures how fast the machine runs right now.

``run.py`` runs it as a fresh process between the CLI commands it times
and scales each command's times by how long the reference took around it
(see the README, *Calibration*). It shares no code with ``sockpath`` and
does the same kinds of work a command does: interpreter start, the numpy
import, then pure-Python tuples, dicts, big integers and ``Fraction``
sums. It prints one checksum, :func:`work`'s result, and on standard
error the wall and CPU seconds :func:`work` took, so that the caller can
tell start-up from computation.

Usage: ``python3 perfbench/reference.py``.
"""

from fractions import Fraction

# Rounds of the loop in work(); about 0.25 s on a 2-vCPU Xeon guest, after
# about 0.2 s of start-up.
ROUNDS = 48_000


def work() -> int:
    total = Fraction(0)
    tally: dict[tuple[int, ...], int] = {}
    big = 1
    for i in range(1, ROUNDS):
        key = (i % 7, i % 11, i % 13)
        tally[key] = tally.get(key, 0) + i
        total += Fraction(i % 97 + 1, i % 89 + 1)
        big = big * (i % 31 + 2) % (1 << 4096)
    return (total.numerator + total.denominator + sum(tally.values()) + big) % 1_000_000_007


if __name__ == "__main__":
    import sys
    import time

    import numpy  # noqa: F401  every sockpath command pays this import

    wall, cpu = time.perf_counter(), time.process_time()
    print(work())
    print(time.perf_counter() - wall, time.process_time() - cpu, file=sys.stderr)
