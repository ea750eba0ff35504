"""Reference oracle for the sock-sorting law, written apart from ``sockpath``.

Nothing here imports the package under test. Every quantity is an exact
integer or a ``(numerator, denominator)`` pair of integers; the only
rational type used is the one built here.

* :func:`realizable` is the tuple rule ``k_n = 1`` and ``k_{i+1} >= k_i - 1``.
* :func:`ordering_count` is ``2^n * n! * prod(k_i)``, the number of the
  ``(2n)!`` sock orderings that realize a tuple.
* :func:`walk_up` builds a tuple's Dyck path; :func:`walk_down` reads a
  height sequence back into its tuple and rejects anything not a Dyck path.
* :func:`half_even` renders a rational as a half-even rounded decimal.
* :func:`xk_law` and :func:`max_law` run the Markov chain on the table
  count: after ``i`` draws at height ``h``, the next draw is a down-step
  in ``h`` ways and an up-step in ``2n - i - h`` ways. Counts are divided
  once by ``(2n)!`` at the end.
* :func:`count_bound` is a Bernstein bound on how far a multinomial
  count may sit from its expectation, used as the goodness-of-fit gate
  for Monte Carlo tallies.
* :func:`self_check` compares all of the above with a walk over every
  ``(2n)!`` ordering for ``n <= 4``.
"""

from __future__ import annotations

import decimal
import itertools
import math
from collections import Counter

__all__ = [
    "catalan",
    "realizable",
    "ordering_count",
    "reduced",
    "ratio_text",
    "parse_ratio",
    "half_even",
    "walk_up",
    "walk_down",
    "tuples_lex",
    "xk_law",
    "max_law",
    "law_moments",
    "count_bound",
    "self_check",
]


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def realizable(t: tuple[int, ...]) -> bool:
    if not t or t[-1] != 1 or any(k < 1 for k in t):
        return False
    return all(b >= a - 1 for a, b in zip(t, t[1:]))


def ordering_count(t: tuple[int, ...]) -> int:
    n = len(t)
    return 2**n * math.factorial(n) * math.prod(t)


def reduced(num: int, den: int) -> tuple[int, int]:
    g = math.gcd(num, den)
    return num // g, den // g


def ratio_text(num: int, den: int) -> str:
    """``p/q`` in lowest terms, or ``p`` when ``q = 1``."""
    p, q = reduced(num, den)
    return str(p) if q == 1 else f"{p}/{q}"


def parse_ratio(text: str) -> tuple[int, int]:
    p, _, q = text.partition("/")
    return int(p), int(q) if q else 1


def half_even(num: int, den: int, digits: int) -> str:
    """Decimal rendering of ``num/den >= 0`` rounded half to even."""
    scaled = num * 10**digits
    q, r = scaled // den, scaled % den
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    whole = str(q // 10**digits)
    frac = str(q % 10**digits).rjust(digits, "0")
    return f"{whole}.{frac}"


def walk_up(t: tuple[int, ...]) -> tuple[int, ...]:
    """Height sequence after each draw: climb to ``k_j``, then step down once."""
    heights = []
    h = 0
    for k in t:
        while h < k:
            h += 1
            heights.append(h)
        h -= 1
        heights.append(h)
    return tuple(heights)


def walk_down(heights) -> tuple[int, ...] | None:
    """Tuple of a height sequence, or ``None`` if it is not a Dyck path."""
    ks = []
    prev = 0
    for h in heights:
        if h == prev + 1:
            pass
        elif h == prev - 1 and h >= 0:
            ks.append(prev)
        else:
            return None
        prev = h
    if prev != 0 or not ks:
        return None
    return tuple(ks)


def tuples_lex(n: int):
    """Every realizable tuple of order ``n``, lexicographically (by recursion)."""

    def grow(prefix: list[int]):
        i = len(prefix)
        if i == n:
            if prefix[-1] == 1:
                yield tuple(prefix)
            return
        low = max(1, prefix[-1] - 1) if prefix else 1
        for k in range(low, n - i + 1):
            prefix.append(k)
            yield from grow(prefix)
            prefix.pop()

    return grow([])


def _chain(n: int, stop: int, cap: int) -> list[int]:
    """Ordering prefixes of length ``stop`` by height, heights held to ``<= cap``."""
    ways = [1] + [0] * cap
    for i in range(stop):
        nxt = [0] * (cap + 1)
        for h, w in enumerate(ways):
            if not w:
                continue
            if h > 0:
                nxt[h - 1] += w * h
            if h < cap:
                nxt[h + 1] += w * (2 * n - i - h)
        ways = nxt
    return ways


def xk_law(n: int, k: int) -> dict[int, tuple[int, int]]:
    """Law of the table count after draw ``k``: height -> reduced (p, q)."""
    total = math.factorial(2 * n)
    tail = math.factorial(2 * n - k)
    ways = _chain(n, k, n)
    return {h: reduced(w * tail, total) for h, w in enumerate(ways) if w}


def max_law(n: int) -> dict[int, tuple[int, int]]:
    """Law of the highest table count over a run: height -> reduced (p, q)."""
    total = math.factorial(2 * n)
    at_most = [0] + [_chain(n, 2 * n, m)[0] for m in range(1, n + 1)]
    return {
        m: reduced(at_most[m] - at_most[m - 1], total)
        for m in range(1, n + 1)
        if at_most[m] != at_most[m - 1]
    }


def law_moments(law: dict[int, tuple[int, int]]) -> tuple[tuple[int, int], tuple[int, int]]:
    """Exact mean and variance of a law, each as reduced (p, q)."""
    den = math.lcm(*(q for _, q in law.values()))
    mass = {h: p * (den // q) for h, (p, q) in law.items()}
    first = sum(h * w for h, w in mass.items())
    second = sum(h * h * w for h, w in mass.items())
    # variance = second/den - (first/den)^2 = (second*den - first^2) / den^2
    return reduced(first, den), reduced(second * den - first * first, den * den)


def count_bound(trials: int, num: int, den: int, cells: int) -> float:
    """Largest credible ``|count - trials*p|`` for a cell of probability ``num/den``.

    Bernstein's inequality with a union bound over ``cells`` cells, at a
    total false-alarm rate of 1e-12: a correct sampler fails this gate
    with negligible probability on any seed.
    """
    p = num / den
    log_term = math.log(2 * cells / 1e-12)
    var = trials * p * (1 - p)
    return log_term / 3 + math.sqrt(log_term * log_term / 9 + 2 * log_term * var) + 1e-9


def self_check(max_n: int = 4) -> list[str]:
    """Compare the oracle with a walk over all ``(2n)!`` orderings for n <= max_n.

    Returns the list of disagreements (empty when all hold).
    """
    problems = []
    with decimal.localcontext() as ctx:
        ctx.prec = 200
        for num, den, digits in [(1, 3, 6), (2, 3, 6), (1, 8, 2), (3, 8, 2), (5, 20, 1),
                                 (15, 20, 1), (25, 1000, 1), (35, 1000, 1), (10**20 + 1, 7, 9)]:
            want = (decimal.Decimal(num) / decimal.Decimal(den)).quantize(
                decimal.Decimal(1).scaleb(-digits), rounding=decimal.ROUND_HALF_EVEN
            )
            got = half_even(num, den, digits)
            if got != str(want):
                problems.append(f"half_even({num}/{den}, {digits}) = {got}, decimal says {want}")
    for n in range(1, max_n + 1):
        total = math.factorial(2 * n)
        by_tuple: Counter = Counter()
        by_height = [Counter() for _ in range(2 * n)]
        by_max: Counter = Counter()
        for order in itertools.permutations(range(2 * n)):
            seen = set()
            heights = []
            h = 0
            for sock in order:
                pair = sock // 2
                if pair in seen:
                    h -= 1
                else:
                    seen.add(pair)
                    h += 1
                heights.append(h)
            t = walk_down(heights)
            by_tuple[t] += 1
            for i, x in enumerate(heights):
                by_height[i][x] += 1
            by_max[max(heights)] += 1
        tuples = list(tuples_lex(n))
        if len(tuples) != catalan(n) or sorted(by_tuple) != tuples:
            problems.append(f"n={n}: realizable tuples differ from the exhaustive walk")
        for t in tuples:
            if not realizable(t) or walk_down(walk_up(t)) != t:
                problems.append(f"n={n}: tuple {t} fails realizability or its walk")
            if by_tuple[t] != ordering_count(t):
                problems.append(f"n={n}: {t} has {by_tuple[t]} orderings, formula says {ordering_count(t)}")
        for k in range(1, 2 * n + 1):
            want = {h: reduced(c, total) for h, c in by_height[k - 1].items()}
            if xk_law(n, k) != want:
                problems.append(f"n={n}: law of X_{k} differs from the exhaustive walk")
        if max_law(n) != {m: reduced(c, total) for m, c in by_max.items()}:
            problems.append(f"n={n}: law of the maximum differs from the exhaustive walk")
    return problems
