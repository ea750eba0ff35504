"""Acceptance suite: one test per release criterion, exact tolerances.

Every check here is an exact-equality gate (probabilities are rationals,
tallies are integers); the Monte Carlo criterion bounds the empirical
deviation and requires bit-identical reports for any worker count. Each
test prints one ACCEPTANCE line; run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the lines inline).
"""

import itertools
import json
import math
import time
from fractions import Fraction

import pytest

from sockpath import (
    KTuple,
    brute_force_counts,
    catalan,
    dyck_paths,
    enumerate_ktuples,
    ktuple_of_path,
    monte_carlo,
    path_of_ktuple,
    permutation_count,
    tuple_probability,
    validate_ktuple,
)
from sockpath.cli import _blocks
from sockpath.probability import _count_rows

from conftest import follow_chain

MC_SEED = 20260811


def report(name: str, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE PASS: {name}{tail}")


@pytest.fixture(scope="module")
def brute_counts():
    counts = {}
    elapsed = {}
    for n in range(1, 6):
        t0 = time.perf_counter()
        counts[n] = brute_force_counts(n, workers=2)
        elapsed[n] = time.perf_counter() - t0
    return counts, elapsed


def test_probability_formula_vs_brute_force_oracle(brute_counts):
    """Exact law equals the exhaustive tally for every tuple, n = 1..5."""
    counts, elapsed = brute_counts
    for n in range(1, 6):
        total = math.factorial(2 * n)
        tallies = counts[n]
        assert sum(tallies.values()) == total
        assert set(tallies) == set(enumerate_ktuples(n))
        for t, c in tallies.items():
            assert Fraction(c, total) == tuple_probability(t)
    assert elapsed[5] < 10.0
    report(
        "probability formula vs exhaustive oracle (n=1..5, exact)",
        f"n=5 over 3628800 orderings in {elapsed[5]:.2f}s",
    )


def test_ordering_count_identity_n5(brute_counts):
    """The counting formula reproduces all 42 brute-force tallies at n = 5."""
    counts, _ = brute_counts
    tallies = counts[5]
    assert len(tallies) == 42
    for t, c in tallies.items():
        assert permutation_count(t) == c
    assert tallies[KTuple((5, 4, 3, 2, 1))] == 460_800
    report("ordering-count identity (n=5, all 42 tuples exact)")


def test_normalization_through_n12():
    """Probabilities over all valid tuples sum to exactly 1 for n = 1..12."""
    elapsed_12 = 0.0
    for n in range(1, 13):
        t0 = time.perf_counter()
        total = sum(
            (tuple_probability(t) for t in enumerate_ktuples(n)), Fraction(0)
        )
        dt = time.perf_counter() - t0
        assert total == 1, f"normalization failed at n={n}: {total}"
        if n == 12:
            elapsed_12 = dt
    assert elapsed_12 < 5.0
    report(
        "normalization sums to 1 (n=1..12, exact)",
        f"n=12 over {catalan(12)} tuples in {elapsed_12:.2f}s",
    )


def test_rows_follow_the_table_count_chain_n13():
    """Every row of order 13, tuple and ordering count, equals the chain's."""
    t0 = time.perf_counter()
    csv_counts = ((h[0] + t[0], h[1] * t[1]) for h, block in _blocks(13, "csv") for t in block)
    rows = follow_chain(13, _count_rows(13), csv_counts)
    elapsed = time.perf_counter() - t0
    report(
        "rows follow the table-count chain (n=13, exact)",
        f"{rows} rows of the table and CSV generators in {elapsed:.2f}s",
    )


def test_bijection_round_trips():
    """path->tuple->path exact for all n<=8; tuple->path->tuple for all n<=10."""
    paths = 0
    for n in range(1, 9):
        for p in dyck_paths(n):
            assert path_of_ktuple(ktuple_of_path(p)) == p
            paths += 1
    tuples = 0
    for n in range(1, 11):
        for t in enumerate_ktuples(n):
            assert ktuple_of_path(path_of_ktuple(t)) == t
            tuples += 1
    report(
        "bijection round trips (exact)",
        f"{paths} paths (n<=8), {tuples} tuples (n<=10)",
    )


def test_catalan_counts_through_n14():
    """Tuple enumeration cardinality equals the Catalan number for n = 1..14."""
    for n in range(1, 15):
        count = sum(1 for _ in enumerate_ktuples(n))
        assert count == catalan(n), f"n={n}: {count} != {catalan(n)}"
    report("Catalan counts (n=1..14, exact)", f"n=14 has {catalan(14)} tuples")


def test_worked_example_both_directions():
    """(2,4,3,2,1) <-> (1,2,1,2,3,4,3,2,1,0), unique among all 42 paths."""
    t = KTuple((2, 4, 3, 2, 1))
    p = (1, 2, 1, 2, 3, 4, 3, 2, 1, 0)
    assert tuple(path_of_ktuple(t)) == p
    assert ktuple_of_path(p) == t
    matches = [q for q in dyck_paths(5) if ktuple_of_path(q) == t]
    assert len(matches) == 1 and tuple(matches[0]) == p
    report("worked example (2,4,3,2,1) <-> path (both directions, exact)")


def _canonical_report_bytes(rep) -> bytes:
    payload = {
        "n": rep.n,
        "trials": rep.trials,
        "seed": rep.seed,
        "rows": [
            [list(t), hit, str(Fraction(hit, rep.trials)), str(tuple_probability(t))]
            for t, hit, _ in rep.rows()
        ],
    }
    return json.dumps(payload, sort_keys=True).encode()


def test_monte_carlo_concentration_and_determinism():
    """n=5, 1e6 trials: max deviation < 0.005, identical for 1/2/4 workers."""
    t0 = time.perf_counter()
    baseline = monte_carlo(5, 1_000_000, MC_SEED, workers=1)
    elapsed = time.perf_counter() - t0
    rerun = monte_carlo(5, 1_000_000, MC_SEED, workers=1)
    two = monte_carlo(5, 1_000_000, MC_SEED, workers=2)
    four = monte_carlo(5, 1_000_000, MC_SEED, workers=4)

    max_dev = baseline.max_abs_deviation
    assert max_dev < Fraction(5, 1000)
    blob = _canonical_report_bytes(baseline)
    assert _canonical_report_bytes(rerun) == blob
    assert _canonical_report_bytes(two) == blob
    assert _canonical_report_bytes(four) == blob
    assert baseline == rerun == two == four
    assert elapsed < 30.0
    report(
        "Monte Carlo concentration + determinism (n=5, 1e6 trials)",
        f"max dev {float(max_dev):.5f} < 0.005, run in {elapsed:.2f}s, "
        "byte-identical for workers 1/2/4",
    )


def test_probability_invariant_under_entry_permutation_n5():
    """At n=5, every valid rearrangement of a tuple has the same probability."""
    checked = 0
    for t in enumerate_ktuples(5):
        p = tuple_probability(t)
        for perm in set(itertools.permutations(t)):
            candidate = KTuple(perm)
            if validate_ktuple(candidate):
                assert tuple_probability(candidate) == p
                checked += 1
    report(
        "probability depends on the entry multiset only (n=5, exact)",
        f"{checked} valid rearrangements checked",
    )
