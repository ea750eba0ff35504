"""Exact law: formula, enumeration, distribution tables, marginals."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given

from sockpath import (
    DyckPath,
    KTuple,
    MalformedInputError,
    ResourceLimitError,
    TupleValidityError,
    catalan,
    dyck_paths,
    enumerate_ktuples,
    full_distribution,
    ktuple_of_path,
    marginal_xk,
    max_distribution,
    path_of_ktuple,
    permutation_count,
    tuple_probability,
    validate_ktuple,
)
from sockpath.probability import _count_rows

from conftest import valid_ktuples


# ----------------------------------------------------------------------
# Independent oracle: walk every ordering of 2n labelled socks with a
# plain table simulation, written from the model description and using
# nothing from the package under test.
# ----------------------------------------------------------------------

def oracle_statistics(n):
    """Map tuple -> (ordering count, path max count per height, height after each draw)."""
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


@pytest.fixture(scope="module", params=[1, 2, 3, 4])
def oracle(request):
    n = request.param
    return n, oracle_statistics(n)


# ----------------------------------------------------------------------
# Enumeration oracles for the marginal laws: sum every valid tuple's
# probability by its path's height after draw k, or by its largest entry
# (the path's maximum). Catalan(n) work per law; the height recursion in
# the package is gated against them wherever they run in reasonable time.
# ----------------------------------------------------------------------

def enumerated_xk_law(n, k):
    law = {}
    for t in enumerate_ktuples(n):
        h = path_of_ktuple(t)[k - 1]
        law[h] = law.get(h, Fraction(0)) + tuple_probability(t)
    return dict(sorted(law.items()))


def enumerated_max_law(n):
    law = {}
    for t in enumerate_ktuples(n):
        h = max(t)
        law[h] = law.get(h, Fraction(0)) + tuple_probability(t)
    return dict(sorted(law.items()))


def assert_same_xk(n, k):
    stat = marginal_xk(n, k)
    law = enumerated_xk_law(n, k)
    # key order is output order for the CLI, so compare it too
    assert list(stat.law.items()) == list(law.items())
    mean = sum((h * p for h, p in law.items()), Fraction(0))
    second = sum((h * h * p for h, p in law.items()), Fraction(0))
    assert stat.mean == mean
    assert stat.variance == second - mean * mean


class TestTupleProbability:
    @pytest.mark.parametrize(
        "entries,expected",
        [
            ((1,), Fraction(1)),
            ((2, 1), Fraction(2, 3)),
            ((1, 1), Fraction(1, 3)),
            ((5, 4, 3, 2, 1), Fraction(8, 63)),
            ((1, 1, 1, 1, 1), Fraction(1, 945)),
            ((2, 4, 3, 2, 1), Fraction(16, 315)),
        ],
    )
    def test_valid_examples(self, entries, expected):
        assert tuple_probability(entries) == expected

    @pytest.mark.parametrize("entries", [(1, 2), (3, 1, 1), (2, 2)])
    def test_zero_for_unrealizable(self, entries):
        assert tuple_probability(entries) == 0

    def test_malformed_raises_instead_of_zero(self):
        with pytest.raises(MalformedInputError):
            tuple_probability((0, 1))
        with pytest.raises(MalformedInputError):
            tuple_probability(())

    def test_matches_oracle(self, oracle):
        n, (tuple_counts, _, _) = oracle
        total = math.factorial(2 * n)
        assert sum(tuple_counts.values()) == total
        for key, count in tuple_counts.items():
            assert tuple_probability(key) == Fraction(count, total)

    @given(valid_ktuples(max_n=8))
    def test_lowest_terms_and_range(self, t):
        p = tuple_probability(t)
        assert 0 < p <= 1
        assert math.gcd(p.numerator, p.denominator) == 1


class TestPermutationCount:
    @pytest.mark.parametrize(
        "entries,expected",
        [
            ((1,), 2),
            ((2, 1), 16),
            ((1, 1), 8),
            ((2, 4, 3, 2, 1), 184_320),
            ((5, 4, 3, 2, 1), 460_800),
        ],
    )
    def test_examples(self, entries, expected):
        assert permutation_count(entries) == expected

    def test_invalid_tuple_is_an_error(self):
        with pytest.raises(TupleValidityError):
            permutation_count((1, 2))

    def test_matches_oracle(self, oracle):
        n, (tuple_counts, _, _) = oracle
        for key, count in tuple_counts.items():
            assert permutation_count(key) == count

    @given(valid_ktuples(max_n=8))
    def test_consistent_with_probability(self, t):
        total = math.factorial(2 * t.n)
        assert tuple_probability(t) == Fraction(permutation_count(t), total)


class TestEnumerateKTuples:
    def test_small_orders(self):
        assert [tuple(t) for t in enumerate_ktuples(1)] == [(1,)]
        assert [tuple(t) for t in enumerate_ktuples(2)] == [(1, 1), (2, 1)]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_count_validity_order(self, n):
        tuples = list(enumerate_ktuples(n))
        assert len(tuples) == catalan(n)
        assert len(set(tuples)) == len(tuples)
        assert tuples == sorted(tuples)
        assert all(validate_ktuple(t) for t in tuples)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_dual_enumeration_agrees(self, n):
        direct = set(enumerate_ktuples(n))
        via_paths = {ktuple_of_path(p) for p in dyck_paths(n)}
        assert direct == via_paths

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            enumerate_ktuples(15)
        gen = enumerate_ktuples(15, cap=15)
        assert next(iter(gen)) == KTuple((1,) * 15)


class TestFullDistribution:
    def test_n1(self):
        table = full_distribution(1)
        assert table.entries == {KTuple((1,)): Fraction(1)}

    def test_n2(self):
        table = full_distribution(2)
        assert table.entries == {
            KTuple((1, 1)): Fraction(1, 3),
            KTuple((2, 1)): Fraction(2, 3),
        }
        assert table[(2, 1)] == Fraction(2, 3)

    def test_n5(self):
        table = full_distribution(5)
        assert len(table) == 42
        assert table[(5, 4, 3, 2, 1)] == Fraction(8, 63)
        assert table.total() == 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_normalization(self, n):
        assert full_distribution(n).total() == 1

    def test_agrees_with_tuple_probability(self):
        table = full_distribution(4)
        for t, p in table.entries.items():
            assert p == tuple_probability(t)


class TestCountRows:
    @pytest.mark.parametrize("n", range(1, 12))
    def test_bijection_keeps_lexicographic_order(self, n):
        # JSON tables pair the rows with dyck_paths' walk on this property
        paths = [path_of_ktuple(t) for t in enumerate_ktuples(n)]
        assert list(dyck_paths(n)) == paths

    @pytest.mark.parametrize("n", range(1, 10))
    def test_rows_match_per_tuple_functions(self, n):
        # the generator's products, paired with the path walk, against
        # the validating versions
        rows = list(zip(_count_rows(n), dyck_paths(n), strict=True))
        assert [t for (t, _), _ in rows] == list(enumerate_ktuples(n))
        for (t, count), path in rows:
            assert type(t) is KTuple and type(path) is DyckPath
            assert count == permutation_count(t)
            assert path == path_of_ktuple(t)

    @pytest.mark.parametrize("n", [12, 13])
    def test_counts_meet_closed_forms(self, n):
        # (2n)! orderings in all; sum over tuples of prod(k_i) = (2n - 1)!!,
        # the number of perfect matchings of 2n draw positions
        orderings = products = rows = 0
        for t, count in _count_rows(n):
            orderings += count
            products += math.prod(t)
            rows += 1
        assert rows == catalan(n)
        assert orderings == math.factorial(2 * n)
        assert products == math.prod(range(1, 2 * n, 2))


class TestMarginals:
    def test_n1_endpoints(self):
        assert marginal_xk(1, 1).law == {1: Fraction(1)}
        assert marginal_xk(1, 2).law == {0: Fraction(1)}
        assert marginal_xk(1, 1).mean == 1
        assert marginal_xk(1, 2).mean == 0

    def test_n2_second_draw(self):
        stat = marginal_xk(2, 2)
        assert stat.law == {0: Fraction(1, 3), 2: Fraction(2, 3)}
        assert stat.mean == Fraction(4, 3)
        assert stat.variance == Fraction(8, 9)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_boundary_point_masses(self, n):
        assert marginal_xk(n, 1).law == {1: Fraction(1)}
        assert marginal_xk(n, 2 * n).law == {0: Fraction(1)}

    @pytest.mark.parametrize("n", range(1, 6))
    def test_support_parity_and_mass(self, n):
        for k in range(1, 2 * n + 1):
            stat = marginal_xk(n, k)
            assert sum(stat.law.values(), Fraction(0)) == 1
            assert stat.mean == sum(
                (h * p for h, p in stat.law.items()), Fraction(0)
            )
            for h in stat.law:
                assert h % 2 == k % 2
                assert 0 <= h <= min(k, 2 * n - k)

    def test_matches_oracle(self, oracle):
        n, (_, _, height_counts) = oracle
        total = math.factorial(2 * n)
        for k in range(1, 2 * n + 1):
            law = marginal_xk(n, k).law
            expected = {
                h: Fraction(c, total) for h, c in height_counts[k - 1].items()
            }
            assert law == expected

    def test_k_out_of_range(self):
        with pytest.raises(MalformedInputError):
            marginal_xk(2, 0)
        with pytest.raises(MalformedInputError):
            marginal_xk(2, 5)

    def test_cap(self):
        # the O(n^2) count has its own cap, far past the enumeration cap
        assert marginal_xk(15, 1).law == {1: Fraction(1)}
        with pytest.raises(ResourceLimitError, match=r"O\(n\^2\) height count"):
            marginal_xk(1001, 1)
        assert marginal_xk(1001, 1, cap=1001).law == {1: Fraction(1)}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_enumeration_every_k(self, n):
        for k in range(1, 2 * n + 1):
            assert_same_xk(n, k)

    def test_matches_enumeration_n10(self):
        assert_same_xk(10, 10)

    @pytest.mark.parametrize("n", [14, 40])
    def test_mean_closed_form(self, n):
        # E[X_k] = k(2n - k)/(2n - 1): each of the first k socks is still
        # on the table iff its partner is among the last 2n - k.
        for k in range(1, 2 * n + 1):
            assert marginal_xk(n, k, cap=n).mean == Fraction(k * (2 * n - k), 2 * n - 1)


class TestMaxDistribution:
    def test_small(self):
        assert max_distribution(1) == {1: Fraction(1)}
        assert max_distribution(2) == {1: Fraction(1, 3), 2: Fraction(2, 3)}

    def test_n5(self):
        law = max_distribution(5)
        assert sorted(law) == [1, 2, 3, 4, 5]
        assert sum(law.values(), Fraction(0)) == 1
        # the only order-5 tuple containing a 5 is (5,4,3,2,1)
        assert law[5] == Fraction(8, 63)

    def test_matches_oracle(self, oracle):
        n, (_, max_counts, _) = oracle
        total = math.factorial(2 * n)
        expected = {h: Fraction(c, total) for h, c in max_counts.items()}
        assert max_distribution(n) == expected

    @pytest.mark.parametrize("n", [*range(1, 9), 10])
    def test_matches_enumeration(self, n):
        law = max_distribution(n)
        assert list(law.items()) == list(enumerated_max_law(n).items())

    @pytest.mark.parametrize("n", [14, 40])
    def test_full_height_closed_form(self, n):
        # The maximum is n iff the first n draws are n different pairs.
        f = math.factorial
        law = max_distribution(n, cap=n)
        assert law[n] == Fraction(2**n * f(n) * f(n), f(2 * n))
        assert sum(law.values(), Fraction(0)) == 1

    def test_cap(self):
        # the O(n^3) count has its own cap, past the enumeration cap
        assert sum(max_distribution(60).values(), Fraction(0)) == 1
        with pytest.raises(ResourceLimitError, match=r"O\(n\^3\) height count"):
            max_distribution(201)
        with pytest.raises(ResourceLimitError):
            max_distribution(5, cap=4)

    def test_max_equals_largest_entry(self):
        # the path's running maximum is the largest down-step height
        for t in enumerate_ktuples(5):
            assert path_of_ktuple(t).max_height == max(t)


@pytest.mark.parametrize(
    "fn,args",
    [
        (full_distribution, (2.5,)),
        (max_distribution, ("3",)),
        (enumerate_ktuples, (2.0,)),
        (marginal_xk, (True, 1)),
        (dyck_paths, (None,)),
    ],
)
def test_non_integer_n_is_malformed(fn, args):
    with pytest.raises(MalformedInputError, match="n must be a positive integer"):
        fn(*args)


class TestEntryPermutationInvariance:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_probability_depends_on_multiset_only(self, n):
        for t in enumerate_ktuples(n):
            p = tuple_probability(t)
            for perm in set(itertools.permutations(t)):
                if validate_ktuple(KTuple(perm)):
                    assert tuple_probability(perm) == p
