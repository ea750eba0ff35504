"""Exact law: formula, enumeration, distribution tables, marginals."""

import csv
import io
import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given

from sockpath import (
    DyckPath,
    KTuple,
    MalformedInputError,
    ResourceLimitError,
    TupleValidityError,
    brute_force_counts,
    catalan,
    dyck_paths,
    enumerate_ktuples,
    full_distribution,
    ktuple_of_path,
    marginal_xk,
    max_distribution,
    monte_carlo,
    path_of_ktuple,
    permutation_count,
    tuple_probability,
    validate_ktuple,
)
from sockpath import core
from sockpath.cli import _JSON_ITEM, _JSON_ROW_CLOSE, _JSON_ROW_OPEN, _blocks
from sockpath.probability import _count_rows

from conftest import (
    assert_record,
    chain_rows,
    chain_table,
    follow_chain,
    oracle_statistics,
    valid_ktuples,
)


@pytest.fixture(scope="module", params=[1, 2, 3, 4])
def oracle(request):
    n = request.param
    return n, oracle_statistics(n)


# ----------------------------------------------------------------------
# Chain-sum oracles for the marginal laws: sum every row of the
# table-count chain (conftest.chain_rows) by its path's height after draw
# k, or by its path's maximum. Catalan(n) work per law and no code shared
# with the package; the closed form and the Hermite-history walk in the
# package are gated against them wherever they run in reasonable time.
# ----------------------------------------------------------------------

def _chain_law(n, height):
    # orderings by height(path), over the (2n)! orderings
    counts = {}
    for _, count, path in chain_table(n):
        h = height(path)
        counts[h] = counts.get(h, 0) + count
    total = math.factorial(2 * n)
    return {h: Fraction(c, total) for h, c in sorted(counts.items())}


def enumerated_xk_law(n, k):
    return _chain_law(n, lambda path: path[k - 1])


def enumerated_max_law(n):
    return _chain_law(n, max)


def assert_same_stat(stat, law):
    # key order is output order for the CLI, so compare it too
    assert list(stat.law.items()) == list(law.items())
    mean = sum((h * p for h, p in law.items()), Fraction(0))
    second = sum((h * h * p for h, p in law.items()), Fraction(0))
    assert stat.mean == mean
    assert stat.variance == second - mean * mean


def assert_same_xk(n, k):
    assert_same_stat(marginal_xk(n, k), enumerated_xk_law(n, k))


# ----------------------------------------------------------------------
# Chain oracle for the marginal laws past the chain sums' reach: the
# table-count Markov chain over distinguishable socks, stepped draw by
# draw. It shares no formula with the package's closed form for X_k or
# its Hermite-history weights for the maximum.
# ----------------------------------------------------------------------

def chain_height_counts(n, ceiling):
    """After each draw ``1..2n``, the ordered draws so far by table count.

    Entry ``h`` of the ``i``-th list counts the sequences of ``i``
    distinct socks out of ``2n`` that leave ``h`` socks on the table and
    never put more than ``ceiling`` there. From height ``h`` after ``i``
    draws, ``h`` of the ``2n - i`` socks left step down and the other
    ``2n - i - h`` step up.
    """
    counts = [1] + [0] * ceiling
    for i in range(2 * n):
        left = 2 * n - i
        nxt = [0] * (ceiling + 1)
        for h, c in enumerate(counts):
            if c:
                if h:
                    nxt[h - 1] += c * h
                if h < ceiling:
                    nxt[h + 1] += c * (left - h)
        counts = nxt
        yield counts


def chain_max_law(n):
    # orderings whose maximum is at most m, differenced over m
    law, below = {}, 0
    for m in range(1, n + 1):
        *_, last = chain_height_counts(n, m)
        law[m] = Fraction(last[0] - below, math.factorial(2 * n))
        below = last[0]
    return law


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
        entries = {KTuple((1, 1)): Fraction(1, 3), KTuple((2, 1)): Fraction(2, 3)}
        assert table.entries == entries
        assert table[(2, 1)] == Fraction(2, 3)
        assert len(table) == 2
        assert list(table) == [KTuple((1, 1)), KTuple((2, 1))]
        assert table != full_distribution(1)
        # a table never equals another type: both sides return NotImplemented
        assert table.__eq__(1) is NotImplemented
        assert (table == 1) is False
        with pytest.raises(AttributeError):
            del table.n
        assert_record(
            table,
            "DistributionTable(n=2, entries={KTuple((1, 1)): Fraction(1, 3), "
            "KTuple((2, 1)): Fraction(2, 3)})",
            n=2, entries=entries,
        )

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

    @pytest.mark.parametrize("n", range(1, 13))
    def test_text_is_str_of_tuple(self, n):
        # entries reach 10 from n = 10 on; n = 12 walks the default _TAIL
        cells = (h[2] + t[2] for h, block in _blocks(n, "csv") for t in block)
        for got, t in zip(cells, enumerate_ktuples(n), strict=True):
            assert got == csv_cell(str(t))


def csv_cell(text: str) -> str:
    # the tuple cell as csv.writer writes it, without the line's end
    line = io.StringIO()
    csv.writer(line, lineterminator="").writerow([text])
    return line.getvalue()


def csv_counts(n: int):
    # each CSV row's tuple and ordering count, as the CLI joins them from
    # a block's head and tail
    return ((h[0] + t[0], h[1] * t[1]) for h, block in _blocks(n, "csv") for t in block)


def started(rows):
    # the same rows, with the first already drawn
    rows = iter(rows)
    return itertools.chain([next(rows)], rows)


class TestChain:
    # The table-count chain is the reference for every row's count. A
    # generator reads core._TAIL as it starts, so each stream is started
    # under its own tail length and one pass of the chain checks them
    # all: every length for both generators at n = 11, and for
    # _count_rows at n = 12. TestTailSeam forces them up to n = 10.
    @pytest.mark.parametrize("n", range(1, 13))
    def test_rows_follow_the_chain(self, n, monkeypatch):
        default = core._TAIL
        streams = []
        for size in range(1, default + 1) if n > 10 else [default]:
            monkeypatch.setattr(core, "_TAIL", size)
            streams.append(started(_count_rows(n)))
            if n == 11 or size == default:
                streams.append(started(csv_counts(n)))
        follow_chain(n, *streams)

    def test_catches_swapped_counts(self):
        # the first and last rows' counts swapped keep every sum
        rows = list(_count_rows(10))
        (first, a), (last, b) = rows[0], rows[-1]
        rows[0], rows[-1] = (first, b), (last, a)
        assert len(rows) == catalan(10)
        assert sum(count for _, count in rows) == math.factorial(20)
        assert sum(math.prod(t) for t, _ in rows) == math.prod(range(1, 20, 2))
        with pytest.raises(AssertionError):
            follow_chain(10, rows)


class TestTailSeam:
    # Rows and paths join a prefix stepped by the odometer to a tail from
    # the table of order min(core._TAIL, n); forcing every tail length
    # puts the seam at every position. From n = 10 on, entries and
    # heights reach two digits and every prefix end occurs, so larger n
    # reach no further code: TestChain forces the tails there.
    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_tail_length(self, n, monkeypatch):
        chain = list(chain_rows(n))
        tuples = [t for t, _, _ in chain]
        rows = [(t, count) for t, count, _ in chain]
        texts = ["(" + ",".join(map(str, t)) + ")" for t in tuples]
        paths = [path for _, _, path in chain]
        # csv.writer quotes every tuple cell of order n, or none
        quote = '"' if csv_cell(texts[0]) != texts[0] else ""
        for size in range(1, min(n, core._TAIL) + 1):
            monkeypatch.setattr(core, "_TAIL", size)
            prefix = n - size
            # the prefix is empty, or it ends in every v from 1 to size + 1
            if prefix:
                assert {t[prefix - 1] for t in tuples} == set(range(1, size + 2))
            # compared as they stream, since lists of a whole table make
            # the collector walk them again and again
            for got, want in zip(_count_rows(n), rows, strict=True):
                assert got == want and tuple(map(type, got)) == (KTuple, int)
            for got, want in zip(dyck_paths(n), paths, strict=True):
                assert got == want and type(got) is DyckPath
            for got, want in zip(enumerate_ktuples(n), tuples, strict=True):
                assert got == want and type(got) is KTuple
            # The fragments of CLI rows: the CSV tuple cell, and the JSON
            # row's opening with the tuple's elements and the path's
            # elements with the row's close.
            csv_rows = (
                (h[0] + t[0], h[1] * t[1], h[2] + t[2], h[3] + t[3])
                for h, block in _blocks(n, "csv")
                for t in block
            )
            for got, row, text in zip(csv_rows, rows, texts, strict=True):
                assert got == (*row, quote + text + quote, "")
            json_rows = (
                (h[0] + t[0], h[1] * t[1], h[2] + t[2], h[3] + t[3])
                for h, block in _blocks(n, "json", path=True)
                for t in block
            )
            for got, row, text, path in zip(json_rows, rows, texts, paths, strict=True):
                assert got == (
                    *row,
                    _JSON_ROW_OPEN + text[1:-1].replace(",", _JSON_ITEM),
                    _JSON_ITEM.join(map(str, path)) + _JSON_ROW_CLOSE,
                )


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
        assert_record(
            stat,
            "MarginalStat(n=2, k=2, law={0: Fraction(1, 3), 2: Fraction(2, 3)}, "
            "mean=Fraction(4, 3), variance=Fraction(8, 9))",
            n=2, k=2, law={0: Fraction(1, 3), 2: Fraction(2, 3)},
            mean=Fraction(4, 3), variance=Fraction(8, 9),
        )

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
        # the closed form has its own cap, far past the enumeration cap
        assert marginal_xk(15, 1).law == {1: Fraction(1)}
        with pytest.raises(ResourceLimitError, match=r"O\(n\) binomial sum"):
            marginal_xk(1001, 1)
        assert marginal_xk(1001, 1, cap=1001).law == {1: Fraction(1)}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_enumeration_every_k(self, n):
        for k in range(1, 2 * n + 1):
            assert_same_xk(n, k)

    def test_matches_enumeration_n10(self):
        assert_same_xk(10, 10)

    @pytest.mark.parametrize("n", range(1, 61))
    def test_matches_chain_every_k(self, n):
        for k, counts in enumerate(chain_height_counts(n, n), 1):
            total = math.perm(2 * n, k)
            law = {h: Fraction(c, total) for h, c in enumerate(counts) if c}
            assert_same_stat(marginal_xk(n, k, cap=n), law)

    @pytest.mark.parametrize("n", [14, 40])
    def test_mean_closed_form(self, n):
        # E[X_k] = k(2n - k)/(2n - 1): each of the first k socks is still
        # on the table iff its partner is among the last 2n - k.
        for k in range(1, 2 * n + 1):
            assert marginal_xk(n, k, cap=n).mean == Fraction(k * (2 * n - k), 2 * n - 1)

    @pytest.mark.parametrize("n", [14, 40])
    def test_law_closed_form(self, n):
        # The formula marginal_xk sums, restated: not an independent check
        # (the chain walk and the chain sums are). After k draws with h
        # socks on the table, j = (k - h)/2 pairs are complete: choose
        # them, choose the h open pairs and the side drawn of each, then
        # order the k socks.
        for k in range(1, 2 * n + 1):
            expected = {}
            for h in range(k % 2, k + 1, 2):
                j = (k - h) // 2
                ways = math.comb(n, j) * math.comb(n - j, h) * 2**h * math.factorial(k)
                if ways:
                    expected[h] = Fraction(ways, math.perm(2 * n, k))
            assert marginal_xk(n, k).law == expected


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

    @pytest.mark.parametrize("n", range(1, 41))
    def test_matches_chain(self, n):
        law = max_distribution(n, cap=n)
        assert list(law.items()) == list(chain_max_law(n).items())

    @pytest.mark.parametrize("n", [14, 40])
    def test_full_height_closed_form(self, n):
        # The maximum is n iff the first n draws are n different pairs.
        f = math.factorial
        law = max_distribution(n, cap=n)
        assert law[n] == Fraction(2**n * f(n) * f(n), f(2 * n))
        assert sum(law.values(), Fraction(0)) == 1

    @pytest.mark.parametrize("n", [14, 40])
    def test_matches_hermite_histories(self, n):
        # The walk max_distribution runs, restated: not an independent
        # check (the chain walk and the chain sums are). Each Dyck path of
        # maximum at most m stands for prod(k) of the (2n - 1)!! perfect
        # matchings of the socks' draw positions (Flajolet's Hermite
        # histories): weigh a down-step from height h by h and an up-step
        # by 1, and sum the paths below the ceiling.
        def below(m):
            weights = {0: 1}
            for _ in range(2 * n):
                step = Counter()
                for h, w in weights.items():
                    if h < m:
                        step[h + 1] += w
                    if h:
                        step[h - 1] += w * h
                weights = step
            return weights[0]

        matchings = math.prod(range(1, 2 * n, 2))
        law = max_distribution(n)
        for m in range(1, n + 1):
            assert law[m] == Fraction(below(m) - below(m - 1), matchings), m
        assert len(law) == n

    def test_cap(self):
        # the O(n^3) walk has its own cap, past the enumeration cap
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


@pytest.mark.parametrize("cap", ["5", 2.5, True, 0])
@pytest.mark.parametrize(
    "fn",
    [
        dyck_paths,
        enumerate_ktuples,
        full_distribution,
        lambda n, cap: marginal_xk(n, 1, cap=cap),
        max_distribution,
        brute_force_counts,
        lambda n, cap: monte_carlo(n, 10, 1, cap=cap),
    ],
    ids=[
        "dyck_paths", "enumerate_ktuples", "full_distribution", "marginal_xk",
        "max_distribution", "brute_force_counts", "monte_carlo",
    ],
)
def test_malformed_cap_is_malformed(fn, cap):
    with pytest.raises(MalformedInputError, match="cap must be a positive integer"):
        fn(2, cap=cap)


@pytest.mark.parametrize(
    "call,cap",
    [
        (lambda: dyck_paths(8000), 14),
        (lambda: enumerate_ktuples(8000), 14),
        (lambda: monte_carlo(8000, 10, 1), 14),
        (lambda: brute_force_counts(5000), 5),
    ],
    ids=["dyck_paths", "enumerate_ktuples", "monte_carlo", "brute_force_counts"],
)
def test_cap_message_for_huge_n(call, cap):
    # Catalan(8000) and 10000! have more digits than str() converts by
    # default; the refusal names the cost instead of printing it
    with pytest.raises(ResourceLimitError) as exc:
        call()
    assert exc.value.cap == cap
    assert len(str(exc.value)) < 200


class TestEntryPermutationInvariance:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_probability_depends_on_multiset_only(self, n):
        for t in enumerate_ktuples(n):
            p = tuple_probability(t)
            for perm in set(itertools.permutations(t)):
                if validate_ktuple(KTuple(perm)):
                    assert tuple_probability(perm) == p
