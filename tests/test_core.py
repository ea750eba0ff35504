"""Domain types and the tuple/path bijection."""

import itertools

import pytest
from hypothesis import given

from sockpath import (
    DyckPath,
    KTuple,
    MalformedInputError,
    PathValidityError,
    ResourceLimitError,
    SockSequence,
    TupleValidityError,
    catalan,
    down_step_indices,
    dyck_paths,
    ktuple_of_path,
    path_of_ktuple,
    permutation_count,
    run_process,
    tuple_probability,
    validate_ktuple,
)
from sockpath.core import _odometer

from conftest import dyck_path_heights, valid_ktuples


def catalan_by_recurrence(n: int) -> int:
    # Independent oracle: C_0 = 1, C_{m+1} = sum C_i * C_{m-i}.
    c = [1]
    for m in range(n):
        c.append(sum(c[i] * c[m - i] for i in range(m + 1)))
    return c[n]


class TestKTupleType:
    def test_wraps_entries(self):
        t = KTuple([2, 4, 3, 2, 1])
        assert tuple(t) == (2, 4, 3, 2, 1)
        assert t.n == 5
        assert str(t) == "(2,4,3,2,1)"
        assert "KTuple" in repr(t)

    def test_idempotent_coercion(self):
        t = KTuple((2, 1))
        assert KTuple(t) is t

    def test_hashable_dict_key(self):
        d = {KTuple((1, 1)): 1}
        assert d[KTuple((1, 1))] == 1

    @pytest.mark.parametrize(
        "bad", [(), (0, 1), (-1,), (1, 0), (1.5, 1), ("1", 1), (True, 1)]
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(MalformedInputError):
            KTuple(bad)


class TestValidateKTuple:
    @pytest.mark.parametrize(
        "entries,expected",
        [
            ((2, 4, 3, 2, 1), True),
            ((1,), True),
            ((1, 2), False),
            ((3, 1, 1), False),
            ((1, 1), True),
            ((2, 1), True),
            ((2, 2, 1), True),
            ((1, 3, 1), False),
            ((5, 4, 3, 2, 1), True),
        ],
    )
    def test_examples(self, entries, expected):
        assert validate_ktuple(entries) is expected

    def test_malformed_is_an_error_not_false(self):
        with pytest.raises(MalformedInputError):
            validate_ktuple(())
        with pytest.raises(MalformedInputError):
            validate_ktuple((0, 1))

    @given(valid_ktuples(max_n=10))
    def test_strategy_produces_valid(self, t):
        assert validate_ktuple(t)

    @given(valid_ktuples(max_n=10))
    def test_entry_upper_bound_consequence(self, t):
        # at most n - i + 1 pairs can still be open at the i-th completion
        n = t.n
        assert all(t[i] <= n - i for i in range(n))


class TestDyckPathType:
    def test_basic(self):
        p = DyckPath((1, 2, 1, 0))
        assert p.n == 2
        assert p.max_height == 2
        assert str(p) == "1 2 1 0"

    @pytest.mark.parametrize(
        "heights,index",
        [
            ((), 1),
            ((2, 1), 1),  # must start at 1
            ((0, 1), 1),
            ((1, 3), 2),  # step size
            ((1, 2, 1), 3),  # odd length
            ((1, 0, 1, 2), 4),  # must end at 0
            ((1, 0, -1, 0), 3),  # negative height
            ((1, "2", 1, 0), 2),  # non-integer
        ],
    )
    def test_first_offending_index(self, heights, index):
        with pytest.raises(PathValidityError) as exc:
            DyckPath(heights)
        assert exc.value.index == index

    def test_idempotent_coercion(self):
        p = DyckPath((1, 0))
        assert DyckPath(p) is p


class TestKTupleOfPath:
    @pytest.mark.parametrize(
        "heights,expected",
        [
            ((1, 2, 1, 2, 3, 4, 3, 2, 1, 0), (2, 4, 3, 2, 1)),
            ((1, 0), (1,)),
            ((1, 0, 1, 0, 1, 0), (1, 1, 1)),
        ],
    )
    def test_examples(self, heights, expected):
        assert tuple(ktuple_of_path(heights)) == expected

    def test_down_step_positions(self):
        # the j-th down-step index carries the j-th tuple entry
        p = DyckPath((1, 2, 1, 2, 3, 4, 3, 2, 1, 0))
        idx = down_step_indices(p)
        assert idx == (2, 6, 7, 8, 9)
        t = ktuple_of_path(p)
        assert all(p[i - 1] == k for i, k in zip(idx, t))
        assert idx[-1] == 2 * p.n - 1

    @given(dyck_path_heights(max_n=8))
    def test_extraction_is_always_valid(self, p):
        assert validate_ktuple(ktuple_of_path(p))

    @given(dyck_path_heights(max_n=8))
    def test_down_step_property(self, p):
        idx = down_step_indices(p)
        assert len(idx) == p.n
        t = ktuple_of_path(p)
        for j, i in enumerate(idx):
            assert p[i] == p[i - 1] - 1  # really a down-step
            assert p[i - 1] == t[j]


class TestPathOfKTuple:
    @pytest.mark.parametrize(
        "entries,expected",
        [
            ((2, 4, 3, 2, 1), (1, 2, 1, 2, 3, 4, 3, 2, 1, 0)),
            ((1,), (1, 0)),
            ((2, 1), (1, 2, 1, 0)),
        ],
    )
    def test_examples(self, entries, expected):
        assert tuple(path_of_ktuple(entries)) == expected

    def test_worked_example_unique_by_exhaustion(self):
        # search all 42 semilength-5 paths for the one realizing the tuple
        target = KTuple((2, 4, 3, 2, 1))
        matches = [p for p in dyck_paths(5) if ktuple_of_path(p) == target]
        assert matches == [path_of_ktuple(target)]

    def test_semilength_2_exhaustive(self):
        # both semilength-2 paths, checked literally
        assert tuple(path_of_ktuple((1, 1))) == (1, 0, 1, 0)
        assert tuple(path_of_ktuple((2, 1))) == (1, 2, 1, 0)

    def test_invalid_tuple_names_first_index(self):
        with pytest.raises(TupleValidityError) as exc:
            path_of_ktuple((3, 1, 1))
        assert exc.value.index == 2
        assert "k_2" in str(exc.value)

        with pytest.raises(TupleValidityError) as exc:
            path_of_ktuple((1, 2))
        assert exc.value.index == 2
        assert "k_n" in str(exc.value)

    def test_malformed_tuple_is_distinct_error(self):
        with pytest.raises(MalformedInputError):
            path_of_ktuple((0, 1))


class TestRoundTrips:
    @given(valid_ktuples(max_n=10))
    def test_tuple_path_tuple(self, t):
        assert ktuple_of_path(path_of_ktuple(t)) == t

    @given(dyck_path_heights(max_n=8))
    def test_path_tuple_path(self, p):
        assert path_of_ktuple(ktuple_of_path(p)) == p

    @pytest.mark.parametrize("n", range(1, 7))
    def test_exhaustive_path_side(self, n):
        for p in dyck_paths(n):
            assert path_of_ktuple(ktuple_of_path(p)) == p


class TestDyckPathsGenerator:
    def test_n1(self):
        assert [tuple(p) for p in dyck_paths(1)] == [(1, 0)]

    def test_n2(self):
        assert [tuple(p) for p in dyck_paths(2)] == [(1, 0, 1, 0), (1, 2, 1, 0)]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_count_and_order(self, n):
        paths = list(dyck_paths(n))
        assert len(paths) == catalan(n) == catalan_by_recurrence(n)
        assert len(set(paths)) == len(paths)
        assert paths == sorted(paths)  # lexicographic by height sequence

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_sorted_step_sequences(self, n):
        # shares no code with the walk: every +-1 step sequence of length
        # 2n that stays >= 0 and ends at 0, as heights, sorted
        paths = []
        for steps in itertools.product((1, -1), repeat=2 * n):
            heights = list(itertools.accumulate(steps))
            if min(heights) >= 0 and heights[-1] == 0:
                paths.append(tuple(heights))
        assert [tuple(p) for p in dyck_paths(n)] == sorted(paths)

    def test_bijection_cardinality_through_n12(self):
        from sockpath import enumerate_ktuples

        for n in range(1, 13):
            n_paths = sum(1 for _ in dyck_paths(n))
            n_tuples = sum(1 for _ in enumerate_ktuples(n))
            assert n_paths == n_tuples == catalan(n)

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitError) as exc:
            dyck_paths(15)
        assert exc.value.cap == 14
        assert "cap" in str(exc.value)
        # override is allowed
        gen = dyck_paths(15, cap=15)
        assert tuple(next(iter(gen)))[:2] == (1, 0)

    def test_rejects_bad_n(self):
        with pytest.raises(MalformedInputError):
            dyck_paths(0)


class TestOdometer:
    @pytest.mark.parametrize("top", range(1, 8))
    def test_prefixes_once_in_order_with_first_changed_index(self, top):
        # valid tuples straight from the rule, among all tuples of 1..top
        valid = [
            t
            for t in itertools.product(range(1, top + 1), repeat=top)
            if t[-1] == 1 and all(b >= a - 1 for a, b in zip(t, t[1:]))
        ]
        for size in range(top + 1):
            want = sorted({t[:size] for t in valid})
            k = [1] * size
            got, reported = [], []
            for i in _odometer(k, top):
                reported.append(i)
                got.append(tuple(k))
            assert got == want
            changed = [
                next(j for j in range(size) if p[j] != q[j])
                for p, q in zip(want, want[1:])
            ]
            assert reported == [0, *changed]


def test_catalan_matches_recurrence():
    for n in range(0, 15):
        assert catalan(n) == catalan_by_recurrence(n)
    assert catalan(14) == 2_674_440


@pytest.mark.parametrize("n", [-1, 2.0, True, "3", None])
def test_catalan_rejects_malformed_n(n):
    # not the raw ValueError of math.comb or TypeError of 2 * n
    with pytest.raises(MalformedInputError, match="non-negative integer"):
        catalan(n)
    assert catalan(0) == 1


@pytest.mark.parametrize(
    "call,arg",
    [
        (KTuple, None),
        (KTuple, 5),
        (DyckPath, None),
        (SockSequence, None),
        (run_process, [1, 2]),
        (run_process, [(1, 0), (1, 1, 1)]),
        (tuple_probability, None),
        (permutation_count, None),
        (validate_ktuple, None),
        (path_of_ktuple, None),
        (ktuple_of_path, None),
        (down_step_indices, None),
    ],
)
def test_non_iterable_or_ill_shaped_input_is_malformed(call, arg):
    # Not a raw TypeError or ValueError from tuple() or from unpacking.
    with pytest.raises(MalformedInputError):
        call(arg)
