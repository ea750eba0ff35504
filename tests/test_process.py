"""Draw simulation, brute-force oracle, Monte Carlo engine."""

import functools
import itertools
import math
import os
import random
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given

from sockpath import (
    KTuple,
    MalformedInputError,
    ResourceLimitError,
    Sock,
    SockSequence,
    brute_force_counts,
    enumerate_ktuples,
    ktuple_of_path,
    max_distribution,
    monte_carlo,
    permutation_count,
    permutation_from_rank,
    permutation_rank,
    random_permutation,
    run_process,
    sequence_from_rank,
    tuple_probability,
)
from sockpath import process
from sockpath.process import (
    _decode_code,
    _lexicographic_chunks,
    _path_codes,
    _run_chunks,
)

from conftest import sock_orders


class TestRunProcess:
    @pytest.mark.parametrize(
        "draws,path,ktuple",
        [
            ([(1, 0), (2, 0), (2, 1), (1, 1)], (1, 2, 1, 0), (2, 1)),
            ([(1, 0), (1, 1)], (1, 0), (1,)),
            ([(1, 0), (1, 1), (2, 1), (2, 0)], (1, 0, 1, 0), (1, 1)),
        ],
    )
    def test_examples(self, draws, path, ktuple):
        trace = run_process(draws)
        assert tuple(trace.path) == path
        assert tuple(trace.tuple) == ktuple

    @pytest.mark.parametrize(
        "draws",
        [
            [(1, 0), (1, 0)],  # duplicate sock
            [(1, 0), (2, 1)],  # missing partners
            [(1, 0)],  # odd
            [(1, 0), (1, 1), (3, 0), (3, 1)],  # type out of range for n=2
            [],
        ],
    )
    def test_invalid_orders_rejected(self, draws):
        with pytest.raises(MalformedInputError):
            run_process(draws)

    @given(sock_orders(max_n=4))
    def test_trace_is_consistent(self, draws):
        trace = run_process(draws)
        # path validity is enforced by construction; tuple must match it
        assert trace.tuple == ktuple_of_path(trace.path)
        assert trace.path.n == len(draws) // 2

    @given(sock_orders(max_n=4))
    def test_side_flags_do_not_matter(self, draws):
        # flip the side labels of one whole pair (keeps the sequence a
        # permutation), and of all pairs at once: the path never moves
        base = run_process(draws).path
        n = len(draws) // 2
        for flip_type in range(1, n + 1):
            modified = [
                Sock(s.sock_type, 1 - s.side) if s.sock_type == flip_type else s
                for s in draws
            ]
            assert run_process(modified).path == base
        all_flipped = [Sock(s.sock_type, 1 - s.side) for s in draws]
        assert run_process(all_flipped).path == base

    @given(sock_orders(max_n=6))
    def test_path_codes_match_scalar_process(self, draws):
        # the vectorized walk, decoded, against the reference process
        expected = run_process(draws).tuple
        ids = np.array([[2 * (s.sock_type - 1) + s.side for s in draws]], dtype=np.int8)
        assert _decode_code(int(_path_codes(ids)[0])) == expected

    @given(sock_orders(max_n=4))
    def test_first_appearance_relabeling(self, draws):
        # renaming pair types by order of first appearance keeps the path
        mapping = {}
        for sock in draws:
            if sock.sock_type not in mapping:
                mapping[sock.sock_type] = len(mapping) + 1
        relabeled = [Sock(mapping[s.sock_type], s.side) for s in draws]
        assert run_process(relabeled).path == run_process(draws).path


class TestRandomPermutation:
    def test_deterministic_per_seed(self):
        a = random_permutation(4, random.Random(99))
        b = random_permutation(4, random.Random(99))
        c = random_permutation(4, random.Random(100))
        assert a == b
        assert a != c

    def test_is_a_permutation(self):
        seq = random_permutation(5, random.Random(1))
        assert isinstance(seq, SockSequence)
        assert sorted(seq) == sorted(
            Sock(t, s) for t in range(1, 6) for s in (0, 1)
        )

    def test_rejects_bad_n(self):
        with pytest.raises(MalformedInputError):
            random_permutation(0, random.Random(1))

    def test_single_pair_hits_both_orders(self):
        seen = {random_permutation(1, random.Random(s)) for s in range(20)}
        assert seen == {
            SockSequence([(1, 0), (1, 1)]),
            SockSequence([(1, 1), (1, 0)]),
        }

    def test_uniform_chi_square_million_draws(self):
        # 24 equally likely orderings at n = 2; chi-square with df = 23.
        # Critical value at significance 1e-3: 49.7282 (frozen from the
        # chi-square inverse CDF). Fixed seed keeps the test deterministic.
        rng = random.Random(12345)
        counts = {}
        trials = 1_000_000
        for _ in range(trials):
            seq = random_permutation(2, rng)
            counts[seq] = counts.get(seq, 0) + 1
        assert len(counts) == 24
        expected = trials / 24
        stat = sum((c - expected) ** 2 / expected for c in counts.values())
        assert stat < 49.7282324664315


class TestRankUnrank:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    def test_matches_lexicographic_enumeration(self, size):
        perms = list(itertools.permutations(range(size)))
        for rank, perm in enumerate(perms):
            assert permutation_from_rank(rank, size) == perm
            assert permutation_rank(perm) == rank

    def test_round_trip_large(self):
        rng = random.Random(7)
        for _ in range(50):
            rank = rng.randrange(math.factorial(10))
            assert permutation_rank(permutation_from_rank(rank, 10)) == rank

    def test_bounds(self):
        with pytest.raises(MalformedInputError):
            permutation_from_rank(-1, 3)
        with pytest.raises(MalformedInputError):
            permutation_from_rank(6, 3)
        with pytest.raises(MalformedInputError):
            permutation_rank((0, 0, 1))

    def test_sequence_from_rank(self):
        assert sequence_from_rank(0, 2) == SockSequence(
            [(1, 0), (1, 1), (2, 0), (2, 1)]
        )


class TestBruteForce:
    def test_n1(self):
        assert brute_force_counts(1) == {KTuple((1,)): 2}

    def test_n2(self):
        assert brute_force_counts(2) == {
            KTuple((1, 1)): 8,
            KTuple((2, 1)): 16,
        }

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_independent_oracle(self, n):
        # plain itertools walk, written independently of the chunked engine
        socks = [(t, s) for t in range(1, n + 1) for s in (0, 1)]
        expected = {}
        for order in itertools.permutations(socks):
            on_table = set()
            ks = []
            for sock_type, _ in order:
                if sock_type in on_table:
                    ks.append(len(on_table))
                    on_table.remove(sock_type)
                else:
                    on_table.add(sock_type)
            key = KTuple(tuple(ks))
            expected[key] = expected.get(key, 0) + 1
        assert brute_force_counts(n) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_oracle_identity(self, n):
        counts = brute_force_counts(n)
        assert set(counts) == set(enumerate_ktuples(n))
        assert sum(counts.values()) == math.factorial(2 * n)
        for t, c in counts.items():
            assert c == permutation_count(t)
            assert Fraction(c, math.factorial(2 * n)) == tuple_probability(t)

    # (suffix length, prefixes per chunk): the default, and two small
    # blocks that cut n = 3 and n = 4 into many chunks
    @pytest.mark.parametrize("suffix,block", [(7, 99), (3, 7), (2, 5)])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_chunks_are_every_ordering_in_rank_order(self, monkeypatch, n, suffix, block):
        monkeypatch.setattr(process, "_SUFFIX_LEN", suffix)
        monkeypatch.setattr(process, "_PREFIX_BLOCK", block)
        make_chunk, count = _lexicographic_chunks(2 * n)
        rows = np.concatenate([make_chunk(i) for i in range(count)])
        assert rows.tolist() == [list(p) for p in itertools.permutations(range(2 * n))]

    def test_worker_count_does_not_matter(self, monkeypatch):
        # n = 4 is one chunk by default; small blocks cut it into 960
        whole = brute_force_counts(4)
        monkeypatch.setattr(process, "_SUFFIX_LEN", 3)
        monkeypatch.setattr(process, "_PREFIX_BLOCK", 7)
        assert _lexicographic_chunks(8)[1] == 960
        for workers in (1, 2, 4):
            counts = brute_force_counts(4, workers=workers)
            assert list(counts.items()) == list(whole.items())

    def test_cap_suggests_monte_carlo(self):
        with pytest.raises(ResourceLimitError) as exc:
            brute_force_counts(6)
        assert "monte_carlo" in str(exc.value)
        assert exc.value.cap == 5

    def test_cap_override(self):
        # n=4 under an explicit higher cap, still exact
        counts = brute_force_counts(4, cap=6)
        assert sum(counts.values()) == math.factorial(8)

    def test_rank_space_hard_limit(self):
        with pytest.raises(ResourceLimitError):
            brute_force_counts(11, cap=11)


class TestRunChunks:
    def test_chunks_in_flight_stay_bounded(self):
        # a future held per chunk from the start costs about 1.9 KB each,
        # some 9 MB for these 5,000; two workers need only two at a time
        tracemalloc.start()
        try:
            tally = _run_chunks(lambda i: np.zeros((1, 2), np.int8), 5_000, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tally == {0b01: 5_000}
        assert peak < 1_000_000

    def test_threads_clamped_to_cpus(self, monkeypatch):
        # one thread per chunk in flight: 64 workers on 2 CPUs start 2
        monkeypatch.setattr(process, "_CHUNK_ROWS", 100)
        base = monte_carlo(3, 1_000, seed=3, workers=1)
        sizes = []

        class SpyExecutor(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(process, "ThreadPoolExecutor", SpyExecutor)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert monte_carlo(3, 1_000, seed=3, workers=64) == base
        assert sizes == [2]


class TestMonteCarlo:
    def test_n1_always_the_single_tuple(self):
        report = monte_carlo(1, 100, seed=7)
        assert report.empirical == {KTuple((1,)): 100}
        assert report.comparison[KTuple((1,))].frequency == 1
        assert report.max_abs_deviation == 0

    def test_deterministic_and_worker_independent(self):
        base = monte_carlo(3, 40_000, seed=42, workers=1)
        again = monte_carlo(3, 40_000, seed=42, workers=1)
        two = monte_carlo(3, 40_000, seed=42, workers=2)
        four = monte_carlo(3, 40_000, seed=42, workers=4)
        assert base == again == two == four

    def test_counts_and_comparison_consistent(self):
        report = monte_carlo(2, 10_000, seed=5)
        assert sum(report.empirical.values()) == 10_000
        assert set(report.empirical) == set(enumerate_ktuples(2))
        for t, row in report.comparison.items():
            assert row.frequency == Fraction(report.empirical[t], 10_000)
            assert row.probability == tuple_probability(t)
            assert row.deviation == abs(row.frequency - row.probability)

    def test_seed_changes_outcome(self):
        a = monte_carlo(3, 5_000, seed=1)
        b = monte_carlo(3, 5_000, seed=2)
        assert a.empirical != b.empirical

    def test_concentration_n2(self):
        report = monte_carlo(2, 1_000_000, seed=42)
        dev = abs(
            report.comparison[KTuple((2, 1))].frequency - Fraction(2, 3)
        )
        assert dev < Fraction(5, 1000)

    def test_chunked_n11_is_worker_independent(self, monkeypatch):
        # 5000 trials in chunks of 997: five full chunks and one of 15 rows
        monkeypatch.setattr(process, "_CHUNK_ROWS", 997)
        base = monte_carlo(11, 5_000, seed=9, workers=1)
        assert sum(base.empirical.values()) == 5_000
        assert monte_carlo(11, 5_000, seed=9, workers=2) == base
        assert monte_carlo(11, 5_000, seed=9, workers=4) == base

    def test_chunks_draw_independent_streams(self, monkeypatch):
        # one trial per chunk: chunks sharing a stream would all repeat
        # the same tuple instead of concentrating near P((2, 1)) = 2/3
        monkeypatch.setattr(process, "_CHUNK_ROWS", 1)
        report = monte_carlo(2, 3_000, seed=11)
        freq = report.comparison[KTuple((2, 1))].frequency
        assert abs(freq - Fraction(2, 3)) < 5 * math.sqrt(2 / 9 / 3_000)

    def test_max_law_n11(self):
        # the law of max(k) shares no code with the sampler; 5 standard
        # errors per height
        trials = 200_000
        report = monte_carlo(11, trials, seed=2024)
        heights = {}
        for t, c in report.empirical.items():
            heights[max(t)] = heights.get(max(t), 0) + c
        for h, p in max_distribution(11).items():
            se = math.sqrt(float(p * (1 - p)) / trials)
            assert abs(heights.get(h, 0) / trials - float(p)) <= 5 * se, h

    @pytest.mark.parametrize(
        "fn,args,name",
        [
            (random_permutation, (2.0, random.Random(1)), "n"),
            (brute_force_counts, ("2",), "n"),
            (monte_carlo, (True, 10, 1), "n"),
            (monte_carlo, (2, 10.0, 1), "trials"),
            (functools.partial(brute_force_counts, workers="2"), (2,), "workers"),
            (functools.partial(brute_force_counts, workers=-3), (2,), "workers"),
            (functools.partial(monte_carlo, workers="2"), (2, 10, 1), "workers"),
            (functools.partial(monte_carlo, workers=-3), (2, 10, 1), "workers"),
        ],
    )
    def test_non_integer_counts_are_malformed(self, fn, args, name):
        with pytest.raises(MalformedInputError, match=f"{name} must be a positive integer"):
            fn(*args)

    def test_bad_arguments(self):
        with pytest.raises(MalformedInputError):
            monte_carlo(2, 0, seed=1)
        with pytest.raises(MalformedInputError):
            monte_carlo(2, 10, seed=-1)
        with pytest.raises(MalformedInputError):
            monte_carlo(2, 10, seed=2**64)
        with pytest.raises(ResourceLimitError):
            monte_carlo(15, 10, seed=1)

    def test_path_width_limit(self):
        # raised before sampling or enumerating Catalan(32) tuples
        with pytest.raises(ResourceLimitError) as exc:
            monte_carlo(32, 10, seed=1, cap=40)
        assert exc.value.cap == 31
