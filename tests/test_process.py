"""Draw simulation, brute-force oracle, Monte Carlo engine."""

import concurrent.futures
import functools
import itertools
import math
import os
import random
import threading
import time
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given

from sockpath import (
    DyckPath,
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
    random_permutation,
    run_process,
    tuple_probability,
)
from sockpath import process
from sockpath.process import _decode_codes, _path_codes, _run_chunks, _tally_codes

from conftest import assert_record, oracle_statistics, peak_rss_kb, reap, sock_orders


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
        omega = SockSequence(draws)
        assert_record(
            trace,
            f"ProcessTrace(omega={omega!r}, path=DyckPath({path!r}), "
            f"tuple=KTuple({ktuple!r}))",
            omega=omega, path=DyckPath(path), tuple=KTuple(ktuple),
        )
        # a named tuple: it unpacks and equals the plain tuple of its fields
        assert trace == (omega, path, ktuple)

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

    @pytest.mark.parametrize("build", [SockSequence, run_process])
    @pytest.mark.parametrize(
        "draws,index",
        [([([1], 0), (1, 0)], 1), ([(1, 0), (1, {})], 2), ([(1, 0), (1, 1), ([2], [1]), (2, 0)], 3)],
    )
    def test_unhashable_field_names_the_draw(self, build, draws, index):
        # not the raw TypeError of the set lookup
        with pytest.raises(MalformedInputError, match=f"draw {index} is "):
            build(draws)

    @pytest.mark.parametrize("build", [SockSequence, run_process])
    @pytest.mark.parametrize(
        "draws,index",
        [([(1.0, 0), (1, 1)], 1), ([(True, 0), (1, 1)], 1), ([(1, 0), (1, False)], 2)],
    )
    def test_non_int_field_names_the_draw(self, build, draws, index):
        # each equals its int in the set lookup, so it passed as a sock
        with pytest.raises(MalformedInputError, match=f"draw {index} is "):
            build(draws)

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
        assert _decode_codes(_path_codes(ids), len(draws) // 2) == [expected]

    @pytest.mark.parametrize(
        "n,dtype",
        [
            (1, np.int16),
            (3, np.int16),
            (4, np.int16),
            (7, np.int16),
            (8, np.int32),
            (15, np.int32),
            (16, np.int64),
            (31, np.int64),
        ],
    )
    def test_path_codes_across_the_dtype_switch(self, n, dtype):
        # the narrowest state whose value bits hold 2n, from int16 on:
        # int16 to n = 7, int32 to n = 15, int64 up to the 64-bit limit
        # at n = 31; each side of every switch
        sock_ids = np.arange(2 * n, dtype=np.int8)
        rng = np.random.default_rng(n)
        ids = rng.permuted(np.broadcast_to(sock_ids, (300, 2 * n)), axis=1)
        codes = _path_codes(ids)
        assert codes.dtype == dtype
        decoded = _decode_codes(codes, n)
        assert len(decoded) == len(ids)
        for row, t in zip(ids.tolist(), decoded):
            draws = [(i // 2 + 1, i % 2) for i in row]
            assert t == run_process(draws).tuple

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

    @pytest.mark.parametrize(
        "n,seed,draws",
        [
            (2, 5, [(1, 0), (1, 1), (2, 1), (2, 0)]),
            (4, 11, [(1, 1), (1, 0), (2, 0), (3, 1), (2, 1), (3, 0), (4, 0), (4, 1)]),
        ],
    )
    def test_stream_is_pinned(self, n, seed, draws):
        # the shuffle's stream, recorded as literals: a change to how the
        # result is built must not change what a seed draws
        seq = random_permutation(n, random.Random(seed))
        assert seq == tuple(Sock(*d) for d in draws)
        assert seq.n == n
        assert SockSequence(seq) is seq
        assert SockSequence(list(seq)) == seq

    def test_rejects_bad_n(self):
        with pytest.raises(MalformedInputError):
            random_permutation(0, random.Random(1))

    @pytest.mark.parametrize("rng,name", [(None, "NoneType"), (3, "int")])
    def test_rejects_rng_without_shuffle(self, rng, name):
        with pytest.raises(MalformedInputError, match=f"rng needs a shuffle method, got {name}$"):
            random_permutation(2, rng)
        # n is checked first
        with pytest.raises(MalformedInputError, match="^n must"):
            random_permutation(0, rng)

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


def brute_force_chunks(monkeypatch, n, **kwargs):
    """The tally and chunk iterator that ``brute_force_counts(n)`` hands ``_run_chunks``."""
    handed = []
    with monkeypatch.context() as patch:
        patch.setattr(
            process,
            "_run_chunks",
            lambda tally, chunks, workers: handed.append((tally, chunks)) or Counter(),
        )
        brute_force_counts(n, **kwargs)
    return handed[0]


def first_block_peak(monkeypatch, n):
    """Peak traced bytes of tallying the first brute-force block of ``n``."""
    tally, chunks = brute_force_chunks(monkeypatch, n, cap=n)
    first = next(chunks)
    tracemalloc.start()
    try:
        tally(first)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


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
        # the plain itertools walk, written independently of the chunked engine
        tuple_counts, _, _ = oracle_statistics(n)
        assert brute_force_counts(n) == tuple_counts

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
        # each prefix, then its remaining ids in suffix-table order: every
        # ordering once, in lexicographic order; each block's tally is
        # the plain walk's over those orderings
        monkeypatch.setattr(process, "_SUFFIX_LEN", suffix)
        monkeypatch.setattr(process, "_PREFIX_BLOCK", block)
        tally, chunks = brute_force_chunks(monkeypatch, n)
        table = list(itertools.permutations(range(min(suffix, 2 * n))))
        orderings = []
        for prefixes in chunks:
            assert 1 <= len(prefixes) <= block
            rows = []
            for prefix in prefixes:
                rest = sorted(set(range(2 * n)) - set(prefix))
                rows += [prefix + tuple(rest[i] for i in s) for s in table]
            assert tally(prefixes) == _tally_codes(_path_codes(np.array(rows, np.int8)))
            orderings += rows
        assert orderings == list(itertools.permutations(range(2 * n)))

    def test_worker_count_does_not_matter(self, monkeypatch):
        # n = 4 is one chunk by default; small blocks cut it into 960
        whole = brute_force_counts(4)
        monkeypatch.setattr(process, "_SUFFIX_LEN", 3)
        monkeypatch.setattr(process, "_PREFIX_BLOCK", 7)
        assert sum(1 for _ in brute_force_chunks(monkeypatch, 4)[1]) == 960
        for workers in (1, 2, 4):
            counts = brute_force_counts(4, workers=workers)
            assert list(counts.items()) == list(whole.items())
            # lexicographic, from the sorted path codes
            assert list(counts) == sorted(counts)

    def test_prefix_blocks_are_lazy(self, monkeypatch):
        # n = 10 has 20!/7! prefixes; the first block of 99 must not
        # cost more than the block itself
        _, chunks = brute_force_chunks(monkeypatch, 10, cap=10)
        tracemalloc.start()
        try:
            first = next(chunks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first[:2] == [tuple(range(13)), tuple(range(12)) + (13,)]
        assert len(first) == 99
        assert peak < 1_000_000

    # The first block of n = 4, the first int16 size (8 prefixes of one
    # draw); the first of n = 7, where seen (7 bits) and code (13 bits)
    # use the most of their int16 state; the middle of n = 6's 960
    # blocks; and the first of n = 10, int32's fullest brute-force state.
    # n = 7 takes its first block: stepping to a middle one of its
    # 174,720 takes seconds.
    @pytest.mark.parametrize("n,index", [(4, 0), (6, 480), (7, 0), (10, 0)])
    def test_full_blocks_match_the_plain_walk(self, monkeypatch, n, index):
        tally, chunks = brute_force_chunks(monkeypatch, n, cap=n)
        prefixes = next(itertools.islice(chunks, index, None))
        table = np.array(list(itertools.permutations(range(7))), dtype=np.int8)
        rest = np.array([sorted(set(range(2 * n)) - set(p)) for p in prefixes], np.int8)
        rows = np.concatenate(
            [
                np.repeat(np.array(prefixes, np.int8), len(table), axis=0),
                rest[:, table].reshape(-1, 7),
            ],
            axis=1,
        )
        # n = 4 has 8 prefixes in all, each later size a full block of 99
        assert rows.shape == (min(99, math.perm(2 * n, 2 * n - 7)) * 5_040, 2 * n)
        assert tally(prefixes) == _tally_codes(_path_codes(rows))

    def test_block_memory_is_bounded(self, monkeypatch):
        # one n = 10 block walks 498,960 orderings of 20 draws
        assert first_block_peak(monkeypatch, 10) < 12_000_000

    def test_int16_block_memory_is_bounded(self, monkeypatch):
        # one n = 7 block walks 498,960 orderings of 14 draws on int16
        # state: about 5.0 MB, where int32 state peaks at 9.5 MB
        assert first_block_peak(monkeypatch, 7) < 6_000_000

    @pytest.mark.parametrize("workers", [1, 2])
    def test_walk_buffers_go_with_the_call(self, workers):
        # n = 5 is 8 blocks on int16 state. Each worker keeps one set of
        # walk buffers, some 2 MB, from block to block, and no array of
        # the walk outlives the call.
        whole = brute_force_counts(5, workers=workers)
        tracemalloc.start()
        try:
            counts = brute_force_counts(5, workers=workers)
            _, peak = tracemalloc.get_traced_memory()
            arrays = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
            )
        finally:
            tracemalloc.stop()
        assert list(counts.items()) == list(whole.items())
        assert peak > 2_000_000
        assert sum(trace.size for trace in arrays.traces) < 10_000

    def test_later_blocks_reuse_the_walk_buffers(self, monkeypatch):
        # the first block of n = 6 sizes the buffers; the second writes
        # into them, so its peak is a small part of the first's
        tally, chunks = brute_force_chunks(monkeypatch, 6, cap=6)
        peaks = []
        for block in itertools.islice(chunks, 2):
            tracemalloc.start()
            try:
                tally(block)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] > 2_000_000
        assert peaks[1] < peaks[0] // 8, peaks

    def test_walk_faults_few_pages(self):
        # verify 5 walks 8 blocks of 99 prefixes. Walk temporaries made
        # afresh per block faulted in about 11,000 more pages than
        # verify 1 does; buffers kept for the call fault some 800 more.
        run = "from sockpath.cli import run; run()"
        _, five = reap(run, "verify", "5")
        _, one = reap(run, "verify", "1")
        assert five - one < 3_000, f"verify 5: {five} minor faults, verify 1: {one}"

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
        with pytest.raises(ResourceLimitError) as exc:
            brute_force_counts(11, cap=11)
        assert exc.value.cap == 10


class TestRunChunks:
    def test_chunks_in_flight_stay_bounded(self, monkeypatch):
        # a future held per chunk from the start costs about 1.9 KB each,
        # some 3.8 MB for these 2,000; two workers need only two at a time
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        tracemalloc.start()
        try:
            tally = _run_chunks(lambda c: Counter({c % 2: 1}), range(2_000), 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tally == {0: 1_000, 1: 1_000}
        assert peak < 1_000_000

    def test_at_most_workers_chunks_in_flight(self, monkeypatch):
        # each tally sleeps long enough for the other worker's to start
        lock = threading.Lock()
        running = peak = 0

        def tally(chunk):
            nonlocal running, peak
            with lock:
                running += 1
                peak = max(peak, running)
            time.sleep(0.02)
            with lock:
                running -= 1
            return Counter({chunk: chunk + 1})

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        one = _run_chunks(tally, range(5), 1)
        assert peak == 1
        peak = 0
        assert _run_chunks(tally, range(5), 2) == one
        assert peak == 2

    def test_threads_clamped_to_cpus(self, monkeypatch):
        # one thread per chunk in flight: 64 workers on 2 CPUs start 2
        monkeypatch.setattr(process, "_CHUNK_ROWS", 100)
        base = monte_carlo(3, 1_000, seed=3, workers=1)
        sizes = []

        class SpyExecutor(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        # the pool is imported where it is started, from its own module
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SpyExecutor)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert monte_carlo(3, 1_000, seed=3, workers=64) == base
        assert sizes == [2]


class TestMonteCarlo:
    def test_n1_always_the_single_tuple(self):
        report = monte_carlo(1, 100, seed=7)
        assert report.empirical == report.hits == {KTuple((1,)): 100}
        assert list(report.rows()) == [(KTuple((1,)), 100, 2)]
        assert report.max_abs_deviation == 0

    def test_deterministic_and_worker_independent(self):
        base = monte_carlo(3, 40_000, seed=42, workers=1)
        again = monte_carlo(3, 40_000, seed=42, workers=1)
        two = monte_carlo(3, 40_000, seed=42, workers=2)
        four = monte_carlo(3, 40_000, seed=42, workers=4)
        assert base == again == two == four
        # hits are lexicographic, whatever the worker count
        for n in (3, 4, 5, 11):
            for workers in (1, 2, 4):
                report = monte_carlo(n, 20_000, seed=7, workers=workers)
                assert list(report.hits) == sorted(report.hits), (n, workers)

    def test_counts_and_comparison_consistent(self):
        # n = 1..9 over three seeds, the first run of this test, and the
        # all-hit (n = 4) and mostly missed (n = 9) runs of the CLI's
        # test_missed_and_hit_rows_match_fractions
        runs = [(n, 1_000, seed) for n in range(1, 10) for seed in (0, 7, 2024)]
        runs += [(2, 10_000, 5), (4, 100_000, 11), (9, 200, 11)]
        reports = [monte_carlo(n, trials, seed) for n, trials, seed in runs]
        # a tally whose largest deviation, 2/5, is on (3,2,1), which no trial hit
        tally = {KTuple((1, 1, 1)): 3, KTuple((1, 2, 1)): 4,
                 KTuple((2, 1, 1)): 4, KTuple((2, 2, 1)): 4}
        reports.append(process.SimulationReport(3, 15, 0, tally))
        assert_record(
            reports[-1],
            "SimulationReport(n=3, trials=15, seed=0, hits={KTuple((1, 1, 1)): 3, "
            "KTuple((1, 2, 1)): 4, KTuple((2, 1, 1)): 4, KTuple((2, 2, 1)): 4})",
            n=3, trials=15, seed=0, hits=tally,
        )
        for report in reports:
            n, trials = report.n, report.trials
            assert sum(report.hits.values()) == trials
            assert sum(hit for _, hit, _ in report.rows()) == trials
            empirical = report.empirical
            assert sum(empirical.values()) == trials
            assert set(empirical) == set(enumerate_ktuples(n))
            scale = trials * math.factorial(2 * n)
            for t, hit, count in report.rows():
                assert hit == report.hits.get(t, 0) == empirical[t]
                assert count == permutation_count(t)
                freq, prob = Fraction(hit, trials), tuple_probability(t)
                assert Fraction(report.deviation(hit, count), scale) == abs(freq - prob)
            # the integer rule against the Fraction maximum over every tuple
            assert report.max_abs_deviation == max(
                abs(Fraction(report.hits.get(t, 0), trials) - tuple_probability(t))
                for t in enumerate_ktuples(n)
            ), report

    def test_seed_changes_outcome(self):
        a = monte_carlo(3, 5_000, seed=1)
        b = monte_carlo(3, 5_000, seed=2)
        assert a.empirical != b.empirical

    def test_concentration_n2(self):
        report = monte_carlo(2, 1_000_000, seed=42)
        dev = abs(Fraction(report.hits[KTuple((2, 1))], 1_000_000) - Fraction(2, 3))
        assert dev < Fraction(5, 1000)

    def test_chunked_n11_is_worker_independent(self, monkeypatch):
        # 5000 trials in chunks of 997: five full chunks and one of 15 rows
        monkeypatch.setattr(process, "_CHUNK_ROWS", 997)
        base = monte_carlo(11, 5_000, seed=9, workers=1)
        assert sum(base.empirical.values()) == 5_000
        for workers in (2, 4):
            report = monte_carlo(11, 5_000, seed=9, workers=workers)
            # chunks finish in any order, the hits keep theirs
            assert report == base and list(report.hits) == list(base.hits)
        # which is lexicographic
        assert list(base.hits) == sorted(base.hits)

    def test_chunks_draw_independent_streams(self, monkeypatch):
        # one trial per chunk: chunks sharing a stream would all repeat
        # the same tuple instead of concentrating near P((2, 1)) = 2/3
        monkeypatch.setattr(process, "_CHUNK_ROWS", 1)
        report = monte_carlo(2, 3_000, seed=11)
        freq = Fraction(report.hits[KTuple((2, 1))], 3_000)
        assert abs(freq - Fraction(2, 3)) < 5 * math.sqrt(2 / 9 / 3_000)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 11, 16])
    def test_tiles_continue_each_chunk_stream(self, monkeypatch, n):
        # Chunks of 700 rows in tiles of 64 ids: several tiles a chunk, a
        # partial last one, and each side of every state width: n = 1 and
        # 7 the first and last int16 walk, 8 the first int32 and 16 the
        # first int64. The reference restates the sampler
        # untiled: one int8 tile per chunk, shuffled from
        # Philox(key=seed).jumped(i), each row run through run_process.
        monkeypatch.setattr(process, "_CHUNK_ROWS", 700)
        monkeypatch.setattr(process, "_TILE_ITEMS", 64)
        trials, seed = 2_003, 5
        sock_ids = np.arange(2 * n, dtype=np.int8)
        expected = Counter()
        for index, start in enumerate(range(0, trials, 700)):
            rows = min(700, trials - start)
            rng = np.random.Generator(np.random.Philox(key=seed).jumped(index))
            tile = rng.permuted(np.broadcast_to(sock_ids, (rows, 2 * n)), axis=1)
            for row in tile.tolist():
                expected[run_process([(i // 2 + 1, i % 2) for i in row]).tuple] += 1
        hits = monte_carlo(n, trials, seed, cap=n).hits
        assert list(hits.items()) == sorted(expected.items())

    def test_report_memory_is_bounded_at_the_cap(self):
        # The report holds only the tuples hit: at n = 14, the default
        # cap, ten at most, and n = 13's largest deviation walks its
        # 742,900 rows without holding them.
        peak = peak_rss_kb(
            "import sockpath as sp\n"
            "sp.monte_carlo(14, 10, 1)\n"
            "assert sp.monte_carlo(13, 10, 1).max_abs_deviation > 0\n"
        )
        assert peak < 100 * 1024, f"peak RSS {peak} KB"

    def test_tile_shuffle_is_uniform_over_orderings(self, monkeypatch):
        # The shuffle simulate runs: each of the 6! = 720 orderings at n = 3
        # is expected 200 times in 144,000 rows; chi-square with df = 719.
        # 607.4897 and 841.9052 are its 0.001 and 0.999 quantiles (frozen
        # from the inverse CDF). Fixed seed keeps the test deterministic.
        tiles = []

        def spy(perm):
            tiles.append(perm.copy())
            return _path_codes(perm)

        monkeypatch.setattr(process, "_path_codes", spy)
        trials = 144_000
        hits = monte_carlo(3, trials, 2024).hits
        assert sum(hits.values()) == trials
        rows = np.concatenate(tiles)
        assert (np.sort(rows, axis=1) == np.arange(6)).all()
        _, counts = np.unique(rows, axis=0, return_counts=True)
        assert len(counts) == 720
        expected = trials / 720
        stat = float(((counts - expected) ** 2).sum() / expected)
        assert 607.4897 < stat < 841.9052

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
        with pytest.raises(ResourceLimitError) as exc:
            monte_carlo(15, 10, seed=1)
        assert exc.value.cap == 14

    @pytest.mark.parametrize(
        "call",
        [
            lambda: monte_carlo(15, 10, seed=-1),
            lambda: monte_carlo(15, 10, 1, workers=0),
            lambda: brute_force_counts(6, workers=0),
        ],
        ids=["monte_carlo-seed", "monte_carlo-workers", "brute_force_counts-workers"],
    )
    def test_malformed_input_wins_over_the_cap(self, call):
        # n is past the default cap, but the malformed argument is named
        with pytest.raises(MalformedInputError):
            call()

    def test_path_width_limit(self):
        # raised before sampling or enumerating Catalan(32) tuples
        with pytest.raises(ResourceLimitError) as exc:
            monte_carlo(32, 10, seed=1, cap=40)
        assert exc.value.cap == 31
