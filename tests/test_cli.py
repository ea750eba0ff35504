"""Command-line surface: formats, exit codes, determinism."""

import concurrent.futures
import contextlib
import csv
import functools
import gc
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sockpath
from sockpath import KTuple, process
from sockpath.probability import _count_rows
from sockpath.cli import (
    _JSON_ITEM,
    _JSON_ROW_CLOSE,
    _JSON_ROW_OPEN,
    _JSON_SIMULATE_CELLS,
    _JSON_TABLE_CELLS,
    _blocks,
    _decimal,
    _resolve_workers,
    _stream_json,
    main,
)

from conftest import chain_table, peak_rss_kb, realizing_ids

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "docs" / "examples"


def reference_decimal(value: Fraction, precision: int) -> str:
    """Fixed point from ``round``, Fraction's own half-even rounding; shares no CLI code."""
    units = round(value * 10**precision)
    whole, frac = divmod(abs(units), 10**precision)
    return f"{'-' if units < 0 else ''}{whole}.{frac:0{precision}d}"


class TestFormatDecimal:
    """``_decimal(num, den, precision)``, the half-even fixed point of every decimal cell.

    Every value a command writes is non-negative, and so is every value
    checked here.
    """

    @pytest.mark.parametrize(
        "value,precision,expected",
        [
            (Fraction(2, 3), 6, "0.666667"),
            (Fraction(1, 3), 6, "0.333333"),
            (Fraction(1), 6, "1.000000"),
            (Fraction(0), 6, "0.000000"),
            (Fraction(1, 2), 1, "0.5"),
            # round-half-even at the cut digit
            (Fraction(5, 1000), 2, "0.00"),
            (Fraction(15, 1000), 2, "0.02"),
            (Fraction(25, 1000), 2, "0.02"),
            (Fraction(35, 1000), 2, "0.04"),
            (Fraction(8, 63), 6, "0.126984"),
            # a positive value that rounds to zero
            (Fraction(4, 1000), 2, "0.00"),
            (Fraction(1, 10**9), 6, "0.000000"),
        ],
    )
    def test_correct_rounding(self, value, precision, expected):
        assert _decimal(value.numerator, value.denominator, precision) == expected
        assert reference_decimal(value, precision) == expected

    @given(
        st.fractions(min_value=0, max_value=10**6, max_denominator=10**12),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_matches_round(self, value, precision, scale):
        # the digits do not depend on whether num/den is reduced
        want = reference_decimal(value, precision)
        assert _decimal(value.numerator, value.denominator, precision) == want
        assert _decimal(value.numerator * scale, value.denominator * scale, precision) == want


@pytest.fixture
def cli(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def _render(fmt: str, header: list, rows: list, head: dict, metadata: dict) -> str:
    """Build every row, then dump at once: the oracle for streamed output."""
    if fmt == "json":
        payload = {**head, "rows": rows, "metadata": metadata}
        return json.dumps(payload, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _tuple_text(t: tuple) -> str:
    return "(" + ",".join(map(str, t)) + ")"


def table_oracle(n: int, fmt: str, sort: str, precision: int) -> str:
    """``table`` output from the table-count chain's rows: shares no code with sockpath."""
    den = math.factorial(2 * n)
    chain = chain_table(n)
    if sort == "prob":
        chain = sorted(chain, key=lambda row: (-row[1], row[0]))
    rows = []
    for t, count, path in chain:
        p = Fraction(count, den)
        exact, decimal = str(p), reference_decimal(p, precision)
        if fmt == "json":
            rows.append({"tuple": list(t), "probability": exact,
                         "probability_decimal": decimal, "count": str(count),
                         "path": list(path)})
        else:
            rows.append([_tuple_text(t), exact, decimal, str(count)])
    return _render(fmt, ["tuple", "probability", "probability_decimal", "count"],
                   rows, {"n": n, "generator": "exact"}, {"precision": precision})


def simulate_oracle(n: int, trials: int, seed: int, fmt: str, precision: int) -> str:
    """``simulate`` output from the chain's rows and a report's sampled hits.

    Only the hits come from sockpath; the rows, the exact law and the
    rendering share no code with it.
    """
    hits = sockpath.monte_carlo(n, trials, seed).hits
    den = math.factorial(2 * n)
    rows = []
    deviations = []
    for t, count, _ in chain_table(n):
        hit = hits.get(t, 0)
        freq, prob = Fraction(hit, trials), Fraction(count, den)
        deviation = abs(freq - prob)
        deviations.append(deviation)
        if fmt == "json":
            rows.append({
                "tuple": list(t),
                "count": hit,
                "frequency": str(freq),
                "frequency_decimal": reference_decimal(freq, precision),
                "probability": str(prob),
                "probability_decimal": reference_decimal(prob, precision),
                "abs_deviation": str(deviation),
                "abs_deviation_decimal": reference_decimal(deviation, precision),
            })
        else:
            rows.append([_tuple_text(t), str(hit), str(freq), str(prob),
                         reference_decimal(deviation, precision)])
    max_dev = max(deviations)
    if fmt == "csv":
        rows.append(["max_abs_deviation", "", "", "", reference_decimal(max_dev, precision)])
    metadata = {
        "seed": seed,
        "trials": trials,
        "precision": precision,
        "max_abs_deviation": str(max_dev),
        "max_abs_deviation_decimal": reference_decimal(max_dev, precision),
    }
    return _render(fmt, ["tuple", "count", "frequency", "probability", "abs_deviation"],
                   rows, {"n": n, "generator": "simulation"}, metadata)


@functools.lru_cache(maxsize=None)
def _max_law_fractions(n: int) -> dict:
    return sockpath.max_distribution(n)


# the max law's integer counts, for a sweep that checks only their rendering
_max_law_counts = functools.lru_cache(maxsize=None)(sockpath.probability._max_law)


def stats_oracle(n: int, what: str, k, fmt: str, precision: int) -> str:
    """``stats`` output rendered from the public API's Fractions by csv, json and ``round``."""
    if what == "xk":
        stat = sockpath.marginal_xk(n, k)
        law, moments = stat.law, [("mean", stat.mean), ("variance", stat.variance)]
    else:
        law, moments = _max_law_fractions(n), []
    if fmt == "csv":
        rows = [[h, str(p), reference_decimal(p, precision)]
                for h, p in [*law.items(), *moments]]
        return _render(fmt, ["height", "probability", "probability_decimal"], rows, {}, {})
    payload = {"n": n, "generator": "exact", "what": what, "rows": [
        {"height": h, "probability": str(p), "probability_decimal": reference_decimal(p, precision)}
        for h, p in law.items()
    ]}
    if what == "xk":
        payload["k"] = k
    for name, value in moments:
        payload[name] = str(value)
        payload[f"{name}_decimal"] = reference_decimal(value, precision)
    payload["metadata"] = {"precision": precision}
    return json.dumps(payload, indent=2) + "\n"


@pytest.fixture
def swept_cli(cli, monkeypatch):
    """``cli`` with one parser for all its calls: a sweep of thousands of
    small commands then costs their own work, not argparse's set-up."""
    parser = functools.lru_cache(sockpath.cli._build_parser)
    monkeypatch.setattr(sockpath.cli, "_build_parser", parser)
    return cli


@contextlib.contextmanager
def unlimited_int_text():
    """Lift CPython's limit on the digits of an int written as text, as main() does."""
    if not hasattr(sys, "set_int_max_str_digits"):  # absent before 3.10.7
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class TestProb:
    def test_two_thirds(self, cli):
        code, out, _ = cli("prob", "2,1")
        assert code == 0
        assert out == "2/3 (0.666667)\n"

    def test_certain(self, cli):
        code, out, _ = cli("prob", "1")
        assert code == 0
        assert out == "1 (1.000000)\n"

    def test_unrealizable_is_zero_not_an_error(self, cli):
        code, out, _ = cli("prob", "1,2")
        assert code == 0
        assert out == "0 (0.000000)\n"

    def test_parenthesized_literal(self, cli):
        code, out, _ = cli("prob", "(2,1)")
        assert code == 0
        assert out.startswith("2/3")

    def test_malformed_token_named(self, cli):
        code, _, err = cli("prob", "2,x")
        assert code == 2
        assert "'x'" in err

    @pytest.mark.parametrize("literal,token", [("2,x", "x"), ("", "")])
    def test_malformed_literal_message(self, cli, literal, token):
        code, out, err = cli("prob", literal)
        assert (code, out) == (2, "")
        assert err == f"sockpath: invalid tuple entry {token!r}: expected a positive integer\n"

    def test_nonpositive_entry_is_usage_error(self, cli):
        code, _, err = cli("prob", "0,1")
        assert code == 2
        assert "k_1" in err

    def test_precision_flag(self, cli):
        code, out, _ = cli("prob", "2,1", "--precision", "3")
        assert code == 0
        assert out == "2/3 (0.667)\n"

    def test_precision_must_be_positive(self, cli):
        code, _, _ = cli("prob", "2,1", "--precision", "0")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [("prob", "2,1"), ("table", "2"), ("stats", "2", "--k", "1"),
         ("simulate", "2", "--trials", "10")],
    )
    def test_precision_capped_at_int_text_limit(self, cli, argv):
        code, out, _ = cli(*argv, "--precision", "4300")
        assert code == 0
        assert re.search(r"\.\d{4300}(?!\d)", out)
        code, _, err = cli(*argv, "--precision", "4301")
        assert code == 2
        assert "4300" in err

    def test_denominator_past_int_text_limit(self, cli):
        # 2,000 ones: the reduced denominator (2n - 1)!! has about 6,300 digits
        code, out, _ = cli("prob", ",".join(["1"] * 2000))
        assert code == 0
        exact, decimal = out.split()
        p, q = exact.split("/")
        assert p == "1" and q.isdigit() and len(q) > 4300
        assert decimal == "(0.000000)"

    @pytest.mark.parametrize("precision", [1, 6, 30])
    def test_bytes_equal_the_api_rendered_by_round(self, swept_cli, precision):
        # every valid tuple of order <= 6, from the chain; every other
        # tuple of entries 1..n for n <= 4, and a few past n; twenty 1s
        tuples = [t for n in range(1, 7) for t, _, _ in chain_table(n)]
        valid = set(tuples)
        unrealized = [t for n in range(1, 5) for t in itertools.product(range(1, n + 1), repeat=n)
                      if t not in valid] + [(2,), (3, 1), (1, 5, 1), (8, 6, 5, 4, 3, 2, 1)]
        # 4^4 + 3^3 + 2^2 + 1 tuples of entries 1..n, 22 of them valid
        assert len(unrealized) == 266 + 4
        for t in tuples + unrealized + [(1,) * 20]:
            p = sockpath.tuple_probability(t)
            assert (p == 0) == (t not in valid and t != (1,) * 20), t
            code, out, err = swept_cli("prob", ",".join(map(str, t)), "--precision", str(precision))
            assert (code, out, err) == (0, f"{p} ({reference_decimal(p, precision)})\n", ""), t

    def test_order_1000_equals_the_chain(self, swept_cli):
        # Random Dyck paths of order 1000, each drawn from the table-count
        # chain, and the product of its step probabilities as integers:
        # with L socks left and h on the table, a draw completes a pair
        # (a down-step) with probability h/L and opens one with (L - h)/L.
        # Its tuple holds the height before each down-step.
        n, rng = 1000, random.Random(1000)
        for _ in range(20):
            h, num, t = 0, 1, []
            for left in range(2 * n, 0, -1):
                if rng.randrange(left) < h:
                    num, h = num * h, h - 1
                    t.append(h + 1)
                else:
                    num, h = num * (left - h), h + 1
            p = Fraction(num, math.factorial(2 * n))
            code, out, _ = swept_cli("prob", ",".join(map(str, t)))
            with unlimited_int_text():
                assert (code, out) == (0, f"{p} ({reference_decimal(p, 6)})\n")


class TestTable:
    def test_csv_n2(self, cli):
        code, out, _ = cli("table", "2", "--format", "csv")
        assert code == 0
        assert out == (
            "tuple,probability,probability_decimal,count\n"
            '"(1,1)",1/3,0.333333,8\n'
            '"(2,1)",2/3,0.666667,16\n'
        )

    def test_csv_n1(self, cli):
        code, out, _ = cli("table", "1")
        assert code == 0
        rows = out.splitlines()
        assert rows[1] == "(1),1,1.000000,2"
        assert len(rows) == 2

    def test_json_matches_golden(self, cli):
        code, out, _ = cli("table", "2", "--format", "json")
        assert code == 0
        golden = (GOLDEN_DIR / "table_n2.json").read_text(encoding="utf-8")
        assert out == golden

    def test_sort_by_probability(self, cli):
        code, out, _ = cli("table", "2", "--sort", "prob")
        rows = out.splitlines()
        assert rows[1].startswith('"(2,1)"')
        assert rows[2].startswith('"(1,1)"')

    def test_sort_by_probability_past_one_digit_entries(self, cli):
        # From n = 11 on, tied tuples with an entry of 10 or more sort
        # differently as text: (10,... comes before (2,...
        code, out, _ = cli("table", "11", "--sort", "prob")
        assert code == 0
        assert out == table_oracle(11, "csv", "prob", 6)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_probability_column_reparsed_sums_to_one(self, cli, n):
        code, out, _ = cli("table", str(n))
        assert code == 0
        reader = csv.DictReader(io.StringIO(out))
        total = sum((Fraction(row["probability"]) for row in reader), Fraction(0))
        assert total == 1

    def test_row_count_is_catalan_n5(self, cli):
        code, out, _ = cli("table", "5")
        assert len(out.splitlines()) == 1 + 42

    def test_json_round_trip(self, cli):
        code, out, _ = cli("table", "3", "--format", "json")
        payload = json.loads(out)
        assert payload["n"] == 3
        assert payload["generator"] == "exact"
        total = sum(
            (Fraction(row["probability"]) for row in payload["rows"]), Fraction(0)
        )
        assert total == 1
        for row in payload["rows"]:
            assert Fraction(row["count"]) / Fraction(24 * 30) == Fraction(
                row["probability"]
            )  # (2*3)! = 720

    def test_cap_exceeded_exit_3(self, cli):
        code, _, err = cli("table", "15")
        assert code == 3
        assert "cap" in err

    def test_max_n_override_warns(self, cli):
        # overriding downward proves the flag reaches the library caps
        code, _, err = cli("table", "3", "--max-n", "2")
        assert code == 3
        assert "warning" in err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_max_n_must_be_positive(self, cli, value):
        code, out, err = cli("table", "3", "--max-n", value)
        assert code == 2
        assert out == ""
        assert "--max-n must be >= 1" in err


class TestPath:
    def test_worked_example(self, cli):
        code, out, _ = cli("path", "2,4,3,2,1")
        assert code == 0
        assert out == "1 2 1 2 3 4 3 2 1 0\n"

    def test_single_pair(self, cli):
        code, out, _ = cli("path", "1")
        assert out == "1 0\n"

    def test_ascii_mountain(self, cli):
        code, out, _ = cli("path", "2,4,3,2,1", "--ascii")
        assert code == 0
        assert out == (
            "1 2 1 2 3 4 3 2 1 0\n"
            "     •\n"
            "    •••\n"
            " • •••••\n"
            "•••••••••\n"
        )

    def test_invalid_tuple_exit_4(self, cli):
        code, _, err = cli("path", "3,1,1")
        assert code == 4
        assert "k_2" in err

    def test_malformed_exit_2(self, cli):
        code, out, err = cli("path", "a,b")
        assert (code, out) == (2, "")
        assert err == "sockpath: invalid tuple entry 'a': expected a positive integer\n"


class TestKtuple:
    def test_worked_example(self, cli):
        code, out, _ = cli("ktuple", "1,2,1,2,3,4,3,2,1,0")
        assert code == 0
        assert out == "2,4,3,2,1\n"

    def test_space_separated(self, cli):
        code, out, _ = cli("ktuple", "1 2 1 0")
        assert out == "2,1\n"

    def test_single_pair(self, cli):
        code, out, _ = cli("ktuple", "1,0")
        assert out == "1\n"

    def test_not_a_dyck_path_exit_4(self, cli):
        code, _, err = cli("ktuple", "1,2,3")
        assert code == 4
        assert "3" in err

    def test_malformed_exit_2(self, cli):
        code, _, _ = cli("ktuple", "one,zero")
        assert code == 2

    @pytest.mark.parametrize(
        "literal,message",
        [
            ("1,a", "invalid path entry 'a': expected an integer height"),
            (",,", "empty path literal"),
        ],
    )
    def test_malformed_literal_message(self, cli, literal, message):
        code, out, err = cli("ktuple", literal)
        assert (code, out) == (2, "")
        assert err == f"sockpath: {message}\n"


class TestVerify:
    def test_n1(self, cli):
        code, out, _ = cli("verify", "1")
        assert code == 0
        assert "PASS (1): 2 orderings" in out
        assert out.rstrip().endswith("PASS, 1 tuples checked against 2 orderings")

    def test_n2(self, cli):
        code, out, _ = cli("verify", "2")
        assert code == 0
        lines = out.splitlines()
        assert "PASS (1,1): 8 orderings" in lines
        assert "PASS (2,1): 16 orderings" in lines
        assert lines[-1] == "PASS, 2 tuples checked against 24 orderings"

    def test_cap_exceeded_exit_3(self, cli):
        code, _, _ = cli("verify", "6")
        assert code == 3

    @pytest.mark.parametrize(
        "argv,names",
        [
            (("verify", "6"), ("monte_carlo", "simulate", "--max-n")),
            (("verify", "11", "--max-n", "11"), ("monte_carlo", "simulate")),
        ],
    )
    def test_limit_messages_name_the_cli(self, cli, argv, names):
        code, out, err = cli(*argv)
        assert (code, out) == (3, "")
        assert all(name in err for name in names), err

    @pytest.mark.parametrize(
        "moved,expected_line",
        [
            # (2,1,1)'s orderings tallied under (1,1,1)
            ((1, 1, 1), "FAIL (1,1,1): 144 orderings, expected 48"),
            # (2,1,1)'s orderings decoded to a tuple no path realizes
            ((7, 1, 1), "FAIL (7,1,1): 96 orderings, expected 0"),
        ],
    )
    def test_faulty_tally_fails_and_names_it(self, cli, monkeypatch, moved, expected_line):
        exact = process.brute_force_counts

        def faulty(n, **kwargs):
            counts = exact(n, **kwargs)
            hits = counts.pop(KTuple((2, 1, 1)))
            counts[KTuple(moved)] = counts.get(KTuple(moved), 0) + hits
            return counts

        monkeypatch.setattr(process, "brute_force_counts", faulty)
        code, out, _ = cli("verify", "3")
        assert code == 1
        lines = out.splitlines()
        assert expected_line in lines
        # the valid tuple no ordering reached is named too
        assert "FAIL (2,1,1): 0 orderings, expected 96" in lines
        assert lines[-1].startswith("FAIL, ")

    def test_short_total_fails_and_names_it(self, cli, monkeypatch):
        exact = process.brute_force_counts

        def faulty(n, **kwargs):
            counts = exact(n, **kwargs)
            counts[KTuple((2, 1, 1))] -= 1  # one ordering is lost
            return counts

        monkeypatch.setattr(process, "brute_force_counts", faulty)
        code, out, _ = cli("verify", "3")
        assert code == 1
        lines = out.splitlines()
        assert "FAIL (2,1,1): 95 orderings, expected 96" in lines
        assert "FAIL total: 719 orderings tallied, expected 720" in lines
        assert lines[-1].startswith("FAIL, ")


class TestSimulate:
    def test_single_pair_exact(self, cli):
        code, out, _ = cli("simulate", "1", "--trials", "100", "--seed", "7")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "tuple,count,frequency,probability,abs_deviation"
        assert lines[1] == "(1),100,1,1,0.000000"
        assert lines[2] == "max_abs_deviation,,,,0.000000"

    def test_byte_identical_reruns(self, cli):
        a = cli("simulate", "2", "--trials", "20000", "--seed", "42")
        b = cli("simulate", "2", "--trials", "20000", "--seed", "42")
        assert a == b

    def test_worker_env_does_not_change_output(self, cli, monkeypatch):
        outputs = []
        for threads in ("1", "2", "4"):
            monkeypatch.setenv("SOCKPATH_THREADS", threads)
            outputs.append(cli("simulate", "3", "--trials", "30000", "--seed", "9"))
        monkeypatch.delenv("SOCKPATH_THREADS")
        assert outputs[0] == outputs[1] == outputs[2]

    def test_json_schema(self, cli):
        code, out, _ = cli(
            "simulate", "2", "--trials", "5000", "--seed", "3", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["generator"] == "simulation"
        assert payload["metadata"]["seed"] == 3
        assert payload["metadata"]["trials"] == 5000
        counts = sum(row["count"] for row in payload["rows"])
        assert counts == 5000
        for row in payload["rows"]:
            freq = Fraction(row["frequency"])
            prob = Fraction(row["probability"])
            assert Fraction(row["abs_deviation"]) == abs(freq - prob)

    def test_deviation_small_at_n2(self, cli):
        code, out, _ = cli(
            "simulate", "2", "--trials", "100000", "--seed", "42", "--format", "json"
        )
        payload = json.loads(out)
        assert Fraction(payload["metadata"]["max_abs_deviation"]) < Fraction(5, 1000)

    def test_bad_trials(self, cli):
        code, _, _ = cli("simulate", "2", "--trials", "0")
        assert code == 2

    def test_max_deviation_counts_missed_rows(self, cli, monkeypatch):
        # the CLI's maximum is the report's, over every row
        for n in range(1, 10):
            for seed in (0, 7):
                report = sockpath.monte_carlo(n, 1_000, seed)
                code, out, _ = cli("simulate", str(n), "--trials", "1000",
                                   "--seed", str(seed), "--format", "json")
                assert code == 0
                metadata = json.loads(out)["metadata"]
                assert metadata["max_abs_deviation"] == str(report.max_abs_deviation)

        def reporting(tally):
            # the sampler as simulate calls it, returning the given tally
            # as the path code of each tuple, from an ordering realizing it
            ids = np.array([realizing_ids(sockpath.path_of_ktuple(t)) for t in tally], np.int8)
            codes = Counter(dict(zip(process._path_codes(ids).tolist(), tally.values())))
            return lambda n, trials, seed, **kwargs: codes

        # A tally whose largest deviation is on the row no trial hit:
        # (3,2,1), of probability 2/5; the others deviate by 2/15 or 0.
        tally = {KTuple((1, 1, 1)): 3, KTuple((2, 1, 1)): 4,
                 KTuple((1, 2, 1)): 4, KTuple((2, 2, 1)): 4}
        monkeypatch.setattr(process, "_sample_codes", reporting(tally))
        code, out, _ = cli("simulate", "3", "--trials", "15", "--format", "json")
        assert code == 0
        assert json.loads(out)["metadata"]["max_abs_deviation"] == "2/5"
        # Two rows missed, (1,1,1) of probability 1/15 first: the largest
        # missed count sets the maximum, not the first. Hit rows deviate
        # by 4/45, 1/5 and 8/45.
        tally = {KTuple((1, 2, 1)): 2, KTuple((2, 1, 1)): 3, KTuple((2, 2, 1)): 4}
        monkeypatch.setattr(process, "_sample_codes", reporting(tally))
        code, out, _ = cli("simulate", "3", "--trials", "9", "--format", "json")
        assert code == 0
        assert json.loads(out)["metadata"]["max_abs_deviation"] == "2/5"
        # The largest deviation, 1/15, on the hit row (2,1,1,1). Its count,
        # 768, is that of (1,1,2,1) and (1,2,1,1) before it, which share
        # the pair (3 hits, 768); the missed (1,1,1,1) deviates by 1/105.
        tally = {KTuple((1, 1, 2, 1)): 3, KTuple((1, 2, 1, 1)): 3,
                 KTuple((1, 2, 2, 1)): 4, KTuple((1, 3, 2, 1)): 6,
                 KTuple((2, 1, 1, 1)): 9, KTuple((2, 1, 2, 1)): 4,
                 KTuple((2, 2, 1, 1)): 4, KTuple((2, 2, 2, 1)): 8,
                 KTuple((2, 3, 2, 1)): 12, KTuple((3, 2, 1, 1)): 6,
                 KTuple((3, 2, 2, 1)): 12, KTuple((3, 3, 2, 1)): 16,
                 KTuple((4, 3, 2, 1)): 18}
        monkeypatch.setattr(process, "_sample_codes", reporting(tally))
        code, out, _ = cli("simulate", "4", "--trials", "105", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["metadata"]["max_abs_deviation"] == "1/15"
        for row in payload["rows"]:
            t = KTuple(tuple(row["tuple"]))
            assert row["count"] == tally.get(t, 0), t
            prob = sockpath.tuple_probability(t)
            assert Fraction(row["abs_deviation"]) == abs(Fraction(row["count"], 105) - prob)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_come_from_the_codes_undecoded(self, cli, monkeypatch, fmt):
        # simulate writes its rows from the sampler's path codes, and
        # nothing decodes them. At n = 9, 200 trials hit some prefix
        # blocks and miss others, and both kinds render as the oracle's.
        codes = sorted(process._sample_codes(9, 200, 5))
        hit = [any(base <= c < base + (1 << room) for c in codes)
               for (_, _, _, (base, room)), _ in _blocks(9, "csv", process._code_slots(9))]
        assert any(hit) and not all(hit)
        expected = simulate_oracle(9, 200, 5, fmt, 6)

        def refuse(*args):
            raise AssertionError("simulate decoded its sample")

        monkeypatch.setattr(process, "_decode_codes", refuse)
        code, out, _ = cli("simulate", "9", "--trials", "200", "--seed", "5", "--format", fmt)
        assert code == 0
        assert out == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n,trials,all_hit", [(9, 200, False), (4, 100_000, True)])
    def test_missed_and_hit_rows_match_fractions(self, cli, n, trials, all_hit, fmt):
        # Rows no trial hit are rendered once per distinct count, hit rows
        # one by one: one run mostly of the first kind, one of the second.
        hits = sockpath.monte_carlo(n, trials, 11).empirical
        missed = sum(1 for count in hits.values() if count == 0)
        assert (missed == 0) == all_hit and missed < len(hits)
        code, out, _ = cli("simulate", str(n), "--trials", str(trials), "--seed", "11",
                           "--format", fmt)
        assert code == 0
        assert out == simulate_oracle(n, trials, 11, fmt, 6)


class TestCapOverrideWarning:
    WARNING = "warning: caps overridden"

    @pytest.mark.parametrize(
        "argv", [("verify", "11", "--max-n", "11"), ("simulate", "32", "--max-n", "40")]
    )
    def test_no_warning_past_the_ceiling(self, cli, argv):
        # no cap lifts these runs, so there is no cost to warn of
        code, out, err = cli(*argv)
        assert (code, out) == (3, "")
        assert self.WARNING not in err
        assert "a limit no cap lifts" in err

    def test_accepted_runs_warn(self, cli, monkeypatch):
        # the exact counts stand in for the 12! orderings' walk
        monkeypatch.setattr(
            process, "brute_force_counts",
            lambda n, **_: dict(_count_rows(n)),
        )
        code, _, err = cli("verify", "6", "--max-n", "6")
        assert code == 0
        assert err.startswith(self.WARNING)
        code, _, err = cli("simulate", "2", "--trials", "10", "--max-n", "3")
        assert code == 0
        assert err.startswith(self.WARNING)


def undo_what_run_arms(monkeypatch) -> None:
    """Have ``monkeypatch`` undo what run() arms in this process: the
    OpenSSL guard's flag, and ``_hashlib``'s entry in sys.modules,
    present or not."""
    monkeypatch.setattr(sockpath.cli, "_shed_openssl", sockpath.cli._shed_openssl)
    if "_hashlib" in sys.modules:
        monkeypatch.setitem(sys.modules, "_hashlib", sys.modules["_hashlib"])
    else:
        # set first, so that undoing the deletion also undoes what run() sets
        monkeypatch.setitem(sys.modules, "_hashlib", None)
        monkeypatch.delitem(sys.modules, "_hashlib")


class TestOpenBlasThreads:
    NAME = "OPENBLAS_NUM_THREADS"

    @pytest.fixture
    def unset(self, monkeypatch):
        # set first, so that undoing the deletion also undoes what the
        # code under test sets
        monkeypatch.setenv(self.NAME, "")
        monkeypatch.delenv(self.NAME)

    def _run_sees(self, monkeypatch) -> str | None:
        undo_what_run_arms(monkeypatch)
        seen = []
        monkeypatch.setattr(sys, "argv", ["sockpath", "prob", "1"])
        monkeypatch.setattr(
            sockpath.cli, "main", lambda: seen.append(os.environ.get(self.NAME)) or 0
        )
        with pytest.raises(SystemExit) as exc:
            sockpath.cli.run()
        assert exc.value.code == 0
        return seen[0]

    @pytest.fixture
    def thaw(self):
        # run() freezes the heap before it exits; this process keeps collecting
        yield
        gc.unfreeze()

    def test_run_defaults_to_one_thread(self, monkeypatch, unset, thaw):
        assert self._run_sees(monkeypatch) == "1"

    def test_run_keeps_the_users_value(self, monkeypatch, thaw):
        monkeypatch.setenv(self.NAME, "4")
        assert self._run_sees(monkeypatch) == "4"

    def test_main_leaves_the_environment_alone(self, cli, unset):
        before = dict(os.environ)
        for argv in (("verify", "2"), ("simulate", "2", "--trials", "10"), ("table", "2")):
            assert cli(*argv)[0] == 0
        assert dict(os.environ) == before

    def test_main_leaves_sys_modules_alone(self, cli, monkeypatch):
        argvs = (("verify", "2"), ("simulate", "2", "--trials", "10"), ("table", "2"))
        for argv in argvs:  # the commands' own imports are done first
            assert cli(*argv)[0] == 0
        # run() alone hides _hashlib, and only while it is not loaded yet
        monkeypatch.delitem(sys.modules, "_hashlib", raising=False)
        for argv in argvs:
            assert cli(*argv)[0] == 0
        assert "_hashlib" not in sys.modules
        assert sockpath.cli._shed_openssl is False

    @pytest.mark.parametrize(
        "argv", [("verify", "5"), ("simulate", "5", "--trials", "100000", "--seed", "7")]
    )
    def test_thread_count_does_not_change_output(self, argv):
        src = Path(sockpath.__file__).resolve().parent.parent
        outputs = []
        for threads in (None, "1", "4"):
            env = {k: v for k, v in os.environ.items()
                   if k not in (self.NAME, "SOCKPATH_THREADS")}
            env["PYTHONPATH"] = str(src)
            if threads is not None:
                env[self.NAME] = threads
            proc = subprocess.run(
                [sys.executable, "-c", "from sockpath.cli import run; run()", *argv],
                capture_output=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] == outputs[2]


class TestStats:
    @pytest.mark.parametrize("precision", [1, 6, 30])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bytes_equal_the_api_rendered_by_round(self, swept_cli, monkeypatch, fmt, precision):
        # X_k at every k for n <= 40 and at five k for n = 1000; the
        # maximum for n <= 60 and n = 200, its counts computed once
        monkeypatch.setattr(sockpath.cli, "_max_law", _max_law_counts)
        runs = [(n, "xk", k) for n in range(1, 41) for k in range(1, 2 * n + 1)]
        runs += [(1000, "xk", k) for k in (1, 999, 1000, 1999, 2000)]
        runs += [(n, "max", None) for n in [*range(1, 61), 200]]
        for n, what, k in runs:
            argv = ["stats", str(n), "--what", what, "--format", fmt, "--precision", str(precision)]
            if k is not None:
                argv += ["--k", str(k)]
            assert swept_cli(*argv) == (0, stats_oracle(n, what, k, fmt, precision), ""), argv

    @pytest.mark.parametrize(
        "argv,code,err",
        [
            (("3",), 2, "sockpath: --what xk requires --k\n"),
            (("3", "--what", "max", "--k", "2"), 2, "sockpath: --k applies only to --what xk\n"),
            (("3", "--k", "7"), 2, "sockpath: draw index k = 7 out of range 1..6 for n = 3\n"),
            (("3", "--k", "0"), 2, "sockpath: draw index k = 0 out of range 1..6 for n = 3\n"),
            (("0", "--what", "max"), 2, "sockpath: n must be a positive integer, got 0\n"),
            (("1001", "--k", "1"), 3,
             "sockpath: marginal law for n = 1001 exceeds the cap 1000 of its O(n) binomial "
             "sum; pass a higher cap= (--max-n in the CLI) to override\n"),
            (("201", "--what", "max"), 3,
             "sockpath: maximum law for n = 201 exceeds the cap 200 of its O(n^3) height "
             "count; pass a higher cap= (--max-n in the CLI) to override\n"),
            (("3", "--k", "2", "--max-n", "2"), 3,
             "warning: caps overridden to n <= 2; costs grow like Catalan(n) for table and "
             "simulate, (2n)! for verify, n for stats --what xk and n^3 for stats --what max\n"
             "sockpath: marginal law for n = 3 exceeds the cap 2 of its O(n) binomial sum; "
             "pass a higher cap= (--max-n in the CLI) to override\n"),
            (("202", "--what", "max", "--max-n", "5"), 3,
             "warning: caps overridden to n <= 5; costs grow like Catalan(n) for table and "
             "simulate, (2n)! for verify, n for stats --what xk and n^3 for stats --what max\n"
             "sockpath: maximum law for n = 202 exceeds the cap 5 of its O(n^3) height count; "
             "pass a higher cap= (--max-n in the CLI) to override\n"),
        ],
    )
    def test_errors_keep_their_exit_codes_and_lines(self, cli, argv, code, err):
        assert cli("stats", *argv) == (code, "", err)

    def test_cap_override_runs_past_the_cap(self, cli):
        code, out, err = cli("stats", "1001", "--k", "3", "--max-n", "1001")
        assert code == 0 and err.startswith("warning: caps overridden to n <= 1001;")
        assert out.splitlines()[-2:] == ["mean,1999/667,2.997001", "variance,2664/444889,0.005988"]

    def test_xk_csv(self, cli):
        code, out, _ = cli("stats", "2", "--what", "xk", "--k", "2")
        assert code == 0
        assert out == (
            "height,probability,probability_decimal\n"
            "0,1/3,0.333333\n"
            "2,2/3,0.666667\n"
            "mean,4/3,1.333333\n"
            "variance,8/9,0.888889\n"
        )

    def test_max_n1(self, cli):
        code, out, _ = cli("stats", "1", "--what", "max")
        assert out == (
            "height,probability,probability_decimal\n" "1,1,1.000000\n"
        )

    def test_max_n2(self, cli):
        code, out, _ = cli("stats", "2", "--what", "max")
        lines = out.splitlines()
        assert lines[1] == "1,1/3,0.333333"
        assert lines[2] == "2,2/3,0.666667"

    def test_xk_json(self, cli):
        code, out, _ = cli(
            "stats", "2", "--what", "xk", "--k", "2", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["what"] == "xk"
        assert payload["k"] == 2
        assert payload["mean"] == "4/3"
        assert payload["variance"] == "8/9"
        law = {row["height"]: row["probability"] for row in payload["rows"]}
        assert law == {0: "1/3", 2: "2/3"}

    @pytest.mark.parametrize(
        "argv", [("--what", "xk", "--k", "2"), ("--what", "max", "--precision", "3")]
    )
    def test_json_records_precision_last(self, cli, argv):
        # as table and simulate do, so a consumer knows the digits of
        # every *_decimal field without counting them
        code, out, _ = cli("stats", "2", *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        precision = 3 if "--precision" in argv else 6
        assert list(payload)[-1] == "metadata"
        assert payload["metadata"] == {"precision": precision}
        assert len(payload["rows"][0]["probability_decimal"]) == precision + 2

    def test_missing_k_is_usage_error(self, cli):
        code, _, err = cli("stats", "2", "--what", "xk")
        assert code == 2
        assert "--k" in err

    def test_k_with_max_is_usage_error(self, cli):
        code, out, err = cli("stats", "3", "--what", "max", "--k", "99")
        assert code == 2
        assert out == "" and "--k" in err

    def test_k_out_of_range(self, cli):
        code, _, _ = cli("stats", "2", "--what", "xk", "--k", "5")
        assert code == 2

    def test_marginal_past_enumeration_cap(self, cli):
        # the X_k law is a closed-form sum with its own cap, past the
        # enumeration cap of 14
        code, out, _ = cli("stats", "15", "--k", "3")
        assert code == 0
        # E[X_k] = k(2n - k)/(2n - 1) = 3 * 27 / 29
        assert out.splitlines()[-2] == "mean,81/29,2.793103"

    def test_dp_caps_name_the_dp(self, cli):
        code, _, err = cli("stats", "1001", "--k", "1")
        assert code == 3
        assert "O(n) binomial sum" in err and "Catalan" not in err
        code, _, err = cli("stats", "201", "--what", "max")
        assert code == 3
        assert "O(n^3) height count" in err and "Catalan" not in err


class TestUsageErrors:
    def test_unknown_command(self, cli):
        code, _, _ = cli("frobnicate")
        assert code == 2

    def test_unknown_flag(self, cli):
        code, _, _ = cli("prob", "2,1", "--bogus")
        assert code == 2

    def test_missing_subcommand(self, cli):
        code, _, _ = cli()
        assert code == 2


class TestWorkers:
    def test_thread_count_clamped_to_cpus(self, monkeypatch, cli):
        # the CLI passes the bound through; the engines clamp it, and
        # start no more threads than there are CPUs
        monkeypatch.setenv("SOCKPATH_THREADS", "1000000")
        assert _resolve_workers() == 1_000_000
        sizes = []

        class SpyExecutor(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        # the pool is imported where it is started, from its own module
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SpyExecutor)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(process, "_PREFIX_BLOCK", 5)
        monkeypatch.setattr(process, "_CHUNK_ROWS", 100)
        assert cli("verify", "4")[0] == 0
        assert cli("simulate", "3", "--trials", "1000", "--seed", "3")[0] == 0
        assert sizes == [2, 2]

    @pytest.mark.parametrize("raw", ["two", "-3"])
    def test_bad_value_warns_and_runs_one_worker(self, monkeypatch, capsys, raw):
        monkeypatch.setenv("SOCKPATH_THREADS", raw)
        assert _resolve_workers() == 1
        assert capsys.readouterr().err.startswith("warning: ")

    def test_zero_means_one_per_cpu(self, monkeypatch):
        monkeypatch.setenv("SOCKPATH_THREADS", "0")
        assert _resolve_workers() == (os.cpu_count() or 1)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _resolve_workers() == 1


class TestLazyNumpy:
    # Each check runs its commands in a fresh process and sees only the
    # modules new after ``import sockpath.cli`` and the commands, so a
    # site that preloads some cannot fail it.
    @staticmethod
    def new_modules(*argvs, threads=None):
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import contextlib, io, sockpath.cli\n"
            f"for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert sockpath.cli.main(argv) == 0, argv\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n"
        )
        src = Path(sockpath.__file__).resolve().parent.parent
        env = {k: v for k, v in os.environ.items() if k != "SOCKPATH_THREADS"}
        env["PYTHONPATH"] = str(src)
        if threads is not None:
            env["SOCKPATH_THREADS"] = threads
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    def test_exact_commands_do_not_import_numpy(self):
        # nor the record, serializer, thread-pool and digest modules they
        # never use
        new = self.new_modules(
            ["prob", "2,1"], ["path", "2,1"], ["ktuple", "1,2,1,0"],
            ["table", "3"], ["stats", "3", "--k", "2"], ["stats", "3", "--what", "max"],
        )
        assert "sockpath.probability" in new
        for module in ("numpy", "dataclasses", "inspect", "json", "concurrent.futures",
                       "hashlib", "secrets"):
            assert module not in new, module

    def test_verify_loads_no_numpy_random(self):
        # brute force draws nothing: a top-level import of numpy.random in
        # process.py would add its 6 MB to every verify
        new = self.new_modules(["verify", "5"])
        assert "numpy" in new
        assert "numpy.random" not in new

    def test_json_commands_load_json_but_not_dataclasses(self):
        for argv in (["table", "3", "--format", "json"],
                     ["stats", "3", "--what", "max", "--format", "json"]):
            new = self.new_modules(argv)
            assert "json" in new, argv
            assert "dataclasses" not in new, argv

    def test_one_worker_runs_load_no_thread_pool(self):
        # numpy loads inspect itself, so nothing is asserted about it. Runs
        # of one chunk stay in the calling thread whatever the worker count.
        runs = [(["verify", "1"], None), (["simulate", "1", "--trials", "1"], None),
                (["verify", "4"], "2"), (["simulate", "5", "--trials", "1000"], "2")]
        for argv, threads in runs:
            new = self.new_modules(argv, threads=threads)
            assert "sockpath.process" in new, argv
            assert "concurrent.futures" not in new, argv
            assert "logging" not in new, argv

    def test_no_command_loads_fractions(self):
        # Every command renders integers over their common denominator;
        # fractions, and the decimal module it loads, serve the API alone.
        new = self.new_modules(
            ["table", "3"], ["path", "2,1"], ["ktuple", "1,2,1,0"], ["verify", "1"],
            ["simulate", "1", "--trials", "1"], ["prob", "2,1"], ["prob", "1,2"],
            ["stats", "3", "--k", "2"], ["stats", "3", "--k", "2", "--format", "json"],
            ["stats", "3", "--what", "max"], ["stats", "3", "--what", "max", "--format", "json"],
        )
        assert {"sockpath.process", "json"} <= new
        for module in ("fractions", "decimal"):
            assert module not in new, module
        # while the API still returns Fractions
        stat = sockpath.marginal_xk(3, 2)
        values = [sockpath.tuple_probability((2, 1)), sockpath.tuple_probability((1, 2)),
                  *stat.law.values(), stat.mean, stat.variance,
                  *sockpath.max_distribution(3).values()]
        assert all(type(value) is Fraction for value in values), values

    def test_star_import_and_attribute_access_load_process(self):
        namespace: dict = {}
        exec("from sockpath import *", namespace)
        assert set(sockpath.__all__) <= namespace.keys()
        assert namespace["monte_carlo"] is sockpath.monte_carlo
        assert sockpath.monte_carlo is sockpath.process.monte_carlo
        with pytest.raises(AttributeError):
            sockpath.no_such_name

    def test_import_binds_no_stray_public_name(self):
        # a module star-imported without __all__ would leak its imports
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import sockpath\n"
            "public = {name for name in vars(sockpath) if not name.startswith('_')}\n"
            "print(' '.join(sorted(public - set(sockpath.__all__))))\n"
            "print('numpy' in set(sys.modules) - before)\n"
        )
        src = Path(sockpath.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "core errors probability\nFalse\n"

    def test_public_name_lists_agree(self):
        # the package re-exports each module's __all__, and nothing else
        from sockpath import core, errors, probability

        exceptions = {
            name for name, value in vars(errors).items()
            if isinstance(value, type) and issubclass(value, Exception)
        }
        assert set(sockpath.__all__) == (
            set(core.__all__) | set(probability.__all__) | set(process.__all__)
            | exceptions | {"__version__"}
        )


class TestBoundedMemory:
    @staticmethod
    def _peak_rss_kb(*argv: str) -> int:
        return peak_rss_kb("from sockpath.cli import run; run()", *argv)

    def test_simulate_memory_does_not_grow_with_trials(self):
        small = self._peak_rss_kb("simulate", "2", "--trials", "500000")
        large = self._peak_rss_kb("simulate", "2", "--trials", "4000000")
        assert large - small < 8 * 1024, f"peak RSS {small} KB -> {large} KB"

    def test_simulate_peaks_near_verify(self):
        # Both load numpy; simulate also loads numpy.random, whose import
        # chain (secrets, hmac, hashlib) maps OpenSSL unless run() keeps
        # _hashlib out: 6.0 MB above verify 1 with it, 2.6 MB without.
        floor = self._peak_rss_kb("verify", "1")
        top = self._peak_rss_kb("simulate", "1", "--trials", "1")
        assert top - floor <= 4 * 1024, f"peak RSS {floor} KB (verify) -> {top} KB (simulate)"

    def test_simulate_holds_a_tile_not_a_chunk(self):
        # 500,000-row chunks are shuffled and walked a tile at a time
        small = self._peak_rss_kb("simulate", "5", "--trials", "1")
        large = self._peak_rss_kb("simulate", "5", "--trials", "1000000")
        assert large - small < 10 * 1024, f"peak RSS {small} KB -> {large} KB"

    def test_wide_tally_decodes_a_tile_at_a_time(self):
        # 100,000 nearly all distinct tuples of 31 entries: decoded all at
        # once, their (100,000, 62) step matrices lift the peak near 135 MB
        peak = peak_rss_kb(
            "import sockpath as sp; sp.monte_carlo(31, 100_000, 1, cap=31)"
        )
        assert peak < 100 * 1024, f"peak RSS {peak} KB"

    def test_table_memory_does_not_grow_with_rows(self):
        # 132 rows against 58,786: rows are written, not held
        small = self._peak_rss_kb("table", "6", "--format", "json", "--sort", "lex")
        large = self._peak_rss_kb("table", "11", "--format", "json", "--sort", "lex")
        assert large - small < 8 * 1024, f"peak RSS {small} KB -> {large} KB"

    def test_table_by_probability_holds_count_classes(self):
        # 208,012 rows in 808 count classes: holding a (count, head, tail)
        # triple per row to sort them peaks about 30 MB over lex order
        lex = self._peak_rss_kb("table", "12", "--format", "csv", "--sort", "lex")
        prob = self._peak_rss_kb("table", "12", "--format", "csv", "--sort", "prob")
        assert prob - lex < 10 * 1024, f"peak RSS {lex} KB (lex) -> {prob} KB (prob)"

    @pytest.mark.parametrize(
        "command,extra", [("table", ()), ("simulate", ("--trials", "20000"))]
    )
    def test_csv_lines_hold_no_rows(self, command, extra):
        # CSV rows are written as ready lines, one by one
        small = self._peak_rss_kb(command, "6", "--format", "csv", *extra)
        large = self._peak_rss_kb(command, "11", "--format", "csv", *extra)
        assert large - small < 8 * 1024, f"peak RSS {small} KB -> {large} KB"


# The fragments' string fields hold integers, ratios and decimals.
_numeric_text = st.text(alphabet="0123456789/.", min_size=1, max_size=40)
_int_lists = st.lists(st.integers(0, 10**4), min_size=1, max_size=30)


@st.composite
def _split_lists(draw) -> tuple[list[int], int]:
    # A list and a cut before its last element: rows join a prefix
    # fragment, each element followed by the separator, to a tail
    # fragment of at least one element.
    values = draw(_int_lists)
    return values, draw(st.integers(0, len(values) - 1))


def _items(values: list[int], cut: int) -> str:
    # A list's elements as a row joins them: prefix fragment, then tail.
    prefix = "".join(f"{v}{_JSON_ITEM}" for v in values[:cut])
    return prefix + _JSON_ITEM.join(map(str, values[cut:]))


class TestStreamedJson:
    @staticmethod
    def _streamed(head, rows, metadata) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            _stream_json(head, rows, lambda: {"metadata": metadata})
        return buf.getvalue()

    @staticmethod
    def _alone(row: str) -> str:
        # a rendered row, led by the separator from the row before, as the
        # only element of a list at its depth in the envelope
        assert row[:2] == ",\n"
        return '{\n  "rows": [\n' + row[2:] + '\n  ]\n}'

    @given(
        rows=st.lists(
            st.tuples(_split_lists(), _numeric_text, _numeric_text,
                      st.integers(0, 10**40), _split_lists()),
            min_size=1, max_size=4,
        ),
        n=st.integers(1, 40),
        precision=st.integers(1, 50),
    )
    @settings(max_examples=100)
    def test_table_template_is_json_dumps(self, rows, n, precision):
        rendered = [",\n" + _JSON_ROW_OPEN + _items(*t)
                    + _JSON_TABLE_CELLS % (exact, decimal, count)
                    + _items(*path) + _JSON_ROW_CLOSE
                    for t, exact, decimal, count, path in rows]
        objects = [{"tuple": t[0], "probability": exact, "probability_decimal": decimal,
                    "count": str(count), "path": path[0]}
                   for t, exact, decimal, count, path in rows]
        head, metadata = {"n": n, "generator": "exact"}, {"precision": precision}
        for row, obj in zip(rendered, objects):
            # each row alone, at its depth in the envelope
            assert json.dumps({"rows": [obj]}, indent=2) == self._alone(row)
        assert self._streamed(head, rendered, metadata) == json.dumps(
            {**head, "rows": objects, "metadata": metadata}, indent=2) + "\n"

    @given(
        rows=st.lists(
            st.tuples(_split_lists(), st.integers(0, 10**12), *[_numeric_text] * 6),
            min_size=1, max_size=4,
        ),
        seed=st.integers(0, 2**64 - 1),
        trials=st.integers(1, 10**12),
        precision=st.integers(1, 50),
        worst=st.tuples(_numeric_text, _numeric_text),
    )
    @settings(max_examples=100)
    def test_simulate_template_is_json_dumps(self, rows, seed, trials, precision, worst):
        names = ("frequency", "frequency_decimal", "probability",
                 "probability_decimal", "abs_deviation", "abs_deviation_decimal")
        rendered = [",\n" + _JSON_ROW_OPEN + _items(*t) + _JSON_SIMULATE_CELLS % (hits, *texts)
                    for t, hits, *texts in rows]
        objects = [{"tuple": t[0], "count": hits, **dict(zip(names, texts))}
                   for t, hits, *texts in rows]
        head = {"n": 3, "generator": "simulation"}
        metadata = {"seed": seed, "trials": trials, "precision": precision,
                    "max_abs_deviation": worst[0], "max_abs_deviation_decimal": worst[1]}
        for row, obj in zip(rendered, objects):
            assert json.dumps({"rows": [obj]}, indent=2) == self._alone(row)
        assert self._streamed(head, rendered, metadata) == json.dumps(
            {**head, "rows": objects, "metadata": metadata}, indent=2) + "\n"


class TestStreamedOutput:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_table_equals_build_then_dump(self, cli, n):
        for fmt in ("csv", "json"):
            for sort in ("lex", "prob"):
                for precision in (6, 3):
                    code, out, _ = cli("table", str(n), "--format", fmt, "--sort", sort,
                                       "--precision", str(precision))
                    assert code == 0
                    assert out == table_oracle(n, fmt, sort, precision), (fmt, sort, precision)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table_by_probability_with_a_two_digit_entry(self, cli, fmt):
        # n = 10 is the first order with an entry of 10, and its 286
        # count classes each gather rows from many prefixes
        for precision in (6, 3):
            code, out, _ = cli("table", "10", "--format", fmt, "--sort", "prob",
                               "--precision", str(precision))
            assert code == 0
            assert out == table_oracle(10, fmt, "prob", precision), precision

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table_in_walk_order_with_a_two_digit_entry(self, cli, fmt):
        # n = 10 is the first order with an entry of 10; its walk joins
        # 637 prefixes to their blocks of tails
        for precision in (6, 3):
            code, out, _ = cli("table", "10", "--format", fmt, "--precision", str(precision))
            assert code == 0
            assert out == table_oracle(10, fmt, "lex", precision), precision

    @pytest.mark.parametrize("n", range(1, 9))
    def test_simulate_equals_report_rendering(self, cli, n):
        for seed, precision in ((0, 6), (7, 9), (2**63 + 5, 4)):
            for fmt in ("csv", "json"):
                code, out, _ = cli("simulate", str(n), "--trials", "3000", "--seed", str(seed),
                                   "--format", fmt, "--precision", str(precision))
                assert code == 0
                assert out == simulate_oracle(n, 3000, seed, fmt, precision), (seed, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_simulate_with_a_two_digit_entry(self, cli, fmt):
        # 20,000 trials over 16,796 rows: each block mixes rows hit and missed
        for precision in (6, 3):
            code, out, _ = cli("simulate", "10", "--trials", "20000", "--format", fmt,
                               "--precision", str(precision))
            assert code == 0
            assert out == simulate_oracle(10, 20000, 0, fmt, precision), precision


def launch(*argv: str, code: str = "from sockpath.cli import run; run()"):
    """A fresh ``python -c code *argv`` on ``src/``, its output captured."""
    src = Path(sockpath.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, env=env, timeout=60
    )


class TestRunExit:
    """How run(), the console script's body, ends the process."""

    def _events(self, monkeypatch, tmp_path, main, flush=lambda: None):
        # run()'s calls to main, stdout's flush and gc.freeze, in order,
        # and the code it exits with; the calls are also kept in self.events
        events = self.events = []
        target = open(tmp_path / "stdout", "wb")  # the broken-pipe path points it at devnull

        class Stdout:  # no reconfigure, which run() then leaves alone
            def flush(self):
                events.append("flush")
                flush()

            def fileno(self):
                return target.fileno()

        def spy_main():
            events.append("main")
            return main()

        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        undo_what_run_arms(monkeypatch)
        monkeypatch.setattr(sys, "stdout", Stdout())
        monkeypatch.setattr(sockpath.cli, "main", spy_main)
        monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
        try:
            with pytest.raises(SystemExit) as exc:
                sockpath.cli.run()
        finally:
            target.close()
        return events, exc.value.code

    def test_freezes_once_after_the_command_and_the_flush(self, monkeypatch, tmp_path):
        for code in (0, 1, 3):
            assert self._events(monkeypatch, tmp_path, lambda: code) == (
                ["main", "flush", "freeze"], code
            )

    def test_freezes_once_on_the_broken_pipe_path(self, monkeypatch, tmp_path):
        def gone():
            raise BrokenPipeError

        # the reader leaves during the command, or before the last flush
        assert self._events(monkeypatch, tmp_path, gone) == (["main", "freeze"], 141)
        assert self._events(monkeypatch, tmp_path, lambda: 0, flush=gone) == (
            ["main", "flush", "freeze"], 141
        )

    def test_an_escaping_exception_is_not_frozen_over(self, monkeypatch, tmp_path):
        def fail():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            self._events(monkeypatch, tmp_path, fail)
        assert self.events == ["main"]

    def test_the_heap_is_frozen_when_atexit_runs(self, cli):
        probe = launch(
            "stats", "1", "--k", "1",
            code="import atexit, gc, sys; atexit.register(lambda: print("
            "'frozen' if gc.get_freeze_count() > 0 else 'not frozen', file=sys.stderr)); "
            "from sockpath.cli import run; run()",
        )
        assert probe.returncode == 0
        assert probe.stderr == b"frozen\n"
        # the final flush still wrote everything the command printed
        assert probe.stdout.decode() == cli("stats", "1", "--k", "1")[1]

    @pytest.mark.parametrize(
        "argv,code",
        [(("prob", "2,x"), 2), (("table", "15"), 3), (("path", "2,2"), 4)],
        ids=["usage", "resource", "invalid"],
    )
    def test_error_exit_codes(self, cli, argv, code):
        proc = launch(*argv)
        assert proc.returncode == code
        assert proc.stdout == b""
        # one line, main()'s own, with no traceback
        err = proc.stderr.decode()
        assert err == cli(*argv)[2]
        assert err.startswith("sockpath: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="reads /proc/self/maps")
class TestOpenSslKeptOut:
    """run() keeps OpenSSL's libcrypto out of the commands that load numpy,
    and changes no output doing so."""

    # At exit, stderr gets whether _hashlib is loaded and whether the
    # process maps libcrypto.
    PROBE = (
        "import atexit, sys\n"
        "atexit.register(lambda: print(sys.modules.get('_hashlib') is not None,\n"
        "    'libcrypto' in open('/proc/self/maps').read(), file=sys.stderr))\n"
    )
    RUN = "from sockpath.cli import run; run()"
    SAMPLE = ("simulate", "3", "--trials", "1000", "--seed", "7")

    @pytest.mark.parametrize(
        "argv", [SAMPLE, (*SAMPLE, "--format", "json"), ("verify", "3")],
        ids=["csv", "json", "verify"],
    )
    def test_sampling_maps_no_libcrypto(self, cli, argv):
        proc = launch(*argv, code=self.PROBE + self.RUN)
        assert proc.returncode == 0
        assert proc.stderr == b"False False\n"
        assert proc.stdout.decode() == cli(*argv)[1]

    @pytest.mark.parametrize(
        "setup",
        [
            "import _hashlib\n",
            # a build that leaves md5 to OpenSSL
            "import importlib.util\n"
            "find_spec = importlib.util.find_spec\n"
            "importlib.util.find_spec = lambda name, *rest: (\n"
            "    None if name == '_md5' else find_spec(name, *rest))\n",
        ],
        ids=["preloaded", "digest-missing"],
    )
    def test_openssl_stays_where_it_must(self, cli, setup):
        proc = launch(*self.SAMPLE, code=setup + self.PROBE + self.RUN)
        assert proc.returncode == 0
        # _hashlib is loaded; the probe's line is all of stderr
        assert re.fullmatch(rb"True (True|False)\n", proc.stderr), proc.stderr
        assert proc.stdout.decode() == cli(*self.SAMPLE)[1]


class TestBrokenPipe:
    def test_closed_reader_exits_141_without_traceback(self):
        # table 10 is about 750 KB of CSV, far more than a pipe buffers, so
        # the command is still writing when the reader goes away.
        src = Path(sockpath.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.Popen(
            [sys.executable, "-c", "from sockpath.cli import run; run()", "table", "10"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        try:
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 141
        finally:
            proc.kill()
            proc.stderr.close()
        assert first == b"tuple,probability,probability_decimal,count\n"
        assert err == b""
