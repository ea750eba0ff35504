"""Command-line surface: formats, exit codes, determinism."""

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sockpath
from sockpath.cli import (
    _SIMULATE_ROW_JSON,
    _TABLE_ROW_JSON,
    _json_items,
    _resolve_workers,
    _stream_json,
    format_decimal,
    format_fraction,
    main,
)

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "docs" / "examples"


class TestFormatDecimal:
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
        ],
    )
    def test_correct_rounding(self, value, precision, expected):
        assert format_decimal(value, precision) == expected


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


def table_oracle(n: int, fmt: str, sort: str, precision: int) -> str:
    """``table`` output from per-row Fractions, checked counts and paths."""
    pairs = [(t, sockpath.tuple_probability(t)) for t in sockpath.enumerate_ktuples(n)]
    if sort == "prob":
        pairs.sort(key=lambda item: (-item[1], item[0]))
    rows = []
    for t, p in pairs:
        exact, decimal = format_fraction(p), format_decimal(p, precision)
        count = str(sockpath.permutation_count(t))
        if fmt == "json":
            rows.append({"tuple": list(t), "probability": exact,
                         "probability_decimal": decimal, "count": count,
                         "path": list(sockpath.path_of_ktuple(t))})
        else:
            rows.append([str(t), exact, decimal, count])
    return _render(fmt, ["tuple", "probability", "probability_decimal", "count"],
                   rows, {"n": n, "generator": "exact"}, {"precision": precision})


def simulate_oracle(n: int, trials: int, seed: int, fmt: str, precision: int) -> str:
    """``simulate`` output rendered from a ``monte_carlo`` report."""
    report = sockpath.monte_carlo(n, trials, seed)
    max_dev = report.max_abs_deviation
    rows = []
    for t, row in report.comparison.items():
        if fmt == "json":
            rows.append({
                "tuple": list(t),
                "count": report.empirical[t],
                "frequency": format_fraction(row.frequency),
                "frequency_decimal": format_decimal(row.frequency, precision),
                "probability": format_fraction(row.probability),
                "probability_decimal": format_decimal(row.probability, precision),
                "abs_deviation": format_fraction(row.deviation),
                "abs_deviation_decimal": format_decimal(row.deviation, precision),
            })
        else:
            rows.append([str(t), str(report.empirical[t]), format_fraction(row.frequency),
                         format_fraction(row.probability),
                         format_decimal(row.deviation, precision)])
    if fmt == "csv":
        rows.append(["max_abs_deviation", "", "", "", format_decimal(max_dev, precision)])
    metadata = {
        "seed": seed,
        "trials": trials,
        "precision": precision,
        "max_abs_deviation": format_fraction(max_dev),
        "max_abs_deviation_decimal": format_decimal(max_dev, precision),
    }
    return _render(fmt, ["tuple", "count", "frequency", "probability", "abs_deviation"],
                   rows, {"n": n, "generator": "simulation"}, metadata)


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
        code, _, _ = cli("path", "a,b")
        assert code == 2


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


class TestStats:
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

    def test_missing_k_is_usage_error(self, cli):
        code, _, err = cli("stats", "2", "--what", "xk")
        assert code == 2
        assert "--k" in err

    def test_k_out_of_range(self, cli):
        code, _, _ = cli("stats", "2", "--what", "xk", "--k", "5")
        assert code == 2

    def test_marginal_past_enumeration_cap(self, cli):
        # the X_k law is an O(n^2) count with its own cap, past the
        # enumeration cap of 14
        code, out, _ = cli("stats", "15", "--k", "3")
        assert code == 0
        # E[X_k] = k(2n - k)/(2n - 1) = 3 * 27 / 29
        assert out.splitlines()[-2] == "mean,81/29,2.793103"

    def test_dp_caps_name_the_dp(self, cli):
        code, _, err = cli("stats", "1001", "--k", "1")
        assert code == 3
        assert "O(n^2) height count" in err and "Catalan" not in err
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
    def test_thread_count_clamped_to_cpus(self, monkeypatch):
        monkeypatch.setenv("SOCKPATH_THREADS", "1000000")
        assert _resolve_workers() == (os.cpu_count() or 1)


class TestLazyNumpy:
    def test_exact_commands_do_not_import_numpy(self):
        code = (
            "import sys, sockpath.cli\n"
            "for argv in (['prob', '2,1'], ['path', '2,1'], ['ktuple', '1,2,1,0'],\n"
            "             ['table', '3'], ['stats', '3', '--k', '2'],\n"
            "             ['stats', '3', '--what', 'max']):\n"
            "    assert sockpath.cli.main(argv) == 0, argv\n"
            "assert 'numpy' not in sys.modules\n"
        )
        src = Path(sockpath.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr

    def test_star_import_and_attribute_access_load_process(self):
        namespace: dict = {}
        exec("from sockpath import *", namespace)
        assert set(sockpath.__all__) <= namespace.keys()
        assert namespace["monte_carlo"] is sockpath.monte_carlo
        assert sockpath.monte_carlo is sockpath.process.monte_carlo
        with pytest.raises(AttributeError):
            sockpath.no_such_name


class TestBoundedMemory:
    # A child's ru_maxrss starts at the peak RSS of the process that
    # started it, so a small launcher, not this test process, reaps the
    # CLI with os.wait4 and prints its peak in kilobytes.
    LAUNCHER = (
        "import os, subprocess, sys\n"
        "proc = subprocess.Popen([sys.executable, '-c',\n"
        "    'from sockpath.cli import run; run()', *sys.argv[1:]],\n"
        "    stdout=subprocess.DEVNULL)\n"
        "_, status, usage = os.wait4(proc.pid, 0)\n"
        "assert os.waitstatus_to_exitcode(status) == 0\n"
        "print(usage.ru_maxrss)\n"
    )

    def _peak_rss_kb(self, *argv: str) -> int:
        src = Path(sockpath.__file__).resolve().parent.parent
        env = {k: v for k, v in os.environ.items() if k != "SOCKPATH_THREADS"}
        env["PYTHONPATH"] = str(src)
        proc = subprocess.run(
            [sys.executable, "-c", self.LAUNCHER, *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout)

    def test_simulate_memory_does_not_grow_with_trials(self):
        small = self._peak_rss_kb("simulate", "2", "--trials", "500000")
        large = self._peak_rss_kb("simulate", "2", "--trials", "4000000")
        assert large - small < 8 * 1024, f"peak RSS {small} KB -> {large} KB"

    def test_table_memory_does_not_grow_with_rows(self):
        # 132 rows against 58,786: rows are written, not held
        small = self._peak_rss_kb("table", "6", "--format", "json", "--sort", "lex")
        large = self._peak_rss_kb("table", "11", "--format", "json", "--sort", "lex")
        assert large - small < 8 * 1024, f"peak RSS {small} KB -> {large} KB"


# The templates' string fields hold integers, ratios and decimals.
_numeric_text = st.text(alphabet="0123456789/.", min_size=1, max_size=40)
_int_lists = st.lists(st.integers(0, 10**4), min_size=1, max_size=30)


class TestStreamedJson:
    @staticmethod
    def _streamed(head, rows, metadata) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            _stream_json(head, rows, lambda: metadata)
        return buf.getvalue()

    @given(
        rows=st.lists(
            st.tuples(_int_lists, _numeric_text, _numeric_text,
                      st.integers(0, 10**40), _int_lists),
            min_size=1, max_size=4,
        ),
        n=st.integers(1, 40),
        precision=st.integers(1, 50),
    )
    @settings(max_examples=100)
    def test_table_template_is_json_dumps(self, rows, n, precision):
        json_items = _json_items(10**4)
        rendered = [_TABLE_ROW_JSON % (json_items(t), exact, decimal, count, json_items(path))
                    for t, exact, decimal, count, path in rows]
        objects = [{"tuple": t, "probability": exact, "probability_decimal": decimal,
                    "count": str(count), "path": path}
                   for t, exact, decimal, count, path in rows]
        head, metadata = {"n": n, "generator": "exact"}, {"precision": precision}
        for row, obj in zip(rendered, objects):
            # each row alone, at its depth in the envelope
            text = json.dumps({"rows": [obj]}, indent=2)
            assert text == '{\n  "rows": [\n' + row + '\n  ]\n}'
        assert self._streamed(head, rendered, metadata) == json.dumps(
            {**head, "rows": objects, "metadata": metadata}, indent=2) + "\n"

    @given(
        rows=st.lists(
            st.tuples(_int_lists, st.integers(0, 10**12), *[_numeric_text] * 6),
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
        json_items = _json_items(10**4)
        rendered = [_SIMULATE_ROW_JSON % (json_items(t), hits, *texts)
                    for t, hits, *texts in rows]
        objects = [{"tuple": t, "count": hits, **dict(zip(names, texts))}
                   for t, hits, *texts in rows]
        head = {"n": 3, "generator": "simulation"}
        metadata = {"seed": seed, "trials": trials, "precision": precision,
                    "max_abs_deviation": worst[0], "max_abs_deviation_decimal": worst[1]}
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

    @pytest.mark.parametrize("n", range(1, 9))
    def test_simulate_equals_report_rendering(self, cli, n):
        for seed, precision in ((0, 6), (7, 9), (2**63 + 5, 4)):
            for fmt in ("csv", "json"):
                code, out, _ = cli("simulate", str(n), "--trials", "3000", "--seed", str(seed),
                                   "--format", fmt, "--precision", str(precision))
                assert code == 0
                assert out == simulate_oracle(n, 3000, seed, fmt, precision), (seed, fmt)


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
