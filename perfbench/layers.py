"""Per-layer metrics (``--trace 1``): timed calls into each ``sockpath`` module.

The calls are made from here, in this process, with one worker; nothing
inside ``src/`` is instrumented. Every call is one span (name, parent,
start, end, items) kept in memory and written to
``perfbench/out/trace-<workload>-<seed>.json`` at the end. Each layer
reports its time in seconds, the number of items it returned and, for
the large allocators, its peak traced allocation (measured in a second,
untimed call under ``tracemalloc``, which slows Python code). Every
result is checked against ``oracle``.

The ``cli.*`` spans time ``sockpath.cli.main`` on the workloads' own
commands with stdout sent to a byte-counting sink; the report-and-
serialize self time of ``table`` is that span minus the layer calls the
command makes. ``setup.*`` times imports in fresh interpreters.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import oracle
import workloads

HERE = Path(__file__).resolve().parent
# Scalar fallback draws timed by process.run_process_s.
RUN_PROCESS_TRIALS = 10_000
# Fresh interpreters per import timing.
IMPORT_SAMPLES = 5


class _ByteSink(io.TextIOBase):
    """Text stream that only counts the UTF-8 bytes written to it."""

    def __init__(self) -> None:
        self.size = 0

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.size += len(text.encode("utf-8"))
        return len(text)


class Tracer:
    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.values: dict[str, list[float]] = {}
        self.parent = ""

    def record(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)

    def timed(self, name: str, fn, items=len):
        """Call ``fn`` once as a span; record ``<name>_s`` and, unless None, ``<name>_items``."""
        gc.collect()
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
        count = items(result) if items else None
        self.spans.append({"name": name, "parent": self.parent, "items": count,
                           "start": start - self.origin, "end": end - self.origin})
        self.record(f"{name}_s", end - start)
        if count is not None:
            self.record(f"{name}_items", count)
        return result

    def peak(self, name: str, fn) -> None:
        """Record ``<name>_peak_mb``: the peak allocation ``tracemalloc`` sees during ``fn``."""
        gc.collect()
        tracemalloc.start()
        try:
            fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        self.record(f"{name}_peak_mb", peak / 2**20)


def _layer_pass(sp, cli, workload_cmds: dict, k: int, sim_seeds, seed: int,
                tracer: Tracer, ledger, first: bool) -> None:
    check = ledger.check
    timed = tracer.timed

    n = workloads.TABLE_N
    tuples = timed("probability.enumerate_ktuples", lambda: list(sp.enumerate_ktuples(n)))
    check(f"enumerate_ktuples({n})",
          [] if len(tuples) == oracle.catalan(n) and all(map(oracle.realizable, tuples))
          and all(a < b for a, b in zip(tuples, tuples[1:])) else [f"not Catalan({n}) lex-ordered tuples"])

    paths = timed("core.path_of_ktuple", lambda: [sp.path_of_ktuple(t) for t in tuples])
    check("path_of_ktuple", [f"{t} -> {p}" for t, p in zip(tuples, paths)
                             if oracle.walk_down(p) != tuple(t)][:3])

    table = timed("probability.full_distribution", lambda: sp.full_distribution(n))
    if first:
        tracer.peak("probability.full_distribution", lambda: sp.full_distribution(n))
    total = math.factorial(2 * n)
    check(f"full_distribution({n})",
          [] if list(table.entries) == tuples and all(
              (p.numerator, p.denominator) == oracle.reduced(oracle.ordering_count(t), total)
              for t, p in table.entries.items()) else ["entries differ from the oracle"])

    counts = timed("probability.permutation_count",
                   lambda: [sp.permutation_count(t) for t in tuples])
    check("permutation_count", [] if counts == [oracle.ordering_count(t) for t in tuples]
          else ["counts differ from the formula"])

    n = workloads.STATS_N
    stats_tuples = list(sp.enumerate_ktuples(n))
    probs = timed("probability.tuple_probability",
                  lambda: [sp.tuple_probability(t) for t in stats_tuples])
    total = math.factorial(2 * n)
    check("tuple_probability", [] if all(
        (p.numerator, p.denominator) == oracle.reduced(oracle.ordering_count(t), total)
        for t, p in zip(stats_tuples, probs)) else ["probabilities differ from the formula"])
    del stats_tuples, probs

    stat = timed("probability.marginal_xk", lambda: sp.marginal_xk(n, k), items=lambda s: len(s.law))
    law = oracle.xk_law(n, k)
    got = ({h: (p.numerator, p.denominator) for h, p in stat.law.items()},
           (stat.mean.numerator, stat.mean.denominator),
           (stat.variance.numerator, stat.variance.denominator))
    check(f"marginal_xk({n}, {k})", [] if got == (law, *oracle.law_moments(law))
          else ["law or moments differ from the DP"])

    mx = timed("probability.max_distribution", lambda: sp.max_distribution(n))
    check(f"max_distribution({n})", [] if {h: (p.numerator, p.denominator) for h, p in mx.items()}
          == oracle.max_law(n) else ["law differs from the DP"])

    n = workloads.VERIFY_N
    brute = timed("process.brute_force_counts", lambda: sp.brute_force_counts(n), items=None)
    tracer.record("process.brute_force_orderings", sum(brute.values()))
    if first:
        tracer.peak("process.brute_force_counts", lambda: sp.brute_force_counts(n))
    check(f"brute_force_counts({n})",
          [] if sum(brute.values()) == math.factorial(2 * n) and len(brute) == oracle.catalan(n)
          and all(c == oracle.ordering_count(t) for t, c in brute.items())
          else ["tallies differ from the formula"])

    for (n, trials), mc_seed in zip(workloads.SIMULATE, sim_seeds):
        name = f"process.monte_carlo_n{n}"
        report = timed(name, lambda: sp.monte_carlo(n, trials, mc_seed), items=None)
        tracer.record(f"{name}_trials", sum(report.empirical.values()))
        if first and n == 5:
            tracer.peak(name, lambda: sp.monte_carlo(n, trials, mc_seed))
        check(f"monte_carlo({n}, {trials})", workloads.tally_problems(
            n, trials, {tuple(t): c for t, c in report.empirical.items()}))

    rng = random.Random(seed)
    traces = timed("process.run_process", lambda: [
        sp.run_process(sp.random_permutation(11, rng)) for _ in range(RUN_PROCESS_TRIALS)])
    check("run_process(random_permutation(11))",
          [] if all(oracle.realizable(tuple(tr.tuple)) and oracle.walk_down(tr.path) == tuple(tr.tuple)
                    for tr in traces) else ["a trace's tuple does not match its path"])
    del traces

    for label, argvs in workload_cmds.items():
        sink = _ByteSink()

        def call():
            with contextlib.redirect_stdout(sink):
                return [cli.main(list(a)) for a in argvs]

        codes = timed(f"cli.{label}", call, items=None)
        tracer.record(f"cli.{label}_bytes", sink.size)
        check(f"cli {label}", [] if codes == [0] * len(codes) else [f"exit codes {codes}"])


def _import_seconds(module: str, env: dict) -> list[float]:
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    out = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                              cwd=HERE.parent, timeout=60, check=True)
        out.append(float(proc.stdout))
    return out


def traced_run(workload: str, seed: int, seconds: float, src: Path, env: dict, ledger) -> dict:
    """Measure every layer; return the median of each per-layer metric over passes."""
    sys.path.insert(0, str(src))
    os.environ.pop("SOCKPATH_THREADS", None)
    import sockpath as sp
    from sockpath import cli

    if Path(sp.__file__).resolve().parent != (src / "sockpath").resolve():
        raise RuntimeError(f"imported sockpath from {sp.__file__}, not from {src}")

    cmds = {w: workloads.commands(w, seed) for w in workloads.WORKLOADS}
    workload_cmds = {
        "table_json": [cmds["table-export"][0].args],
        "table_csv": [cmds["table-export"][1].args],
        "stats": [c.args for c in cmds["marginals"]],
        "verify": [cmds["oracles"][0].args],
        "simulate": [c.args for c in cmds["oracles"][1:]],
    }
    inputs = {w: workloads.inputs(w, seed) for w in ("marginals", "oracles")}
    ledger.check("oracle self-check", oracle.self_check())

    tracer = Tracer()
    start = time.perf_counter()
    passes = 0
    while not passes or time.perf_counter() - start < seconds:
        tracer.parent = f"pass-{passes}"
        _layer_pass(sp, cli, workload_cmds, inputs["marginals"]["k"], inputs["oracles"]["sim_seeds"],
                    seed, tracer, ledger, first=not passes)
        passes += 1

    for module in ("numpy", "sockpath"):
        for value in _import_seconds(module, env):
            tracer.record(f"setup.import_{module}_s", value)

    values = {name: statistics.median(v) for name, v in tracer.values.items()}
    shared = values["probability.full_distribution_s"] + values["probability.permutation_count_s"]
    values["cli.table_json_report_s"] = (values["cli.table_json_s"] - shared
                                         - values["core.path_of_ktuple_s"])
    values["cli.table_csv_report_s"] = values["cli.table_csv_s"] - shared

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"trace-{workload}-{seed}.json").write_text(
        json.dumps({"passes": passes, "spans": tracer.spans}, indent=1))
    for span in tracer.spans:
        print(f"{span['parent']:7} {span['name']:34} {span['end'] - span['start']:9.4f} s"
              + ("" if span["items"] is None else f"  {span['items']} items"))
    return values
