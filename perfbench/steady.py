"""Steadiness check: two sets of runs of the same code, compared against the bounds.

Each set runs every workload ``RUNS_PER_SET`` times with ``--trace 0``,
each run with its own seed; the sets interleave workloads so that a slow
spell on the machine hits all of them. For every end-to-end metric and
workload it prints each set's median and quartiles, the spread (third
minus first quartile, as a share of the median) and the gap between the
two medians, each against the metric's bound in ``BENCHMARK.json``. A
metric passes when both spreads and the gap, in either direction, stay
within the bound. The share of failed operations must be the same in
both sets.
The raw results go to ``perfbench/out/steadiness-<time>.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
RUNS_PER_SET = 10


def run_once(workload: str, seed: int, seconds: float) -> dict | None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, cwd=HERE.parent, timeout=180,
    )
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  {workload} seed {seed}: exit {proc.returncode} "
              f"{proc.stderr.decode(errors='replace')[-300:]}", flush=True)
        return None
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and the quartile distance over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(bench: dict, seconds: float, first_seed: int = 1) -> int:
    workloads = list(WORKLOADS)
    runs = RUNS_PER_SET
    results: dict[str, dict[str, list[dict]]] = {s: {w: [] for w in workloads} for s in "AB"}
    seed = first_seed
    for set_name in "AB":
        for i in range(runs):
            order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
            for w in order:
                start = time.perf_counter()
                r = run_once(w, seed, seconds)
                print(f"set {set_name} run {i + 1}/{runs} {w} seed {seed}: "
                      f"{time.perf_counter() - start:.1f} s, "
                      + ("failed" if r is None else
                         " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())),
                      flush=True)
                if r is not None:
                    results[set_name][w].append(r)
                seed += 1

    ok = True
    print(f"\n{'workload':13} {'metric':15} {'set':3} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6} {'gap':>7}  verdict")
    for w in workloads:
        sets = [results[s][w] for s in "AB"]
        if any(len(rs) < 2 for rs in sets):
            print(f"{w}: too few successful runs to compare")
            ok = False
            continue
        shares = [Fraction(sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)) for rs in sets]
        if shares[0] != shares[1] or not all(r["correct"] for rs in sets for r in rs):
            print(f"{w}: failed shares {shares[0]} and {shares[1]}, or an output check failed")
            ok = False
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [spread([r["metrics"][name]["value"] for r in rs]) for rs in sets]
            gap = (stats[1][0] - stats[0][0]) / stats[0][0]
            for set_name, (med, q1, q3, sp) in zip("AB", stats):
                fine = abs(gap) <= bound and sp <= bound
                ok &= fine
                verdict = "ok" if fine else "OVER"
                if fine and sp > bound / 3:
                    verdict = "ok, spread above a third of the bound"
                print(f"{w:13} {name:15} {set_name:3} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                      f"{sp:7.2%} {bound:6.0%} {gap:+7.2%}  {verdict}")
            pooled = spread([r["metrics"][name]["value"] for rs in sets for r in rs])
            print(f"{w:13} {name:15} {'all':3} {pooled[0]:10.4f} {pooled[1]:10.4f} "
                  f"{pooled[2]:10.4f} {pooled[3]:7.2%}")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({"seconds": seconds, "runs": runs, "results": results}, indent=1))
    print(f"\n{'steady' if ok else 'NOT steady'}; raw results in {path.relative_to(HERE.parent)}")
    return 0 if ok else 1
