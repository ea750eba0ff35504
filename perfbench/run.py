"""End-to-end benchmark of the ``sockpath`` CLI.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload table-export --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload oracles --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --steadiness --seconds 30

With ``--trace 0`` each workload's commands run as fresh CLI processes
(``python3 -c "from sockpath.cli import run; run()" ...``, the body of the
installed ``sockpath`` script) against ``src/`` of the checkout, with one
worker. An untimed warm-up runs every command once at each size and
checks its output in full against ``oracle``. Then whole rounds run
until ``--seconds`` have passed; each round runs every command at the
smallest size and then at full size, and every output must be
byte-equal to the warm-up's. ``reference.py``, a fixed program, runs
between the commands, and every time is scaled by its speed at that
moment (see the README, *Calibration*). Every end-to-end metric is the
median over the rounds in which every command succeeded.

With ``--trace 1`` the per-layer metrics come from in-process calls into
each module (see ``layers.py``). ``--steadiness`` runs two sets of runs
and compares them against the bounds in ``BENCHMARK.json`` (see
``steady.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import typing
from dataclasses import dataclass
from pathlib import Path

import oracle
import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ENTRY = "from sockpath.cli import run; run()"
# A command running longer than this is killed and counted as failed.
COMMAND_TIMEOUT_S = 60.0
# Timings are reported in seconds of a machine on which reference.py
# takes this long to start up and again this long to compute; see the
# README, *Calibration*.
REFERENCE_S = 0.25


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def child_env(workers: int | None = None) -> dict:
    """Environment for a CLI process: the checkout's ``src`` first, one worker unless told.

    Other ``PYTHON*`` and ``SOCKPATH_*`` settings are dropped, so that
    stdout is buffered and bytecode is cached as for a user's shell, not
    as the caller's environment happens to say.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "SOCKPATH_"))}
    env["PYTHONPATH"] = str(SRC)
    if workers is not None:
        env["SOCKPATH_THREADS"] = str(workers)
    return env


@dataclass
class Sample:
    wall_s: float
    first_output_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    ok: bool
    digest: str
    stderr: bytes
    # stdout in an unnamed temporary file, kept only when asked for
    stdout: typing.BinaryIO | None


def invoke(argv: list[str], env: dict, keep: bool = False) -> Sample:
    """Run one program, read its stdout to the end and reap it with its rusage.

    Stdout is hashed as it streams in, so this process stays small: a
    child inherits the parent's peak RSS as the floor of its own
    ``ru_maxrss``, and that peak must stay below any child's.
    """
    digest = hashlib.sha256()
    kept = tempfile.TemporaryFile(dir=ROOT) if keep else None
    with tempfile.TemporaryFile(dir=ROOT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=err,
        )
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            first = None
            fd = proc.stdout.fileno()
            while chunk := os.read(fd, 1 << 16):
                if first is None:
                    first = time.perf_counter()
                digest.update(chunk)
                if kept:
                    kept.write(chunk)
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        stderr = err.read()
    return Sample(
        wall_s=end - start,
        first_output_s=(first or end) - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        returncode=proc.returncode,
        ok=proc.returncode == 0,
        digest=digest.hexdigest(),
        stderr=stderr,
        stdout=kept,
    )


def check_output(check: tuple[str, dict], out: typing.BinaryIO) -> list[str]:
    """Run a checker from ``workloads`` on a kept stdout, in its own process; see check.py."""
    out.seek(0)
    proc = subprocess.run(
        [sys.executable, str(HERE / "check.py"), json.dumps(check)],
        stdin=out, capture_output=True, cwd=ROOT, timeout=COMMAND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        return [f"checker exited {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}"]
    return json.loads(proc.stdout)


class Ledger:
    """Counts invocations and output checks, attempted and failed."""

    def __init__(self) -> None:
        self.invocations = 0
        self.invocations_failed = 0
        self.checks = 0
        self.checks_failed = 0
        self.problems: list[str] = []

    def invocation(self, label: str, ok: bool, detail: str = "") -> bool:
        self.invocations += 1
        if not ok:
            self.invocations_failed += 1
            self.problems.append(f"{label}: {detail}")
        return ok

    def check(self, label: str, problems: list[str]) -> None:
        self.checks += 1
        if problems:
            self.checks_failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def summary(self) -> str:
        return (f"invocations {self.invocations} ({self.invocations_failed} failed), "
                f"checks {self.checks} ({self.checks_failed} failed)")

    def result(self, metrics: dict) -> dict:
        return {
            "correct": self.checks_failed == 0,
            "attempted": self.invocations + self.checks,
            "failed": self.invocations_failed + self.checks_failed,
            "metrics": metrics,
        }


class OutputChecker:
    """Checks each command's first output in full; later ones must be byte-equal to it."""

    def __init__(self, ledger: Ledger, env: dict) -> None:
        self.ledger = ledger
        self.env = env
        self.first: dict[tuple, str] = {}

    def run(self, args: tuple, check: tuple[str, dict], env: dict | None = None) -> Sample:
        """Invoke ``args`` and account for the invocation and its output check."""
        label = " ".join(args)
        first = args not in self.first
        sample = invoke([sys.executable, "-c", ENTRY, *args], env or self.env, keep=first)
        if not self.ledger.invocation(
            label, sample.ok,
            f"exit code {sample.returncode}: {sample.stderr.decode(errors='replace')[-300:]}",
        ):
            # No output to check: the check fails too, so the run is not correct.
            self.ledger.check(label, ["command failed; output not checked"])
            if sample.stdout:
                sample.stdout.close()
            return sample
        if first:
            self.first[args] = sample.digest
            with sample.stdout:
                self.ledger.check(label, check_output(check, sample.stdout))
            sample.stdout = None
        elif self.first[args] != sample.digest:
            self.ledger.check(label, ["output differs from the first run of the same command"])
        else:
            self.ledger.check(label, [])
        return sample


@dataclass
class Speed:
    """Factors that turn measured times into reference seconds: one for the
    start-up part of a time and one for the rest."""

    start: float
    work: float

    def scale(self, t: float, startup: float) -> float:
        """Scale time ``t`` whose first ``startup`` seconds are start-up."""
        return min(t, startup) * self.start + max(t - startup, 0.0) * self.work


class Reference:
    """Runs ``reference.py`` as fresh processes and keeps the times of its two parts."""

    def __init__(self, env: dict) -> None:
        self.env = env
        self.digest = hashlib.sha256(f"{reference.work()}\n".encode()).hexdigest()
        # (start-up wall seconds, computation wall seconds) per run
        self.runs: list[tuple[float, float]] = []

    def __call__(self) -> None:
        sample = invoke([sys.executable, str(HERE / "reference.py")], self.env)
        if not sample.ok or sample.digest != self.digest:
            raise RuntimeError(f"reference.py failed (exit code {sample.returncode}): "
                               f"{sample.stderr.decode(errors='replace')[-300:]}")
        work = float(sample.stderr.split()[0])
        self.runs.append((sample.wall_s - work, work))

    def speed(self, i: int) -> Speed:
        """Speed between runs ``i`` and ``i + 1``: the median of each part over
        those two and the run on either side of them."""
        near = self.runs[max(i - 1, 0):i + 3]
        return Speed(*(REFERENCE_S / statistics.median(part) for part in zip(*near)))


def timed_run(workload: str, seed: int, seconds: float) -> tuple[Ledger, dict]:
    cmds = workloads.commands(workload, seed)
    ledger = Ledger()
    ledger.check("oracle self-check", oracle.self_check())
    checker = OutputChecker(ledger, child_env())
    ref = Reference(child_env())

    # Warm-up, not timed: fills bytecode caches and the page cache, and runs
    # the cold first call and the full oracle check of every output.
    ref()
    for c in cmds:
        checker.run(c.small, c.check_small)
        checker.run(c.args, c.check)

    # Whole rounds until --seconds: a round starts only if it is expected to
    # end nearer the deadline than the previous one did. A round runs, per
    # command, the small size, the full size and the reference, so that a
    # reference run precedes and follows every pair. A pass with a failed
    # command gives no sample.
    ref()
    rounds = []
    attempted = 0
    start = time.perf_counter()
    while not attempted or (time.perf_counter() - start) * (1 + 0.5 / attempted) < seconds:
        attempted += 1
        pairs = []
        for c in cmds:
            small = checker.run(c.small, c.check_small)
            full = checker.run(c.args, c.check)
            pairs.append((small, full, len(ref.runs) - 1))
            ref()
        if all(small.ok and full.ok for small, full, _ in pairs):
            rounds.append([(small, full, ref.speed(i)) for small, full, i in pairs])
    if not rounds:
        return ledger, {}

    # Worker-count independence: the same command with two workers, untimed.
    for c in cmds:
        if c.worker_check:
            checker.run(c.args, c.check, child_env(workers=2))

    # The small size's time is the start-up part of the full size's times.
    per_round = {
        "wall_s": [sum(k.scale(f.wall_s, s.wall_s) for s, f, k in r) for r in rounds],
        "first_output_s": [sum(k.scale(f.first_output_s, s.wall_s) for s, f, k in r)
                           for r in rounds],
        "cpu_s": [sum(k.scale(f.cpu_s, s.cpu_s) for s, f, k in r) for r in rounds],
        "peak_rss_mb": [max(f.rss_mb for _, f, _ in r) for r in rounds],
        "setup_s": [sum(k.scale(s.wall_s, s.wall_s) for s, _, k in r) for r in rounds],
    }
    unscaled = {
        "wall_s": [sum(f.wall_s for _, f, _ in r) for r in rounds],
        "first_output_s": [sum(f.first_output_s for _, f, _ in r) for r in rounds],
        "cpu_s": [sum(f.cpu_s for _, f, _ in r) for r in rounds],
        "setup_s": [sum(s.wall_s for s, _, _ in r) for r in rounds],
    }
    for i, c in enumerate(cmds):
        walls = [r[i][1].wall_s for r in rounds]
        print(f"{' '.join(c.args)}: median wall {statistics.median(walls):.3f} s "
              f"over {len(walls)} rounds, rss {rounds[0][i][1].rss_mb:.0f} MB")
    for name, part in zip(("start-up", "computation"), zip(*ref.runs)):
        print(f"reference {name}: median {statistics.median(part):.4f} s over {len(part)} runs, "
              f"range {min(part):.4f} to {max(part):.4f} s")
    for name, values in per_round.items():
        print(f"{name} per round: " + " ".join(f"{v:.4f}" for v in values))
    print("unscaled medians: " + ", ".join(
        f"{name} {statistics.median(v):.4f}" for name, v in unscaled.items()))
    return ledger, {name: statistics.median(v) for name, v in per_round.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true",
                    help="run two sets of runs and compare them against the bounds")
    args = ap.parse_args(argv)

    if not (SRC / "sockpath" / "__init__.py").is_file():
        print(f"perfbench: no sockpath sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    bench = spec()
    if args.steadiness:
        import steady
        return steady.main(bench, args.seconds, args.seed)
    if args.workload is None:
        ap.error("--workload is required")

    if args.trace:
        import layers
        ledger = Ledger()
        values = layers.traced_run(args.workload, args.seed, args.seconds, SRC, child_env(), ledger)
        wanted = bench["per_layer"]
    else:
        ledger, values = timed_run(args.workload, args.seed, args.seconds)
        wanted = bench["end_to_end"]
    for p in ledger.problems[:20]:
        print(f"PROBLEM {p}")
    print(ledger.summary())
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: no value measured for {', '.join(missing)}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps(ledger.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
