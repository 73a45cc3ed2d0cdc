"""Benchmark of the `verify` CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a source checkout.  With --trace 0 the benchmark times
`verify` launches of the workload (each as its own process group, killed on
timeout) for S seconds and prints the end-to-end metrics.  With --trace 1 it
makes an untraced launch, an untraced in-process run and a traced in-process
run at --jobs 1, and prints the per-layer metrics.  Every report row is
checked against the stored reference verdicts.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

`--workload all` runs every workload once at --trace 0 and prints a table.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import workloads as wl

SETUP_PER_ROUND = 2
MIN_SAMPLES = 3
LAUNCH_TIMEOUT_S = 60.0
# Every run ends well inside the 180 s a run may take, whatever happens.
RUN_BUDGET_S = 165.0
SPANS_DIR = os.path.join(wl.ROOT, ".bench_build", "perfbench")
# Per-layer metrics taken from the untraced launches of a --trace 1 run.
TRACE_ONLY_METRICS = ("runner.cpu_s", "runner.idle_s", "trace.overhead_frac")


@dataclass
class Launch:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit: int | None      # None when the launch was killed at its timeout
    stdout: str

    @property
    def ok(self) -> bool:
        return self.exit == 0


def launch(cmd: list[str], env: dict[str, str], timeout: float) -> Launch:
    """Run cmd in its own process group; CPU and peak RSS come from wait4 on
    that child, so they cover its workers and no other process.  On timeout
    the whole group, pool workers included, is killed."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=wl.ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    chunks: list[bytes] = []
    reader = threading.Thread(target=lambda: chunks.append(proc.stdout.read()), daemon=True)
    reader.start()
    fired = threading.Event()

    def kill_group() -> None:
        fired.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(timeout, 0.0), kill_group)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:  # workers left behind by a crashed parent
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    reader.join()
    proc.stdout.close()
    return Launch(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        exit=None if fired.is_set() else proc.returncode,
        stdout=b"".join(chunks).decode("utf-8", "replace"),
    )


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Run:
    """One benchmark run: a hard deadline and the rows checked so far."""

    def __init__(self, workload: wl.Workload, seed: int, seconds: int) -> None:
        self.workload = workload
        self.seed = seed
        self.start = time.perf_counter()
        self.deadline = self.start + seconds
        self.hard_deadline = self.start + RUN_BUDGET_S
        self.refs = wl.load_refs(workload.name)
        self.attempted = 0
        self.failed = 0
        self.consistent = True

    def time_left(self) -> float:
        return min(LAUNCH_TIMEOUT_S, self.hard_deadline - time.perf_counter())

    def verify(self, argv: list[str]) -> Launch:
        """Launch verify and check its rows; a run killed at its timeout or
        exiting non-zero fails all of its rows."""
        result = launch(*wl.verify_command(argv), timeout=self.time_left())
        self.check(argv, result.stdout if result.ok else None)
        return result

    def check(self, argv: list[str], report: str | None) -> None:
        expected = wl.expected_rows(self.refs, argv)
        self.attempted += len(expected)
        self.failed += wl.count_failed(expected, None if report is None else wl.parse_report(report))

    def setup_launch(self) -> Launch:
        """A launch that does almost no work, with the workload's --jobs."""
        argv = wl.SETUP_ARGV + ["--jobs", str(self.workload.jobs)]
        result = launch(*wl.verify_command(argv), timeout=self.time_left())
        rows = wl.parse_report(result.stdout) if result.ok else None
        self.attempted += wl.SETUP_ROWS
        if rows is None or len(rows) != wl.SETUP_ROWS or not all(r[6] is True for r in rows):
            self.failed += wl.SETUP_ROWS
        return result

    def more(self, rounds: list[float], minimum: int = MIN_SAMPLES) -> bool:
        """Whether to start another round, given the durations of the rounds
        so far: past the minimum, only one that should end by the deadline."""
        now = time.perf_counter()
        if now >= self.hard_deadline - 1.0:
            return False
        return len(rounds) < minimum or now + statistics.median(rounds) <= self.deadline


def end_to_end(run: Run) -> dict[str, dict]:
    argv = run.workload.argv(run.seed)
    print(f"# {run.workload.name} seed {run.seed}: verify {' '.join(argv)}")
    launch(*wl.verify_command(wl.SETUP_ARGV), timeout=run.time_left())  # fill the bytecode cache
    setup: list[Launch] = []
    launches: list[Launch] = []
    rounds: list[float] = []
    # Set-up launches are spread over the run, between the workload's, so
    # that both sample the same stretches of machine load.
    while run.more(rounds):
        start = time.perf_counter()
        setup.extend(run.setup_launch() for _ in range(SETUP_PER_ROUND))
        launches.append(run.verify(argv))
        rounds.append(time.perf_counter() - start)
        if launches[-1].exit is None or setup[-1].exit is None:
            print("# a launch was killed at its timeout", file=sys.stderr)
            break
    series = {
        "wall_s": ("s", [x.wall_s for x in launches]),
        "setup_s": ("s", [x.wall_s for x in setup]),
        "peak_rss_mb": ("MB", [x.rss_mb for x in launches]),
    }
    metrics = {}
    for name, (unit, values) in series.items():
        q1, med, q3 = quartiles(values)
        print(f"# {name}: median {med:.4f} {unit}, quartiles {q1:.4f}..{q3:.4f}, n = {len(values)}")
        metrics[name] = {"value": med, "unit": unit}
    metrics["ok_frac"] = {"value": 1.0 - run.failed / run.attempted, "unit": "ratio"}
    return metrics


def _inproc(run: Run, argv: list[str], spans_path: str | None) -> dict | None:
    """One in-process run in a fresh interpreter; its rows are checked and
    its parsed output returned (None if it printed none)."""
    cmd = [sys.executable, os.path.join(wl.HERE, "inproc.py")]
    if spans_path:
        cmd += ["--trace-out", spans_path]
    result = launch(cmd + ["--", *argv], wl.program_env(), timeout=run.time_left())
    try:
        out = json.loads(result.stdout) if result.ok else None
    except json.JSONDecodeError:
        out = None
    run.check(argv, out["report"] if out and out["exit"] == 0 else None)
    return out


def per_layer(run: Run) -> dict[str, dict]:
    argv = run.workload.argv(run.seed)
    serial = run.workload.argv(run.seed, jobs=1)
    print(f"# {run.workload.name} seed {run.seed} traced: verify {' '.join(serial)}")
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans_path = os.path.join(SPANS_DIR, f"{run.workload.name}.spans.jsonl")
    results: list[dict[str, float]] = []
    rounds: list[float] = []
    while run.more(rounds, minimum=1):
        start = time.perf_counter()
        untraced = run.verify(argv)
        plain = _inproc(run, serial, None)
        traced = _inproc(run, serial, spans_path)
        if plain is None or traced is None:
            break
        if traced["report"] != plain["report"]:
            run.consistent = False  # tracing changed a verdict
        idle = run.workload.jobs * untraced.wall_s - untraced.cpu_s
        overhead = traced["wall_s"] / plain["wall_s"] - 1.0
        results.append({**traced["metrics"],
                        **dict(zip(TRACE_ONLY_METRICS, (untraced.cpu_s, idle, overhead)))})
        rounds.append(time.perf_counter() - start)
    if not results:
        return {}
    print(f"# {len(results)} traced round(s); spans of the last in {spans_path}")
    return {name: {"value": statistics.median(r[name] for r in results), "unit": unit_of(name)}
            for name in results[0]}


def unit_of(metric: str) -> str:
    if metric.endswith((".calls", ".count", ".spans")):
        return "count"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bits"):
        return "bit"
    if metric.endswith(".bytes"):
        return "B"
    return "ratio"


def summary(seed: int, seconds: int) -> int:
    """Every workload once, untraced, then a table of the results."""
    table = [f"{'workload':<20} {'wall_s':>10} {'setup_s':>9} {'peak_rss_mb':>12} {'failed_frac':>12}"]
    failed = 0
    for name, workload in wl.WORKLOADS.items():
        run = Run(workload, seed, seconds)
        m = end_to_end(run)
        failed += run.failed
        table.append(f"{name:<20} {m['wall_s']['value']:>8.3f} s {m['setup_s']['value']:>7.3f} s "
                     f"{m['peak_rss_mb']['value']:>9.1f} MB {run.failed / run.attempted:>12.4f}"
                     f"  ({run.failed}/{run.attempted} rows)")
    print("\n".join(table))
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the verify CLI.")
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(wl.SRC, "supercong", "cli.py")):
        print(f"error: no source tree at {wl.SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if ns.workload == "all":
        return summary(ns.seed, ns.seconds)
    run = Run(wl.WORKLOADS[ns.workload], ns.seed, ns.seconds)
    metrics = per_layer(run) if ns.trace else end_to_end(run)
    if not metrics:
        print("error: no traced run completed", file=sys.stderr)
        return 1
    correct = run.consistent and run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
