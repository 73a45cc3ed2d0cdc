"""One `verify` run inside this interpreter, with or without span tracing.

    python3 perfbench/inproc.py [--trace-out PATH] -- VERIFY_ARGS...

Prints one JSON object: the exit code, the report text and the wall time of
the run, plus the per-layer metrics when traced.  Callers start this in a
fresh interpreter so that the program's caches start cold on every run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time

import spans
from workloads import SRC

if SRC not in sys.path:
    sys.path.insert(0, SRC)


def run_verify(argv: list[str], tracer: spans.Tracer | None = None) -> tuple[int, str, int]:
    """(exit code, report text, wall ns) of `verify argv`, traced when a
    tracer is given."""
    from supercong import cli

    buf = io.StringIO()
    if tracer is None:
        start = time.perf_counter_ns()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue(), time.perf_counter_ns() - start
    root = len(tracer.starts)
    with spans.installed(tracer), contextlib.redirect_stdout(buf):
        with tracer.span(spans.ROOT_SPAN):
            code = cli.main(argv)
    return code, buf.getvalue(), tracer.ends[root] - tracer.starts[root]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", default=None,
                        help="trace the run and write its spans to this file")
    parser.add_argument("verify_args", nargs=argparse.REMAINDER)
    ns = parser.parse_args()
    argv = ns.verify_args[1:] if ns.verify_args[:1] == ["--"] else ns.verify_args
    tracer = spans.Tracer() if ns.trace_out else None
    code, report, wall_ns = run_verify(argv, tracer)
    out = {"exit": code, "report": report, "wall_s": wall_ns / 1e9}
    if tracer is not None:
        out["metrics"] = spans.layer_metrics(tracer, len(report.encode()))
        tracer.dump(ns.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
