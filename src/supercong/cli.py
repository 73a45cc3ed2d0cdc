"""Command-line driver: argument parsing, one call of the suite runner,
report emission.

    verify --primes LO:HI [--ids ID,ID,...|all] [--r-max N] [--wz-grid N]
           [--identities-n-max N] [--format jsonl|csv|table] [--jobs N|auto]
           [--out PATH] [--no-timing]

Exit codes: 0 all checks pass, 1 any check fails, 2 usage error or a
selection with no check to run, 3 I/O or internal arithmetic error.

Every row is a congruences.Verdict.  Congruence rows report both residues at
their modulus, at each odd prime the row is stated for (p = 2 is dropped
with a warning; p = 3 is kept for the rows stated at 3).  Identity and
grid-certificate rows are exact (no modulus); they report with p = 0, r = 0,
modulus "exact", lhs = number of failing points and rhs = "0".
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from dataclasses import dataclass

from . import congruences


@dataclass(frozen=True)
class RunConfig:
    primes: tuple[int, ...]
    r_max: int
    ids: tuple[str, ...]
    wz_grid: int
    identities_n_max: int
    fmt: str
    jobs: int
    out_path: str | None
    no_timing: bool


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Check binomial-sum congruences, identities and telescoping "
        "certificates over a range of primes, in exact arithmetic.",
    )
    parser.add_argument("--primes", required=True, metavar="LO:HI",
                        help="inclusive integer range; composites are skipped")
    parser.add_argument("--ids", default="all",
                        help="comma-separated congruence/identity ids, or 'all'")
    parser.add_argument("--r-max", type=int, default=2, dest="r_max",
                        help="cap on the power index r for p^r-indexed rows (default 2)")
    parser.add_argument("--wz-grid", type=int, default=50, dest="wz_grid",
                        help="depth of the certificate grid checks (default 50)")
    parser.add_argument("--identities-n-max", type=int, default=50, dest="identities_n_max",
                        help="upper n for identity range checks (default 50)")
    parser.add_argument("--format", choices=("jsonl", "csv", "table"), default="jsonl",
                        dest="fmt")
    parser.add_argument("--jobs", default="1", help="worker processes, or 'auto'")
    parser.add_argument("--out", default=None, dest="out_path", metavar="PATH")
    parser.add_argument("--no-timing", action="store_true", dest="no_timing",
                        help="emit micros as 0 so identical runs are byte-identical")
    return parser


def _primes_between(lo: int, hi: int) -> tuple[int, ...]:
    """The primes in [lo, hi]: a sieve of that window that crosses off the
    multiples of every d <= sqrt(hi) from d^2 on."""
    lo = max(lo, 2)
    if hi < lo:
        return ()
    window = bytearray([1]) * (hi - lo + 1)
    for d in range(2, math.isqrt(hi) + 1):
        first = max(d * d, -(-lo // d) * d)
        window[first - lo::d] = bytes(len(range(first, hi + 1, d)))
    return tuple(lo + i for i, flag in enumerate(window) if flag)


def parse_args(argv: list[str] | None = None) -> RunConfig:
    """Validated RunConfig; exits with code 2 on usage errors."""
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv and argv[0] == "verify":
        argv = argv[1:]
    parser = _build_parser()
    ns = parser.parse_args(argv)

    match = re.fullmatch(r"(-?\d+):(-?\d+)", ns.primes)
    if not match:
        parser.error(f"--primes expects LO:HI, got {ns.primes!r}")
    lo, hi = int(match.group(1)), int(match.group(2))
    if lo > hi:
        parser.error(f"empty prime range {lo}:{hi}")
    try:
        primes = _primes_between(lo, hi)
    except MemoryError:
        parser.error(f"prime range {lo}:{hi} is too wide to sieve")
    if primes[:1] == (2,):
        print("warning: skipping p = 2 (statements require odd p)", file=sys.stderr)
        primes = primes[1:]

    if ns.ids.strip() == "all":
        ids = congruences.all_ids()
    else:
        ids = tuple(tok.strip() for tok in ns.ids.split(",") if tok.strip())
        if not ids:
            parser.error("--ids must name at least one id")
        known = set(congruences.all_ids())
        for cid in ids:
            if cid not in known:
                parser.error(f"unknown id {cid!r}")

    if ns.r_max < 1:
        parser.error(f"--r-max must be positive, got {ns.r_max}")
    if ns.wz_grid < 1:
        parser.error(f"--wz-grid must be positive, got {ns.wz_grid}")
    if ns.identities_n_max < 1:
        parser.error(f"--identities-n-max must be positive, got {ns.identities_n_max}")

    if ns.jobs == "auto":
        jobs = congruences.usable_cpus()
    else:
        try:
            jobs = int(ns.jobs)
        except ValueError:
            parser.error(f"--jobs expects an integer or 'auto', got {ns.jobs!r}")
        if jobs < 1:
            parser.error(f"--jobs must be positive, got {jobs}")

    return RunConfig(
        primes=tuple(primes),
        r_max=ns.r_max,
        ids=ids,
        wz_grid=ns.wz_grid,
        identities_n_max=ns.identities_n_max,
        fmt=ns.fmt,
        jobs=jobs,
        out_path=ns.out_path,
        no_timing=ns.no_timing,
    )


def collect_records(config: RunConfig) -> list[congruences.Verdict]:
    """Every selected check of every family, in deterministic (id, p, r)
    order."""
    return congruences.run_suite(
        config.ids, config.primes, r_max=config.r_max, jobs=config.jobs,
        identities_n_max=config.identities_n_max, wz_grid=config.wz_grid)


_COLUMNS = ("id", "p", "r", "modulus", "lhs", "rhs", "pass", "micros")


def _render(records: list[dict], fmt: str) -> str:
    if fmt == "jsonl":
        return "".join(json.dumps(rec) + "\n" for rec in records)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_COLUMNS)
        for rec in records:
            writer.writerow(
                ["true" if rec[k] is True else "false" if rec[k] is False else
                 ("" if rec[k] is None else rec[k]) for k in _COLUMNS]
            )
        return buf.getvalue()
    # table
    cells = [[("ok" if rec[k] is True else "FAIL" if rec[k] is False else
               ("-" if rec[k] is None else str(rec[k]))) for k in _COLUMNS] for rec in records]
    widths = [max([len(k)] + [len(row[i]) for row in cells]) for i, k in enumerate(_COLUMNS)]
    lines = ["  ".join(k.ljust(widths[i]) for i, k in enumerate(_COLUMNS)).rstrip()]
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


def emit_report(rows: list, fmt: str, out_path: str | None = None,
                no_timing: bool = False) -> int:
    """Write one record per check; 0 when everything passed, 1 otherwise.
    I/O failures propagate as OSError (mapped to exit code 3 by main)."""
    records = [row.record(no_timing) for row in rows]
    text = _render(records, fmt)
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0 if all(rec["pass"] for rec in records) else 1


def main(argv: list[str] | None = None) -> int:
    config = parse_args(argv)
    try:
        rows = collect_records(config)
    except Exception as exc:  # internal arithmetic error
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if not rows:
        print("error: no selected id is stated for a prime in the --primes range",
              file=sys.stderr)
        return 2
    try:
        return emit_report(rows, config.fmt, config.out_path, config.no_timing)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
