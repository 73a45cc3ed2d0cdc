"""Command-line driver: argument parsing, one call of the suite runner,
report emission.

    verify --primes LO:HI [--ids ID,ID,...|all] [--r-max N] [--wz-grid N]
           [--identities-n-max N] [--format jsonl|csv|table] [--jobs N|auto]
           [--out PATH] [--no-timing]

--jobs N allows at most N worker processes; a sweep below the break-even
(congruences._BREAK_EVEN, in estimated fold steps) runs in this process.

Exit codes: 0 all checks pass, 1 any check fails, 2 usage error or a
selection with no check to run, 3 I/O or internal arithmetic error, 130
interrupted (Ctrl-C), 143 terminated (SIGTERM, as `timeout` sends).  An
interrupted or terminated run leaves no worker process behind.

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
import signal
import sys

from . import congruences


def _positive(text: str, expects: str = "a positive integer") -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects {expects}, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _jobs(text: str) -> int:
    return congruences.usable_cpus() if text == "auto" else _positive(text, "an integer or 'auto'")


def _id_list(text: str) -> tuple[str, ...]:
    known = congruences.all_ids()
    if text.strip() == "all":
        return known
    ids = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    if not ids:
        raise argparse.ArgumentTypeError(f"must name at least one id, got {text!r}")
    for cid in ids:
        if cid not in known:
            raise argparse.ArgumentTypeError(f"unknown id {cid!r}")
    return ids


# The most work a --primes sieve may take, in steps: one per number of the
# window and one per divisor up to sqrt(hi) (_primes_between).  A larger
# window is a usage error before anything is allocated.  Measured in
# parse_args (2 vCPUs, Python 3.11.7): 5:3000000 took 0.2 s and 28 MB, and
# 5:9990000, just below the bound, 0.7 s and 53 MB; 5:30000000 took 1.9 s and
# 122 MB, and the one-number window at 10^18 would take about 17 minutes.
_SIEVE_STEPS = 10_000_000


def _prime_window(text: str) -> tuple[int, ...]:
    match = re.fullmatch(r"(-?\d+):(-?\d+)", text)
    if not match:
        raise argparse.ArgumentTypeError(f"expects LO:HI, got {text!r}")
    lo, hi = int(match.group(1)), int(match.group(2))
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty prime range {lo}:{hi}")
    if hi - max(lo, 2) + 1 + math.isqrt(max(hi, 0)) > _SIEVE_STEPS:
        raise argparse.ArgumentTypeError(f"prime range {lo}:{hi} takes more than {_SIEVE_STEPS} steps to sieve")
    try:
        return _primes_between(lo, hi)
    except MemoryError:
        raise argparse.ArgumentTypeError(f"prime range {lo}:{hi} is too wide to sieve") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Check binomial-sum congruences, identities and telescoping "
        "certificates over a range of primes, in exact arithmetic.",
    )
    parser.add_argument("--primes", type=_prime_window, required=True, metavar="LO:HI",
                        help="inclusive integer range; composites are skipped")
    parser.add_argument("--ids", type=_id_list, default="all",
                        help="comma-separated congruence/identity ids, or 'all'")
    parser.add_argument("--r-max", type=_positive, default=2, dest="r_max",
                        help="cap on the power index r for p^r-indexed rows (default 2)")
    parser.add_argument("--wz-grid", type=_positive, default=50, dest="wz_grid",
                        help="depth of the certificate grid checks (default 50)")
    parser.add_argument("--identities-n-max", type=_positive, default=50, dest="identities_n_max",
                        help="upper n for identity range checks (default 50)")
    parser.add_argument("--format", choices=("jsonl", "csv", "table"), default="jsonl",
                        dest="fmt")
    parser.add_argument("--jobs", type=_jobs, default="1",
                        help="at most JOBS worker processes, or 'auto'; a sweep below the "
                        "break-even runs in this process")
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


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The run as parsed and checked; exits with code 2 on usage errors."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["verify"]:
        argv = argv[1:]
    config = _build_parser().parse_args(argv)
    if config.primes[:1] == (2,):
        print("warning: skipping p = 2 (statements require odd p)", file=sys.stderr)
        config.primes = config.primes[1:]
    return config


def collect_records(config: argparse.Namespace) -> list[congruences.Verdict]:
    """Every selected check of every family, in deterministic (id, p, r)
    order."""
    return congruences.run_suite(
        config.ids, config.primes, r_max=config.r_max, jobs=config.jobs,
        identities_n_max=config.identities_n_max, wz_grid=config.wz_grid)


_COLUMNS = ("id", "p", "r", "modulus", "lhs", "rhs", "pass", "micros")


def _cells(records: list[dict], yes: str, no: str, missing: str) -> list[list[str]]:
    """The header, then each record as strings, its flags and absent values spelled out."""
    return [list(_COLUMNS)] + [[yes if rec[k] is True else no if rec[k] is False else
                                missing if rec[k] is None else str(rec[k]) for k in _COLUMNS]
                               for rec in records]


# One jsonl line: json.dumps(v.record(no_timing)) + "\n", byte for byte, with
# the string fields (id, diagnostic) quoted by json.dumps
_JSONL = '{"id": %s, "p": %d, "r": %d, "modulus": %s, "lhs": %s, "rhs": %s, "pass": %s, "micros": %d%s}\n'


def _jsonl(rows: list[congruences.Verdict], no_timing: bool) -> str:
    quoted = {cid: json.dumps(cid) for cid in {v.id for v in rows}}
    lines = []
    for v in rows:
        cid, p, r, lhs, rhs, e, micros, diagnostic = v
        lines.append(_JSONL % (quoted[cid], p, r, '"exact"' if e is None else f'"{p}^{e}"',
                               "null" if lhs is None else f'"{lhs}"', "null" if rhs is None else f'"{rhs}"',
                               "true" if v.passed else "false", 0 if no_timing else micros,
                               "" if diagnostic is None else ', "diagnostic": ' + json.dumps(diagnostic)))
    return "".join(lines)


def _render(rows: list[congruences.Verdict], fmt: str, no_timing: bool) -> str:
    if fmt == "jsonl":
        return _jsonl(rows, no_timing)
    records = [row.record(no_timing) for row in rows]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(_cells(records, "true", "false", ""))
        return buf.getvalue()
    cells = _cells(records, "ok", "FAIL", "-")
    widths = [max(map(len, column)) for column in zip(*cells)]
    return "".join("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() + "\n"
                   for row in cells)


def emit_report(rows: list[congruences.Verdict], fmt: str, out_path: str | None = None,
                no_timing: bool = False) -> int:
    """Write one line per check; 0 when everything passed, 1 otherwise.
    I/O failures propagate as OSError (mapped to exit code 3 by main)."""
    text = _render(rows, fmt, no_timing)
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0 if all(row.passed for row in rows) else 1


class _Terminated(BaseException):
    """SIGTERM arrived; raised like KeyboardInterrupt, past every `except Exception`."""


def _terminate(signum, frame):
    raise _Terminated


def main(argv: list[str] | None = None) -> int:
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
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
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except _Terminated:
        print("error: terminated", file=sys.stderr)
        return 143
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
