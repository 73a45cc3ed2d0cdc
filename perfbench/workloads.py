"""The benchmark's workloads, their seeded inputs and their reference verdicts.

A workload is a fixed `verify` invocation except for what the seed picks:
the order of the `--ids` list (the report must not depend on it) and, for the
prime sweeps, which window of consecutive primes inside the workload's band
is checked.  The references in refs/<workload>.jsonl cover the whole band,
so every seed's rows are checked.
"""

from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFS = os.path.join(HERE, "refs")

# The fields a report row is judged on.  `micros` and any field a later
# version adds are ignored, so new diagnostics do not read as failures.
ROW_KEYS = ("id", "p", "r", "modulus", "lhs", "rhs", "pass")


@dataclass(frozen=True)
class Workload:
    name: str
    ids: tuple[str, ...]
    r_max: int
    jobs: int
    band: tuple[int, int]          # inclusive range the references cover
    window: int = 0                # consecutive primes per run; 0 = the whole band
    extra: tuple[str, ...] = ()    # further fixed verify arguments

    def primes(self) -> list[int]:
        lo, hi = self.band
        return [n for n in range(max(lo, 5), hi + 1) if _is_prime(n)]

    def argv(self, seed: int, jobs: int | None = None) -> list[str]:
        """verify arguments for this seed; jobs overrides the workload's."""
        rng = random.Random(seed)
        lo, hi = self.band
        if self.window:
            primes = self.primes()
            offset = rng.randrange(len(primes) - self.window + 1)
            lo, hi = primes[offset], primes[offset + self.window - 1]
        ids = list(self.ids)
        rng.shuffle(ids)
        return ["--primes", f"{lo}:{hi}", "--ids", ",".join(ids), "--r-max", str(self.r_max),
                *self.extra, "--jobs", str(self.jobs if jobs is None else jobs), "--no-timing"]


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


PRIME_POWER_IDS = ("thm-prime-power", "guo-half-64", "guo-conj-full-64", "morley-power",
                   "lemma-3.2", "lemma-3.3", "central-2pr", "ps-1", "ps-2", "ps-3",
                   "neg-binom-unit")
EXACT_IDS = tuple(f"I{i}" for i in range(1, 13)) + (
    "wz-pair", "wz-half-sum", "wz-full-sum", "wz-closed-form")
WOLSTENHOLME_IDS = ("central-2p1p", "wolstenholme-h1", "wolstenholme-h2", "morley",
                    "two-power-half")

# Bands are narrow on purpose: verify takes one contiguous --primes range and
# the cost of a prime grows like p^2, so a window that could slide across a
# wide band would make the run time depend on the seed more than on the code.
# Each band is its window plus a few primes of slack.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("main-large-p", ("thm-main",), r_max=1, jobs=1, band=(2000, 2069), window=5),
        Workload("prime-power-r2", PRIME_POWER_IDS, r_max=2, jobs=2, band=(5, 43)),
        Workload("exact-certificates", EXACT_IDS, r_max=1, jobs=2, band=(5, 5),
                 extra=("--identities-n-max", "80", "--wz-grid", "40")),
        Workload("wolstenholme-sweep", WOLSTENHOLME_IDS, r_max=1, jobs=2, band=(5, 2819),
                 window=400),
    )
}

# A launch that does almost no work: interpreter start, imports, argument
# parsing and, with --jobs > 1, pool start (two primes make two tasks).
SETUP_ARGV = ["--primes", "5:7", "--ids", "two-power-half", "--r-max", "1", "--no-timing"]
SETUP_ROWS = 2


def program_env() -> dict[str, str]:
    """The environment in which `supercong` imports from the source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def verify_command(argv: list[str]) -> tuple[list[str], dict[str, str]]:
    """The command line and environment that run verify from the source tree."""
    return [sys.executable, "-m", "supercong.cli", *argv], program_env()


def ref_path(name: str) -> str:
    return os.path.join(REFS, f"{name}.jsonl")


def row_key(row: dict) -> tuple:
    return tuple(row.get(k) for k in ROW_KEYS)


def parse_report(text: str) -> list[tuple] | None:
    """Report rows as ROW_KEYS tuples; None when the text is not a jsonl report."""
    rows = []
    for line in text.splitlines():
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            return None
        if not isinstance(row, dict):
            return None
        rows.append(row_key(row))
    return rows


def load_refs(name: str) -> list[tuple]:
    with open(ref_path(name), encoding="utf-8") as handle:
        return [tuple(json.loads(line)) for line in handle if line.strip()]


def expected_rows(refs: list[tuple], argv: list[str]) -> list[tuple]:
    """The reference rows a run with these verify arguments must produce."""
    lo, hi = (int(x) for x in argv[argv.index("--primes") + 1].split(":"))
    ids = set(argv[argv.index("--ids") + 1].split(","))
    r_max = int(argv[argv.index("--r-max") + 1])
    return [row for row in refs
            if row[0] in ids and row[2] <= r_max and (row[1] == 0 or lo <= row[1] <= hi)]


def count_failed(expected: list[tuple], got: list[tuple] | None) -> int:
    """Rows that are wrong, missing, extra or not passing, at most len(expected).
    An unreadable report (None) fails every expected row."""
    if got is None:
        return len(expected)
    want = {row[:3]: row for row in expected}
    have: dict[tuple, tuple] = {}
    failed = 0
    for row in got:
        if row[:3] in have:
            failed += 1  # duplicate
        have[row[:3]] = row
    for key, row in want.items():
        if have.get(key) != row or row[6] is not True:
            failed += 1
    failed += sum(1 for key in have if key not in want)
    return min(failed, len(expected))
