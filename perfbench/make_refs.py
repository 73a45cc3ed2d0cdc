"""Write the reference verdicts for every workload's whole band.

    python3 perfbench/make_refs.py [WORKLOAD ...]

Run from the root of a source checkout.  The rows are the program's own
output at the commit that generated them; the benchmark then requires every
later run to reproduce them.  Regenerate only when a change of verdict is
intended, and say which rows changed and why.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import workloads as wl


def band_argv(workload: wl.Workload) -> list[str]:
    lo, hi = workload.band
    return ["--primes", f"{lo}:{hi}", "--ids", ",".join(workload.ids),
            "--r-max", str(workload.r_max), *workload.extra, "--jobs", "2", "--no-timing"]


def main(names: list[str]) -> int:
    os.makedirs(wl.REFS, exist_ok=True)
    for name in names or list(wl.WORKLOADS):
        cmd, env = wl.verify_command(band_argv(wl.WORKLOADS[name]))
        proc = subprocess.run(cmd, env=env, cwd=wl.ROOT, capture_output=True, text=True)
        rows = wl.parse_report(proc.stdout)
        if proc.returncode != 0 or not rows or not all(row[6] is True for row in rows):
            print(f"error: {name}: verify exited {proc.returncode}; refusing to store "
                  f"references that do not all pass\n{proc.stderr}", file=sys.stderr)
            return 1
        with open(wl.ref_path(name), "w", encoding="utf-8") as handle:
            handle.writelines(json.dumps(list(row)) + "\n" for row in rows)
        print(f"{name}: {len(rows)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
