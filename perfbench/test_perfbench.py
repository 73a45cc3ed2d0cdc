"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench
"""

import json
import os
import sys

import inproc
import spans
import workloads as wl
from run import TRACE_ONLY_METRICS, launch


def test_self_time_nested_and_sibling_spans():
    # root [0,100] holds a [10,40] (which holds c [20,30]) and sibling b [50,70]
    starts = [0, 10, 20, 50]
    ends = [100, 40, 30, 70]
    parents = [-1, 0, 1, 0]
    assert spans.self_times(starts, ends, parents) == [50, 20, 10, 20]
    assert sum(spans.self_times(starts, ends, parents)) == ends[0] - starts[0]


def test_self_time_counts_overlapping_children_once():
    # children [0,10] and [5,15] cover [0,15] of their parent [0,20]
    assert spans.self_times([0, 0, 5], [20, 10, 15], [-1, 0, 0])[0] == 5


def _expected(name):
    workload = wl.WORKLOADS[name]
    argv = workload.argv(seed=7)
    return argv, wl.expected_rows(wl.load_refs(name), argv)


def test_tampered_missing_and_extra_rows_are_failures():
    argv, expected = _expected("prime-power-r2")
    assert expected and wl.count_failed(expected, list(expected)) == 0
    tampered = list(expected)
    row = tampered[3]
    tampered[3] = row[:4] + (str(int(row[4]) + 1),) + row[5:]
    assert wl.count_failed(expected, tampered) == 1
    assert wl.count_failed(expected, expected[1:]) == 1
    assert wl.count_failed(expected, expected + [("ps-9", 5, 1, "5^1", "0", "0", True)]) == 1
    assert wl.count_failed(expected, None) == len(expected)


def test_report_rows_ignore_timing_and_new_fields():
    _, expected = _expected("main-large-p")
    row = dict(zip(wl.ROW_KEYS, expected[0]), micros=1234, diagnostic=None, excess=1)
    assert wl.parse_report(json.dumps(row) + "\n") == [expected[0]]
    assert wl.parse_report("not json\n") is None


def test_seed_picks_window_inside_band():
    workload = wl.WORKLOADS["wolstenholme-sweep"]
    primes = workload.primes()
    for seed in range(20):
        argv = workload.argv(seed)
        assert argv == workload.argv(seed)
        lo, hi = (int(x) for x in argv[argv.index("--primes") + 1].split(":"))
        assert primes.index(hi) - primes.index(lo) + 1 == workload.window


def test_traced_run_gives_the_untraced_verdicts():
    from supercong import combinat, congruences

    argv = ["--primes", "5:13", "--r-max", "2", "--identities-n-max", "6", "--wz-grid", "4",
            "--ids", "thm-main,lemma-3.3,ps-1,wolstenholme-h1,two-power-half,I3,I10,wz-pair",
            "--jobs", "1", "--no-timing"]
    original = combinat.binomial
    code, report, _ = inproc.run_verify(argv)
    tracer = spans.Tracer()
    traced_code, traced_report, wall_ns = inproc.run_verify(argv, tracer)
    assert (traced_code, traced_report) == (code, report) and code == 0
    assert combinat.binomial is original and congruences.binomial is original
    metrics = spans.layer_metrics(tracer, len(report))
    layers = [m for m in metrics if m.endswith(".self_s")] + ["trace.gap_s"]
    assert abs(sum(metrics[m] for m in layers) - wall_ns / 1e9) < 1e-6
    for layer in ("combinat", "special.modp", "special.exact", "wz", "identities",
                  "congruences.eval_series", "exactnum.reduce_mod"):
        assert metrics[layer + ".calls"] > 0


def test_timeout_kills_the_whole_process_group():
    # The child starts a grandchild, as a pool would; both hold stdout open,
    # so launch() returns only once the whole group is gone.
    script = ("import subprocess, sys, time; "
              "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)']); "
              "time.sleep(60)")
    result = launch([sys.executable, "-c", script], dict(os.environ), timeout=1.0)
    assert result.exit is None and not result.ok
    assert 1.0 <= result.wall_s < 20.0


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(wl.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    emitted = set(spans.layer_metrics(spans.Tracer(), 0)) | set(TRACE_ONLY_METRICS)
    assert {m["name"] for m in spec["per_layer"]} == emitted
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)
