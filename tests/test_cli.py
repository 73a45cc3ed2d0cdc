import contextlib
import gc
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from supercong.cli import (_build_parser, _primes_between, collect_records, emit_report, main,
                           parse_args)
from supercong import congruences
from supercong.congruences import Verdict, all_ids, usable_cpus
from supercong.exactnum import is_prime

JSONL_KEYS = ["id", "p", "r", "modulus", "lhs", "rhs", "pass", "micros"]
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_ARGS = {
    "verify-5-13": ["verify", "--primes", "5:13", "--ids", "all", "--r-max", "2",
                    "--identities-n-max", "8", "--wz-grid", "6", "--no-timing"],
    "verify-3-61": ["verify", "--primes", "3:61", "--ids", "all", "--r-max", "1",
                    "--identities-n-max", "10", "--wz-grid", "6", "--no-timing"],
    "verify-3-23-r3": ["verify", "--primes", "3:23", "--r-max", "3", "--no-timing", "--ids",
                       "thm-prime-power,guo-half-64,guo-conj-full-64,morley-power,lemma-3.2,"
                       "lemma-3.3,central-2pr,ps-1,ps-2,ps-3,neg-binom-unit"],
}
GOLDEN_CASES = [pytest.param("verify-5-13", fmt, jobs, id=f"{fmt}-{jobs}")
                for jobs in ("1", "2") for fmt in ("jsonl", "csv", "table")]
GOLDEN_CASES.append(pytest.param("verify-3-61", "jsonl", "2", id="3-61-jsonl-2"))
GOLDEN_CASES.append(pytest.param("verify-3-23-r3", "jsonl", "2", id="3-23-r3-jsonl-2"))


class TestParseArgs:
    def test_full_sweep_config(self):
        cfg = parse_args(["verify", "--primes", "5:200", "--ids", "all", "--format", "jsonl"])
        assert cfg.primes[0] == 5 and cfg.primes[-1] == 199
        assert set(cfg.ids) == set(all_ids())
        assert cfg.fmt == "jsonl"

    def test_power_run_config(self):
        cfg = parse_args(["verify", "--primes", "5:50", "--ids", "thm-prime-power", "--r-max", "2"])
        assert cfg.ids == ("thm-prime-power",)
        assert cfg.r_max == 2
        assert cfg.primes == (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

    def test_empty_range_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["verify", "--primes", "4:3"])
        assert err.value.code == 2

    def test_bad_range_syntax(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["--primes", "5..9"])
        assert err.value.code == 2

    def test_unknown_id_rejected(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["--primes", "5:7", "--ids", "thm-main,bogus"])
        assert err.value.code == 2

    def test_small_primes_skipped_with_warning(self, capsys):
        # p = 3 stays: each row's applicability decides whether it is checked
        cfg = parse_args(["--primes", "2:11"])
        assert cfg.primes == (3, 5, 7, 11)
        warned = capsys.readouterr().err
        assert "p = 2" in warned and "odd p" in warned and "p = 3" not in warned

    def test_composites_silently_skipped(self, capsys):
        cfg = parse_args(["--primes", "8:10"])
        assert cfg.primes == ()
        assert capsys.readouterr().err == ""

    def test_jobs_auto(self):
        assert parse_args(["--primes", "5:7", "--jobs", "auto"]).jobs >= 1
        with pytest.raises(SystemExit):
            parse_args(["--primes", "5:7", "--jobs", "zero"])
        with pytest.raises(SystemExit):
            parse_args(["--primes", "5:7", "--jobs", "0"])

    def test_jobs_auto_counts_usable_cpus(self, monkeypatch):
        # the CPUs this process may run on, not every CPU of the machine
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert parse_args(["--primes", "5:7", "--jobs", "auto"]).jobs == 3

    def test_prime_window_is_sieved_not_trial_divided(self):
        before = is_prime.cache_info()
        parse_args(["--primes", "5:20000"])
        after = is_prime.cache_info()
        assert after.hits + after.misses == before.hits + before.misses

    @pytest.mark.parametrize("lo, hi", [(0, 30), (-40, 12), (9973, 9973), (24, 28),
                                        (999_000, 1_000_100)])
    def test_sieve_matches_trial_division(self, lo, hi):
        assert _primes_between(lo, hi) == tuple(n for n in range(lo, hi + 1) if is_prime(n))

    def test_leading_program_word_optional(self):
        with_word = parse_args(["verify", "--primes", "5:7"])
        without = parse_args(["--primes", "5:7"])
        assert with_word == without

    def test_parsed_namespace_is_the_run(self):
        # each option is checked where it is declared: no second copy of the run
        argv = ["--primes", "5:31", "--ids", "thm-main,I1", "--r-max", "3", "--jobs", "2"]
        assert parse_args(argv) == _build_parser().parse_args(argv)

    @pytest.mark.parametrize("option, value, named", [
        ("--r-max", "0", "0"), ("--wz-grid", "0", "0"), ("--identities-n-max", "0", "0"),
        ("--ids", ",", "','"), ("--ids", "thm-main,bogus", "'bogus'"),
        ("--jobs", "0", "0"), ("--jobs", "zero", "'zero'"),
        ("--primes", "5..9", "'5..9'"), ("--primes", "4:3", "4:3"),
    ])
    def test_bad_value_is_a_usage_error_naming_it(self, option, value, named, capsys):
        argv = [option, value] if option == "--primes" else ["--primes", "5:7", option, value]
        with pytest.raises(SystemExit) as err:
            parse_args(argv)
        assert err.value.code == 2
        message = capsys.readouterr().err.splitlines()[-1]
        assert f"argument {option}:" in message and message.endswith(named)


class TestEmitReport:
    def _records(self):
        cfg = parse_args(["--primes", "5:7", "--ids", "thm-main,vanhamme", "--no-timing"])
        return collect_records(cfg)

    def test_jsonl_schema(self, capsys):
        rows = self._records()
        code = emit_report(rows, "jsonl", None, no_timing=True)
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        for line in lines:
            rec = json.loads(line)
            assert list(rec) == JSONL_KEYS
            assert isinstance(rec["lhs"], str) and rec["lhs"].isdigit()
            assert rec["micros"] == 0

    def test_csv_mirrors_jsonl_keys(self, capsys):
        emit_report(self._records(), "csv", None, no_timing=True)
        out = capsys.readouterr().out.splitlines()
        assert out[0] == ",".join(JSONL_KEYS)
        assert out[1].startswith("thm-main,5,1,5^4,255,255,true,0")

    def test_table_format(self, capsys):
        emit_report(self._records(), "table", None, no_timing=True)
        out = capsys.readouterr().out.splitlines()
        assert out[0].split() == JSONL_KEYS
        assert all("ok" in line for line in out[1:])

    def test_writes_file(self, tmp_path):
        target = tmp_path / "report.jsonl"
        code = emit_report(self._records(), "jsonl", str(target), no_timing=True)
        assert code == 0
        assert len(target.read_text().splitlines()) == 4

    def test_failure_sets_exit_one(self, capsys):
        rows = self._records()
        failing = Verdict("synthetic", 5, 1, 1, 2, 1, 0)
        assert emit_report(rows + [failing], "jsonl", None, True) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert json.loads(lines[-1])["pass"] is False

    @pytest.mark.parametrize("no_timing", [True, False])
    def test_jsonl_line_is_the_record_dumped(self, no_timing, tmp_path):
        # each line is formatted from the verdict's fields; json.dumps of its
        # record is the oracle, byte for byte
        shapes = [
            Verdict("thm-main", 5, 1, 255, 255, 4, 1234),
            Verdict("morley", 7, 1, 6, 5, 3, 17),
            Verdict("thm-main", 5, 1, None, None, 4, 0,
                    'a "quoted" p \\ in Z/p^e: \u00e9t\u00e9 \u2260 \U0001d4ab, tab\t'),
            Verdict("I3", 0, 0, 2, 0, None, 987654),
            Verdict("thm-prime-power", 5, 9, 5**11 - 1, 1953125, 11, 5),
        ]
        for rows in [[v] for v in shapes] + [shapes]:
            target = tmp_path / "report.jsonl"
            emit_report(rows, "jsonl", str(target), no_timing=no_timing)
            want = "".join(json.dumps(v.record(no_timing)) + "\n" for v in rows)
            assert target.read_bytes() == want.encode("utf-8"), rows

    def test_failed_row_states_its_diagnostic(self, capsys, monkeypatch):
        # t_n = 1/p^n: thm-main fails in evaluation, and the row says why
        from supercong import congruences as cong

        monkeypatch.setitem(cong._SERIES, "S8-half",
                            cong._Series(cong._cubes("S8", (3, 1), 2, (1, 0, 5)), lambda q: 2))
        rows = self._records()
        assert emit_report(rows, "jsonl", None, no_timing=True) == 1
        recs = {(rec["id"], rec["p"]): rec
                for rec in map(json.loads, capsys.readouterr().out.splitlines())}
        at5 = recs.pop(("thm-main", 5))
        assert at5["pass"] is False and at5["lhs"] is None
        assert list(at5) == JSONL_KEYS + ["diagnostic"]
        assert "denominator" in at5["diagnostic"]
        # at p = 7 the series evaluates and merely disagrees: no diagnostic
        assert recs[("thm-main", 7)]["pass"] is False
        assert all(list(rec) == JSONL_KEYS for rec in recs.values())


class TestMain:
    def test_exit_zero_and_output(self, capsys):
        code = main(["--primes", "5:13", "--ids", "morley,I1,wz-half-sum",
                     "--format", "jsonl", "--no-timing"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        ids = [json.loads(line)["id"] for line in lines]
        assert ids == sorted(ids)
        assert "I1" in ids and "wz-half-sum" in ids and ids.count("morley") == 4

    def test_identity_and_wz_rows_use_exact_modulus(self, capsys):
        main(["--primes", "5:5", "--ids", "I2,wz-pair", "--wz-grid", "3",
              "--identities-n-max", "4", "--no-timing"])
        for line in capsys.readouterr().out.strip().splitlines():
            rec = json.loads(line)
            assert rec["modulus"] == "exact"
            assert rec["p"] == 0 and rec["r"] == 0
            assert rec["lhs"] == "0" and rec["rhs"] == "0" and rec["pass"] is True

    def test_rows_stated_for_p3_are_reported(self, capsys):
        assert main(["--primes", "3:5", "--ids", "thm-main,vanhamme,long-cxh-512",
                     "--no-timing"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [(rec["id"], rec["p"]) for rec in rows] == [
            ("long-cxh-512", 3), ("long-cxh-512", 5), ("thm-main", 5),
            ("vanhamme", 3), ("vanhamme", 5)]

    def test_repeated_ids_reported_once(self, capsys):
        assert main(["--primes", "5:7", "--ids", "morley,I1,morley,I1",
                     "--identities-n-max", "3", "--no-timing"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [(rec["id"], rec["p"], rec["r"]) for rec in rows] == [
            ("I1", 0, 0), ("morley", 5, 1), ("morley", 7, 1)]
        with pytest.raises(SystemExit) as err:
            main(["--primes", "5:7", "--ids", "morley,morley,bogus"])
        assert err.value.code == 2

    def test_empty_selection_is_a_usage_error(self, capsys):
        # no row to check must not read as "every check passed"
        for primes in ("8:10", "3:3"):
            assert main(["--primes", primes, "--ids", "thm-main", "--no-timing"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "no selected id is stated for a prime" in captured.err

    def test_range_too_wide_to_sieve_is_a_usage_error(self, capsys, monkeypatch):
        # exit 1 would read as "a check failed"; the sieve is stubbed, nothing is allocated
        def out_of_memory(lo, hi):
            raise MemoryError

        monkeypatch.setattr("supercong.cli._primes_between", out_of_memory)
        with pytest.raises(SystemExit) as err:
            main(["--primes", "5:10000000000000", "--ids", "morley"])
        assert err.value.code == 2
        assert "5:10000000000000" in capsys.readouterr().err

    def test_sieve_out_of_memory_within_its_bound_is_a_usage_error(self, capsys, monkeypatch):
        def out_of_memory(lo, hi):
            raise MemoryError

        monkeypatch.setattr("supercong.cli._primes_between", out_of_memory)
        with pytest.raises(SystemExit) as err:
            main(["--primes", "5:9000000", "--ids", "morley"])
        assert err.value.code == 2
        assert "prime range 5:9000000 is too wide to sieve" in capsys.readouterr().err

    @pytest.mark.parametrize("window", ["5:30000000", "1000000000000000003:1000000000000000003"],
                             ids=["wide", "one-huge-number"])
    def test_sieve_past_its_bound_is_refused_at_once(self, window, capsys, monkeypatch):
        # a window of 3e7 numbers, and one number whose divisors up to its
        # square root number 1e9: each is a usage error before the sieve runs
        def sieve(lo, hi):
            raise AssertionError("the sieve ran")

        monkeypatch.setattr("supercong.cli._primes_between", sieve)
        start = time.perf_counter()
        with pytest.raises(SystemExit) as err:
            parse_args(["--primes", window])
        assert time.perf_counter() - start < 0.1
        assert err.value.code == 2
        message = capsys.readouterr().err.splitlines()[-1]
        assert message.startswith("verify: error: argument --primes:") and window in message

    def test_sieve_bound_admits_the_largest_documented_window(self, monkeypatch):
        # 5:3000000, the largest window the windowed rows are run on
        monkeypatch.setattr("supercong.cli._primes_between", lambda lo, hi: (lo, hi))
        assert parse_args(["--primes", "5:3000000"]).primes == (5, 3000000)

    def test_unwritable_out_path_exits_three(self, capsys, tmp_path):
        code = main(["--primes", "5:5", "--ids", "morley",
                     "--out", str(tmp_path / "missing-dir" / "x.jsonl")])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_byte_identical_reruns_without_timing(self, tmp_path):
        args = ["--primes", "5:31", "--ids", "thm-main,vanhamme,I1,I10,wz-pair",
                "--wz-grid", "10", "--identities-n-max", "10",
                "--format", "jsonl", "--no-timing"]
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_interrupt_exits_130_without_traceback(self, capsys, monkeypatch):
        def interrupted(config):
            raise KeyboardInterrupt

        monkeypatch.setattr("supercong.cli.collect_records", interrupted)
        assert main(["--primes", "5:7", "--ids", "morley"]) == 130
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: interrupted\n"

    def test_timing_field_populated_without_flag(self, capsys):
        main(["--primes", "5:5", "--ids", "thm-main"])
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["micros"] >= 0


@pytest.mark.parametrize("argv, code, rows", [
    (["--primes", "5:7", "--ids", "two-power-half", "--r-max", "1", "--no-timing"], 0, 2),
    (["--primes", "5:7", "--r-max", "0"], 2, 0),
])
def test_module_entry_point_exit_codes(argv, code, rows):
    # the program as a process: `python -m supercong.cli` from the source tree
    done = subprocess.run([sys.executable, "-m", "supercong.cli", *argv], env=source_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == code
    assert len(done.stdout.splitlines()) == rows
    assert all(json.loads(line)["pass"] for line in done.stdout.splitlines())


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_reader_that_closes_early_is_an_io_error(unbuffered):
    # a report of about 130 kB, more than a pipe holds, to a reader that takes
    # 10 bytes and closes: exit 3 with one error line, whether stdout is
    # unbuffered (PYTHONUNBUFFERED, whose raw file writes short) or buffered
    env = source_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "supercong.cli", "--primes", "5:10000",
                             "--ids", "two-power-half", "--no-timing"],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(10)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, head, err) == (3, b'{"id": "tw', b"error: [Errno 32] Broken pipe\n")


def test_only_the_command_freezes_the_heap(capsys, tmp_path):
    # main() in this process leaves the collector as it was; the verify
    # command (cli.script) freezes the heap once main() has returned
    assert main(["--primes", "5:7", "--ids", "two-power-half", "--no-timing"]) == 0
    assert gc.get_freeze_count() == 0
    script = ("import gc, sys\nfrom supercong.cli import script\n"
              "sys.argv[1:] = ['--primes', '5:7', '--ids', 'two-power-half', '--out', sys.argv[1]]\n"
              "code = script()\nprint(code, gc.get_freeze_count() > 0)")
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "report")], env=source_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.stdout == "0 True\n", done.stderr


def source_env() -> dict[str, str]:
    """The environment with this source tree's src first on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# The modules a launch of `verify` has loaded when main returns, and its exit
# code; the break-even is 0, so --jobs 2 forks.
LOADED_BY_LAUNCH = ("import sys\nfrom supercong import congruences\nfrom supercong.cli import main\n"
                    "congruences._BREAK_EVEN = 0\n"
                    "code = main(sys.argv[1:])\nloaded = sorted(sys.modules)\n"
                    "import json\nprint(json.dumps([code, loaded]))")


def _loaded(argv: list[str], tmp_path) -> set[str]:
    done = subprocess.run([sys.executable, "-c", LOADED_BY_LAUNCH, *argv, "--no-timing",
                           "--out", str(tmp_path / "report")],
                          env=source_env(), capture_output=True, text=True, timeout=120)
    code, modules = json.loads(done.stdout)
    assert code == 0, done.stderr
    return set(modules)


def test_launch_loads_no_pool_library(tmp_path):
    # A pooled launch forks its workers itself, so no launch pays for
    # importing concurrent.futures or multiprocessing, and a serial one
    # loads not even pickle.
    loaded = {jobs: _loaded(["--primes", "5:7", "--ids", "two-power-half", "--r-max", "1", "--jobs", jobs],
                            tmp_path)
              for jobs in ("1", "2")}
    for modules in loaded.values():
        assert not {"concurrent.futures", "multiprocessing"} & modules
    assert "pickle" not in loaded["1"]
    if usable_cpus() > 1:  # the launch at --jobs 2 did fork, and so loaded pickle
        assert "pickle" in loaded["2"]


EXACT_FAMILIES = {"supercong.identities", "supercong.wz"}
UNUSED_LIBRARIES = {"fractions", "decimal", "csv", "json"}


@pytest.mark.parametrize("ids", ["two-power-half", "thm-main"])
def test_congruence_launch_loads_only_what_its_checks_run(ids, tmp_path):
    # no exact family, no Fraction, and neither csv nor json for a jsonl
    # report with no diagnostic
    loaded = _loaded(["--primes", "5:13", "--ids", ids, "--r-max", "1"], tmp_path)
    assert not (EXACT_FAMILIES | UNUSED_LIBRARIES) & loaded


@pytest.mark.parametrize("argv, needed", [
    (["--ids", "I1"], {"supercong.identities"}),
    (["--ids", "all", "--identities-n-max", "4", "--wz-grid", "3"], EXACT_FAMILIES | {"fractions"}),
    (["--ids", "two-power-half", "--format", "csv"], {"csv"}),
], ids=["identity", "all", "csv"])
def test_launch_loads_what_its_checks_need(argv, needed, tmp_path):
    assert needed <= _loaded(["--primes", "5:7", "--r-max", "1", *argv], tmp_path)


def test_ids_need_no_json_quoting():
    # the jsonl report quotes each id as it stands
    assert all(json.dumps(cid) == f'"{cid}"' for cid in all_ids())


def test_sigterm_exits_143_and_leaves_no_process():
    # SIGTERM, as `timeout` sends it, to a launch whose workers are busy: exit
    # 143 with one error line, and its process group empty within 1 s
    # (each worker says busy in one write, which a pipe keeps whole); the
    # break-even is 0, so the launch forks
    script = ("import dataclasses, os, sys, time\n"
              "from supercong import congruences\n"
              "from supercong.cli import main\n"
              "congruences._BREAK_EVEN = 0\n"
              "row = congruences.REGISTRY['two-power-half']\n"
              "def busy(p, r, e, table=None):\n"
              "    os.write(2, b'busy\\n')\n"
              "    time.sleep(30)\n"
              "congruences.REGISTRY[row.id] = dataclasses.replace(row, pairs=busy)\n"
              "sys.exit(main(sys.argv[1:]))\n")
    argv = ["--primes", "5:60", "--ids", "two-power-half", "--jobs", "2"]
    proc = subprocess.Popen([sys.executable, "-c", script, *argv], env=source_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        assert proc.stderr.readline() == "busy\n"
        proc.send_signal(signal.SIGTERM)
        signalled = time.perf_counter()
        out, err = proc.communicate(timeout=30)
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
        assert time.perf_counter() - signalled < 1.0
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    assert proc.returncode == 143
    assert out == ""
    assert err.replace("busy\n", "") == "error: terminated\n"


@pytest.mark.parametrize("golden, fmt, jobs", GOLDEN_CASES)
def test_report_matches_golden(golden, fmt, jobs, tmp_path, monkeypatch):
    # The report is the behaviour contract: every family, every format, and
    # serial or pooled runs give the bytes stored in tests/golden.  With the
    # break-even at 0, --jobs 2 runs in the pool.
    monkeypatch.setattr(congruences, "_BREAK_EVEN", 0)
    out = tmp_path / f"report.{fmt}"
    argv = GOLDEN_ARGS[golden] + ["--format", fmt, "--jobs", jobs, "--out", str(out)]
    assert main(argv) == 0
    with open(os.path.join(GOLDEN, f"{golden}.{fmt}"), "rb") as handle:
        assert out.read_bytes() == handle.read()
