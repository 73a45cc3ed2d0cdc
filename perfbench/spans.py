"""In-memory span tracing of calls into the `supercong` modules.

A `Tracer` records one span per wrapped call: a name, a start, an end (both
`perf_counter_ns`) and the index of the enclosing span (-1 for none).  Spans
live in flat arrays until the run ends.  `installed(tracer)` rebinds every
traced public name in its defining module and in every `supercong` module
that imported it by name, wraps the registry specs' `pairs`/`check` fields,
and restores all of it on exit.

`layer_metrics` turns the spans and the counters recorded at the same call
boundaries into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import statistics
import sys
import time
from array import array
from contextlib import contextmanager
from fractions import Fraction

# (module, public function, span name).  GROUP_OF below is the one place that
# maps span names onto the layers the metrics report.
TRACED_FUNCTIONS = (
    ("combinat", "binomial", "combinat.binomial"),
    ("combinat", "binomial_rational", "combinat.binomial_rational"),
    ("combinat", "factorial", "combinat.factorial"),
    ("combinat", "recip_factorial", "combinat.recip_factorial"),
    ("combinat", "pochhammer", "combinat.pochhammer"),
    ("combinat", "harmonic", "combinat.harmonic"),
    ("combinat", "frac_part", "combinat.frac_part"),
    ("special", "bernoulli_table_mod_p", "special.bernoulli_table_mod_p"),
    ("special", "bernoulli_poly_mod_p", "special.bernoulli_poly_mod_p"),
    ("special", "euler_poly_mod_p", "special.euler_poly_mod_p"),
    ("special", "euler_number_mod_p", "special.euler_number_mod_p"),
    ("special", "fermat_quotient2", "special.fermat_quotient2"),
    ("special", "legendre_symbol", "special.legendre_symbol"),
    ("special", "bernoulli_exact", "special.bernoulli_exact"),
    ("special", "bernoulli_poly_exact", "special.bernoulli_poly_exact"),
    ("congruences", "eval_series", "congruences.eval_series"),
    ("congruences", "check_congruence", "congruences.check"),
    ("congruences", "run_suite", "congruences.run_suite"),
    ("exactnum", "reduce_mod", "exactnum.reduce_mod"),
    ("exactnum", "padic_valuation", "exactnum.padic_valuation"),
    ("wz", "eval_f", "wz.eval_f"),
    ("wz", "eval_g", "wz.eval_g"),
    ("wz", "check_pair_identity", "wz.check_pair_identity"),
    ("wz", "telescope_half_sum", "wz.telescope_half_sum"),
    ("wz", "telescope_full_sum", "wz.telescope_full_sum"),
    ("wz", "upper_tail_vanishes", "wz.upper_tail_vanishes"),
    ("wz", "closed_form_g", "wz.closed_form_g"),
    ("identities", "check_identity", "identities.check_identity"),
    ("identities", "check_identity_range", "identities.check_identity_range"),
    ("cli", "collect_records", "cli.collect_records"),
    ("cli", "emit_report", "cli.emit_report"),
)
PAIRS_SPAN = "congruences.pairs"
IDENTITY_CHECK_SPAN = "identities.check"
ROOT_SPAN = "run"

_SPECIAL_MODP = ("bernoulli_table_mod_p", "bernoulli_poly_mod_p", "euler_poly_mod_p",
                 "euler_number_mod_p", "fermat_quotient2", "legendre_symbol")


def _group(span_name: str) -> str:
    module, _, func = span_name.partition(".")
    if module == "special":
        return "special.modp" if func in _SPECIAL_MODP else "special.exact"
    if span_name in ("congruences.run_suite", "cli.collect_records"):
        return "runner"
    if module in ("combinat", "wz", "identities"):
        return module
    return span_name  # congruences.*, exactnum.*, cli.emit_report, run


GROUP_OF = {name: _group(name) for _, _, name in TRACED_FUNCTIONS}
GROUP_OF.update({PAIRS_SPAN: PAIRS_SPAN, IDENTITY_CHECK_SPAN: "identities", ROOT_SPAN: ROOT_SPAN})


def bits(value) -> int:
    """Bit length of an exact value as computed work: numerator plus
    denominator bits for a rational, value bits for a residue or integer."""
    if isinstance(value, Fraction):
        return abs(value.numerator).bit_length() + value.denominator.bit_length()
    if isinstance(value, int):
        return abs(value).bit_length()
    residue = getattr(value, "value", None)
    return residue.bit_length() if isinstance(residue, int) else 0


class Tracer:
    """Spans in flat arrays plus the counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self._stack = [-1]
        self.out_bits: dict[str, int] = {}
        self.in_bits: dict[str, int] = {}
        self.modp_tables_seen: set[int] = set()
        self.modp_table_calls = 0
        self.modp_table_repeats = 0
        self.series_keys: set[tuple] = set()
        self.series_repeats = 0

    def _name_id(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name_id: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, on_call=None):
        """fn wrapped in a span; on_call(args, kwargs, result) then records
        the call's counters."""
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return traced

    # -- counters, recorded where the call returns ---------------------------

    def _add(self, table: dict[str, int], key: str, amount: int) -> None:
        table[key] = table.get(key, 0) + amount

    def _count_out_bits(self, group: str):
        return lambda args, kwargs, result: self._add(self.out_bits, group, bits(result))

    def _count_modp_table(self, args, kwargs, result) -> None:
        p = args[0]
        self.modp_table_calls += 1
        if p in self.modp_tables_seen:
            self.modp_table_repeats += 1
        self.modp_tables_seen.add(p)

    def _count_series(self, args, kwargs, result) -> None:
        series_id, p, *rest = args
        key = (series_id, p, rest[0] if rest else kwargs.get("r", 1))
        if key in self.series_keys:
            self.series_repeats += 1
        self.series_keys.add(key)
        self._add(self.out_bits, "congruences.eval_series", bits(result))

    def _count_reduce_in(self, args, kwargs, result) -> None:
        self._add(self.in_bits, "exactnum.reduce_mod", bits(args[0]))

    def _count_side_bits(self, args, kwargs, result) -> None:
        self._add(self.in_bits, PAIRS_SPAN, sum(bits(lhs) + bits(rhs) for lhs, rhs in result))

    def on_call_for(self, span_name: str):
        group = GROUP_OF[span_name]
        if group == "combinat":
            return self._count_out_bits("combinat")
        if span_name == "special.bernoulli_table_mod_p":
            return self._count_modp_table
        if span_name == "congruences.eval_series":
            return self._count_series
        if span_name == "exactnum.reduce_mod":
            return self._count_reduce_in
        if span_name == PAIRS_SPAN:
            return self._count_side_bits
        return None

    def dump(self, path: str) -> None:
        """Write every span as [name, start_ns, end_ns, parent] rows."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.starts)):
                handle.write(f"[{self.name_ids[i]},{self.starts[i]},{self.ends[i]},{self.parents[i]}]\n")


def _supercong_modules() -> list:
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "supercong" or name.startswith("supercong."))]


@contextmanager
def installed(tracer: Tracer):
    """Route every traced call through tracer for the duration of the block."""
    defining = {name: importlib.import_module(f"supercong.{name}")
                for name, _, _ in TRACED_FUNCTIONS}
    undo: list[tuple] = []
    modules = _supercong_modules()
    try:
        for module_name, func_name, span_name in TRACED_FUNCTIONS:
            original = getattr(defining[module_name], func_name)
            wrapper = tracer.wrap(span_name, original, tracer.on_call_for(span_name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr, value))
                        setattr(module, attr, wrapper)
        for registry, field, span_name in (
                (defining["congruences"].REGISTRY, "pairs", PAIRS_SPAN),
                (defining["identities"].REGISTRY, "check", IDENTITY_CHECK_SPAN)):
            on_call = tracer.on_call_for(span_name)
            for key, spec in list(registry.items()):
                wrapped = tracer.wrap(span_name, getattr(spec, field), on_call)
                undo.append((registry, key, spec))
                registry[key] = dataclasses.replace(spec, **{field: wrapped})
        yield tracer
    finally:
        for target, key, value in reversed(undo):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)


def self_times(starts, ends, parents) -> list[int]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    n = len(starts)
    result = [ends[i] - starts[i] for i in range(n)]
    children: dict[int, list[int]] = {}
    for i in range(n):
        if parents[i] >= 0:
            children.setdefault(parents[i], []).append(i)
    for parent, kids in children.items():
        lo, hi = starts[parent], ends[parent]
        kids.sort(key=lambda i: starts[i])
        covered = 0
        run_start = run_end = None
        for i in kids:
            s, e = max(starts[i], lo), min(ends[i], hi)
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        result[parent] -= covered
    return result


def layer_metrics(tracer: Tracer, report_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced run (times in seconds)."""
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    groups = [GROUP_OF[name] for name in tracer.names]
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    check_ns: list[int] = []
    root_ns = 0
    for i, self_time in enumerate(selfs):
        name = tracer.names[tracer.name_ids[i]]
        group = groups[tracer.name_ids[i]]
        calls[group] = calls.get(group, 0) + 1
        self_ns[group] = self_ns.get(group, 0) + self_time
        if name == "congruences.check":
            check_ns.append(tracer.ends[i] - tracer.starts[i])
        elif name == ROOT_SPAN:
            root_ns += tracer.ends[i] - tracer.starts[i]

    def sec(ns: int) -> float:
        return ns / 1e9

    def ratio(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    metrics = {
        "combinat.calls": calls.get("combinat", 0),
        "combinat.self_s": sec(self_ns.get("combinat", 0)),
        "combinat.out_bits": tracer.out_bits.get("combinat", 0),
        "special.modp.calls": calls.get("special.modp", 0),
        "special.modp.self_s": sec(self_ns.get("special.modp", 0)),
        "special.modp.reuse_ratio": ratio(tracer.modp_table_repeats, tracer.modp_table_calls),
        "special.exact.calls": calls.get("special.exact", 0),
        "special.exact.self_s": sec(self_ns.get("special.exact", 0)),
        "congruences.eval_series.calls": calls.get("congruences.eval_series", 0),
        "congruences.eval_series.self_s": sec(self_ns.get("congruences.eval_series", 0)),
        "congruences.eval_series.repeat_ratio": ratio(
            tracer.series_repeats, calls.get("congruences.eval_series", 0)),
        "congruences.eval_series.out_bits": tracer.out_bits.get("congruences.eval_series", 0),
        "congruences.pairs.calls": calls.get(PAIRS_SPAN, 0),
        "congruences.pairs.self_s": sec(self_ns.get(PAIRS_SPAN, 0)),
        "congruences.pairs.side_bits": tracer.in_bits.get(PAIRS_SPAN, 0),
        "congruences.check.count": len(check_ns),
        "congruences.check.self_s": sec(self_ns.get("congruences.check", 0)),
        "congruences.check.p50_s": sec(statistics.median(check_ns)) if check_ns else 0.0,
        "congruences.check.max_s": sec(max(check_ns)) if check_ns else 0.0,
        "exactnum.reduce_mod.calls": calls.get("exactnum.reduce_mod", 0),
        "exactnum.reduce_mod.self_s": sec(self_ns.get("exactnum.reduce_mod", 0)),
        "exactnum.reduce_mod.in_bits": tracer.in_bits.get("exactnum.reduce_mod", 0),
        "exactnum.padic_valuation.calls": calls.get("exactnum.padic_valuation", 0),
        "exactnum.padic_valuation.self_s": sec(self_ns.get("exactnum.padic_valuation", 0)),
        "wz.calls": calls.get("wz", 0),
        "wz.self_s": sec(self_ns.get("wz", 0)),
        "identities.calls": calls.get("identities", 0),
        "identities.self_s": sec(self_ns.get("identities", 0)),
        "runner.self_s": sec(self_ns.get("runner", 0)),
        "cli.emit_report.self_s": sec(self_ns.get("cli.emit_report", 0)),
        "cli.emit_report.bytes": report_bytes,
        "trace.wall_s": sec(root_ns),
        "trace.gap_s": sec(self_ns.get(ROOT_SPAN, 0)),
        "trace.spans": len(selfs),
    }
    return metrics
