import ast
import dataclasses
import importlib.util
import inspect
import json
import os
import re
import signal
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from supercong import InapplicableError, UnknownIdError, check_congruence, run_suite
from supercong import congruences as cong
from supercong.cli import main as cli_main, parse_args
from supercong.combinat import harmonic
from supercong.congruences import REGISTRY, CongruenceSpec, EvaluatorError, _alt_quarter_sum, _sign, eval_series
from supercong.exactnum import NotPIntegralError, inverse_column, padic_valuation, reduce_mod
from supercong.special import euler_poly_mod_p
from supercong.wz import telescope_half_sum
from conftest import primes_in
from oracles import PAIRS_EXACT, SERIES_EXACT, g_exact, half_fold


R_INDEXED = sorted(cid for cid, row in REGISTRY.items() if row.r_indexed)
WINDOWED = ["central-2p1p", "morley", "wolstenholme-h1", "wolstenholme-h2"]
WOLSTENHOLME_IDS = WINDOWED + ["two-power-half"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFS = os.path.join(ROOT, "perfbench", "refs")
EXACT_IDS = [f"I{i}" for i in range(1, 13)] + ["wz-pair", "wz-half-sum", "wz-full-sum", "wz-closed-form"]
# (ids, primes, r_max) of each benchmark workload and of its set-up launch
SCHEDULES = {
    "main-large-p": (["thm-main"], primes_in(2000, 2069), 1),
    "prime-power-r2": (R_INDEXED, primes_in(5, 43), 2),
    "exact-certificates": (EXACT_IDS, [5], 1),
    "wolstenholme-sweep": (WOLSTENHOLME_IDS, primes_in(5, 2819)[:400], 1),
    "set-up": (["two-power-half"], [5, 7], 1),
}


def suite(ids, primes, r_max=1, jobs=1, identities_n_max=1, wz_grid=1):
    return run_suite(ids, primes, r_max=r_max, jobs=jobs,
                     identities_n_max=identities_n_max, wz_grid=wz_grid)


class TestEvalSeries:
    def test_anchors(self):
        assert eval_series("S8-half", 5, 1, 4) == reduce_mod(Fraction(165, 8), 5, 4)
        assert eval_series("S8-full", 5, 1, 3) == reduce_mod(Fraction(487935, 512), 5, 3)
        assert eval_series("S64-half", 5, 1, 3) == reduce_mod(Fraction(435, 512), 5, 3)

    def test_term_oracle(self):
        # 1 - 4 + 189/8 against the running-product route
        from supercong.combinat import binomial

        total = Fraction(0)
        for n in range(3):
            total += Fraction((3 * n + 1) * binomial(2 * n, n) ** 3, (-8) ** n)
        assert total == Fraction(165, 8)
        assert reduce_mod(total, 5, 4) == eval_series("S8-half", 5, 1, 4)

    def test_vh_equals_64_weighted_route(self):
        # ((1/2)_k / k!)^3 = (C(2k,k)/4^k)^3 makes the two S64 kernels agree
        for p in (5, 11, 17):
            half = (p - 1) // 2
            from supercong.combinat import binomial

            direct = sum(
                Fraction((4 * k + 1) * binomial(2 * k, k) ** 3, (-64) ** k)
                for k in range(half + 1)
            )
            assert eval_series("S64-half", p, 1, 3) == reduce_mod(direct, p, 3)

    def test_power_series_respect_r(self):
        # every series is bounded at p^r
        assert eval_series("S64-half", 5, 2, 4) != eval_series("S64-half", 5, 1, 4)
        assert eval_series("S512-half", 7, 2, 2) != eval_series("S512-half", 7, 1, 2)

    def test_unknown_series(self):
        with pytest.raises(UnknownIdError):
            eval_series("S128-half", 5, 1, 4)

    def test_matches_exact_fraction_oracle(self):
        # the sum in Z/p^e equals the exact rational sum reduced mod p^e
        from supercong import congruences as cong

        assert set(SERIES_EXACT) == set(cong._SERIES)
        cases = [(p, r) for p in primes_in(5, 47) for r in (1, 2)] + [(5, 3), (7, 3)]
        for series_id, series_exact in SERIES_EXACT.items():
            for p, r in cases:
                exact = series_exact(p, r)
                for e in range(1, r + 4):
                    assert eval_series(series_id, p, r, e) == reduce_mod(exact, p, e), (
                        series_id, p, r, e)

    def test_p_in_a_term_denominator_is_a_failed_row(self, monkeypatch):
        # t_n = 1/p^n: the engine refuses instead of returning a wrong residue
        from supercong import congruences as cong

        monkeypatch.setitem(cong._SERIES, "S8-half",
                            cong._Series(cong._cubes("S8", (3, 1), 2, (1, 0, 5)), lambda q: 2))
        with pytest.raises(EvaluatorError):
            eval_series("S8-half", 5, 1, 4)
        verdict = check_congruence("thm-main", 5)
        assert not verdict.passed and verdict.lhs is None
        assert "denominator" in verdict.diagnostic

    def test_large_prime_rows_pass(self):
        assert check_congruence("thm-main", 10007).passed
        assert check_congruence("sun-64", 10007).passed


def test_every_row_has_an_exact_oracle():
    assert set(PAIRS_EXACT) == set(REGISTRY)


def test_every_statement_names_the_modulus_it_is_checked_at():
    # (mod p), (mod p^k) or (mod p^(r+k)), once per statement, against e at
    # r = 1, and at r = 2 for a row stated for every r
    stated = re.compile(r"\(mod p(?:\^(\d+)|\^\(r\+(\d+)\))?\)")
    for cid, row in REGISTRY.items():
        found = stated.findall(row.description)
        assert len(found) == 1, (cid, row.description)
        (k, rk), = found
        for r in (1, 2) if row.r_indexed else (1,):
            want = int(k) if k else r + int(rk) if rk else 1
            assert row.modulus_exponent(r) == want, (cid, r, row.description)


def test_every_evaluator_belongs_to_a_row():
    # a row's pairs wraps the evaluator that takes its declared reads, and
    # vanhamme and guo-half-64 share theirs
    evaluators = {f for name, f in vars(cong).items() if name.startswith("_pairs_")}
    assert evaluators == {inspect.unwrap(row.pairs) for row in REGISTRY.values()}
    assert inspect.unwrap(REGISTRY["vanhamme"].pairs) is inspect.unwrap(REGISTRY["guo-half-64"].pairs)


def _reduced(pairs, p, e):
    """Each pair mod p^e, every side an int as the row contract says."""
    pairs = list(pairs)
    assert all(isinstance(side, int) for pair in pairs for side in pair), pairs
    return [(lhs % p**e, rhs % p**e) for lhs, rhs in pairs]


@pytest.mark.parametrize("cid", sorted(REGISTRY))
def test_row_matches_exact_oracle(cid):
    # pair by pair: r = 1 for p <= 61, r = 2 for p <= 31, r = 3 for p in {5, 7},
    # r = 4 for p = 5
    row = REGISTRY[cid]
    cases = [(p, 1) for p in primes_in(3, 61)] + [(p, 2) for p in primes_in(3, 31)]
    cases = [(p, r) for p, r in cases + [(5, 3), (7, 3), (5, 4)] if row.applicable(p, r)]
    for p, r in cases:
        e = row.modulus_exponent(r)
        got = _reduced(row.pairs(p, r, e), p, e)
        want = [(reduce_mod(lhs, p, e), reduce_mod(rhs, p, e))
                for lhs, rhs in PAIRS_EXACT[cid](p, r)]
        assert got == want, (cid, p, r)


def test_inverses_column():
    for p in primes_in(3, 61):
        for e in (1, 2, 3, 4, 5):
            inverses = inverse_column(p - 1, p, e)
            assert len(inverses) == p and inverses[0] == 0
            for k in range(1, p):
                assert inverses[k] == reduce_mod(Fraction(1, k), p, e), (p, e, k)
    assert inverse_column(0, 5, 3) == [0]
    with pytest.raises(NotPIntegralError):
        inverse_column(7, 7, 2)


def test_central_2p1p_matches_comb_beyond_the_oracle():
    # the block products run past the oracle's p <= 61, into many blocks of 32
    for p in primes_in(5, 2999):
        (lhs, rhs), = cong._pairs_central_2p1p(p, 1, 3)
        assert (lhs % p**3, rhs) == (comb(2 * p - 1, p - 1) % p**3, 1), p


def test_wolstenholme_h2_from_the_shared_column():
    # H_{p-1} mod p, the tree's value that central-2pr's third side reads,
    # and the tree's H_{p-1}^(2) are the sums of 1/k and 1/k^2 mod p; p H_{p-1}
    # is the sum of p/k mod p^2
    for p in primes_in(5, 499):
        h, = cong._harmonic((p,), 1, 1)
        assert h == sum(pow(k, -1, p) for k in range(1, p)) % p, p
        assert p * h % p**2 == p * sum(pow(k, -1, p**2) for k in range(1, p)) % p**2, p
        (lhs, _), = cong._pairs_wolstenholme_h2(p, 1, 1)
        assert lhs % p == sum(pow(k, -2, p) for k in range(1, p)) % p


def test_morley_by_tree_equals_morley_power_by_stepping():
    # two routes to C(p-1, (p-1)/2) mod p^3: one tree over the window, and
    # morley-power's stepped product at r = 1
    window = tuple(primes_in(5, 2999))
    for p, pairs in zip(window, REGISTRY["morley"].window(window, 3), strict=True):
        reduced = [(lhs % p**3, rhs % p**3) for lhs, rhs in pairs]
        assert reduced == [(lhs % p**3, rhs % p**3)
                           for lhs, rhs in cong._pairs_morley_power(p, 1, 3)], p


@pytest.mark.parametrize("p, r", [(11, 3), (13, 3), (7, 4), (5, 5)])
def test_morley_power_matches_math_comb_past_the_oracle_range(p, r):
    # the oracle's exact math.comb at (p, r) that test_row_matches_exact_oracle does not reach
    got = [(lhs % p**3, rhs % p**3) for lhs, rhs in cong._pairs_morley_power(p, r, 3)]
    assert got == [(lhs % p**3, rhs % p**3) for lhs, rhs in PAIRS_EXACT["morley-power"](p, r)]


def test_binomial_is_called_only_in_the_neg_binom_unit_base_case():
    # every other product row steps its binomials in Z/p^e; neg-binom-unit
    # checks its k = 1 base case against the generalized binomial
    calls = [fn.name for fn in ast.parse(inspect.getsource(cong)).body if isinstance(fn, ast.FunctionDef)
             for call in ast.walk(fn) if isinstance(call, ast.Call)
             and getattr(call.func, "id", getattr(call.func, "attr", None)) == "binomial"]
    assert calls == ["_pairs_neg_binom_unit"]


@settings(max_examples=40, deadline=None, database=None)
@given(cid=st.sampled_from(WINDOWED), lo=st.integers(5, 3000), width=st.integers(0, 400),
       e=st.integers(1, 5))
def test_window_equals_its_one_prime_windows(cid, lo, width, e):
    # every prime of a window gets the pairs of the window of itself alone,
    # and for p <= 61 the exact oracle's
    window = tuple(primes_in(lo, min(lo + width, 3000)))
    if not window:
        return
    row = REGISTRY[cid]
    got = row.window(window, e)
    assert len(got) == len(window)
    for p, pairs in zip(window, got):
        reduced, alone = _reduced(pairs, p, e), _reduced(row.pairs(p, 1, e), p, e)
        assert reduced == alone, (cid, p, e)
        if p <= 61:
            assert reduced == [(reduce_mod(lhs, p, e), reduce_mod(rhs, p, e))
                               for lhs, rhs in PAIRS_EXACT[cid](p, 1)], (cid, p, e)


@settings(max_examples=300, deadline=None, database=None)
@given(cid=st.sampled_from(sorted(REGISTRY)), p=st.integers(-3, 60), r=st.integers(-1, 2))
def test_every_row_gives_a_verdict_or_is_inapplicable(cid, p, r):
    # at any small (p, r) an evaluator error is a failed row, never an exception
    try:
        verdict = check_congruence(cid, p, r)
    except InapplicableError:
        return
    assert isinstance(verdict, cong.Verdict) and (verdict.id, verdict.p, verdict.r) == (cid, p, r)
    assert all(side is None or type(side) is int and 0 <= side < verdict.modulus
               for side in (verdict.lhs, verdict.rhs))


def test_no_row_inverts_inside_its_own_loop():
    # pow(x, -a, m) inside a loop or comprehension appears in no module of the
    # package: every reciprocal comes from inverse_column, one _stepped run or
    # a window's one _quotient per prime
    package = os.path.dirname(cong.__file__)
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    offenders = set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        offenders |= {
            (name, call.lineno)
            for loop in ast.walk(tree) if isinstance(loop, loops)
            for call in ast.walk(loop)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "pow"
            and len(call.args) >= 2 and isinstance(call.args[1], ast.UnaryOp)
            and isinstance(call.args[1].op, ast.USub)
        }
    assert not offenders, f"pow with a negative exponent in a loop: {sorted(offenders)}"


# -- the fold kernel and the folds of one task --------------------------------


def _terms_of(factors, weights=None):
    """The description whose step i is the constant factors[i-1], weighted
    weights[i] (0 without weights): one segment per index."""
    weights = weights or [0] * (len(factors) + 1)
    return cong._Terms("factors", (cong._Segment(0, weight=(0, weights[0])),) + tuple(
        cong._Segment(i, scale=f, weight=(0, w)) for i, (f, w) in enumerate(zip(factors, weights[1:]), 1)))


def _fold_oracle(p, e, factors, weights, stops):
    """(sums, products) of a fold from Fraction products reduced by
    reduce_mod, or the text of the EvaluatorError the fold raises on the
    factors up to the last stop."""
    t, total, out = Fraction(1), Fraction(weights[0]), {0: (Fraction(weights[0]), Fraction(1))}
    for i, ((num, den), w) in enumerate(zip(factors[:max(stops)], weights[1:]), 1):
        if num == 0 or den == 0:
            return f"zero factor {num}/{den} in a product stepped mod {p}^{e}"
        t *= Fraction(num, den)
        if padic_valuation(t, p) < 0:
            return f"a stepped product has {p} in its denominator (mod {p}^{e})"
        total += w * t
        out[i] = (total, t)
    return ([reduce_mod(out[i][0], p, e) for i in stops], [reduce_mod(out[i][1], p, e) for i in stops])


@settings(max_examples=400, deadline=None, database=None)
@given(p=st.sampled_from([3, 5, 7]), e=st.integers(1, 4), data=st.data())
def test_fold_equals_the_fraction_weighted_sum(p, e, data):
    # factors p^a u / (p^b u') with a <= 4, so the valuation climbs past e
    # and comes back down.  In three runs of four u and u' are units and
    # b <= v + a keeps the valuation v at 0 or more; in the others b <= 4
    # and u, u' are any ints, 0 (a zero factor) included.
    n, capped, v, factors = data.draw(st.integers(0, 16)), data.draw(st.integers(0, 3)), 0, []
    unit = (st.builds(lambda k, j, sign: sign * (k * p + j), st.integers(0, 9), st.integers(1, p - 1),
                      st.sampled_from([1, -1])) if capped else st.integers(-30, 30))
    for _ in range(n):
        a = data.draw(st.integers(0, 4))
        b = data.draw(st.integers(0, v + a if capped else 4))
        v += a - b
        factors.append((p**a * data.draw(unit), p**b * data.draw(unit)))
    weights = data.draw(st.lists(st.integers(-50, 50), min_size=n + 1, max_size=n + 1))
    stops = sorted(data.draw(st.sets(st.integers(0, n), min_size=1)))
    want = _fold_oracle(p, e, factors, weights, stops)
    if isinstance(want, str):
        event(want.split()[0])
        with pytest.raises(EvaluatorError) as raised:
            cong._fold(p, e, _terms_of(factors, weights), stops)
        assert str(raised.value) == want
        return
    valuations = list(accumulate(padic_valuation(Fraction(*f), p) for f in factors[:stops[-1]]))
    event(f"valuation at e or more, then below e: {any(v >= e for v in valuations) and valuations[-1] < e}")
    assert cong._fold(p, e, _terms_of(factors, weights), stops) == want
    # the weights of the description, or the same weights from an iterator
    assert cong._fold(p, e, _terms_of(factors), stops, iter(weights)) == want
    if stops[-1] == n:
        assert cong._column(p, e, _terms_of(factors), n) == _fold_oracle(p, e, factors, weights, range(n + 1))[1]


def test_fold_through_a_valuation_past_e():
    # p^e, then 1/p^e: the product is 0 mod p^e in between and 1 again after
    p, e = 5, 2
    factors = [(25, 1), (3, 1), (1, 25), (2, 1)]
    assert cong._fold(p, e, _terms_of(factors, [1, 1, 1, 1, 1]), [0, 1, 2, 3, 4]) == (
        [1, 1, 1, 4, 10], [1, 0, 0, 3, 6])
    with pytest.raises(EvaluatorError, match="^a stepped product has 5 in its denominator"):
        cong._fold(p, e, _terms_of([(1, 5)], [1, 1]), [1])


def _neg_half(i):
    # (-1/2)_i / i! = -C(2i, i) / ((2i - 1) 4^i)
    return Fraction(-comb(2 * i, i), (2 * i - 1) * 4**i)


def _g_column(n):
    # t_0 = 1, t_i = (-1)^(n+1) (2n-1) (C(2i-2, i-1) / 2^(i-1))^3 for i <= n,
    # which is G(n, 1) at i = n, and t_{n+k-1} = G(n, k)
    return lambda i: (1 if i == 0 else g_exact(n, i - n + 1) if i >= n
                      else _sign(n + 1) * (2 * n - 1) * Fraction(comb(2 * i - 2, i - 1), 2 ** (i - 1)) ** 3)


def _descriptions():
    """(description, its oracle term t_i, its oracle weight w_i, a last index
    n) for every term sequence that the rows step."""
    p, q = 53, 13**2  # a prime, and n = p^r
    h = (p - 1) // 2
    zero = lambda i: 0
    binom_16k = cong._binom_16k_terms(p)
    return [
        (cong._SERIES["S8-half"].terms, lambda i: Fraction(comb(2 * i, i) ** 3, (-8) ** i), lambda i: 3 * i + 1, 40),
        (cong._SERIES["S64-half"].terms, lambda i: Fraction(comb(2 * i, i) ** 3, (-64) ** i), lambda i: 4 * i + 1, 40),
        (cong._SERIES["S512-half"].terms, lambda i: Fraction(comb(2 * i, i) ** 3, (-512) ** i), lambda i: 6 * i + 1,
         40),
        (cong._SERIES["Sgl"].terms, lambda i: (-1) ** i * _neg_half(i) ** 3, lambda i: 4 * i - 1, 40),
        *[(cong._g_terms(n), _g_column(n), lambda i, n=n: int(i >= n), n + (n + 1) // 2 - 1) for n in (3, 8, 27, q)],
        (cong._CENTRAL_TERMS, lambda i: comb(2 * i, i), zero, 40),
        (cong._quarter_terms(p), lambda i: Fraction(comb(h, 2 * i) * comb(2 * i, i), 4**i), zero, (p - 1) // 4),
        (cong._TERMS_64, lambda i: Fraction(comb(4 * i, 2 * i) * comb(2 * i, i), 64**i), zero, 40),
        (binom_16k[0], lambda i: comb(h, 2 * i), zero, (p - 1) // 4),
        (binom_16k[1], lambda i: Fraction(comb(4 * i, 2 * i), 16**i), zero, 40),
        (cong._morley_terms(q), lambda i: comb(q - 1, i), zero, (q - 1) // 2),
        (cong._n_over_j_terms(q), lambda i: Fraction(q, i) if i else 1, lambda i: int(i > 0), q - 1),
        (cong._ps_2_terms(q), lambda i: Fraction(-2 * q, i * comb(2 * i, i)) if i else 1, zero, (q - 1) // 2),
        (cong._neg_binom_terms(q), lambda i: comb(q + 2 * i - 1, 2 * i - 1) if i else 1, zero, (q - 1) // 2),
        (cong._FACTORIALS, factorial, zero, 40),
    ]


@pytest.mark.parametrize("terms, term, weight, n", _descriptions(), ids=[d[0].name for d in _descriptions()])
def test_description_steps_are_the_ratios_of_the_oracle_terms(terms, term, weight, n):
    # the step builder from index 0 and from the middle of the run: each step
    # is t_i / t_{i-1} and each weight w_i of the sequence's exact terms
    assert term(0) == 1
    for lo in (0, n // 3, n // 2 + 1):
        w, nums, dens, weights = cong._steps(terms, lo, n)
        steps = list(zip(nums, dens, weights))
        assert w == weight(lo) and len(steps) == n - lo, (terms.name, lo)
        for i, (num, den, w) in enumerate(steps, lo + 1):
            assert (Fraction(num, den), w) == (Fraction(term(i)) / term(i - 1), weight(i)), (terms.name, lo, i)


def test_tree_of_each_product_equals_its_fold():
    # the description advance of each product (every weight 0), over two
    # primes at once and from index 0, gives N / D = t_i at each query, as
    # the fold gives t_i
    for terms, _, _, n in _descriptions():
        if any(segment.weight != (0, 0) for segment in terms.segments):
            continue
        indices = range(0, n + 1, max(1, n // 7))
        tree = cong._remainder_tree([(i, p**3) for p in (1009, 1013) for i in indices], cong._advance(terms), (1, 0, 1))
        for p in (1009, 1013):
            _, products = cong._fold(p, 3, terms, list(indices))
            assert [cong._quotient(tree[i, p**3][0], tree[i, p**3][2], p**3) for i in indices] == products, terms.name


def test_eval_series_outside_a_sweep_folds_nothing(monkeypatch):
    # at r = 1 each series is a read of sums below p, so outside a sweep it
    # comes from a remainder tree of p alone, and that equals the fold
    fold = cong._fold

    def no_fold(*args):
        raise AssertionError("a series was folded")

    monkeypatch.setattr(cong, "_fold", no_fold)
    for p in primes_in(5, 999):
        e = 1 + p % 4
        for series_id, series in cong._SERIES.items():
            assert eval_series(series_id, p, 1, e) == fold(p, e, series.terms, [series.bound(p)])[0][0], (series_id, p)


def _task_of(ids, p, r_max):
    return p, [(cid, r) for cid in sorted(ids) for r in range(1, r_max + 1) if REGISTRY[cid].applicable(p, r)]


SERIES_ROWS = ["thm-main", "thm-prime-power", "vanhamme", "sun-64", "guo-liu", "long-cxh-512", "mao-512",
               "cxh-8-full", "remark-sun-c51", "guo-half-64", "guo-conj-full-64"]


def _run_of(terms, n):
    """The steps (num, den) of terms up to index n."""
    _, nums, dens, _ = cong._steps(terms, 0, n)
    return list(zip(nums, dens))


@pytest.fixture
def fold_runs(monkeypatch):
    """The run of factors (num, den) of each _fold, _column and _tree_sums
    call from here on, each to the furthest index it reads."""
    runs = []
    fold, column, tree_sums = cong._fold, cong._column, cong._tree_sums

    def spied_fold(p, e, terms, stops, weights=None):
        runs.append(_run_of(terms, stops[-1]))
        return fold(p, e, terms, stops, weights)

    def spied_column(p, e, terms, n):
        runs.append(_run_of(terms, n))
        return column(p, e, terms, n)

    def spied_tree_sums(terms, reads):
        runs.append(_run_of(terms, max(i for _, _, held in reads for i in held)))
        return tree_sums(terms, reads)

    monkeypatch.setattr(cong, "_fold", spied_fold)
    monkeypatch.setattr(cong, "_column", spied_column)
    monkeypatch.setattr(cong, "_tree_sums", spied_tree_sums)
    return runs


def _run_task_once_each(task, runs):
    """The task's verdicts, checked against its rows run alone, with runs
    holding only the task's folds, none of them a prefix of another."""
    p, checks = task
    alone = [check_congruence(cid, p, r) for cid, r in checks]
    runs.clear()
    shared = cong._run_task(task)
    assert [v._replace(micros=0) for v in shared] == [v._replace(micros=0) for v in alone]
    for i, run in enumerate(runs):
        for j, other in enumerate(runs):
            assert i == j or other[:len(run)] != run, (i, j, run[:3])
    return shared


@pytest.mark.parametrize("p, r_max", [(5, 3), (7, 3), (11, 2)])
def test_one_task_folds_each_sequence_once(p, r_max, fold_runs):
    # the r-indexed and series rows of one task: no fold's run of factors is
    # a prefix of another's, so each sequence is folded once, and the rows
    # read from the shared folds what they read from folds of their own
    _run_task_once_each(_task_of(R_INDEXED + SERIES_ROWS, p, r_max), fold_runs)
    # the S8, S64, S512 and Sgl terms and the column of C(2k, k) once each
    # (the S512 and Sgl terms, read at r = 1 only, by a tree of p);
    # morley-power, the G column, central-2pr's sum of p^r/j, ps-2's left
    # side and neg-binom-unit's column once for each r
    assert len(fold_runs) == 5 + 5 * r_max


LEMMA_ROWS = ["lemma-2.2", "lemma-2.3", "lemma-2.4", "lemma-2.6a", "lemma-2.6b", "lemma-2.6-altsum"]
PER_PRIME = [cid for cid, row in REGISTRY.items() if row.window is None]


@pytest.mark.parametrize("p, r_max", [(5, 3), (7, 3), (11, 2)])
def test_one_task_computes_each_fold_and_value_once(p, r_max, fold_runs, monkeypatch):
    # every per-prime row in one task: no fold or column runs twice (the
    # quarter sums of the lemma rows and their 64-sum among them), and
    # E_{p-3}(1/4) and E_{p-3} are each computed once within the task
    assert all(v.passed for v in _run_task_once_each(_task_of(PER_PRIME, p, r_max), fold_runs))
    calls = Counter()

    def counted(name):
        real = getattr(cong, name)

        def spy(*args):
            calls[name] += 1
            return real(*args)
        return spy

    for name in ("euler_poly_mod_p", "euler_number_mod_p"):
        monkeypatch.setattr(cong, name, counted(name))
    assert all(v.passed for v in cong._run_task(_task_of(PER_PRIME, p, r_max)))
    assert calls == {"euler_poly_mod_p": 1, "euler_number_mod_p": 1}
    # the six lemma rows alone fold the quarter terms and the 64-sum once each
    _run_task_once_each(_task_of(LEMMA_ROWS, p, 1), fold_runs)
    assert len(fold_runs) == 2


@pytest.mark.parametrize("p, r_max", [(5, 3), (7, 3), (11, 2), (101, 1)])
def test_one_task_builds_one_table_and_each_column_of_inverses_once(p, r_max, monkeypatch):
    # every per-prime row in one task: one _TaskFolds, and one column of 1/k,
    # planned to the furthest index and at the largest e that the task's
    # rows read: poch-expansion's to (p-3)/2 mod p^3, which holds the quarter
    # sums' column to (p-1)/4 mod p^3 and the 64-sum's mod p
    tables, columns = [], []

    class Spied(cong._TaskFolds):
        def __init__(self, *args):
            tables.append(args[0])
            super().__init__(*args)

    def column(top, q, e):
        columns.append((top, q, e))
        return inverse_column(top, q, e)

    monkeypatch.setattr(cong, "_TaskFolds", Spied)
    monkeypatch.setattr(cong, "inverse_column", column)
    assert all(v.passed for v in cong._run_task(_task_of(PER_PRIME, p, r_max)))
    assert tables == [p]
    assert columns == [((p - 3) // 2, p, 3)]
    # the lemma rows alone read the column to (p-1)/4, mod p^3 at the largest
    columns.clear()
    assert all(v.passed for v in cong._run_task(_task_of(LEMMA_ROWS, p, 1)))
    assert columns == [((p - 1) // 4, p, 3)]


@pytest.mark.parametrize("cid, reads, diagnostic", [
    ("lemma-3.3", cong._reads_nothing, "the sum at index 9 of the G column of 7 mod 7^3"),
    ("lemma-3.2", lambda p, r, e: [cong._g_read(p, e, (p - 1) // 2, cong._PRODUCT)],
     "the product at index 10 of the G column of 7 mod 7^3"),
    ("thm-main", lambda p, r, e: [cong._SERIES["S8-half"].read(p, r, e - 1)],
     "the sum at index 3 of the S8 terms mod 7^4"),
], ids=["unknown sequence", "unplanned index", "e above the plan"])
def test_read_outside_the_plan_is_a_failed_row(cid, reads, diagnostic, fold_runs, monkeypatch):
    # a task whose plan does not hold a read of its row: the row fails with
    # a diagnostic naming the read, and no sequence is folded twice
    monkeypatch.setitem(REGISTRY, cid, dataclasses.replace(REGISTRY[cid], reads=reads))
    (verdict,) = cong._run_task((7, [(cid, 1)]))
    assert not verdict.passed and verdict.lhs is None
    assert verdict.diagnostic == diagnostic + " is outside this task's plan"
    assert len(fold_runs) <= 1


def test_quarter_sums_match_the_half_fold_oracle():
    # the four weights of lemma-2.2, 2.3, 2.4 and 2.6a, from one pass
    weights = [lambda h1, h2: 1, lambda h1, h2: h1, lambda h1, h2: h1 * h1 + h2, lambda h1, h2: h2]
    for p in primes_in(5, 199):
        exact = [half_fold(p, weight) for weight in weights]
        for e in (1, 2, 3):
            table = cong._TaskFolds(p, [cong._quarter_column(p, e)])
            assert cong._quarter_sums(table, e) == tuple(reduce_mod(x, p, e) for x in exact), (p, e)


def test_rows_name_their_reads_only_where_declared():
    # no evaluator reads a series or a fold itself, no value is cached in
    # module state, and no Fraction is built on the way to a residue
    tree = ast.parse(inspect.getsource(cong))
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]

    def called(node):
        return {getattr(call.func, "id", getattr(call.func, "attr", None))
                for call in ast.walk(node) if isinstance(call, ast.Call)}

    assert [fn.name for fn in functions if fn.name.startswith("_pairs_") and called(fn) & {"_TaskFolds", "eval_series"}] == []
    assert [fn.name for fn in functions if any("cache" in ast.unparse(d) for d in fn.decorator_list)] == []
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not {"Fraction", "frac_part"} & (named | imported)


@pytest.mark.parametrize("p, r_max", [(5, 3), (7, 3), (11, 2), (13, 2)])
def test_rows_of_one_task_match_exact_oracle(p, r_max):
    # every per-prime row of one task, reading the task's shared folds at
    # the largest e of their reads, gives the residues of its exact oracle
    ids = [cid for cid, row in REGISTRY.items() if row.window is None]
    for v in cong._run_task(_task_of(ids, p, r_max)):
        want = [(reduce_mod(lhs, p, v.e), reduce_mod(rhs, p, v.e)) for lhs, rhs in PAIRS_EXACT[v.id](p, v.r)]
        assert (v.lhs, v.rhs) == cong._compared(want, p, v.e), (v.id, p, v.r)


@pytest.mark.parametrize("lo, hi", [(3, 400), (10007, 10103)], ids=["3-400", "near-10^4"])
def test_tree_sums_equal_the_folds(lo, hi):
    # every r = 1 read of the 7 series at every prime, from one remainder
    # tree per term sequence, is the fold's sum at the task's planned e
    primes = primes_in(lo, hi)
    tasks = cong._tasks(SERIES_ROWS, primes, 1, 1, 1)
    sums = cong._sweep_trees(tasks)
    read = Counter()
    for p, checks in tasks:
        for seq, (e, held) in cong._TaskFolds(p, cong._task_reads(p, checks)).plans.items():
            for i, take in held:
                assert sums[p][seq][i, take] == cong._fold(p, e, seq, [i])[0][0], (p, seq.name, i)
                read[p] += 1
    assert set(sums) == set(primes) and all(read[p] == (7 if p > 3 else 2) for p in primes)


def test_a_sequence_of_one_task_is_left_to_its_task():
    # lemma-2.7 reads the G column of (p+1)/2, another sequence at each prime,
    # so the sweep sums none of them before its tasks run (a forked worker
    # sums its own); thm-main's S8 terms, read at every prime, come from the
    # sweep's one tree
    primes = primes_in(5, 60)
    sums = cong._sweep_trees(cong._tasks(["lemma-2.7", "thm-main"], primes, 1, 1, 1))
    assert set(sums) == set(primes) and all(list(seqs) == [cong._S8] for seqs in sums.values())


@pytest.mark.parametrize("ratio, failing", [((4, -2, 5), [5]), ((1, -3, 1), primes_in(7, 13))],
                         ids=["p-divides-g", "zero-factor"])
def test_a_prime_whose_fold_fails_gets_no_tree_sum(ratio, failing, monkeypatch):
    # t_k = ((4k-2)/5k)^3 has 5 in its denominators at p = 5; t_k = ((k-3)/k)^3
    # is 0 from k = 3, which the half sum reaches from p = 7.  Those primes
    # get no tree sum, so their fold fails the row with its diagnostic, as
    # check_congruence does; the other primes read the tree
    monkeypatch.setitem(cong._SERIES, "S8-half", cong._Series(cong._cubes("S8", (3, 1), 2, ratio), cong._HALF))
    primes = primes_in(5, 13)
    assert set(cong._sweep_trees(cong._tasks(["thm-main"], primes, 1, 1, 1))) == set(primes) - set(failing)
    swept = suite(["thm-main"], primes)
    assert [v._replace(micros=0) for v in swept] == [check_congruence("thm-main", p)._replace(micros=0)
                                                     for p in primes]
    assert [v.p for v in swept if v.diagnostic] == failing


def test_sweep_sums_end_with_their_sweep():
    # S8-full at r = 1 is summed mod p^3 for thm-prime-power and mod p^4 for
    # cxh-8-full: a sweep never reads the sums of the sweep before it
    for cid in ("thm-prime-power", "cxh-8-full", "thm-prime-power"):
        swept = suite([cid], primes_in(5, 60))
        assert all(v.passed for v in swept)
        assert [v._replace(micros=0) for v in swept] == [check_congruence(cid, v.p)._replace(micros=0)
                                                         for v in swept]


@pytest.mark.parametrize("jobs", [1, 2])
def test_series_rows_of_a_sweep_fold_nothing(jobs, monkeypatch):
    # at r = 1 every series sum comes from the sweep's trees, in the forked
    # workers too, which inherit them: a fold there would fail the sweep
    def no_fold(*args):
        raise AssertionError("a series was folded")

    monkeypatch.setattr(cong, "_fold", no_fold)
    monkeypatch.setattr(cong, "_column", no_fold)
    monkeypatch.setattr(cong, "_BREAK_EVEN", 0)
    swept = suite(SERIES_ROWS, primes_in(3, 100), jobs=jobs)
    assert all(v.passed for v in swept) and len(swept) == 11 * 23 + 2


@pytest.mark.parametrize("cid, p, r", [("morley-power", 13, 5), ("lemma-3.3", 13, 4)])
def test_sum_rows_hold_no_run_of_terms(cid, p, r):
    # 185,646 and 42,840 steps, and no list of them: under 1 MB traced
    tracemalloc.start()
    try:
        verdict = check_congruence(cid, p, r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.passed
    assert peak < 1 << 20, peak


class TestKnownAnswers:
    def test_wolstenholme_prime(self):
        # 16843 is the first prime with H_{p-1} == 0 (mod p^3)
        assert sum(inverse_column(16842, 16843, 3)) % 16843**3 == 0
        assert sum(inverse_column(16828, 16829, 3)) % 16829**3 != 0

    def test_central_2p1p_at_the_wolstenholme_prime(self):
        # v_p(C(2p-1, p-1) - 1) = 4 at p = 16843, and 3 at 16829; through the
        # tree of a one-prime window at e = 4 and 5
        def side(p, e):
            (lhs, _), = cong._pairs_central_2p1p(p, 1, e)
            return lhs % p**e

        assert side(16843, 4) == 1
        assert side(16843, 5) != 1
        assert side(16829, 4) != 1

    def test_morley_at_the_wolstenholme_prime(self):
        # the Morley difference has valuation 4 at p = 16843, and 3 at 16829
        def holds(p, e):
            (lhs, rhs), = cong._pairs_morley(p, 1, e)
            return (lhs - rhs) % p**e == 0

        assert holds(16843, 4)
        assert not holds(16843, 5)
        assert not holds(16829, 4)

    def test_wolstenholme_prime_from_one_window(self):
        # H_{p-1} == 0 (mod p^3) at 16843 and not at 16829, both in one tree
        window = tuple(primes_in(16800, 16900))
        sides = dict(zip(window, REGISTRY["wolstenholme-h1"].window(window, 3)))
        assert sides[16843] == [(0, 0)]
        assert sides[16829][0][0] % 16829**3 != 0

    def test_thm_main_where_the_euler_value_vanishes(self):
        # E_{p-3}(1/4) == 0 (mod 1019), so the right side is p(-1|p) = -1019
        assert euler_poly_mod_p(1016, Fraction(1, 4), 1019) == 0
        verdict = check_congruence("thm-main", 1019)
        assert verdict.passed
        assert verdict.rhs == 1078193565302 == 1019**4 - 1019

    @pytest.mark.parametrize("cid, p, lhs", [
        ("lemma-2.7", 1019, 1019**4 - 1019), ("lemma-2.6b", 1019, 0),
        ("sun-64", 149, 149), ("cxh-8-full", 149, 149), ("guo-liu", 149, 6615749),
        ("sun-64", 241, 241), ("mao-512", 241, 241),
    ])
    def test_rows_where_an_euler_value_vanishes(self, cid, p, lhs):
        # E_{p-3}(1/4) == 0 (mod p) at 1019 and E_{p-3} == 0 (mod p) at 149 and
        # 241, so the right side is its term in p alone: guo-liu's
        # p(-1)^((p+1)/2) + 2p^3 is 6615749 at 149, and lemma-2.6b's is 0
        verdict = check_congruence(cid, p)
        assert verdict.passed and verdict.lhs == verdict.rhs == lhs

    def test_every_row_passes_at_1009(self):
        for cid in REGISTRY:
            assert check_congruence(cid, 1009).passed, cid

    def test_euler_values_computed_once_per_prime(self, monkeypatch):
        calls = {"number": 0, "poly": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(cong, "euler_number_mod_p", counted("number", cong.euler_number_mod_p))
        monkeypatch.setattr(cong, "euler_poly_mod_p", counted("poly", cong.euler_poly_mod_p))
        verdicts = suite(["sun-64", "guo-liu", "mao-512", "cxh-8-full",
                          "thm-main", "lemma-2.6b", "lemma-2.7"], [101])
        assert all(v.passed for v in verdicts)
        assert calls == {"number": 1, "poly": 1}

    def test_reciprocals_computed_once_per_prime(self, monkeypatch):
        # no row here reads a column of 1/k: the windowed wolstenholme-h1 and
        # -h2, and central-2pr's H_{p-1} at r = 1 and 2, are each S / D of a
        # remainder tree, one inversion per prime of a window
        columns, quotients = [], []

        def column(top, p, e):
            columns.append((top, p, e))
            return inverse_column(top, p, e)

        def quotient(s, d, m):
            quotients.append(m)
            return real_quotient(s, d, m)

        real_quotient = cong._quotient
        monkeypatch.setattr(cong, "inverse_column", column)
        monkeypatch.setattr(cong, "_quotient", quotient)
        verdicts = suite(["wolstenholme-h1", "wolstenholme-h2", "central-2pr"], [11, 13], r_max=2)
        assert len(verdicts) == 4 * 2 and all(v.passed for v in verdicts)
        assert columns == []
        assert sorted(quotients) == [11, 11, 11, 13, 13, 13, 11**2, 13**2]


class TestEvalRhs:
    def test_anchors(self):
        assert check_congruence("thm-main", 5).rhs == 255
        assert check_congruence("vanhamme", 5).rhs == 5
        # 1 + 6*5*3 + 15*25*9 = 3466 == 91 (mod 125)
        assert check_congruence("lemma-2.2", 5).rhs == 91

    def test_representative_independence(self):
        # E-values enter as mod-p lifts scaled by p^3; shifting the lift by a
        # multiple of p cannot change the reduced right side mod p^4
        for p in (5, 13, 29):
            base = euler_poly_mod_p(p - 3, Fraction(1, 4), p)
            expected = check_congruence("thm-main", p).rhs
            from supercong.special import legendre_symbol

            for t in (1, 2, 3):
                lifted = base + t * p
                rhs = p * legendre_symbol(-1, p) + Fraction(p**3, 4) * legendre_symbol(2, p) * lifted
                assert reduce_mod(rhs, p, 4) == expected


class TestCheckCongruence:
    def test_thm_main_anchor(self):
        verdict = check_congruence("thm-main", 5, 1)
        assert verdict.passed
        assert verdict.lhs == verdict.rhs == 255
        assert verdict.modulus == 625

    def test_morley_anchor(self):
        verdict = check_congruence("morley", 5, 1)
        assert verdict.passed
        assert verdict.lhs == 6  # C(4,2) = 6 == 256 = 4^4 (mod 125)

    def test_lemma22_anchor(self):
        lhs = 2**18 * Fraction(3, 2)
        assert lhs == 393216
        assert reduce_mod(lhs, 5, 3) == 91
        verdict = check_congruence("lemma-2.2", 5, 1)
        assert verdict.passed and verdict.lhs == 91

    def test_wolstenholme_by_valuation(self):
        for p in primes_in(5, 61):
            assert padic_valuation(harmonic(p - 1, 1), p) >= 2
            assert padic_valuation(harmonic(p - 1, 2), p) >= 1
            assert check_congruence("wolstenholme-h1", p).passed
            assert check_congruence("wolstenholme-h2", p).passed

    def test_chained_row(self):
        verdict = check_congruence("central-2pr", 5, 2)
        assert verdict.passed
        assert verdict.lhs == verdict.rhs

    def test_per_index_row_reports_consistently(self):
        verdict = check_congruence("binom-16k", 13, 1)
        assert verdict.passed
        assert verdict.lhs == verdict.rhs

    def test_inapplicable(self):
        with pytest.raises(InapplicableError):
            check_congruence("thm-main", 3, 1)
        with pytest.raises(InapplicableError):
            check_congruence("thm-main", 10, 1)
        with pytest.raises(InapplicableError):
            check_congruence("morley", 5, 2)  # not r-indexed
        with pytest.raises(InapplicableError):
            check_congruence("sun-64", 3, 1)  # fails mod p^4 at 3; registered for p > 3

    def test_odd_prime_rows_admit_3(self):
        assert check_congruence("vanhamme", 3).passed
        assert check_congruence("long-cxh-512", 3).passed

    def test_unknown_id(self):
        with pytest.raises(UnknownIdError):
            check_congruence("lemma-9.9", 5)

    def test_evaluation_error_becomes_failed_verdict(self):
        row = CongruenceSpec(
            "tmp-ill-posed",
            "denominator divisible by p on purpose",
            lambda r: 2,
            lambda p, r, e, table=None: [(reduce_mod(Fraction(1, p), p, e), 0)],
        )
        REGISTRY[row.id] = row
        try:
            verdict = check_congruence("tmp-ill-posed", 5)
            assert not verdict.passed
            assert verdict.lhs is None and verdict.rhs is None
            assert "divisible" in verdict.diagnostic
            rec = verdict.record()
            assert rec["lhs"] is None and rec["pass"] is False
        finally:
            del REGISTRY[row.id]

    @pytest.mark.parametrize("side, named", [
        (Fraction(1, 2), "Fraction"),
    ], ids=["fraction"])
    def test_side_breaking_the_contract_is_a_failed_row(self, side, named, monkeypatch):
        # run at e = 2: neither side is reduced or coerced, and the suite goes on
        row = CongruenceSpec("tmp-bad-side", "a side outside the contract",
                             lambda r: 2, lambda p, r, e, table=None: [(side, 1)])
        monkeypatch.setitem(REGISTRY, row.id, row)
        verdicts = suite([row.id, "morley"], [5])
        assert [v.id for v in verdicts] == ["morley", row.id]
        assert verdicts[0].passed
        bad = verdicts[1]
        assert not bad.passed and bad.lhs is None and bad.rhs is None
        assert named in bad.diagnostic

    def test_neg_binom_unit_certificate_catches_a_wrong_binomial(self, monkeypatch):
        # a wrong C(-n-1, 1) breaks the base of the induction
        real = cong.binomial
        monkeypatch.setattr(cong, "binomial", lambda n, k: real(n, k) + (k == 1))
        verdict = check_congruence("neg-binom-unit", 7, 2)
        assert not verdict.passed and verdict.lhs is None
        assert "product form of C(-50, 1)" in verdict.diagnostic


class TestCrossChecks:
    def test_telescoping_consistency(self):
        # the half-range series is exactly the telescoped G-column
        for p in primes_in(5, 31):
            m = (p - 1) // 2
            g_side = telescope_half_sum(m)[1]
            assert eval_series("S8-half", p, 1, 4) == reduce_mod(g_side, p, 4)

    def test_remark_relation(self):
        from supercong.special import legendre_symbol

        for p in primes_in(5, 61):
            lhs = eval_series("S8-half", p, 1, 4)
            rhs = 4 * legendre_symbol(2, p) * eval_series("S512-full", p, 1, 4) - 3 * p * legendre_symbol(-1, p)
            assert lhs == rhs % p**4

    def test_dual_euler_routes(self):
        for p in primes_in(5, 61):
            euler = euler_poly_mod_p(p - 3, Fraction(1, 4), p)
            f = (p - 1) // 4
            table = cong._TaskFolds(p, [cong._quarter_column(p, 1)])
            alt = reduce_mod(2 * _sign(f) * _alt_quarter_sum(table), p, 1)
            assert euler == alt


class TestRunSuite:
    def test_single_id_sweep(self):
        verdicts = suite(["thm-main"], primes_in(5, 13))
        assert [v.p for v in verdicts] == [5, 7, 11, 13]
        assert all(v.passed and v.r == 1 for v in verdicts)

    def test_power_indexed_rows(self):
        verdicts = suite(["thm-prime-power"], [5], r_max=2)
        assert [(v.p, v.r) for v in verdicts] == [(5, 1), (5, 2)]
        assert all(v.passed for v in verdicts)

    def test_empty_prime_range(self):
        assert suite(list(REGISTRY), []) == []

    def test_deterministic_order(self):
        ids = ["vanhamme", "morley", "thm-main"]
        verdicts = suite(ids, [7, 5])
        assert [(v.id, v.p) for v in verdicts] == [
            ("morley", 5), ("morley", 7),
            ("thm-main", 5), ("thm-main", 7),
            ("vanhamme", 5), ("vanhamme", 7),
        ]

    def test_parallel_matches_serial(self, monkeypatch):
        monkeypatch.setattr(cong, "_BREAK_EVEN", 0)  # fork, whatever the sweep costs
        ids = ["thm-main", "morley", "binom-16k", "I3", "I10", "wz-pair", "wz-closed-form"]
        serial = suite(ids, primes_in(5, 23), identities_n_max=6, wz_grid=4)
        parallel = suite(ids, primes_in(5, 23), jobs=2, identities_n_max=6, wz_grid=4)
        strip = lambda vs: [(v.id, v.p, v.r, v.lhs, v.rhs, v.passed) for v in vs]
        assert strip(serial) == strip(parallel)
        exact = [v for v in serial if v.modulus is None]
        assert [v.id for v in exact] == ["I10", "I3", "wz-closed-form", "wz-pair"]
        assert all(v.passed and v.lhs == 0 for v in exact)

    def test_parallel_matches_serial_over_batches_of_primes(self, monkeypatch):
        monkeypatch.setattr(cong, "_BREAK_EVEN", 0)
        ids = ["wolstenholme-h1", "wolstenholme-h2", "central-2p1p", "two-power-half"]
        primes = primes_in(5, 1000)
        serial = suite(ids, primes)
        parallel = suite(ids, primes, jobs=2)
        assert [v.record(no_timing=True) for v in parallel] == [v.record(no_timing=True) for v in serial]
        assert len(serial) == 4 * len(primes) and all(v.passed for v in serial)

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("ids, primes, r_max", SCHEDULES.values(), ids=list(SCHEDULES))
    def test_batches_keep_the_task_order(self, ids, primes, r_max, workers, monkeypatch):
        # the exact checks and windows first, then the primes from the largest
        # down; the pool hands back each task's verdicts in that order
        tasks = cong._tasks(ids, primes, r_max, 80, 40)
        firsts = [p for p, _ in tasks]
        n_exact = firsts.count(0)
        assert firsts[:n_exact] == [0] * n_exact
        assert firsts[n_exact:] == sorted(set(firsts[n_exact:]), reverse=True)
        assert cong._forked(tasks, workers, lambda task: [task]) == [[task] for task in tasks]
        self.assert_no_child_left()

    def test_primality_decided_once_per_prime(self, monkeypatch):
        # windowed and per-prime rows, r up to 2, each number named twice:
        # _tasks tests each distinct number once
        calls = Counter()

        def counted(n):
            calls[n] += 1
            return real_is_prime(n)

        real_is_prime = cong.is_prime
        monkeypatch.setattr(cong, "is_prime", counted)
        numbers = primes_in(3, 400) + [1, 9, 91, 399] + primes_in(3, 400)
        tasks = cong._tasks(WINDOWED + ["two-power-half", "central-2pr"], numbers, 2, 1, 1)
        assert calls == Counter(set(numbers))
        assert [p for p, _ in tasks[len(WINDOWED):]] == primes_in(5, 400)[::-1]
        assert all(window == tuple(primes_in(5, 400)) for _, [(_, window)] in tasks[:len(WINDOWED)])

    def test_unknown_id_rejected(self):
        with pytest.raises(UnknownIdError):
            suite(["no-such-row"], [5])

    @pytest.mark.parametrize("cid", WINDOWED)
    def test_windowed_row_is_one_task(self, cid):
        primes = primes_in(3, 200)
        assert cong._tasks([cid], primes, 2, 1, 1) == [(0, [(cid, tuple(primes[1:]))])]
        assert cong._tasks([cid], [3], 2, 1, 1) == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_wolstenholme_band_matches_the_benchmark_references(self, jobs, monkeypatch):
        monkeypatch.setattr(cong, "_BREAK_EVEN", 0)
        with open(os.path.join(REFS, "wolstenholme-sweep.jsonl"), encoding="utf-8") as handle:
            refs = [tuple(json.loads(line)) for line in handle if line.strip()]
        keys = ("id", "p", "r", "modulus", "lhs", "rhs", "pass")
        got = [tuple(v.record()[k] for k in keys)
               for v in suite(WOLSTENHOLME_IDS, primes_in(5, 2819), jobs=jobs)]
        assert got == refs

    @pytest.mark.parametrize("error", [EvaluatorError("window broke"), NotPIntegralError("window broke")],
                             ids=["evaluator-error", "not-p-integral"])
    def test_window_error_fails_every_row_of_the_window(self, error, monkeypatch):
        def window(primes, e):
            raise error

        monkeypatch.setitem(REGISTRY, "morley", dataclasses.replace(REGISTRY["morley"], window=window))
        verdicts = suite(["morley", "two-power-half"], primes_in(5, 23))
        failed = [v for v in verdicts if v.id == "morley"]
        assert [v.p for v in failed] == primes_in(5, 23)
        assert all(not v.passed and v.lhs is None and v.diagnostic == "window broke" for v in failed)
        assert all(v.passed for v in verdicts if v.id == "two-power-half")

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        # records the worker count the pool is asked for, and runs the
        # tasks in this process; any sweep is past the break-even
        monkeypatch.setattr(cong, "_BREAK_EVEN", 0)
        sizes = []

        def forked(tasks, workers, run):
            sizes.append(workers)
            return [run(task) for task in tasks]

        monkeypatch.setattr(cong, "_forked", forked)
        return sizes

    def test_pool_never_larger_than_task_list(self, pool_sizes, monkeypatch):
        # --jobs 500 on two tasks must ask for two
        monkeypatch.setattr(cong.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        pooled = suite(["two-power-half"], [5, 7], jobs=500)
        assert pool_sizes == [2]
        assert [v.record(no_timing=True) for v in pooled] == [
            v.record(no_timing=True) for v in suite(["two-power-half"], [5, 7])]

    @pytest.mark.parametrize("affinity", [True, False], ids=["affinity", "no-affinity"])
    def test_pool_never_larger_than_usable_cpus(self, pool_sizes, monkeypatch, affinity):
        # --jobs 500 on ten tasks asks for the CPUs this process may use:
        # its affinity set, or os.cpu_count() where there is no such call
        if affinity:
            monkeypatch.setattr(cong.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
            monkeypatch.setattr(cong.os, "cpu_count", lambda: 64)
        else:
            monkeypatch.delattr(cong.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(cong.os, "cpu_count", lambda: 2)
        primes = primes_in(5, 37)
        assert len(primes) == 10
        suite(["two-power-half"], primes, jobs=500)
        assert pool_sizes == [2]

    def test_no_fork_runs_in_process(self, pool_sizes, monkeypatch):
        monkeypatch.setattr(cong, "usable_cpus", lambda: 2)
        serial = suite(["two-power-half"], [5, 7])
        monkeypatch.delattr(cong.os, "fork")
        pooled = suite(["two-power-half"], [5, 7], jobs=2)
        assert pool_sizes == []
        assert [v.record(no_timing=True) for v in pooled] == [v.record(no_timing=True) for v in serial]

    @pytest.fixture
    def forks(self, monkeypatch):
        # records the worker count of each call of the pool on two CPUs, and
        # runs the tasks in this process
        calls = []
        monkeypatch.setattr(cong, "usable_cpus", lambda: 2)
        monkeypatch.setattr(cong, "_forked", lambda tasks, workers, run: calls.append(workers)
                            or [run(task) for task in tasks])
        return calls

    def test_benchmark_workloads_run_in_this_process(self, forks, capsys, monkeypatch):
        # each workload's argv at its own --jobs, whatever window its seed
        # picks, costs no more than the break-even
        spec = importlib.util.spec_from_file_location("workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "workloads", workloads)  # its dataclass looks itself up there
        spec.loader.exec_module(workloads)
        for workload in workloads.WORKLOADS.values():
            for seed in range(100):
                run = parse_args(workload.argv(seed))
                tasks = cong._tasks(run.ids, run.primes, run.r_max, run.identities_n_max, run.wz_grid)
                assert cong._cost(tasks) <= cong._BREAK_EVEN, (workload.name, seed)
            assert cli_main(workload.argv(1)) == 0
        capsys.readouterr()
        assert forks == []

    @pytest.mark.parametrize("ids, primes, r_max, depth", [
        (R_INDEXED, primes_in(5, 50), 3, 1),  # 1.3 s at --jobs 2
        (EXACT_IDS, [5], 1, 300),  # 0.9 s at --jobs 2, 1.5 s in this process
    ], ids=["r-indexed-5-50-r3", "exact-300"])
    def test_large_sweeps_fork(self, ids, primes, r_max, depth, forks, monkeypatch):
        # --jobs 2, run here on a stub
        monkeypatch.setattr(cong, "_run_task", lambda task, sums: [])
        suite(ids, primes, r_max=r_max, jobs=2, identities_n_max=depth, wz_grid=depth // 3)
        assert forks == [2]

    @pytest.mark.parametrize("past, pooled", [(0, []), (1, [2])], ids=["at", "past"])
    def test_a_cost_at_the_break_even_runs_in_this_process(self, past, pooled, forks, monkeypatch):
        monkeypatch.setattr(cong, "_cost", lambda tasks: cong._BREAK_EVEN + past)
        verdicts = suite(["two-power-half"], [5, 7], jobs=2)
        assert forks == pooled
        assert [v.record(no_timing=True) for v in verdicts] == [
            v.record(no_timing=True) for v in suite(["two-power-half"], [5, 7])]

    def test_forked_pool_runs_every_task_once(self, monkeypatch):
        # more workers than cores, and more task indices than a pipe holds, as
        # a sweep of the 17,982 primes from 5 to 2 10^5 has
        tasks = [(i, []) for i in range(20_000)]
        assert 4 * len(tasks) > 65536
        assert cong._forked(tasks, cong.usable_cpus() + 1, lambda task: [task[0]]) == [[i] for i in range(20_000)]
        self.assert_no_child_left()

    @pytest.fixture
    def row_does(self, monkeypatch):
        # two-power-half, a row checked prime by prime, first calls act(p) in
        # the worker that checks p; the forked workers inherit the patch.  act
        # never runs in this process, so a worker may kill itself.  Any sweep
        # is past the break-even, so the pool runs it.
        row = REGISTRY["two-power-half"]
        parent = os.getpid()
        monkeypatch.setattr(cong, "usable_cpus", lambda: 2)
        monkeypatch.setattr(cong, "_BREAK_EVEN", 0)

        def patch(act):
            def pairs(p, r, e, table=None):
                if os.getpid() != parent:
                    act(p)
                return row.pairs(p, r, e, table=table)

            monkeypatch.setitem(REGISTRY, "two-power-half", dataclasses.replace(row, pairs=pairs))

        return patch

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_error_is_raised_at_once(self, row_does):
        # p = 17 goes first, to the worker that then sleeps; the other fails at 13
        def act(p):
            if p == 13:
                raise ValueError("boom")
            if p == 17:
                time.sleep(30)

        row_does(act)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^boom$"):
            suite(["two-power-half"], primes_in(5, 17), jobs=2)
        assert time.perf_counter() - start < 10
        self.assert_no_child_left()

    def test_killed_worker_is_an_error_naming_its_signal(self, row_does, capsys):
        row_does(lambda p: p == 13 and os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(RuntimeError, match="signal 9 "):
            suite(["two-power-half"], primes_in(5, 17), jobs=2)
        self.assert_no_child_left()
        assert cli_main(["--primes", "5:17", "--ids", "two-power-half", "--jobs", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "signal 9 " in captured.err
        assert len(captured.err.splitlines()) == 1
        self.assert_no_child_left()

    def test_interrupt_kills_the_workers(self, row_does):
        # an interrupt while the workers sleep ends the sweep at once
        def interrupt(signum, frame):
            raise KeyboardInterrupt

        row_does(lambda p: time.sleep(30))
        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            start = time.perf_counter()
            with pytest.raises(KeyboardInterrupt):
                suite(["two-power-half"], primes_in(5, 17), jobs=2)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.perf_counter() - start < 10
        self.assert_no_child_left()

    def test_repeated_ids_checked_once(self):
        once = suite(["morley", "thm-main", "I3"], [5, 7])
        twice = suite(["morley", "I3", "thm-main", "morley", "I3"], [5, 7])
        keys = [(v.id, v.p, v.r) for v in twice]
        assert len(keys) == len(set(keys)) == 5
        assert [(v.id, v.p, v.r, v.lhs, v.rhs) for v in twice] == [
            (v.id, v.p, v.r, v.lhs, v.rhs) for v in once]
        with pytest.raises(UnknownIdError):
            suite(["morley", "morley", "no-such-row"], [5])


def test_verdict_record_schema():
    verdict = check_congruence("thm-main", 5)
    rec = verdict.record(no_timing=True)
    assert list(rec) == ["id", "p", "r", "modulus", "lhs", "rhs", "pass", "micros"]
    assert rec["modulus"] == "5^4"
    assert rec["lhs"] == rec["rhs"] == "255"
    assert rec["micros"] == 0
    assert check_congruence("guo-half-64", 5, 2).record()["modulus"] == "5^4"
