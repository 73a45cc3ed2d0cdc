"""Acceptance suite: every criterion is an exact check (tolerance zero);
one PASS/FAIL line is printed per criterion.  Run with `pytest -s` to see
the lines as they happen."""

import operator
import random
import time
from fractions import Fraction

from supercong import check_congruence, check_identity_range
from supercong.combinat import binomial, pochhammer
from supercong.exactnum import reduce_mod
from supercong.special import bernoulli_exact, bernoulli_poly_mod_p, euler_poly_mod_p
from supercong.wz import (
    check_pair_identity,
    closed_form_g,
    eval_g,
    telescope_full_sum,
    telescope_half_sum,
    upper_tail_vanishes,
)
from supercong.cli import main
from supercong.congruences import _alt_quarter_sum, _sign
from conftest import primes_in

PRIMES_199 = primes_in(5, 199)


def report(number: int, name: str, ok: bool, elapsed: float, limit: float | None = None):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {number} ({name}): {status} [{elapsed:.1f}s]")
    assert ok, f"criterion {number} ({name}) failed"
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.1f}s)"


def test_criterion_1_main_theorem_sweep():
    start = time.time()
    ok = True
    for p in PRIMES_199:
        verdict = check_congruence("thm-main", p, 1)
        ok &= verdict.passed
        if p == 5:
            ok &= verdict.lhs == 255 and verdict.rhs == 255
    report(1, "half-sum mod p^4 for 5 <= p <= 199", ok, time.time() - start, limit=10)


def test_criterion_2_prime_power_sweep():
    start = time.time()
    ok = True
    for p in primes_in(5, 47):
        for r in (1, 2):
            ok &= check_congruence("thm-prime-power", p, r).passed
    ok &= check_congruence("thm-prime-power", 5, 3).passed
    anchor = check_congruence("thm-prime-power", 5, 1)
    ok &= anchor.lhs == 5 and anchor.rhs == 5 and anchor.modulus == 125
    report(2, "full sum mod p^(r+2), p <= 47, r <= 2, plus (5,3)", ok, time.time() - start, limit=30)


def test_criterion_3_cited_congruence_suite():
    start = time.time()
    ok = True
    plain = ["vanhamme", "wolstenholme-h1", "wolstenholme-h2", "central-2p1p",
             "sun-64", "guo-liu", "long-cxh-512", "mao-512", "cxh-8-full",
             "remark-sun-c51"]
    for cid in plain:
        for p in PRIMES_199:
            ok &= check_congruence(cid, p, 1).passed
    for cid in ("guo-half-64", "guo-conj-full-64"):
        for p in primes_in(5, 31):
            for r in (1, 2):
                ok &= check_congruence(cid, p, r).passed
    anchor = check_congruence("vanhamme", 5, 1)
    ok &= anchor.lhs == 5  # 435/512 == 5 (mod 125)
    report(3, "cited congruences, p <= 199 (power rows p <= 31)", ok, time.time() - start)


def test_criterion_4_lemma_suite():
    start = time.time()
    ok = True
    plain = ["morley", "lemma-2.2", "lemma-2.3", "lemma-2.4", "lemma-2.6a",
             "lemma-2.6b", "lemma-2.6-altsum", "lemma-2.7", "binom-16k",
             "poch-expansion", "two-power-half"]
    for cid in plain:
        for p in PRIMES_199:
            ok &= check_congruence(cid, p, 1).passed
    power = ["morley-power", "lemma-3.2", "lemma-3.3", "central-2pr",
             "ps-1", "ps-2", "ps-3", "neg-binom-unit"]
    for cid in power:
        for p in primes_in(5, 31):
            for r in (1, 2):
                ok &= check_congruence(cid, p, r).passed
    anchor = check_congruence("lemma-2.2", 5, 1)
    ok &= anchor.lhs == 91 and anchor.rhs == 91  # 393216 == 3466 == 91 (mod 125)
    report(4, "lemma suite, p <= 199 (power rows p <= 31, r <= 2)", ok, time.time() - start)


def test_criterion_5_wz_certification():
    start = time.time()
    ok = check_pair_identity(100, 100) == ()
    for m in range(1, 101):
        f_side, g_side = telescope_half_sum(m)
        ok &= f_side == g_side
    for big_m in range(2, 201):
        f_side, g_side = telescope_full_sum(big_m)
        ok &= f_side == g_side
        if big_m % 2:
            ok &= upper_tail_vanishes(big_m)
    for p_odd in range(5, 100, 2):
        for k in range(1, (p_odd + 1) // 2 + 1):
            ok &= closed_form_g(p_odd, k) == eval_g((p_odd + 1) // 2, k)
    report(5, "pair identity, telescoping, closed form", ok, time.time() - start, limit=60)


def test_criterion_6_identity_suite():
    start = time.time()
    ok = True
    for i in range(1, 13):
        ok &= check_identity_range(f"I{i}", 200) == ()
    report(6, "identities I1-I12 for n <= 200", ok, time.time() - start, limit=60)


def test_criterion_7_dual_route_euler_agreement():
    start = time.time()
    ok = True
    for p in primes_in(5, 499):
        euler = euler_poly_mod_p(p - 3, Fraction(1, 4), p)
        f = (p - 1) // 4
        alt_route = reduce_mod(2 * _sign(f) * _alt_quarter_sum(p), p, 1)
        b1 = bernoulli_poly_mod_p(p - 2, Fraction(4 - p, 8) % 1, p)
        b2 = bernoulli_poly_mod_p(p - 2, Fraction(-p, 8) % 1, p)
        bern_route = _sign(f) * pow(4, -1, p) * (b1 - b2) % p
        ok &= euler == alt_route == bern_route
    report(7, "E_{p-3}(1/4) via polynomial vs alternating/Bernoulli sums, p <= 499",
           ok, time.time() - start)


def test_criterion_8_property_suites():
    start = time.time()
    rng = random.Random(8)
    ok = True

    def q():
        return Fraction(rng.randint(-200, 200) or 1, rng.randint(1, 200))

    # field laws
    for _ in range(150):
        a, b, c = q(), q(), q()
        ok &= (a + b) + c == a + (b + c) and a * (b + c) == a * b + a * c

    # reduction homomorphism, e <= 6
    for _ in range(100):
        p = rng.choice([3, 5, 13])
        e = rng.randint(1, 6)
        q1, q2 = q(), q()
        if q1.denominator % p == 0 or q2.denominator % p == 0:
            continue
        for op in (operator.add, operator.sub, operator.mul):
            reduced = op(reduce_mod(q1, p, e), reduce_mod(q2, p, e))
            ok &= reduce_mod(op(q1, q2), p, e) == reduced % p**e

    # Pascal on the full integer window
    for n in range(-50, 51):
        for k in range(51):
            ok &= binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)

    # raising-factorial composition
    for _ in range(100):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 10))
        m, n = rng.randint(0, 30), rng.randint(0, 30)
        ok &= pochhammer(a, m + n) == pochhammer(a, m) * pochhammer(a + m, n)

    # odd Bernoulli indices vanish; reflection and addition formulas mod p
    for n in range(1, 41):
        ok &= bernoulli_exact(2 * n + 1) == 0
    from math import comb

    for p in (7, 13, 31):
        for n in range(p - 1):
            x = Fraction(rng.randint(-20, 20), rng.choice([1, 2, 4, 8]))
            y = Fraction(rng.randint(-20, 20), rng.choice([1, 2, 4, 8]))
            lhs = bernoulli_poly_mod_p(n, 1 - x, p)
            rhs = bernoulli_poly_mod_p(n, x, p)
            ok &= lhs == (rhs if n % 2 == 0 else -rhs % p)
            xr = reduce_mod(x, p, 1)
            acc = sum(
                comb(n, k) * bernoulli_poly_mod_p(n - k, y, p) * pow(xr, k, p)
                for k in range(n + 1)
            )
            ok &= acc % p == bernoulli_poly_mod_p(n, x + y, p)

    report(8, "field/homomorphism/Pascal/raising-factorial/Bernoulli properties",
           ok, time.time() - start)


def test_criterion_9_deterministic_reports(tmp_path):
    start = time.time()
    args = ["--primes", "5:60", "--ids", "thm-main,mao-512,lemma-2.6b,I3,I10,wz-full-sum",
            "--wz-grid", "15", "--identities-n-max", "25", "--format", "jsonl", "--no-timing"]
    first, second = tmp_path / "run1.jsonl", tmp_path / "run2.jsonl"
    code1 = main(args + ["--out", str(first)])
    code2 = main(args + ["--out", str(second)])
    ok = code1 == 0 and code2 == 0 and first.read_bytes() == second.read_bytes()
    report(9, "byte-identical reruns with --no-timing", ok, time.time() - start)
