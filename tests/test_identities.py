import ast
import dataclasses
import inspect
from fractions import Fraction
from functools import partial
from math import comb, factorial, lcm

import pytest

import oracles
from supercong import UnknownIdError, check_identity, check_identity_range, combinat, identities, special, wz
from supercong.special import bernoulli_poly_exact
from supercong.identities import REGISTRY, W_H, W_HH, W_ONE


def test_registry_shape():
    assert set(REGISTRY) == {f"I{i}" for i in range(1, 13)}
    for spec in REGISTRY.values():
        assert spec.description


def _spied_i10(monkeypatch, run):
    """{(a, m, r): pairs} of every I10 instance that run() evaluates, and
    the number of evaluations; run() must find no failure."""
    seen, calls, evaluate = {}, [], identities._i10_class

    def spy(a, m, r, *rest):
        calls.append((a, m, r))
        seen[a, m, r] = evaluate(a, m, r, *rest)
        return seen[a, m, r]

    monkeypatch.setattr(identities, "_i10_class", spy)
    assert run()
    return seen, len(calls)


def _fold(top, n, weight):
    """sum_{k<=n} C(top,k) C(top-k,k) w(H_k, H_k^(2)) / 4^k from identities._fold_sum,
    an integer over 4^n u^2, u = lcm(1..n)."""
    u = lcm(*range(1, n + 1))
    ws = [weight(u, *h) for h in identities._harmonic_at(u, range(n + 1))]
    return Fraction(identities._fold_sum(top, n, ws), u * u << 2 * n)


class TestAnchors:
    def test_i1_at_1(self):
        # C(4,2)/2^2 = 3/2 on both sides
        assert _fold(2, 1, W_ONE) == Fraction(comb(4, 2), 4) == Fraction(3, 2)
        assert check_identity("I1", 1)

    def test_i3_at_1(self):
        # 3H_2 - 2H_4 = 1/3, so the right side is 3/2 * 1/3; u = lcm(1..4) = 12
        assert _fold(2, 1, W_H) == Fraction(1, 2)
        assert identities._F_H(12, 12 * Fraction(3, 2), 0, 12 * Fraction(25, 12), 0) == Fraction(144, 3)
        assert check_identity("I3", 1)

    def test_i9_at_2(self):
        # both sides -1/4, times n! L^2 = 2 * 2^2
        assert list(identities._i9_pairs(2, 2)) == [(-2, -2)]

    def test_i11_at_2(self):
        # both sides 105/1024, times 64^2 2!^2
        assert list(identities._i11_pairs(2, 2)) == [(1680, 1680)]

    def test_i10_point_example(self, monkeypatch):
        # x in {0,2,4}: 0+2+4 = 6 = (2/2)(B_2(3) - B_2(0)), times D n m = 210 * 2 * 2;
        # P = 5 meets the class of 0 mod 2 through a = 6
        seen, _ = _spied_i10(monkeypatch, lambda: check_identity("I10", 5))
        assert seen[6, 2, 0][1] == (6 * 840, 6 * 840)

    def test_empty_sums_at_zero(self):
        for iid in ("I7", "I8", "I9"):
            assert check_identity(iid, 0)


def test_all_identities_on_modest_range():
    for iid in REGISTRY:
        failures = check_identity_range(iid, 60)
        assert failures == (), (iid, failures[:3])


@pytest.mark.parametrize("iid", ["I3", "I4", "I5", "I6"])
def test_harmonic_identities_alone_at_any_n(iid):
    # each n checked by itself, out of order
    for n in (23, 0, 5, 24, 1):
        assert check_identity(iid, n), (iid, n)


def test_unknown_id():
    with pytest.raises(UnknownIdError):
        check_identity("I13", 1)
    with pytest.raises(UnknownIdError):
        check_identity_range("nope", 5)


def test_below_declared_range():
    with pytest.raises(ValueError):
        check_identity("I12", 0)


def test_range_verdict_reports_bounds(monkeypatch):
    assert check_identity_range("I1", 25) == ()
    # a check that fails at odd n reports exactly those n, from n_min up
    spec = REGISTRY["I12"]
    monkeypatch.setitem(REGISTRY, "I12", identities.IdentitySpec(
        spec.id, spec.description, spec.n_min, lambda lo, hi: [n for n in range(lo, hi + 1) if n % 2]))
    assert check_identity_range("I12", 7) == (1, 3, 5, 7)


# H_k^(2) made homogeneous of degree 2, like the package weights of I1-I6
W_H2 = lambda u, h1, h2: h2

# each homogeneous weight with the plain weight w(H_k, H_k^(2)) it scales
WEIGHTS = (
    (W_ONE, lambda h1, h2: 1),
    (W_H, lambda h1, h2: h1),
    (W_HH, lambda h1, h2: h1 * h1 + h2),
    (W_H2, lambda h1, h2: h2),
)


def test_fold_matches_fraction_oracle():
    for weight, plain in WEIGHTS:
        for t in range(60):
            assert _fold(t, t // 2, weight) == oracles.fold(t, t // 2, plain), t


def test_quarter_pair_is_the_oracle_times_common_denominator():
    # every n of the range 0..N over the one denominator 4^N N! lcm(1..N)^2
    top = 39
    scale = 4**top * factorial(top) * lcm(*range(1, top + 1)) ** 2
    for a_num, b_num in ((-1, -3), (-3, -1)):
        pairs = list(identities._quarter_pairs(0, top, a_num, b_num))
        for n, pair in enumerate(pairs):
            lhs, rhs = oracles.quarter_pair(n, a_num, b_num)
            assert pair == (lhs * scale, rhs * scale), n
        assert list(identities._quarter_pairs(17, top, a_num, b_num)) == pairs[17:]


def _replaced_check(monkeypatch, iid, check):
    monkeypatch.setitem(REGISTRY, iid, dataclasses.replace(REGISTRY[iid], check=check))


def test_perturbed_i3_factor_is_reported(monkeypatch):
    # the registry binds each factor when it is built, so the perturbed
    # factor enters through an I3 check built by the same _fold_check
    factor = identities._F_H
    monkeypatch.setattr(identities, "_F_H", lambda u, *hs: factor(u, *hs) + Fraction(u * u, 10**6))
    _replaced_check(monkeypatch, "I3", identities._fold_check(0, W_H, identities._F_H))
    assert check_identity_range("I3", 10) == tuple(range(11))


def test_wrong_quarter_parameter_is_reported(monkeypatch):
    # C(-5/4, k) in place of C(-3/4, k): the empty sums still agree at n = 0
    wrong = partial(identities._quarter_pairs, a_num=-1, b_num=-5)
    _replaced_check(monkeypatch, "I7", identities._failing(wrong))
    assert check_identity_range("I7", 10) == tuple(range(1, 11))


def test_perturbed_i9_side_is_reported(monkeypatch):
    # the right side off by one in its numerator over n! lcm(1..N)^2
    off = lambda lo, hi: ((lhs, rhs + 1) for lhs, rhs in identities._i9_pairs(lo, hi))
    _replaced_check(monkeypatch, "I9", identities._failing(off))
    assert check_identity_range("I9", 10) == tuple(range(11))


def test_i10_class_is_the_oracle_times_common_denominator(monkeypatch):
    # both sides times D (k+1) m, with D = 210 the lcm of the denominators of
    # B_0 .. B_7; each P reads the instance a = P + ((r-P) mod m) of its class
    k_max = identities._I10_K_MAX
    bern = identities._i10_bernoulli()
    assert bern == (210, [210 * special.bernoulli_exact(i) for i in range(k_max + 2)])
    seen, _ = _spied_i10(monkeypatch, lambda: check_identity_range("I10", 20) == ())
    for big_p in range(1, 21):
        for m in range(1, identities._I10_M_MAX + 1):
            for r in range(m):
                upper = Fraction(big_p, m) + combinat.frac_part(Fraction(r - big_p, m))
                lower = combinat.frac_part(Fraction(r, m))
                for k, pair in enumerate(seen[big_p + (r - big_p) % m, m, r]):
                    lhs = sum(x**k for x in range(r, big_p, m))
                    diff = bernoulli_poly_exact(k + 1, upper) - bernoulli_poly_exact(k + 1, lower)
                    scale = 210 * (k + 1) * m
                    assert pair == (lhs * scale, Fraction(m**k, k + 1) * diff * scale), (big_p, m, r, k)
    assert k == k_max


def test_wrong_bernoulli_number_is_reported(monkeypatch):
    # I10 reads B_0 .. B_7 at run time; B_2 = 1/7 in place of 1/6 breaks k >= 2 at every P
    exact = special.bernoulli_exact
    monkeypatch.setattr(identities, "bernoulli_exact",
                        lambda n: Fraction(1, 7) if n == 2 else exact(n))
    assert check_identity_range("I10", 10) == tuple(range(1, 11))


def test_i10_reads_the_bernoulli_numbers_once_per_call(monkeypatch):
    calls = []
    exact = special.bernoulli_exact
    monkeypatch.setattr(identities, "bernoulli_exact", lambda n: calls.append(n) or exact(n))
    assert check_identity_range("I10", 5) == ()
    assert calls == list(range(identities._I10_K_MAX + 2))
    assert check_identity("I10", 3)
    assert calls == list(range(identities._I10_K_MAX + 2)) * 2


def test_i10_evaluates_each_instance_once(monkeypatch):
    # P = 1..N meet 36 + 8(N-1) instances (a, m, r), 668 at N = 80, where
    # one evaluation per (P, m, r) would be 36 N = 2880
    seen, calls = _spied_i10(monkeypatch, lambda: check_identity_range("I10", 80) == ())
    assert calls == len(seen) == 36 + 8 * 79 == 668


def test_perturbed_i12_side_is_reported(monkeypatch):
    # the right side off by one at k = 1 (its first entry), where 2k <= n + 1 for every n >= 1
    off = lambda lo, hi: ((lhs, [rhs[0] + 1, *rhs[1:]]) for lhs, rhs in identities._i12_pairs(lo, hi))
    _replaced_check(monkeypatch, "I12", identities._failing(off))
    assert check_identity_range("I12", 10) == tuple(range(1, 11))


def test_i12_pair_is_the_rational_statement_times_its_denominator():
    # 1/(negative)! = 0 leaves only the left side where 2k > n + 1
    for n, (lhs_row, rhs_row) in enumerate(identities._i12_pairs(1, 39), 1):
        for k, pair in enumerate(zip(lhs_row, rhs_row), 1):
            lhs = comb(2 * n - 2 * k, n - 1)
            if 2 * k > n + 1:
                assert pair == (lhs, 0) and lhs == 0
                continue
            scale = factorial(n - 1) * factorial(n + 1 - 2 * k)
            rhs = comb(2 * n - 2 * k, n - k) * Fraction(factorial(n - k) ** 2, scale)
            assert pair == (lhs * scale, rhs * scale), (n, k)
        assert k == n


def test_no_fraction_is_built_inside_a_sum():
    # each exact value is one integer over a common denominator: a
    # Fraction(...) call inside a loop or comprehension, in any function or
    # lambda of these modules, would bring back a gcd per term
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    offenders = {
        (module.__name__, call.lineno)
        for module in (combinat, identities, wz)
        for loop in ast.walk(ast.parse(inspect.getsource(module)))
        if isinstance(loop, loops)
        for call in ast.walk(loop)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "Fraction"
    }
    assert not offenders, f"Fraction built inside a loop: {sorted(offenders)}"


def test_no_binomial_or_factorial_inside_the_fold_loop():
    # I1-I6 step C(t,k) C(t-k,k) by its ratio: no comb, binomial or factorial
    # call may sit inside a loop of the fold over k
    names = {"comb", "binomial", "factorial"}
    loops = (ast.For, ast.While, ast.ListComp, ast.GeneratorExp)
    offenders = [
        call.lineno
        for loop in ast.walk(ast.parse(inspect.getsource(identities._fold_sum)))
        if isinstance(loop, loops)
        for call in ast.walk(loop)
        if isinstance(call, ast.Call) and getattr(call.func, "id", getattr(call.func, "attr", None)) in names
    ]
    assert not offenders, offenders


def _perturb_b2(monkeypatch):
    exact = special.bernoulli_exact
    monkeypatch.setattr(identities, "bernoulli_exact", lambda n: Fraction(1, 7) if n == 2 else exact(n))


def _perturb_f_h(monkeypatch):
    factor = identities._F_H
    monkeypatch.setattr(identities, "_F_H", lambda u, *hs: factor(u, *hs) + Fraction(u * u, 10**6))
    _replaced_check(monkeypatch, "I3", identities._fold_check(0, W_H, identities._F_H))


def _perturb_one_i10_instance(monkeypatch):
    # the instance (a, m, r) = (10, 3, 1) serves P = 8, 9, 10 and no other P
    evaluate = identities._i10_class

    def off(a, m, r, *rest):
        pairs = evaluate(a, m, r, *rest)
        return pairs[:-1] + [(0, 1)] if (a, m, r) == (10, 3, 1) else pairs

    monkeypatch.setattr(identities, "_i10_class", off)


PERTURBED = {
    # id: (perturbation, the failing n <= 30 that the per-n checks report for
    # the same perturbation); the last is new with the range route
    "I10": (_perturb_b2, tuple(range(1, 31))),
    "I3": (_perturb_f_h, tuple(range(31))),
    "I7": (lambda mp: _replaced_check(mp, "I7", identities._failing(
        partial(identities._quarter_pairs, a_num=-1, b_num=-5))), tuple(range(1, 31))),
    "I9": (lambda mp: _replaced_check(mp, "I9", identities._failing(
        lambda lo, hi: ((lhs, rhs + 1) for lhs, rhs in identities._i9_pairs(lo, hi)))), tuple(range(31))),
    "I12": (lambda mp: _replaced_check(mp, "I12", identities._failing(
        lambda lo, hi: ((lhs, [rhs[0] + 1, *rhs[1:]]) for lhs, rhs in identities._i12_pairs(lo, hi)))),
        tuple(range(1, 31))),
    "I10 at one instance": (_perturb_one_i10_instance, (8, 9, 10)),
}


@pytest.mark.parametrize("iid", sorted(REGISTRY))
def test_point_and_range_routes_agree(iid):
    spec = REGISTRY[iid]
    failing = check_identity_range(iid, 30)
    assert [check_identity(iid, n) for n in range(spec.n_min, 31)] == [
        n not in failing for n in range(spec.n_min, 31)]


@pytest.mark.parametrize("case", sorted(PERTURBED))
def test_point_and_range_routes_agree_under_perturbation(case, monkeypatch):
    perturb, expected = PERTURBED[case]
    perturb(monkeypatch)
    iid = case.split()[0]
    spec = REGISTRY[iid]
    assert check_identity_range(iid, 30) == expected
    assert tuple(n for n in range(spec.n_min, 31) if not check_identity(iid, n)) == expected
