import ast
import dataclasses
import inspect
import operator
from fractions import Fraction
from math import comb, factorial

import pytest

import oracles
from supercong import UnknownIdError, check_identity, check_identity_range, combinat, identities, special, wz
from supercong.special import bernoulli_poly_exact
from supercong.identities import REGISTRY, W_H, W_H2, W_HH, W_ONE, _i10_class


def test_registry_shape():
    assert set(REGISTRY) == {f"I{i}" for i in range(1, 13)}
    for spec in REGISTRY.values():
        assert spec.description


class TestAnchors:
    def test_i1_at_1(self):
        assert identities._fold_pair(2, W_ONE, identities._F_ONE) == (Fraction(3, 2),) * 2

    def test_i3_at_1(self):
        assert identities._fold_pair(2, W_H, identities._F_H) == (Fraction(1, 2),) * 2

    def test_i9_at_2(self):
        assert identities._i9_lhs(2) == identities._i9_rhs(2) == Fraction(-1, 4)

    def test_i11_at_2(self):
        assert identities._i11_lhs(2) == identities._i11_rhs(2) == Fraction(105, 1024)

    def test_i10_point_example(self):
        # x in {0,2,4}: 0+2+4 = 6 = (2/2)(B_2(3) - B_2(0)), times D n m = 210 * 2 * 2
        assert _i10_class(5, 2, 0, *identities._i10_bernoulli())[1] == (6 * 840, 6 * 840)

    def test_empty_sums_at_zero(self):
        for iid in ("I7", "I8", "I9"):
            assert check_identity(iid, 0)


def test_all_identities_on_modest_range():
    for iid in REGISTRY:
        failures = check_identity_range(iid, 60)
        assert failures == (), (iid, failures[:3])


@pytest.mark.parametrize("iid", ["I3", "I4", "I5", "I6"])
def test_harmonic_identities_alone_at_any_n(iid, monkeypatch):
    # each n checked by itself, out of order, from an empty table of H_k
    monkeypatch.setattr(combinat, "_HARMONIC", {1: [0], 2: [0]})
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
        spec.id, spec.description, spec.n_min, lambda n: n % 2 == 0))
    assert check_identity_range("I12", 7) == (1, 3, 5, 7)


# each homogeneous package weight with the plain weight w(H_k, H_k^(2)) it scales
WEIGHTS = (
    (W_ONE, lambda h1, h2: 1),
    (W_H, lambda h1, h2: h1),
    (W_HH, lambda h1, h2: h1 * h1 + h2),
    (W_H2, lambda h1, h2: h2),
)


def test_fold_matches_fraction_oracle():
    for weight, plain in WEIGHTS:
        for t in range(60):
            assert identities.fold(t, t // 2, weight) == oracles.fold(t, t // 2, plain), t


def test_quarter_pair_is_the_oracle_times_common_denominator():
    for a_num, b_num in ((-1, -3), (-3, -1)):
        for n in range(40):
            scale = 4**n * factorial(n) ** 3
            lhs, rhs = oracles.quarter_pair(n, a_num, b_num)
            assert identities._quarter_pair(n, a_num, b_num) == (lhs * scale, rhs * scale), n


def _replaced_check(monkeypatch, iid, check):
    monkeypatch.setitem(REGISTRY, iid, dataclasses.replace(REGISTRY[iid], check=check))


def test_perturbed_i3_factor_is_reported(monkeypatch):
    # the registry binds each factor when it is built, so the perturbed
    # factor enters through an I3 check built by the same _fold_check
    factor = identities._F_H
    monkeypatch.setattr(identities, "_F_H", lambda t: factor(t) + Fraction(1, 10**6))
    _replaced_check(monkeypatch, "I3", identities._fold_check(0, W_H, identities._F_H))
    assert check_identity_range("I3", 10) == tuple(range(11))


def test_wrong_quarter_parameter_is_reported(monkeypatch):
    # C(-5/4, k) in place of C(-3/4, k): the empty sums still agree at n = 0
    _replaced_check(monkeypatch, "I7", lambda n: operator.eq(*identities._quarter_pair(n, -1, -5)))
    assert check_identity_range("I7", 10) == tuple(range(1, 11))


def test_perturbed_i9_side_is_reported(monkeypatch):
    # the right side off by one in its numerator over n!^2
    off = lambda n: identities._i9_rhs(n) + Fraction(1, factorial(n) ** 2)
    _replaced_check(monkeypatch, "I9", identities._pointwise(identities._i9_lhs, off))
    assert check_identity_range("I9", 10) == tuple(range(11))


def test_i10_class_is_the_oracle_times_common_denominator():
    # both sides times D (k+1) m, with D = 210 the lcm of the denominators of B_0 .. B_7
    k_max = identities._I10_K_MAX
    bern = identities._i10_bernoulli()
    assert bern == (210, [210 * special.bernoulli_exact(i) for i in range(k_max + 2)])
    for big_p in range(1, 21):
        for m in range(1, identities._I10_M_MAX + 1):
            for r in range(m):
                upper = Fraction(big_p, m) + combinat.frac_part(Fraction(r - big_p, m))
                lower = combinat.frac_part(Fraction(r, m))
                for k, pair in enumerate(_i10_class(big_p, m, r, *bern)):
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


def test_i10_reads_the_bernoulli_numbers_once_per_p(monkeypatch):
    calls = []
    exact = special.bernoulli_exact
    monkeypatch.setattr(identities, "bernoulli_exact", lambda n: calls.append(n) or exact(n))
    assert check_identity_range("I10", 5) == ()
    assert calls == list(range(identities._I10_K_MAX + 2)) * 5


def test_perturbed_i12_side_is_reported(monkeypatch):
    # the right side off by one at k = 1, where 2k <= n + 1 for every n >= 1
    pair = identities._i12_pair

    def off(n, k):
        lhs, rhs = pair(n, k)
        return lhs, rhs + (k == 1)

    monkeypatch.setattr(identities, "_i12_pair", off)
    assert check_identity_range("I12", 10) == tuple(range(1, 11))


def test_i12_pair_is_the_rational_statement_times_its_denominator():
    # 1/(negative)! = 0 leaves only the left side where 2k > n + 1
    for n in range(1, 40):
        for k in range(1, n + 1):
            lhs = comb(2 * n - 2 * k, n - 1)
            if 2 * k > n + 1:
                assert identities._i12_pair(n, k) == (lhs, 0) and lhs == 0
                continue
            scale = factorial(n - 1) * factorial(n + 1 - 2 * k)
            rhs = comb(2 * n - 2 * k, n - k) * Fraction(factorial(n - k) ** 2, scale)
            assert identities._i12_pair(n, k) == (lhs * scale, rhs * scale), (n, k)


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
