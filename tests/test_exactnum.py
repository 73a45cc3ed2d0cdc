from fractions import Fraction

import pytest

from supercong.exactnum import NotPIntegralError, is_prime, padic_valuation, reduce_mod
from oracles import reduce_by_scan, v_p


def rand_rational(rng, p_free_for=None):
    while True:
        num = rng.randint(-500, 500)
        den = rng.randint(1, 500)
        if num == 0:
            continue
        q = Fraction(num, den)
        if p_free_for is None or q.denominator % p_free_for:
            return q


class TestPadicValuation:
    def test_examples(self):
        assert padic_valuation(Fraction(165, 8), 5) == 1
        assert padic_valuation(Fraction(1), 7) == 0
        assert padic_valuation(Fraction(25, 12), 5) == 2  # H_4

    def test_negative_for_denominator(self):
        assert padic_valuation(Fraction(3, 25), 5) == -2

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            padic_valuation(Fraction(0), 5)

    def test_matches_factor_counting_oracle(self, rng):
        for _ in range(300):
            q = rand_rational(rng)
            for p in (2, 3, 5, 7, 13):
                assert padic_valuation(q, p) == v_p(q, p)

    def test_additive_in_products(self, rng):
        for _ in range(200):
            a, b = rand_rational(rng), rand_rational(rng)
            for p in (2, 5, 11):
                assert padic_valuation(a * b, p) == padic_valuation(a, p) + padic_valuation(b, p)


class TestReduceMod:
    def test_examples(self):
        assert reduce_mod(Fraction(165, 8), 5, 4) == 255
        assert reduce_mod(Fraction(0, 1), 7, 3) == 0
        assert reduce_mod(Fraction(435, 512), 5, 3) == 5

    def test_matches_scan_oracle(self, rng):
        for _ in range(100):
            for p, e in ((5, 3), (7, 2), (3, 4)):
                q = rand_rational(rng, p_free_for=p)
                assert reduce_mod(q, p, e) == reduce_by_scan(q, p, e)

    def test_non_p_integral_rejected(self):
        with pytest.raises(NotPIntegralError):
            reduce_mod(Fraction(1, 5), 5, 2)
        with pytest.raises(NotPIntegralError):
            reduce_mod(Fraction(3, 14), 7, 1)

    def test_homomorphism(self, rng):
        import operator

        for _ in range(120):
            for p in (3, 5, 13):
                e = rng.randint(1, 6)
                q1 = rand_rational(rng, p_free_for=p)
                q2 = rand_rational(rng, p_free_for=p)
                for op in (operator.add, operator.sub, operator.mul):
                    reduced = op(reduce_mod(q1, p, e), reduce_mod(q2, p, e))
                    assert reduce_mod(op(q1, q2), p, e) == reduced % p**e

    def test_negative_values_canonical(self):
        assert reduce_mod(Fraction(-115, 2), 5, 4) == 255

    def test_normalizes_and_validates(self):
        assert reduce_mod(-370, 5, 4) == 255
        assert reduce_mod(631, 5, 4) == 6
        with pytest.raises(ValueError):
            reduce_mod(0, 4, 2)  # composite base
        with pytest.raises(ValueError):
            reduce_mod(0, 5, 0)


class TestBigRational:
    def test_canonical_form(self, rng):
        from math import gcd

        for _ in range(200):
            a, b = rand_rational(rng), rand_rational(rng)
            for q in (a + b, a - b, a * b, a / b):
                assert q.denominator >= 1
                assert gcd(abs(q.numerator), q.denominator) == 1
        assert Fraction(0, 7) == Fraction(0, 1)

    def test_field_laws(self, rng):
        for _ in range(200):
            a, b, c = (rand_rational(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert a + (-a) == 0 and a * (1 / a) == 1


def test_is_prime_desk_scale():
    assert [p for p in range(60) if is_prime(p)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
    ]
    assert is_prime(9973) and not is_prime(9999)
