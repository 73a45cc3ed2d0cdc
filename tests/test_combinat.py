from fractions import Fraction

import pytest

from supercong.combinat import (
    binomial,
    binomial_rational,
    factorial,
    frac_part,
    harmonic,
    pochhammer,
    recip_factorial,
)
import oracles
from oracles import binomial_factorial, falling_product


class TestFactorial:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            factorial(-1)


class TestBinomial:
    def test_examples(self):
        assert binomial(4, 2) == 6
        assert binomial(70, 35) == binomial_factorial(70, 35)
        assert binomial(0, 1) == 0
        assert binomial(-6, 3) == -56
        assert binomial(-6, 3) == (-1) ** 3 * binomial(8, 3)

    def test_out_of_range_lower_index(self):
        assert binomial(5, -1) == 0
        assert binomial(5, 6) == 0
        assert binomial(-5, -2) == 0

    def test_pascal_all_integer_upper(self):
        for n in range(-50, 51):
            for k in range(51):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)

    def test_symmetry(self):
        for n in range(101):
            for k in range(n + 1):
                assert binomial(n, k) == binomial(n, n - k)

    def test_reflection(self):
        for n in range(-50, 51):
            for k in range(51):
                assert binomial(n, k) == (-1) ** k * binomial(-n + k - 1, k)

    def test_matches_falling_product_oracle(self):
        for n in range(-20, 21):
            for k in range(12):
                assert binomial(n, k) == falling_product(n, k)


class TestBinomialRational:
    def test_examples(self):
        assert binomial_rational(Fraction(-1, 4), 1) == Fraction(-1, 4)
        prod = binomial_rational(Fraction(-1, 4), 2) * binomial_rational(Fraction(-3, 4), 2)
        assert binomial_rational(Fraction(-1, 4), 2) == Fraction(5, 32)
        assert binomial_rational(Fraction(-3, 4), 2) == Fraction(21, 32)
        assert prod == Fraction(105, 1024)
        assert prod == Fraction(binomial(8, 4) * binomial(4, 2), 64**2)
        assert binomial_rational(Fraction(17, 3), 0) == 1

    def test_agrees_with_integer_binomial(self):
        for a in range(41):
            for k in range(50):
                assert binomial_rational(a, k) == binomial(a, k)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            binomial_rational(Fraction(1, 2), -1)


class TestPochhammer:
    def test_examples(self):
        assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)
        assert pochhammer(Fraction(-7, 3), 0) == 1
        assert pochhammer(Fraction(1, 2), 3) / 6 == Fraction(5, 16)
        assert Fraction(binomial(6, 3), 4**3) == Fraction(5, 16)

    def test_composition(self, rng):
        for _ in range(150):
            a = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            m = rng.randint(0, 30)
            n = rng.randint(0, 30)
            assert pochhammer(a, m + n) == pochhammer(a, m) * pochhammer(a + m, n)

    def test_central_binomial_bridge(self):
        for m in range(101):
            assert Fraction(binomial(2 * m, m), 4**m) == pochhammer(Fraction(1, 2), m) / factorial(m)

    def test_splitting_identity(self):
        half = Fraction(1, 2)
        for n in range(1, 61):
            target = pochhammer(half, n - 1)
            for k in range(1, n + 1):
                assert pochhammer(half, n - k) * pochhammer(half + n - k, k - 1) == target


class TestHarmonic:
    def test_examples(self):
        assert harmonic(0, 1) == 0 and harmonic(0, 2) == 0
        assert harmonic(4, 1) == Fraction(25, 12)
        assert harmonic(4, 2) == Fraction(205, 144)

    def test_difference(self):
        for order in (1, 2):
            for n in range(1, 101):
                assert harmonic(n, order) - harmonic(n - 1, order) == Fraction(1, n**order)

    def test_matches_fraction_oracle(self):
        for order in (1, 2):
            for n in range(301):
                assert harmonic(n, order) == oracles.harmonic(n, order), (n, order)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            harmonic(3, 3)


class TestFracPart:
    def test_examples(self):
        assert frac_part(Fraction(-5, 8)) == Fraction(3, 8)
        assert frac_part(3) == 0
        assert frac_part(Fraction(4 - 13, 8)) == Fraction(7, 8)

    def test_range(self, rng):
        for _ in range(200):
            q = Fraction(rng.randint(-300, 300), rng.randint(1, 40))
            f = frac_part(q)
            assert 0 <= f < 1
            assert (q - f).denominator == 1


def test_recip_factorial_convention():
    assert recip_factorial(4) == Fraction(1, 24)
    assert recip_factorial(0) == 1
    assert recip_factorial(-1) == 0
    assert recip_factorial(-7) == 0
