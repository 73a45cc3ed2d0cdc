from fractions import Fraction

import pytest

from supercong.combinat import frac_part
from supercong.exactnum import NotPIntegralError, reduce_mod
from supercong.special import (
    bernoulli_diff_mod_p,
    bernoulli_exact,
    bernoulli_poly_exact,
    bernoulli_poly_mod_p,
    bernoulli_table_mod_p,
    euler_number_mod_p,
    euler_poly_mod_p,
    fermat_quotient2,
    legendre_symbol,
)
from conftest import primes_in
from oracles import bernoulli_double_sum, euler_number_gf, euler_poly_gf, legendre_by_squares


class TestBernoulliExact:
    def test_examples(self):
        assert bernoulli_exact(0) == 1
        assert bernoulli_exact(1) == Fraction(-1, 2)
        assert bernoulli_exact(3) == 0
        assert bernoulli_exact(12) == Fraction(-691, 2730)

    def test_odd_indices_vanish(self):
        for n in range(1, 41):
            assert bernoulli_exact(2 * n + 1) == 0

    def test_matches_double_sum_oracle(self):
        for n in range(25):
            assert bernoulli_exact(n) == bernoulli_double_sum(n)


class TestBernoulliTableModP:
    def test_examples(self):
        # reduce-the-exact-value oracle: B_4 = -1/30 == 3 (mod 7)
        assert bernoulli_table_mod_p(7, 5) == (1, 3, 6, 0, 3, 0)
        assert bernoulli_table_mod_p(5, 1) == (1, 2)
        assert bernoulli_table_mod_p(11, 0) == (1,)

    def test_structure(self):
        for p in (5, 13, 47):
            table = bernoulli_table_mod_p(p, p - 2)
            assert len(table) == p - 1
            assert table[0] == 1
            assert table[1] == (p - 1) // 2
            for k in range(3, p - 1, 2):
                assert table[k] == 0

    def test_agrees_with_exact_route(self):
        for p in primes_in(5, 199):
            entries = bernoulli_table_mod_p(p, min(60, p - 2))
            for k, value in enumerate(entries):
                assert value == reduce_mod(bernoulli_exact(k), p, 1)

    def test_index_range_guard(self):
        with pytest.raises(ValueError):
            bernoulli_table_mod_p(7, 6)  # p-1 would touch a p-divisible denominator
        with pytest.raises(ValueError):
            bernoulli_table_mod_p(9, 2)  # composite


class TestBernoulliPolyModP:
    def test_examples(self):
        # exact oracle: B_2(3) = 37/6 == 5 (mod 7)
        assert bernoulli_poly_exact(2, 3) == Fraction(37, 6)
        assert bernoulli_poly_mod_p(2, 3, 7) == 5
        # x = 0 collapses to B_n
        for n in range(6):
            assert bernoulli_poly_mod_p(n, 0, 11) == reduce_mod(bernoulli_exact(n), 11, 1)
        # B_2(1/2) = -1/12 == 4 (mod 7)
        assert bernoulli_poly_mod_p(2, Fraction(1, 2), 7) == 4

    def test_matches_exact_polynomial(self, rng):
        for p in (5, 13, 31):
            for n in range(p - 1):
                x = Fraction(rng.randint(-20, 20), rng.choice([1, 2, 3, 4, 8]))
                if x.denominator % p == 0:
                    continue
                assert bernoulli_poly_mod_p(n, x, p) == reduce_mod(bernoulli_poly_exact(n, x), p, 1)

    def test_reflection_mod_p(self, rng):
        # B_n(1-x) = (-1)^n B_n(x) (mod p)
        for p in (5, 7, 13, 31):
            for n in range(p - 1):
                x = Fraction(rng.randint(-30, 30), rng.choice([1, 2, 4, 8]))
                lhs = bernoulli_poly_mod_p(n, 1 - x, p)
                rhs = bernoulli_poly_mod_p(n, x, p)
                assert lhs == (rhs if n % 2 == 0 else -rhs % p)

    def test_addition_formula_mod_p(self, rng):
        # B_n(x+y) = sum_k C(n,k) B_{n-k}(y) x^k (mod p)
        from math import comb

        for p in (7, 13):
            for _ in range(10):
                n = rng.randint(0, p - 2)
                x = Fraction(rng.randint(-10, 10), rng.choice([1, 2, 4]))
                y = Fraction(rng.randint(-10, 10), rng.choice([1, 2, 4]))
                xr = reduce_mod(x, p, 1)
                acc = 0
                for k in range(n + 1):
                    acc += comb(n, k) * bernoulli_poly_mod_p(n - k, y, p) * pow(xr, k, p)
                assert acc % p == bernoulli_poly_mod_p(n, x + y, p)

    def test_guards(self):
        with pytest.raises(ValueError):
            bernoulli_poly_mod_p(6, 0, 7)
        with pytest.raises(NotPIntegralError):
            bernoulli_poly_mod_p(2, Fraction(1, 7), 7)


class TestEulerPolyModP:
    def test_examples(self):
        # exact oracle: E_2(x) = x^2 - x, so E_2(1/4) = -3/16 == 12 (mod 13)
        assert euler_poly_gf(2, Fraction(1, 4)) == Fraction(-3, 16)
        assert euler_poly_mod_p(2, Fraction(1, 4), 13) == 12
        for x in (0, 1, Fraction(1, 4), Fraction(3, 2)):
            assert euler_poly_mod_p(0, x, 11) == 1
        # E_2(1/2) = -1/4 == 5 (mod 7)
        assert euler_poly_mod_p(2, Fraction(1, 2), 7) == 5

    def test_matches_generating_function_oracle(self):
        points = (0, 1, Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(-5, 8))
        for p in (5, 7, 13, 31):
            for m in range(min(13, p - 2)):
                for x in points:
                    expected = reduce_mod(euler_poly_gf(m, x), p, 1)
                    assert euler_poly_mod_p(m, x, p) == expected

    def test_index_guard(self):
        with pytest.raises(ValueError):
            euler_poly_mod_p(5, 0, 7)  # needs m <= p-3


class TestEulerNumberModP:
    def test_examples(self):
        assert euler_number_mod_p(0, 11) == 1
        assert euler_number_mod_p(2, 7) == 6  # E_2 = -1
        for p in (7, 13):
            for m in (1, 3):
                assert euler_number_mod_p(m, p) == 0

    def test_matches_generating_function_oracle(self):
        classic = {0: 1, 2: -1, 4: 5, 6: -61, 8: 1385, 10: -50521}
        for m, value in classic.items():
            assert euler_number_gf(m) == value
        for p in (13, 31, 61):
            for m in range(11):
                assert euler_number_mod_p(m, p) == euler_number_gf(m) % p


def _table_bernoulli_diff(n, x, y, p):
    return (bernoulli_poly_mod_p(n, x, p) - bernoulli_poly_mod_p(n, y, p)) % p


def _table_euler_poly(m, x, p):
    # the Bernoulli bridge evaluated through the O(p^2) mod-p table
    n = m + 1
    diff = _table_bernoulli_diff(n, (Fraction(x) + 1) / 2, Fraction(x) / 2, p)
    return pow(2, n, p) * pow(n, -1, p) * diff % p


class TestPowerSumRoute:
    """The O(p) power-sum route against the Bernoulli table, the oracle it
    replaced on the hot path."""

    POINTS = (Fraction(1, 4), Fraction(1, 2), 0, 1, Fraction(3, 7), Fraction(-5, 8))

    def test_matches_table_route(self):
        for p in primes_in(5, 599):
            points = [x for x in self.POINTS if Fraction(x).denominator % p]
            for m in sorted({0, 1, 2, 3, p - 4, p - 3} & set(range(p - 2))):
                for x in points:
                    assert euler_poly_mod_p(m, x, p) == _table_euler_poly(m, x, p), (m, x, p)
                half = _table_euler_poly(m, Fraction(1, 2), p)
                assert euler_number_mod_p(m, p) == pow(2, m, p) * half % p, (m, p)
            for n in sorted({0, 1, 2, p - 3, p - 2}):
                for x, y in zip(points, points[1:] + points[:1]):
                    assert bernoulli_diff_mod_p(n, x, y, p) == _table_bernoulli_diff(
                        n, x, y, p), (n, x, y, p)
            # the two B_{p-2} arguments of lemma-2.6-altsum
            a, b = frac_part(Fraction(4 - p, 8)), frac_part(Fraction(-p, 8))
            assert bernoulli_diff_mod_p(p - 2, a, b, p) == _table_bernoulli_diff(p - 2, a, b, p)

    def test_inverse_squares_at_n_p_minus_2(self):
        # at n = p-2 > 1 the terms are read as inverse squares: every (x, y)
        # mod p, the arcs that wrap past p-1 (and so meet Y + j = 0) among
        # them, gives the raised power sum; p = 3 (n = 1) raises
        for p in primes_in(3, 31):
            n = p - 2
            for x in range(p):
                for y in range(p):
                    raised = n * sum(pow(y + j, n - 1, p) for j in range((x - y) % p)) % p
                    assert bernoulli_diff_mod_p(n, x, y, p) == raised, (p, x, y)

    def test_guards(self):
        with pytest.raises(ValueError):
            bernoulli_diff_mod_p(6, 0, 1, 7)  # needs n <= p-2
        with pytest.raises(ValueError):
            bernoulli_diff_mod_p(-1, 0, 1, 7)
        with pytest.raises(ValueError):
            bernoulli_diff_mod_p(2, 0, 1, 9)  # composite
        with pytest.raises(NotPIntegralError):
            bernoulli_diff_mod_p(2, Fraction(1, 7), 0, 7)
        with pytest.raises(NotPIntegralError):
            bernoulli_diff_mod_p(2, 0, Fraction(1, 7), 7)
        with pytest.raises(NotPIntegralError):
            euler_poly_mod_p(2, Fraction(1, 7), 7)
        with pytest.raises(ValueError):
            euler_poly_mod_p(0, 0, 3)  # needs p > 3


class TestFermatQuotient:
    def test_examples(self):
        assert fermat_quotient2(5) == 3
        assert fermat_quotient2(7) == 9
        assert fermat_quotient2(3) == 1

    def test_exactness(self):
        for p in primes_in(3, 199):
            assert 2 ** (p - 1) == 1 + p * fermat_quotient2(p)

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            fermat_quotient2(2)


class TestLegendreSymbol:
    def test_examples(self):
        assert legendre_symbol(1, 13) == 1
        assert legendre_symbol(-1, 5) == 1 and legendre_symbol(-1, 7) == -1
        assert legendre_symbol(2, 5) == -1 and legendre_symbol(2, 7) == 1

    def test_second_supplement(self):
        for p in primes_in(3, 199):
            assert legendre_symbol(2, p) == (1 if p % 8 in (1, 7) else -1)

    def test_matches_square_scan_oracle(self):
        for p in (3, 5, 7, 11, 13, 17):
            for a in range(-p, p + 1):
                assert legendre_symbol(a, p) == legendre_by_squares(a, p)

    def test_multiplicative(self, rng):
        for _ in range(200):
            p = rng.choice(primes_in(3, 97))
            a, b = rng.randint(1, 10**6), rng.randint(1, 10**6)
            if a % p == 0 or b % p == 0:
                continue
            assert legendre_symbol(a * b, p) == legendre_symbol(a, p) * legendre_symbol(b, p)
