from fractions import Fraction

import pytest

import oracles
from supercong.combinat import binomial
from supercong.wz import (
    REGISTRY,
    check_pair_identity,
    closed_form_g,
    eval_f,
    eval_g,
    telescope_full_sum,
    telescope_half_sum,
    upper_tail_vanishes,
)


class TestEvalF:
    def test_examples(self):
        assert eval_f(0, 0) == 1
        for n in range(1, 11):
            assert eval_f(n, n) == 0
        assert eval_f(1, 0) == -4

    def test_support(self):
        for k in range(61):
            for n in range(k):
                assert eval_f(n, k) == 0

    def test_reduces_to_half_sum_summand(self):
        for n in range(101):
            assert eval_f(n, 0) == Fraction((3 * n + 1) * binomial(2 * n, n) ** 3, (-8) ** n)

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            eval_f(-1, 0)


def test_f_and_g_equal_their_definitions():
    for n in range(41):
        for k in range(41):
            assert eval_f(n, k) == oracles.f_exact(n, k), (n, k)
            assert eval_g(n, k) == oracles.g_exact(n, k), (n, k)


class TestEvalG:
    def test_examples(self):
        for k in range(5):
            assert eval_g(0, k) == 0
        assert eval_g(1, 1) == 1
        assert eval_g(2, 1) == -3

    def test_support(self):
        for k in range(61):
            for n in range(k):
                assert eval_g(n, k) == 0


class TestPairIdentity:
    def test_spot_points(self):
        assert eval_f(1, 0) - eval_f(1, 1) == eval_g(2, 1) - eval_g(1, 1) == -4
        assert eval_f(0, 0) - eval_f(0, 1) == eval_g(1, 1) - eval_g(0, 1) == 1

    def test_grid(self):
        assert check_pair_identity(40, 40) == ()

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            check_pair_identity(0, 5)


def test_perturbed_f_is_reported(monkeypatch):
    # 8^n F(3, 0) off by one: the pair identity fails at (3, 1) only, and
    # every full sum that contains F(3, 0), M = 4 .. 10 at grid depth 5
    from supercong import wz

    f8 = wz._f8
    monkeypatch.setattr(wz, "_f8", lambda n, k: f8(n, k) + ((n, k) == (3, 0)))
    assert wz.check_pair_identity(5, 5) == ((3, 1),)
    assert wz.REGISTRY["wz-pair"](5) == 1
    assert wz.REGISTRY["wz-full-sum"](5) == 7


def test_each_grid_value_is_evaluated_once(monkeypatch):
    # the pair grid reads F(n,k) for n <= n_max and G(n,k) for n <= n_max + 1,
    # k <= k_max, each once; wz-full-sum at depth g sums F(n,0), n < 2g, once
    from supercong import wz

    calls = {"f": [], "g": []}
    f8, g8 = wz._f8, wz._g8
    monkeypatch.setattr(wz, "_f8", lambda n, k: calls["f"].append((n, k)) or f8(n, k))
    monkeypatch.setattr(wz, "_g8", lambda n, k: calls["g"].append((n, k)) or g8(n, k))
    assert wz.check_pair_identity(7, 5) == ()
    assert len(calls["f"]) == len(set(calls["f"])) == 8 * 6
    assert len(calls["g"]) == len(set(calls["g"])) == 9 * 6
    calls["f"].clear()
    assert wz.REGISTRY["wz-full-sum"](6) == 0
    assert sorted(calls["f"]) == [(n, 0) for n in range(12)]


class TestTelescoping:
    def test_half_examples(self):
        assert telescope_half_sum(1) == (Fraction(-3), Fraction(-3))
        f_side, g_side = telescope_half_sum(2)
        assert f_side == g_side == Fraction(165, 8)

    def test_half_components_equal(self):
        for m in range(1, 61):
            f_side, g_side = telescope_half_sum(m)
            assert f_side == g_side

    def test_full_examples(self):
        assert telescope_full_sum(2) == (Fraction(-3), Fraction(-3))
        f_side, g_side = telescope_full_sum(5)
        assert f_side == g_side == Fraction(487935, 512)

    def test_full_components_equal(self):
        for big_m in range(2, 81):
            f_side, g_side = telescope_full_sum(big_m)
            assert f_side == g_side

    def test_odd_upper_tail_vanishes(self):
        for big_m in range(3, 100, 2):
            assert upper_tail_vanishes(big_m)
            assert sum(eval_g(big_m, k) for k in range(1, big_m)) == sum(
                eval_g(big_m, k) for k in range(1, (big_m + 1) // 2 + 1)
            )

    def test_bounds(self):
        with pytest.raises(ValueError):
            telescope_half_sum(0)
        with pytest.raises(ValueError):
            telescope_full_sum(1)


class TestClosedFormG:
    def test_examples(self):
        assert closed_form_g(5, 1) == eval_g(3, 1) == Fraction(135, 8)
        assert closed_form_g(5, 3) == eval_g(3, 3) == 0
        assert closed_form_g(9, 2) == eval_g(5, 2)  # composite odd: pure algebra

    def test_agrees_with_direct_route(self):
        for p_odd in range(5, 32, 2):
            for k in range(1, (p_odd + 1) // 2 + 1):
                assert closed_form_g(p_odd, k) == eval_g((p_odd + 1) // 2, k)

    def test_integer_route_matches_rational_formula(self):
        for p_odd in range(5, 62, 2):
            for k in range(1, (p_odd + 1) // 2 + 1):
                assert closed_form_g(p_odd, k) == oracles.closed_form_g_rational(p_odd, k)

    def test_domain(self):
        with pytest.raises(ValueError):
            closed_form_g(8, 1)
        with pytest.raises(ValueError):
            closed_form_g(9, 6)

    def test_registry_check_covers_the_whole_grid(self, monkeypatch):
        # wz-closed-form at grid depth g checks every odd 5 <= p_odd <= 2g - 1
        from supercong import wz

        seen = []
        monkeypatch.setattr(wz, "_closed_form", lambda p_odd: seen.append(p_odd) or [])
        assert wz.REGISTRY["wz-closed-form"](52) == 0
        assert sorted(seen) == list(range(5, 2 * 52, 2))

    def test_smallest_grids_still_check_p_odd_5(self, monkeypatch):
        # range(5, 2g, 2) is empty for g <= 2; p_odd = 5 is checked anyway
        from supercong import wz

        monkeypatch.setattr(wz, "_closed_form", lambda p_odd: [(-1, 1)] * ((p_odd + 1) // 2))
        for grid in (1, 2):
            assert wz.REGISTRY["wz-closed-form"](grid) > 0

    def test_zero_points_are_compared(self, monkeypatch):
        # at (n, k) = (3, 3) the closed form for p_odd = 5 is 0, as
        # 1/((p+3)/2 - 2k)! = 1/(-2)! = 0; a G that is not 0 there fails
        from supercong import wz

        assert closed_form_g(5, 3) == 0
        g8 = wz._g8
        monkeypatch.setattr(wz, "_g8", lambda n, k: g8(n, k) + ((n, k) == (3, 3)))
        assert wz.REGISTRY["wz-closed-form"](3) == 1


@pytest.mark.parametrize("cid", sorted(REGISTRY))
def test_grid_checks_build_no_fraction(cid, monkeypatch):
    # every grid check compares integers; Fraction is for the public views only
    from supercong import wz

    def refuse(*args):
        raise AssertionError("a grid check built a Fraction")

    monkeypatch.setattr(wz, "Fraction", refuse)
    assert REGISTRY[cid](12) == 0
