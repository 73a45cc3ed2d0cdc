from fractions import Fraction

import pytest

from supercong import UnknownIdError, check_identity, check_identity_range, identities
from supercong.identities import REGISTRY, W_H, W_ONE, _i10_point


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
        # x in {0,2,4}: 0+2+4 = 6 = (2/2)(B_2(3) - B_2(0))
        assert _i10_point(5, 2, 0, 1)

    def test_empty_sums_at_zero(self):
        for iid in ("I7", "I8", "I9"):
            assert check_identity(iid, 0)


def test_all_identities_on_modest_range():
    for iid in REGISTRY:
        failures = check_identity_range(iid, 60)
        assert failures == (), (iid, failures[:3])


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
