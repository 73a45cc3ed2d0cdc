"""Finite prime-free identities used by the congruence machinery, each
checkable exactly for every n in a declared range.

I1-I6 are three identities in t, at t = 2n (I1, I3, I5) and t = 2n+1 (I2,
I4, I6): fold(t, n, W) = C(2t, t)/2^t F(t), for three weights W and factors F.

Every sum and product runs as one integer over a common denominator fixed
before its loop (k!^order in combinat.harmonic, 4^n n!^2 in fold, 4^n n!^3
for I7/I8, n!^2 for I9, D (k+1) m for I10 with D the lcm of the Bernoulli
denominators, d^k k! in combinat.binomial_rational for I11, (n-1)! (n+1-2k)!
for I12).  A side becomes one Fraction at the end, or is compared as that
integer, so no gcd runs per term and every comparison stays exact.

The fold weights are therefore homogeneous of degree 2, with H_k^(2)
counted as degree 2: weight(u, h1, h2) = u^2 w(h1/u, h2/u^2) for the weight
w(H_k, H_k^(2)) of the identity.  fold passes (n!, n! H_k, n!^2 H_k^(2)),
which are all integers; congruences._half_fold passes u = 1 in Z/p^e.

Provenance of I1-I9 is numerical evidence, not proof: the registry records
them as assumptions-with-evidence and the range checks are the evidence.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, lcm
from typing import Callable

from .combinat import binomial, binomial_rational, factorial, harmonic
from .exactnum import UnknownIdError
from .special import bernoulli_exact


@dataclass(frozen=True)
class IdentitySpec:
    id: str
    description: str
    n_min: int
    check: Callable[[int], bool]


def _pointwise(lhs, rhs):
    return lambda n: lhs(n) == rhs(n)


# -- even/odd companions over C(2n,k)C(2n-k,k)/4^k ---------------------------


def fold(top: int, n: int, weight) -> Fraction:
    """sum_{k=0}^{n} C(top,k) C(top-k,k) w(H_k, H_k^(2)) / 4^k, summed as
    one integer over 4^n n!^2 through the homogeneous weight(n!, n! H_k,
    n!^2 H_k^(2)) = n!^2 w(H_k, H_k^(2)).

    I1-I6 take top = t = 2n or 2n+1.  Lemmas 2.2-2.6a of the congruence
    registry step the same sum at top = (p-1)/2 in Z/p^e
    (congruences._half_fold) and share only the weights below with it.
    """
    f = factorial(n)
    total, h1, h2 = 0, 0, 0
    for k in range(n + 1):
        if k:
            step = f // k
            h1, h2 = h1 + step, h2 + step * step
        total += comb(top, k) * comb(top - k, k) * weight(f, h1, h2) << 2 * (n - k)
    return Fraction(total, f * f << 2 * n)


# w = 1, H_k, H_k^2 + H_k^(2) and H_k^(2), each made homogeneous of degree 2
W_ONE = lambda u, h1, h2: u * u
W_H = lambda u, h1, h2: u * h1
W_HH = lambda u, h1, h2: h1 * h1 + h2
W_H2 = lambda u, h1, h2: h2

_F_ONE = lambda t: 1
_F_H = lambda t: 3 * harmonic(t) - 2 * harmonic(2 * t)
_F_HH = lambda t: 5 * harmonic(t, 2) - 4 * harmonic(2 * t, 2) + _F_H(t) ** 2


def _fold_pair(t: int, weight, factor) -> tuple[Fraction, Fraction]:
    """(lhs, rhs) of I1-I6 at t: fold(t, floor(t/2), weight), C(2t, t)/2^t factor(t)."""
    return fold(t, t // 2, weight), Fraction(comb(2 * t, t), 2**t) * factor(t)


def _fold_check(parity: int, weight, factor) -> Callable[[int], bool]:
    return lambda n: operator.eq(*_fold_pair(2 * n + parity, weight, factor))


# -- quarter-parameter identities ---------------------------------------------


def _quarter_pair(n: int, a_num: int, b_num: int) -> tuple[int, int]:
    """(lhs, rhs) of sum_k C(n,k) C(b/4,k) H_k^(2)
       = (-1)^n C(a/4,n) (H_n^(2) - sum_k (-1)^k / (k^2 C(a/4,k))),
    each times 4^n n!^3, as integers.

    C(x/4, k) = X_k / (4^k k!) with X_k = prod_{j<k} (x - 4j), and
    n!^2 H_k^(2) = sum_{j<=k} (n!/j)^2.  The inner sum times 4^n n!^3 / X_n
    is sum_k (-1)^k 4^k k! (n!/k)^2 X_n/X_k, run by Horner's rule in the
    factors a - 4j of X_n/X_k.
    """
    f = factorial(n)
    lhs, inner, h2, xa, xb, fall, kf = 0, 0, 0, 1, 1, f, 1
    for k in range(1, n + 1):
        step = f // k
        h2 += step * step
        fall //= k  # n!/k!
        kf *= k
        xb *= b_num - 4 * (k - 1)
        lhs += comb(n, k) * xb * fall * h2 << 2 * (n - k)
        factor = a_num - 4 * (k - 1)
        term = kf * step * step << 2 * k
        inner = inner * factor + (-term if k % 2 else term)
        xa *= factor
    rhs = xa * h2 - inner
    return lhs, -rhs if n % 2 else rhs


_i7_check = lambda n: operator.eq(*_quarter_pair(n, -1, -3))
_i8_check = lambda n: operator.eq(*_quarter_pair(n, -3, -1))


def _i9_lhs(n: int) -> Fraction:
    # times n!^2, term k is (-1)^k k! (n-k)! n!/k^2 = (-1)^k (k-1)! (n-k)! (n!/k)
    fact = list(accumulate(range(1, n + 1), operator.mul, initial=1))
    total = sum((-1) ** k * fact[k - 1] * fact[n - k] * (fact[n] // k) for k in range(1, n + 1))
    return Fraction(total, fact[n] ** 2)


def _i9_rhs(n: int) -> Fraction:
    # H_n^(2) + 2 sum (-1)^k / k^2 = sum (1 + 2(-1)^k) / k^2, times n!^2
    f = factorial(n)
    total = sum((3 if k % 2 == 0 else -1) * (f // k) ** 2 for k in range(1, n + 1))
    return Fraction(total, f * f)


# -- power-sum / Bernoulli formula (3 extra parameters) -----------------------


_I10_M_MAX = 8
_I10_K_MAX = 6


def _i10_bernoulli() -> tuple[int, list[int]]:
    """(D, [D B_0, ..., D B_{K+1}]), D = lcm of the denominators (210 for K = 6)."""
    bern = [bernoulli_exact(i) for i in range(_I10_K_MAX + 2)]
    scale = lcm(*(bn.denominator for bn in bern))
    return scale, [bn.numerator * (scale // bn.denominator) for bn in bern]


def _i10_class(big_p: int, m: int, r: int, scale: int, scaled: list[int]) -> list[tuple[int, int]]:
    """(lhs, rhs) of I10 at k = 0 .. K = _I10_K_MAX for the class x == r
    (mod m) below P, both times D n m, with n = k+1 and (D, scaled) =
    _i10_bernoulli().

    The bounds are a/m and b/m, a = P + ((r-P) mod m) and b = r mod m.  As
    m^n B_n(a/m) = sum_{i<=n} C(n,i) B_i m^i a^(n-i), the right side times
    D n m is sum_{i<n} C(n,i) (D B_i) m^i (a^(n-i) - b^(n-i)), an integer:
    D is a multiple of the denominator of each B_i, i <= K+1.  D n m != 0,
    so the scaled sides are equal iff the stated ones are.
    """
    a, b = big_p + (r - big_p) % m, r % m
    xs = range(b, big_p, m)
    powers = [1] * len(xs)
    out = []
    for n in range(1, _I10_K_MAX + 2):
        rhs = sum(comb(n, i) * scaled[i] * m**i * (a ** (n - i) - b ** (n - i)) for i in range(n))
        out.append((scale * n * m * sum(powers), rhs))
        powers = [w * x for w, x in zip(powers, xs)]
    return out


def _i10_check(big_p: int) -> bool:
    # read once per P, at run time, so that a replaced bernoulli_exact is seen
    bern = _i10_bernoulli()
    return all(lhs == rhs
               for m in range(1, _I10_M_MAX + 1) for r in range(m)
               for lhs, rhs in _i10_class(big_p, m, r, *bern))


_i11_lhs = lambda n: Fraction(comb(4 * n, 2 * n) * comb(2 * n, n), 64**n)
_i11_rhs = lambda n: binomial_rational(Fraction(-1, 4), n) * binomial_rational(Fraction(-3, 4), n)


def _i12_pair(n: int, k: int) -> tuple[int, int]:
    """Both sides of I12 at (n, k) times (n-1)! (n+1-2k)!, as integers; where
    2k > n+1, 1/(n+1-2k)! = 0 leaves (C(2n-2k, n-1), 0)."""
    top, tail, lhs = 2 * n - 2 * k, n + 1 - 2 * k, binomial(2 * n - 2 * k, n - 1)
    if tail < 0:
        return lhs, 0
    return lhs * factorial(n - 1) * factorial(tail), binomial(top, n - k) * factorial(n - k) ** 2


_i12_check = lambda n: all(operator.eq(*_i12_pair(n, k)) for k in range(1, n + 1))


REGISTRY: dict[str, IdentitySpec] = {
    s.id: s
    for s in (
        IdentitySpec("I1", "sum C(2n,k)C(2n-k,k)/4^k = C(4n,2n)/4^n", 0,
                     _fold_check(0, W_ONE, _F_ONE)),
        IdentitySpec("I2", "sum C(2n+1,k)C(2n+1-k,k)/4^k = C(4n+1,2n+1)/4^n", 0,
                     _fold_check(1, W_ONE, _F_ONE)),
        IdentitySpec(
            "I3",
            "sum C(2n,k)C(2n-k,k)H_k/4^k = C(4n,2n)/4^n (3H_{2n} - 2H_{4n})",
            0,
            _fold_check(0, W_H, _F_H),
        ),
        IdentitySpec(
            "I4",
            "sum C(2n+1,k)C(2n+1-k,k)H_k/4^k = C(4n+1,2n+1)/4^n (3H_{2n+1} - 2H_{4n+2})",
            0,
            _fold_check(1, W_H, _F_H),
        ),
        IdentitySpec(
            "I5",
            "sum C(2n,k)C(2n-k,k)(H_k^2+H_k^(2))/4^k = "
            "C(4n,2n)/4^n ((5H_{2n}^(2) - 4H_{4n}^(2)) + (3H_{2n} - 2H_{4n})^2)",
            0,
            _fold_check(0, W_HH, _F_HH),
        ),
        IdentitySpec("I6", "odd companion of I5 with upper row 2n+1", 0,
                     _fold_check(1, W_HH, _F_HH)),
        IdentitySpec(
            "I7",
            "sum C(n,k)C(-3/4,k)H_k^(2) = (-1)^n C(-1/4,n)(H_n^(2) - sum (-1)^k/(k^2 C(-1/4,k)))",
            0,
            _i7_check,
        ),
        IdentitySpec("I8", "the (-1/4 <-> -3/4) swap of I7", 0, _i8_check),
        IdentitySpec("I9", "sum (-1)^k/(k^2 C(n,k)) = H_n^(2) + 2 sum (-1)^k/k^2", 0,
                     _pointwise(_i9_lhs, _i9_rhs)),
        IdentitySpec(
            "I10",
            "sum of x^k over 0 <= x < P, x == r (mod m) equals "
            "m^k/(k+1) (B_{k+1}(P/m + {(r-P)/m}) - B_{k+1}({r/m})); "
            "quantified over m <= 8, 0 <= r < m, k <= 6 at each P",
            1,
            _i10_check,
        ),
        IdentitySpec(
            "I11",
            "C(4k,2k)C(2k,k)/64^k = C(-1/4,k)C(-3/4,k) (n plays the role of k)",
            0,
            _pointwise(_i11_lhs, _i11_rhs),
        ),
        IdentitySpec(
            "I12",
            "C(2n-2k,n-1) = C(2n-2k,n-k)(n-k)!^2/((n-1)!(n+1-2k)!), "
            "quantified over 1 <= k <= n with 1/(negative)! = 0",
            1,
            _i12_check,
        ),
    )
}


def _require(identity_id: str) -> IdentitySpec:
    spec = REGISTRY.get(identity_id)
    if spec is None:
        raise UnknownIdError(f"unknown identity id: {identity_id}")
    return spec


def check_identity(identity_id: str, n: int) -> bool:
    """True iff the identity holds exactly at n (quantified identities fold
    their auxiliary parameters internally)."""
    spec = _require(identity_id)
    if n < spec.n_min:
        raise ValueError(f"{identity_id} is declared for n >= {spec.n_min}, got {n}")
    return spec.check(n)


def check_identity_range(identity_id: str, n_max: int) -> tuple[int, ...]:
    """The n from the declared range start to n_max at which the identity
    fails; () means it holds on the whole range."""
    spec = _require(identity_id)
    return tuple(n for n in range(spec.n_min, n_max + 1) if not spec.check(n))
