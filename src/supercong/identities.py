"""Finite prime-free identities used by the congruence machinery, each
checked exactly over a declared range of n in one pass.

Every check is a range evaluator: IdentitySpec.check(lo, hi) returns the n
in lo..hi at which the identity fails; the check at one n is the range n..n.
A range builds what its n share once (harmonic numbers, factorials, Pascal
rows, the instances of I10) and runs every sum and product in integers over
a denominator fixed before its loop, so no gcd and no comb or factorial runs
per term.  The two sides of an identity stay separate routes.

I1-I6 are three identities in t, at t = 2n (I1, I3, I5) and t = 2n+1 (I2,
I4, I6): sum_{k<=n} C(t,k) C(t-k,k) w(H_k, H_k^(2)) / 4^k = C(2t, t)/2^t F(t),
whose left side has the oracle fold(t, n, w) in tests/oracles.py, for three
weights w and factors F, both homogeneous of degree 2 with H_k^(2) counted
as degree 2: weight(u, u H_k, u^2 H_k^(2)) = u^2 w(H_k, H_k^(2)) and
factor(u, u H_t, u^2 H_t^(2), u H_2t, u^2 H_2t^(2)) = u^2 F(t).
A range passes u = lcm(1..N).  congruences._quarter_sums sums the left side
at t = (p-1)/2 in Z/p^e, with weights of its own.

Provenance of I1-I9 is numerical evidence, not proof: the registry records
them as assumptions-with-evidence and the range checks are the evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import accumulate, repeat, starmap
from math import comb, lcm
from operator import add, mul, ne
from typing import Callable

from .combinat import factorial
from .exactnum import UnknownIdError
from .special import bernoulli_exact


@dataclass(frozen=True)
class IdentitySpec:
    id: str
    description: str
    n_min: int
    check: Callable[[int, int], list[int]]


def _failing(pairs) -> Callable[[int, int], list[int]]:
    """check(lo, hi) from pairs(lo, hi), which yields (lhs, rhs) at n = lo .. hi."""
    return lambda lo, hi: [n for n, (lhs, rhs) in enumerate(pairs(lo, hi), lo) if lhs != rhs]


# -- even/odd companions over C(2n,k)C(2n-k,k)/4^k ---------------------------


def _harmonic_at(u: int, points):
    """(u H_j, u^2 H_j^(2)) at each of the increasing points j, summed once; lcm(1..j) | u."""
    h1 = h2 = j = 0
    for point in points:
        for j in range(j + 1, point + 1):
            h1, h2 = h1 + u // j, h2 + (u // j) ** 2
        yield h1, h2


def _fold_sum(top: int, n: int, ws: list[int]) -> int:
    """sum_{k<=n} C(top,k) C(top-k,k) ws[k] 4^(n-k), the binomial product
    stepped by its ratio (top-2k+2)(top-2k+1)/k^2."""
    total, c = ws[0], 1
    for k in range(1, n + 1):
        c = c * (top - 2 * k + 2) * (top - 2 * k + 1) // (k * k)
        total = (total << 2) + c * ws[k]
    return total


# w = 1, H_k and H_k^2 + H_k^(2), each made homogeneous of degree 2
W_ONE = lambda u, h1, h2: u * u
W_H = lambda u, h1, h2: u * h1
W_HH = lambda u, h1, h2: h1 * h1 + h2

# F = 1, 3H_t - 2H_2t and (5H_t^(2) - 4H_2t^(2)) + (3H_t - 2H_2t)^2, likewise
_F_ONE = lambda u, a1, a2, b1, b2: u * u
_F_H = lambda u, a1, a2, b1, b2: u * (3 * a1 - 2 * b1)
_F_HH = lambda u, a1, a2, b1, b2: 5 * a2 - 4 * b2 + (3 * a1 - 2 * b1) ** 2


def _fold_check(parity: int, weight, factor) -> Callable[[int, int], list[int]]:
    """check(lo, hi) of I1-I6's identity at t = 2n + parity, for the weight and factor.

    The weights take u = lcm(1..hi) and the factors U = lcm(1..4 hi + 2); times
    2^t U^2 4^n the sides are _fold_sum(t, n) (U/u)^2 2^t and C(2t, t) 4^n factor."""
    def check(lo: int, hi: int) -> list[int]:
        u, big_u = lcm(*range(1, hi + 1)), lcm(*range(1, 4 * hi + 2 * parity + 1))
        ws, ratio = [weight(u, *h) for h in _harmonic_at(u, range(hi + 1))], (big_u // u) ** 2
        ts = range(2 * lo + parity, 2 * hi + 2, 2)
        sides = zip(range(lo, hi + 1), ts, _harmonic_at(big_u, ts), _harmonic_at(big_u, (2 * t for t in ts)))
        return [n for n, t, h_t, h_2t in sides
                if _fold_sum(t, n, ws) * ratio << t != (comb(2 * t, t) << 2 * n) * factor(big_u, *h_t, *h_2t)]
    return check


# -- quarter-parameter identities ---------------------------------------------


def _quarter_pairs(lo: int, hi: int, a_num: int, b_num: int):
    """(lhs, rhs) of sum_k C(n,k) C(b/4,k) H_k^(2)
       = (-1)^n C(a/4,n) (H_n^(2) - sum_k (-1)^k / (k^2 C(a/4,k)))
    at n = lo .. hi, each times 4^N N! L^2 (N = hi, L = lcm(1..N)), as integers.

    C(x/4, k) = X_k(x) / (4^k k!) with X_k(x) = prod_{j<k} (x - 4j), and
    h_k = L^2 H_k^(2).  The left side is sum_k C(n,k) T_k, with T_k =
    X_k(b) h_k 4^(N-k) N!/k! from one table and C(n, k) from one Pascal row
    per n.  The inner sum times L^2 X_n(a) is V_n = (a - 4n + 4) V_(n-1) +
    (-1)^n 4^n n! (L/n)^2, so the right side is (-1)^n 4^(N-n) N!/n! (X_n(a) h_n - V_n)."""
    big_l, fact = lcm(*range(1, hi + 1)), factorial(hi)
    terms, row, xb, ya, h2, v, kf = [], [1], 1, 1, 0, 0, 1
    for n in range(hi + 1):
        if n:
            sq, xb, ya, kf = (big_l // n) ** 2, xb * (b_num - 4 * n + 4), ya * (a_num - 4 * n + 4), kf * n
            h2, v = h2 + sq, v * (a_num - 4 * n + 4) + (-1) ** n * (kf * sq << 2 * n)
            row = [1, *map(add, row, row[1:]), 1]
        terms.append((xb * h2 * fact << 2 * (hi - n)) // kf)
        if n >= lo:
            rhs = ((ya * h2 - v) * fact << 2 * (hi - n)) // kf
            yield sum(map(mul, row, terms)), -rhs if n % 2 else rhs


def _i9_pairs(lo: int, hi: int):
    """(lhs, rhs) of sum_k (-1)^k / (k^2 C(n,k)) = H_n^(2) + 2 sum_k (-1)^k / k^2
    at n = lo .. hi, each times n! L^2 (L = lcm(1..hi)): the left side is
    sum_k (-1)^k k! (L/k)^2 (n-k)! over one factorial table, the right side
    n! sum_k (1 + 2 (-1)^k) (L/k)^2 as a running sum."""
    big_l = lcm(*range(1, hi + 1))
    fact = list(accumulate(range(1, hi + 1), mul, initial=1))
    sq = [0] + [(big_l // k) ** 2 for k in range(1, hi + 1)]
    signed = [-f * s if k % 2 else f * s for k, (f, s) in enumerate(zip(fact, sq))]
    rhs = list(accumulate(-s if k % 2 else 3 * s for k, s in enumerate(sq)))
    for n in range(lo, hi + 1):
        yield sum(map(mul, signed[1:n + 1], fact[n - 1::-1])), fact[n] * rhs[n]


# -- power-sum / Bernoulli formula (3 extra parameters) -----------------------


_I10_M_MAX = 8
_I10_K_MAX = 6


def _i10_bernoulli() -> tuple[int, list[int]]:
    """(D, [D B_0, ..., D B_{K+1}]), D = lcm of the denominators (210 for K = 6)."""
    bern = [bernoulli_exact(i) for i in range(_I10_K_MAX + 2)]
    scale = lcm(*(bn.denominator for bn in bern))
    return scale, [bn.numerator * (scale // bn.denominator) for bn in bern]


def _i10_class(a: int, m: int, r: int, sums: list[int], coefs: list[list[int]],
               scale: int) -> list[tuple[int, int]]:
    """(lhs, rhs) of I10 at k = 0 .. K = _I10_K_MAX for the class x == r
    (mod m) below a, both times D n m with n = k+1: sums[k] is the power sum
    of x^k over the class below a, coefs[n-1] = [C(n,j) (D B_(n-j)) m^(n-j)
    for j = 1 .. n] and (D, [D B_i]) = _i10_bernoulli().

    As m^n B_n(a/m) = sum_{i<=n} C(n,i) B_i m^i a^(n-i), the right side
    times D n m is sum_{j=1}^{n} C(n,j) (D B_(n-j)) m^(n-j) (a^j - r^j), an
    integer: D is a multiple of the denominator of each B_i, i <= K+1.
    D n m != 0, so the scaled sides are equal iff the stated ones are."""
    diffs = [x - r**j for j, x in enumerate(accumulate(repeat(a, _I10_K_MAX), mul, initial=a), 1)]
    return [(scale * n * m * s, sum(map(mul, row, diffs)))
            for n, s, row in zip(range(1, _I10_K_MAX + 2), sums, coefs)]


def _i10_check(lo: int, hi: int) -> list[int]:
    """The P in lo..hi at which I10 fails for some m <= 8, r < m, k <= 6.

    The class (m, r) meets P only through a = P + ((r-P) mod m), the least
    a >= P with a == r (mod m): no x == r lies in P..a-1, so the power sum
    below P is the one below a, and the upper Bernoulli argument is a/m.
    Each instance (a, m, r) is evaluated once, for all of P = a-m+1 .. a:
    36 + 8(N-1) instances for N values of P, not 36 N.

    Within one class of P mod m, a - P is fixed and both sides are
    polynomials in P of degree k+1 <= 7 (the left side by Faulhaber), so
    eight values of P per class prove the identity there: a range 1..N with
    N >= 64 gives every class mod m <= 8 eight values, and so proves I10
    for every P >= 1, m <= 8 and k <= 6."""
    # read once per call, at run time, so that a replaced bernoulli_exact is seen
    scale, scaled = _i10_bernoulli()
    failing = set()
    for m in range(1, _I10_M_MAX + 1):
        coefs = [[comb(n, j) * scaled[n - j] * m ** (n - j) for j in range(1, n + 1)]
                 for n in range(1, _I10_K_MAX + 2)]
        for r in range(m):
            start = lo + (r - lo) % m
            sums = [sum(x**k for x in range(r, start, m)) for k in range(_I10_K_MAX + 1)]
            for a in range(start, hi + m, m):
                if any(starmap(ne, _i10_class(a, m, r, sums, coefs, scale))):
                    failing.update(range(max(lo, a - m + 1), min(hi, a) + 1))
                sums = [s + a**k for k, s in enumerate(sums)]
    return sorted(failing)


def _i11_pairs(lo: int, hi: int):
    """C(4n,2n) C(2n,n) / 64^n and C(-1/4,n) C(-3/4,n) at n = lo .. hi, each
    times 64^n n!^2: (4n)!/(2n)! from running factorials, and
    4^n prod_{j<n} (4j+1)(4j+3) as a running product."""
    top = accumulate((j * (j + 1) * (j + 2) * (j + 3) for j in range(1, 4 * hi, 4)), mul, initial=1)
    mid = accumulate((j * (j + 1) for j in range(1, 2 * hi, 2)), mul, initial=1)
    rhs = accumulate((4 * (4 * j + 1) * (4 * j + 3) for j in range(hi)), mul, initial=1)
    return ((f4 // f2, r) for n, f4, f2, r in zip(range(hi + 1), top, mid, rhs) if n >= lo)


def _i12_pairs(lo: int, hi: int):
    """Both sides of I12 at n = lo .. hi, as lists over k = 1 .. n, each
    times (n-1)! (n+1-2k)!: C(2n-2k, n-1) (n-1)! (n+1-2k)! and
    C(2n-2k, n-k) (n-k)!^2, from Pascal rows and one factorial table; of
    row 2j, with j = n-k, only C(2j, i) for j <= i < hi is kept (up[j]).
    Where 2k > n+1, 1/(n+1-2k)! = 0 and C(2n-2k, n-1) = 0 leave (0, 0)."""
    fact, up, row = list(accumulate(range(1, 2 * hi), mul, initial=1)), [[1]], [1]
    for i in range(1, 2 * hi - 1):
        row = [1, *map(add, row, row[1:]), 1]
        if i % 2 == 0:
            up.append(row[i // 2:hi])
    for n in range(lo, hi + 1):
        js = range(n - 1, -1, -1)
        yield ([up[j][n - 1 - j] * fact[n - 1] * fact[2 * j - n + 1] if 2 * j >= n - 1 else 0 for j in js],
               [up[j][0] * fact[j] ** 2 if 2 * j >= n - 1 else 0 for j in js])


REGISTRY: dict[str, IdentitySpec] = {
    s.id: s
    for s in (
        IdentitySpec("I1", "sum C(2n,k)C(2n-k,k)/4^k = C(4n,2n)/4^n", 0, _fold_check(0, W_ONE, _F_ONE)),
        IdentitySpec("I2", "sum C(2n+1,k)C(2n+1-k,k)/4^k = C(4n+1,2n+1)/4^n", 0,
                     _fold_check(1, W_ONE, _F_ONE)),
        IdentitySpec("I3", "sum C(2n,k)C(2n-k,k)H_k/4^k = C(4n,2n)/4^n (3H_{2n} - 2H_{4n})", 0,
                     _fold_check(0, W_H, _F_H)),
        IdentitySpec("I4", "sum C(2n+1,k)C(2n+1-k,k)H_k/4^k = C(4n+1,2n+1)/4^n (3H_{2n+1} - 2H_{4n+2})",
                     0, _fold_check(1, W_H, _F_H)),
        IdentitySpec("I5", "sum C(2n,k)C(2n-k,k)(H_k^2+H_k^(2))/4^k = "
                     "C(4n,2n)/4^n ((5H_{2n}^(2) - 4H_{4n}^(2)) + (3H_{2n} - 2H_{4n})^2)", 0,
                     _fold_check(0, W_HH, _F_HH)),
        IdentitySpec("I6", "odd companion of I5 with upper row 2n+1", 0, _fold_check(1, W_HH, _F_HH)),
        IdentitySpec("I7", "sum C(n,k)C(-3/4,k)H_k^(2) = "
                     "(-1)^n C(-1/4,n)(H_n^(2) - sum (-1)^k/(k^2 C(-1/4,k)))", 0,
                     _failing(partial(_quarter_pairs, a_num=-1, b_num=-3))),
        IdentitySpec("I8", "the (-1/4 <-> -3/4) swap of I7", 0,
                     _failing(partial(_quarter_pairs, a_num=-3, b_num=-1))),
        IdentitySpec("I9", "sum (-1)^k/(k^2 C(n,k)) = H_n^(2) + 2 sum (-1)^k/k^2", 0, _failing(_i9_pairs)),
        IdentitySpec("I10", "sum of x^k over 0 <= x < P, x == r (mod m) equals "
                     "m^k/(k+1) (B_{k+1}(P/m + {(r-P)/m}) - B_{k+1}({r/m})); "
                     "quantified over m <= 8, 0 <= r < m, k <= 6 at each P", 1, _i10_check),
        IdentitySpec("I11", "C(4k,2k)C(2k,k)/64^k = C(-1/4,k)C(-3/4,k) (n plays the role of k)", 0,
                     _failing(_i11_pairs)),
        IdentitySpec("I12", "C(2n-2k,n-1) = C(2n-2k,n-k)(n-k)!^2/((n-1)!(n+1-2k)!), "
                     "quantified over 1 <= k <= n with 1/(negative)! = 0", 1, _failing(_i12_pairs)),
    )
}


def _require(identity_id: str) -> IdentitySpec:
    spec = REGISTRY.get(identity_id)
    if spec is None:
        raise UnknownIdError(f"unknown identity id: {identity_id}")
    return spec


def check_identity(identity_id: str, n: int) -> bool:
    """True iff the identity holds exactly at n, the range n..n (quantified
    identities fold their auxiliary parameters internally)."""
    spec = _require(identity_id)
    if n < spec.n_min:
        raise ValueError(f"{identity_id} is declared for n >= {spec.n_min}, got {n}")
    return not spec.check(n, n)


def check_identity_range(identity_id: str, n_max: int) -> tuple[int, ...]:
    """The n from the declared range start to n_max at which the identity
    fails, from one pass over the range; () means it holds on the whole range."""
    spec = _require(identity_id)
    return tuple(spec.check(spec.n_min, n_max)) if n_max >= spec.n_min else ()
