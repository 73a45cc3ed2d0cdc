"""Combinatorial kernels: factorials, generalized binomials, raising factorials,
harmonic numbers, fractional parts.  All exact.

Each rational kernel runs its product or sum in integers over a denominator
fixed before the loop (d^k k! for a = u/d, k!^order for H_n) and builds one
Fraction at the end, so no gcd runs per step.  Only binomial serves the
congruence rows; the rational kernels import fractions where they build a
Fraction, so a launch that checks congruences never loads it."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction


def factorial(n: int) -> int:
    """n! for n >= 0; ValueError for negative n."""
    return math.factorial(n)


def recip_factorial(n: int) -> Fraction:
    """1/n!, with 1/(negative)! = 0 -- the convention under which the closed
    form of wz.closed_form_g is total (it matches the vanishing of the
    corresponding binomial coefficient)."""
    from fractions import Fraction

    if n < 0:
        return Fraction(0)
    return Fraction(1, math.factorial(n))


def binomial(n: int, k: int) -> int:
    """Generalized binomial coefficient for any integer upper index.

    0 when k < 0, or when 0 <= n < k; otherwise the falling product
    n(n-1)...(n-k+1)/k!, which is an integer for every integer n
    (negative upper index included).
    """
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k) if k <= n else 0
    # reflection: n(n-1)...(n-k+1) = (-1)^k (k-n-1)(k-n-2)...(-n)
    return (-1) ** k * math.comb(k - n - 1, k)


def binomial_rational(a: Fraction | int, k: int) -> Fraction:
    """a(a-1)...(a-k+1)/k! = prod_{j<k} (u - j d) / (d^k k!) for a = u/d, k >= 0."""
    from fractions import Fraction

    if k < 0:
        raise ValueError(f"lower index must be nonnegative, got {k}")
    num, den = a.as_integer_ratio()
    return Fraction(math.prod(num - j * den for j in range(k)), den**k * math.factorial(k))


def pochhammer(a: Fraction | int, n: int) -> Fraction:
    """(a)_n = a(a+1)...(a+n-1) = prod_{j<n} (u + j d) / d^n for a = u/d; (a)_0 = 1."""
    from fractions import Fraction

    if n < 0:
        raise ValueError(f"length must be nonnegative, got {n}")
    num, den = a.as_integer_ratio()
    return Fraction(math.prod(num + j * den for j in range(n)), den**n)


def harmonic(n: int, order: int = 1) -> Fraction:
    """H_n (order 1) or H_n^(2) (order 2), exactly; H_0 = 0.

    The sum runs as one integer numerator over the unreduced denominator
    n!^order, so the only gcd is the one of the single Fraction returned."""
    from fractions import Fraction

    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    den = math.factorial(n) ** order
    return Fraction(sum(den // k**order for k in range(1, n + 1)), den)


def frac_part(q: Fraction | int) -> Fraction:
    """q - floor(q), in [0, 1)."""
    from fractions import Fraction

    q = Fraction(q)
    return q - math.floor(q)
