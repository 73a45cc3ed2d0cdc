"""Exact rational arithmetic and prime-power modular reduction.

The congruence rows and the special values of special.py work mod p^e from
the start.  reduce_mod serves only the arguments of special.py's values and
the tests: it takes an int or a rational (anything with as_integer_ratio,
so no Fraction is built) into Z/p^e, where a p-divisible denominator
surfaces as NotPIntegralError.  inverse_column is the one table
of reciprocals 1/k mod p^e: the harmonic sums of the congruence rows and the
mod-p Bernoulli recurrence of special.py read every 1/k from it.

A value mod p^e is a plain int in [0, p^e); its modulus is known from
context (a congruence row declares its e), so no type carries it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction


class UnknownIdError(KeyError):
    """Requested id is not in the relevant registry."""


class NotPIntegralError(ValueError):
    """p divides the denominator, so reduction mod p^e is ill-posed."""


@lru_cache(maxsize=1 << 14)  # bounded: the rows of one prime each test it
def is_prime(n: int) -> bool:
    """Deterministic trial division; ample at desk scale (n below ~10^8)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def padic_valuation(q: Fraction | int, p: int) -> int:
    """Exponent of p in q: q = p^v * (unit with p-free numerator and denominator).

    Negative when p divides the denominator.  Undefined (raises) for q = 0.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    num, den = q.as_integer_ratio()
    if num == 0:
        raise ValueError("p-adic valuation of zero is undefined")

    def count(n: int) -> int:
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    return count(abs(num)) - count(den)


def reduce_mod(q: Fraction | int, p: int, e: int) -> int:
    """Reduce a p-integral rational into Z/p^e as num * den^(-1), an int in
    [0, p^e).

    Raises NotPIntegralError when p divides the denominator, which signals
    that the congruence being evaluated is ill-posed at this prime.
    """
    num, den = q.as_integer_ratio()
    if e < 1:
        raise ValueError(f"exponent must be positive, got {e}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if den % p == 0:
        raise NotPIntegralError(f"denominator {den} is divisible by {p}; not reducible mod {p}^{e}")
    m = p**e
    return num * pow(den, -1, m) % m


def inverse_column(top: int, p: int, e: int) -> list[int]:
    """The column 0, 1/1, 1/2, ..., 1/top mod m = p^e for top < p, at O(1)
    per entry; the 0 at index 0 leaves sums over the column unchanged.

    Each entry comes from a smaller one: for 1 < k < p, write
    m = (m // k) k + (m mod k).  Then 0 < m mod k < k, because k does not
    divide p^e, so inv[m mod k] is already computed, and
    k (-(m // k)) inv[m mod k] == (m mod k) inv[m mod k] == 1 (mod m).

    Raises NotPIntegralError for top >= p: 1/p is not p-integral.
    """
    if top >= p:
        raise NotPIntegralError(f"1/{p} is not {p}-integral; the column of 1/k mod {p}^{e} ends below {p}")
    m = p**e
    inv = [0, 1][: top + 1]
    for k in range(2, top + 1):
        inv.append((m - m // k) * inv[m % k] % m)
    return inv
