"""Special values: Bernoulli numbers and polynomials (exact and mod p),
Euler polynomials and numbers mod p, Fermat quotients, Legendre symbols.

Three routes, pinned together by the tests:
  - bernoulli_diff_mod_p, the hot path: a difference B_n(x) - B_n(y) mod p
    as an O(p) power sum (identity I10), of inverse squares at n = p-2.  euler_poly_mod_p and
    euler_number_mod_p rest on it, and so do the congruence rows.
  - bernoulli_table_mod_p and bernoulli_poly_mod_p: the O(p^2) Bernoulli
    recurrence run in GF(p).  Nothing in the package calls them; they are
    the oracle for the power-sum route.
  - bernoulli_exact and bernoulli_poly_exact: exact rationals, the oracle
    for the mod-p table.  bernoulli_exact caches B_n up to the largest n
    seen; bernoulli_poly_exact is the test oracle of identity I10.  They
    import fractions when they first build a Fraction, so the mod-p routes
    never load it: their rational arguments are reduced by reduce_mod.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING

from .exactnum import inverse_column, is_prime, reduce_mod

if TYPE_CHECKING:
    from fractions import Fraction

_BERNOULLI_EXACT: list[Fraction] = []  # B_0, B_1, ..., filled on first use


def bernoulli_exact(n: int) -> Fraction:
    """Exact B_n from the inverted convolution recurrence
    sum_{j=0}^{n} C(n+1, j) B_j = 0, B_0 = 1, cached up to the largest index seen."""
    from fractions import Fraction

    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    while len(_BERNOULLI_EXACT) <= n:
        m = len(_BERNOULLI_EXACT)
        acc = Fraction(0)
        for j in range(m):
            acc += comb(m + 1, j) * _BERNOULLI_EXACT[j]
        _BERNOULLI_EXACT.append(-acc / (m + 1) if m else Fraction(1))
    return _BERNOULLI_EXACT[n]


def bernoulli_poly_exact(n: int, x: Fraction | int) -> Fraction:
    """Exact B_n(x) = sum_{k=0}^{n} C(n,k) B_k x^(n-k)."""
    from fractions import Fraction

    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    x = Fraction(x)
    total = Fraction(0)
    for k in range(n + 1):
        total += comb(n, k) * bernoulli_exact(k) * x ** (n - k)
    return total


_BERNOULLI_MOD: dict[int, list[int]] = {}


def bernoulli_table_mod_p(p: int, max_index: int) -> tuple[int, ...]:
    """The residues of B_0 .. B_max_index mod p via the recurrence run in
    GF(p), in O(p^2); the oracle for bernoulli_diff_mod_p.

    Legal because every B_k with k <= p-2 is p-integral (no index divisible
    by p-1 beyond 0 is touched) and every k+1 <= p-1 is invertible; a
    larger max_index is rejected rather than silently wrong.
    The per-prime cache grows monotonically; build it before sharing
    between threads, or keep per-worker copies.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if max_index < 0:
        raise ValueError(f"index must be nonnegative, got {max_index}")
    if max_index > p - 2:
        raise ValueError(
            f"B_k mod {p} requires k <= {p - 2}: beyond that the denominator "
            f"of B_k can be divisible by {p}"
        )
    tab = _BERNOULLI_MOD.setdefault(p, [1])
    if len(tab) <= max_index:
        inv = inverse_column(max_index + 1, p, 1)
        for m in range(len(tab), max_index + 1):
            c = 1  # C(m+1, j), updated in j
            acc = 0
            for j in range(m):
                acc = (acc + c * tab[j]) % p
                c = c * (m + 1 - j) % p * inv[j + 1] % p
            tab.append(-inv[m + 1] * acc % p)
    return tuple(tab[: max_index + 1])


def bernoulli_poly_mod_p(n: int, x: Fraction | int, p: int) -> int:
    """B_n(x) mod p, in [0, p), for 0 <= n <= p-2 and p-integral x, from the
    mod-p table; the oracle for bernoulli_diff_mod_p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 0 <= n <= p - 2:
        raise ValueError(f"degree {n} out of range [0, {p - 2}] for p = {p}")
    xr = reduce_mod(x, p, 1)
    tab = bernoulli_table_mod_p(p, n)
    inv = inverse_column(n, p, 1)
    c = 1  # C(n, k), updated in k
    acc = 0
    for k in range(n + 1):  # Horner in x: acc = sum_{j<=k} C(n,j) B_j x^(k-j)
        acc = (acc * xr + c * tab[k]) % p
        if k < n:
            c = c * (n - k) % p * inv[k + 1] % p
    return acc


def bernoulli_diff_mod_p(n: int, x: Fraction | int, y: Fraction | int, p: int) -> int:
    """B_n(x) - B_n(y) mod p, in [0, p), for 0 <= n <= p-2 and p-integral x, y, in O(p).

    For n <= p-2 the coefficients of B_n are p-integral, so B_n(x) mod p
    depends only on the residue X of x.  With Y the residue of y and
    d = (X - Y) mod p, the power-sum identity
    B_n(Y + d) - B_n(Y) = n sum_{j<d} (Y + j)^(n-1) gives the difference.
    At n = p-2 > 1, the degree of every Euler and Bernoulli value the rows
    read, (Y + j)^(p-3) is 1/(Y + j)^2 by Fermat (0 where Y + j == 0), so
    the terms are read from the column of 1/k mod p instead of raised: 15 ms
    against 51 ms for E_{p-3}(1/4) at p = 100003 (Python 3.11.7).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 0 <= n <= p - 2:
        raise ValueError(f"degree {n} out of range [0, {p - 2}] for p = {p}")
    xr = reduce_mod(x, p, 1)
    yr = reduce_mod(y, p, 1)
    d = (xr - yr) % p
    if n == 0:
        return 0
    if n == p - 2 > 1:
        inv = inverse_column(p - 1, p, 1)  # Y + j runs over yr .. yr + d - 1, mod p
        acc = sum(t * t for t in inv[yr:yr + d] + inv[:max(yr + d - p, 0)])
    else:
        acc = sum(pow(yr + j, n - 1, p) for j in range(d))
    return n * acc % p


def euler_poly_mod_p(m: int, x: Fraction | int, p: int) -> int:
    """E_m(x) mod p, in [0, p), through the Bernoulli bridge
    E_{n-1}(x) = (2^n / n)(B_n((x+1)/2) - B_n(x/2)) with n = m+1.

    The bridge is one bernoulli_diff_mod_p call, which makes
    E_m(x) == 2^(m+1) sum_{j=0}^{(p-1)/2} (x/2 + j)^m (mod p).
    Requires 0 <= m <= p-3 so that n stays in the legal index range, and x
    with denominator coprime to p.  x/2 and (x+1)/2 enter the bridge as
    residues: those of x and x+1 times (p+1)/2, the residue of 1/2.
    """
    if not is_prime(p) or p < 5:
        raise ValueError(f"odd prime > 3 required, got {p}")
    if not 0 <= m <= p - 3:
        raise ValueError(f"index {m} out of range [0, {p - 3}] for p = {p}")
    half, xr = (p + 1) // 2, reduce_mod(x, p, 1)
    n = m + 1
    diff = bernoulli_diff_mod_p(n, (xr + 1) * half % p, xr * half % p, p)
    return pow(2, n, p) * pow(n, -1, p) * diff % p


def euler_number_mod_p(m: int, p: int) -> int:
    """Euler number E_m mod p, in [0, p).

    Computed as 2^m * E_m(1/2): substituting x = 1/2, t -> 2t in the
    generating function of E_m(x) recovers the generating function of E_m,
    so the bridge is forced even though neither side alone gives a finite
    algorithm.
    """
    return pow(2, m, p) * euler_poly_mod_p(m, (p + 1) // 2, p) % p  # x = 1/2 mod p


def fermat_quotient2(p: int) -> int:
    """The exact integer (2^(p-1) - 1)/p for odd prime p."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"odd prime required, got {p}")
    return (pow(2, p - 1) - 1) // p


def legendre_symbol(a: int, p: int) -> int:
    """Quadratic-residue status of a mod p via the Euler criterion:
    a^((p-1)/2) mod p mapped to {-1, 0, +1}."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"odd prime required, got {p}")
    t = pow(a % p, (p - 1) // 2, p)
    if t == 0:
        return 0
    return 1 if t == 1 else -1
