"""Independent brute-force oracles.

Every DERIVED expected value in the tests is computed (or cross-checked) by
one of these routes, none of which shares code with the package: Bernoulli
numbers come from the explicit double sum instead of the inverted recurrence,
Euler polynomials from the generating-function recurrence instead of the
Bernoulli bridge, modular reductions from a linear scan instead of the
extended-gcd inverse, quadratic residues from squaring everything, and the
congruence series as exact Fraction sums instead of sums in Z/p^e.
"""

from fractions import Fraction
from math import comb, factorial


def v_p(q, p: int) -> int:
    """Valuation by direct factor counting on numerator and denominator."""
    q = Fraction(q)
    assert q != 0
    num, den = abs(q.numerator), q.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def reduce_by_scan(q, p: int, e: int) -> int:
    """Solve x * den == num (mod p^e) by scanning all residues."""
    q = Fraction(q)
    m = p**e
    assert q.denominator % p != 0
    target = q.numerator % m
    for x in range(m):
        if x * q.denominator % m == target:
            return x
    raise AssertionError("unreachable for p-free denominators")


def binomial_factorial(n: int, k: int) -> int:
    """n! / (k! (n-k)!) for 0 <= k <= n."""
    return factorial(n) // (factorial(k) * factorial(n - k))


def falling_product(a, k: int) -> Fraction:
    out = Fraction(1)
    for j in range(k):
        out *= Fraction(a) - j
    return out / factorial(k)


def bernoulli_double_sum(n: int) -> Fraction:
    """B_n = sum_{k=0}^{n} 1/(k+1) sum_{j=0}^{k} (-1)^j C(k,j) j^n  (0^0 = 1)."""
    total = Fraction(0)
    for k in range(n + 1):
        inner = 0
        for j in range(k + 1):
            inner += (-1) ** j * comb(k, j) * j**n
        total += Fraction(inner, k + 1)
    return total


def euler_poly_gf(m: int, x) -> Fraction:
    """E_m(x) from x^n = (1/2)(sum_{k<=n} C(n,k) E_k(x) + E_n(x)),
    the coefficient identity of (e^t + 1) * gf = 2 e^{xt}."""
    x = Fraction(x)
    polys: list[Fraction] = []
    for n in range(m + 1):
        acc = Fraction(0)
        for k in range(n):
            acc += comb(n, k) * polys[k]
        polys.append(x**n - acc / 2)
    return polys[m]


def euler_number_gf(m: int) -> Fraction:
    return 2**m * euler_poly_gf(m, Fraction(1, 2))


def legendre_by_squares(a: int, p: int) -> int:
    if a % p == 0:
        return 0
    squares = {x * x % p for x in range(1, p)}
    return 1 if a % p in squares else -1


def central_sum(limit: int, mul: int, add: int, base: int) -> Fraction:
    """sum_{n=0}^{limit} (mul*n + add) C(2n,n)^3 / (-base)^n."""
    total = Fraction(0)
    c = 1
    pw = 1
    for n in range(limit + 1):
        if n:
            c = c * 2 * (2 * n - 1) // n
            pw *= base
        term = Fraction((mul * n + add) * c**3, pw)
        total += -term if n % 2 else term
    return total


def vh_sum(limit: int) -> Fraction:
    """sum_{k=0}^{limit} (4k+1)(-1)^k ((1/2)_k / k!)^3."""
    total = Fraction(0)
    t = Fraction(1)
    for k in range(limit + 1):
        if k:
            t *= Fraction(2 * k - 1, 2 * k)
        term = (4 * k + 1) * t**3
        total += -term if k % 2 else term
    return total


def gl_sum(limit: int) -> Fraction:
    """sum_{k=0}^{limit} (-1)^k (4k-1) (-1/2)_k^3 / (1)_k^3."""
    total = Fraction(0)
    u = Fraction(1)
    for k in range(limit + 1):
        if k:
            u *= Fraction(2 * k - 3, 2 * k)
        term = (4 * k - 1) * u**3
        total += -term if k % 2 else term
    return total


# series id -> (p, r) -> the series at its upper bound for p^r, exactly
SERIES_EXACT = {
    "S8-half": lambda p, r: central_sum((p**r - 1) // 2, 3, 1, 8),
    "S8-full": lambda p, r: central_sum(p**r - 1, 3, 1, 8),
    "S64-half": lambda p, r: vh_sum((p**r - 1) // 2),
    "S64-full": lambda p, r: central_sum(p**r - 1, 4, 1, 64),
    "S512-half": lambda p, r: central_sum((p**r - 1) // 2, 6, 1, 512),
    "S512-full": lambda p, r: central_sum(p**r - 1, 6, 1, 512),
    "Sgl": lambda p, r: gl_sum((p**r + 1) // 2),
}
