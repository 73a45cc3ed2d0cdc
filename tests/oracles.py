"""Independent brute-force oracles.

Every DERIVED expected value in the tests is computed (or cross-checked) by
one of these routes, none of which shares code with the package: Bernoulli
numbers come from the explicit double sum instead of the inverted recurrence,
Euler polynomials from the generating-function recurrence instead of the
Bernoulli bridge, modular reductions from a linear scan instead of the
extended-gcd inverse, quadratic residues from squaring everything, the
congruence series as exact Fraction sums instead of sums in Z/p^e,
every congruence row as its exact (lhs, rhs) pairs (PAIRS_EXACT) instead of
residues stepped in Z/p^e, the identity sums with one Fraction per term
instead of one integer over a common denominator, the WZ terms F and G
as one Fraction each from their definitions instead of integers times 8^n,
and the closed form of G((p+1)/2, k) as a product of Fractions (a raising
factorial at p/2 + 1 - k and 1/n!) instead of one integer quotient.
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
    """sum_{n=0}^{limit} (mul*n + add) C(2n,n)^3 / (-base)^n, as one integer
    numerator over (-base)^limit, built by Horner's rule in -base."""
    num = 0
    c = 1
    for n in range(limit + 1):
        if n:
            c = c * 2 * (2 * n - 1) // n
        num = num * -base + (mul * n + add) * c**3
    return Fraction(num, (-base) ** limit)


def _half_pochhammer_sum(limit: int, shift: int, weight: tuple[int, int]) -> Fraction:
    """sum_{k=0}^{limit} (a k + b)(-1)^k (prod_{j<=k} (2j - shift) / (2j))^3,
    as one integer numerator over (2^limit limit!)^3, by Horner's rule."""
    a, b = weight
    num, den, t = 0, 1, 1
    for k in range(limit + 1):
        if k:
            t *= 2 * k - shift
            num *= (2 * k) ** 3
            den *= (2 * k) ** 3
        num += (-1) ** k * (a * k + b) * t**3
    return Fraction(num, den)


def vh_sum(limit: int) -> Fraction:
    """sum_{k=0}^{limit} (4k+1)(-1)^k ((1/2)_k / k!)^3."""
    return _half_pochhammer_sum(limit, 1, (4, 1))


def gl_sum(limit: int) -> Fraction:
    """sum_{k=0}^{limit} (-1)^k (4k-1) (-1/2)_k^3 / (1)_k^3."""
    return _half_pochhammer_sum(limit, 3, (4, -1))


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


# -- exact row oracles --------------------------------------------------------

_BERNOULLI: list[Fraction] = []


def bernoulli_poly(n: int, x) -> Fraction:
    """B_n(x) = sum_k C(n,k) B_k x^(n-k), each B_k from the double sum."""
    while len(_BERNOULLI) <= n:
        _BERNOULLI.append(bernoulli_double_sum(len(_BERNOULLI)))
    x = Fraction(x)
    return sum((comb(n, k) * _BERNOULLI[k] * x ** (n - k) for k in range(n + 1)), Fraction(0))


def _sign(n: int) -> int:
    return -1 if n % 2 else 1


def harmonic(n: int, order: int = 1) -> Fraction:
    return sum((Fraction(1, k**order) for k in range(1, n + 1)), Fraction(0))


def fold(top: int, n: int, weight) -> Fraction:
    """sum_{k=0}^{n} C(top,k) C(top-k,k) weight(H_k, H_k^(2)) / 4^k, one
    Fraction per term."""
    total = Fraction(0)
    h1 = Fraction(0)
    h2 = Fraction(0)
    for k in range(n + 1):
        if k:
            h1 += Fraction(1, k)
            h2 += Fraction(1, k * k)
        total += Fraction(comb(top, k) * comb(top - k, k), 4**k) * weight(h1, h2)
    return total


def quarter_pair(n: int, a_num: int, b_num: int) -> tuple[Fraction, Fraction]:
    """(lhs, rhs) of sum_k C(n,k) C(b/4,k) H_k^(2)
       = (-1)^n C(a/4,n) (H_n^(2) - sum_k (-1)^k / (k^2 C(a/4,k))),
    stepping each binomial by its term ratio in Fractions."""
    a = Fraction(a_num, 4)
    b = Fraction(b_num, 4)
    lhs = Fraction(0)
    inner = Fraction(0)
    cb = Fraction(1)  # C(b, k)
    ca = Fraction(1)  # C(a, k)
    h2 = Fraction(0)
    for k in range(1, n + 1):
        cb *= (b - k + 1) / k
        ca *= (a - k + 1) / k
        h2 += Fraction(1, k * k)
        lhs += comb(n, k) * cb * h2
        inner += Fraction((-1) ** k, k * k) / ca
    rhs = _sign(n) * falling_product(a, n) * (h2 - inner)
    return lhs, rhs


def f_exact(n: int, k: int) -> Fraction:
    """F(n,k) = (-1)^n (3n-2k+1) C(2n,n) C(2n-2k,n-k) C(2n-2k,n) / 2^(3n-2k), 0 for k > n."""
    if k > n:
        return Fraction(0)
    c = comb(2 * n, n) * comb(2 * n - 2 * k, n - k) * comb(2 * n - 2 * k, n)
    return Fraction(_sign(n) * (3 * n - 2 * k + 1) * c, 2 ** (3 * n - 2 * k))


def g_exact(n: int, k: int) -> Fraction:
    """G(n,k) = (-1)^(n+1) n C(2n,n) C(2n-2k,n-k) C(2n-2k,n-1) / 2^(3n-2k), 0 for k > n or n = 0."""
    if k > n or n == 0:
        return Fraction(0)
    c = comb(2 * n, n) * comb(2 * n - 2 * k, n - k) * comb(2 * n - 2 * k, n - 1)
    return Fraction(_sign(n + 1) * n * c, 2 ** (3 * n - 2 * k))


def closed_form_g_rational(p_odd: int, k: int) -> Fraction:
    """32 p (-1)^h C(p-1,h)^3 / 2^((3p+3)/2) * h! / (((p+3)/2 - 2k)! (p/2 + 1 - k)_{k-1}^2 4^k),
    h = (p-1)/2, with 1/(negative)! = 0."""
    h = (p_odd - 1) // 2
    low = (p_odd + 3) // 2 - 2 * k
    if low < 0:
        return Fraction(0)
    shifted = Fraction(1)
    for j in range(k - 1):
        shifted *= Fraction(p_odd, 2) + 1 - k + j
    prefactor = Fraction(_sign(h) * 32 * p_odd * comb(p_odd - 1, h) ** 3, 2 ** ((3 * p_odd + 3) // 2))
    return prefactor * factorial(h) / factorial(low) / (shifted * shifted) / Fraction(4) ** k


def half_fold(p: int, weight) -> Fraction:
    """sum_{k<=floor((p-1)/4)} C((p-1)/2,2k) C(2k,k) weight(H_k, H_k^(2)) / 4^k."""
    h = (p - 1) // 2
    return sum((Fraction(comb(h, 2 * k) * comb(2 * k, k), 4**k)
                * weight(harmonic(k), harmonic(k, 2)) for k in range((p - 1) // 4 + 1)),
               Fraction(0))


def sum64_h2(p: int) -> Fraction:
    return sum((Fraction(comb(4 * k, 2 * k) * comb(2 * k, k), 64**k) * harmonic(k, 2)
                for k in range(1, (p - 1) // 4 + 1)), Fraction(0))


def _fermat2(p: int) -> int:
    return (2 ** (p - 1) - 1) // p


def _quarter_rhs(p: int, euler) -> Fraction:
    # p (-1|p) + (p^3/4) (2|p) euler
    return p * legendre_by_squares(-1, p) + Fraction(p**3, 4) * legendre_by_squares(2, p) * euler


def _lemma_2_2_to_2_4(weight, rhs):
    def pairs(p, r):
        lhs = 2 ** ((9 * p - 9) // 2) * half_fold(p, weight)
        return [(lhs, rhs(p, _fermat2(p), _sign((p - 1) // 2)))]
    return pairs


def _altsum(p, r):
    f = (p - 1) // 4
    alt = sum((Fraction((-1) ** k, k * k) for k in range(1, f + 1)), Fraction(0))
    diff = bernoulli_poly(p - 2, Fraction(4 - p, 8) % 1) - bernoulli_poly(p - 2, Fraction(-p, 8) % 1)
    return [(-2 * _sign(f) * alt, -Fraction(_sign(f), 4) * diff)]


def _poch(p, r):
    out = []
    for k in range(1, (p - 1) // 2 + 1):
        poch = Fraction(1)
        for j in range(1, k):
            poch *= Fraction(p, 2) - j
        h1, h2 = harmonic(k - 1), harmonic(k - 1, 2)
        rhs = factorial(k - 1) ** 2 * (1 - p * h1 + Fraction(p * p, 4) * (2 * h1 * h1 - h2))
        out.append((poch * poch, rhs))
    return out


def _central_2pr(p, r):
    n = p**r
    b = 2 - 4 * n * harmonic(n - 1)
    c = 2 - 4 * p * harmonic(p - 1)
    return [(comb(2 * n, n), b), (b, c), (c, 2)]


def _neg_binom_unit(p, r):
    # prod_{j<=s} (1 + p^r/j) for s = p^r - 2k, k = 1 .. (p^r-1)/2, each
    # asserted equal to -C(-p^r-1, s) by the definition of the binomial:
    # the falling product (-p^r-1)(-p^r-2)...(-p^r-s) over s!
    n = p**r
    prods, falling, fact = [Fraction(1)], 1, 1
    for j in range(1, n - 1):
        prods.append(prods[-1] * (1 + Fraction(n, j)))
        falling, fact = falling * (-n - j), fact * j
        if j % 2:
            assert -Fraction(falling, fact) == prods[j], (p, r, j)
    return [(prods[n - 2 * k], 1) for k in range(1, (n - 1) // 2 + 1)]


def _ps(pair):
    def pairs(p, r):
        n = p**r
        return [pair(n, l, n - l) for l in range(1, (n - 1) // 2 + 1)]
    return pairs


# congruence id -> (p, r) -> every (lhs, rhs) pair of the row, exactly; the
# series rows take their left sides from SERIES_EXACT
PAIRS_EXACT = {
    "thm-main": lambda p, r: [(SERIES_EXACT["S8-half"](p, r),
                               _quarter_rhs(p, euler_poly_gf(p - 3, Fraction(1, 4))))],
    "thm-prime-power": lambda p, r: [(SERIES_EXACT["S8-full"](p, r),
                                      _sign((p**r - 1) // 2) * p**r)],
    "vanhamme": lambda p, r: [(SERIES_EXACT["S64-half"](p, r), _sign((p - 1) // 2) * p)],
    "wolstenholme-h1": lambda p, r: [(harmonic(p - 1), 0)],
    "wolstenholme-h2": lambda p, r: [(harmonic(p - 1, 2), 0)],
    "central-2p1p": lambda p, r: [(comb(2 * p - 1, p - 1), 1)],
    "sun-64": lambda p, r: [(SERIES_EXACT["S64-full"](p, r),
                             _sign((p - 1) // 2) * p + p**3 * euler_number_gf(p - 3))],
    "guo-liu": lambda p, r: [(SERIES_EXACT["Sgl"](p, r),
                              p * _sign((p + 1) // 2) + p**3 * (2 - euler_number_gf(p - 3)))],
    "long-cxh-512": lambda p, r: [(SERIES_EXACT["S512-half"](p, r),
                                   p * legendre_by_squares(-2, p))],
    "mao-512": lambda p, r: [(SERIES_EXACT["S512-half"](p, r),
                              p * legendre_by_squares(-2, p) + Fraction(p**3, 4)
                              * legendre_by_squares(2, p) * euler_number_gf(p - 3))],
    "cxh-8-full": lambda p, r: [(SERIES_EXACT["S8-full"](p, r),
                                 p * _sign((p - 1) // 2) + p**3 * euler_number_gf(p - 3))],
    "remark-sun-c51": lambda p, r: [(SERIES_EXACT["S8-half"](p, r),
                                     4 * legendre_by_squares(2, p) * SERIES_EXACT["S512-full"](p, r)
                                     - 3 * p * legendre_by_squares(-1, p))],
    "guo-half-64": lambda p, r: [(SERIES_EXACT["S64-half"](p, r),
                                  _sign((p - 1) // 2 * r) * p**r)],
    "guo-conj-full-64": lambda p, r: [(SERIES_EXACT["S64-full"](p, r),
                                       _sign((p - 1) // 2 * r) * p**r)],
    "morley": lambda p, r: [(comb(p - 1, (p - 1) // 2), _sign((p - 1) // 2) * 4 ** (p - 1))],
    "morley-power": lambda p, r: [(comb(p**r - 1, (p**r - 1) // 2),
                                   _sign((p**r - 1) // 2) * 4 ** (p**r - 1))],
    "lemma-2.2": _lemma_2_2_to_2_4(lambda h1, h2: 1,
                                   lambda p, q, s: s * (1 + 6 * p * q + 15 * p * p * q * q)),
    "lemma-2.3": _lemma_2_2_to_2_4(lambda h1, h2: h1,
                                   lambda p, q, s: -3 * s * (2 * q + 11 * p * q * q)),
    "lemma-2.4": _lemma_2_2_to_2_4(lambda h1, h2: h1 * h1 + h2,
                                   lambda p, q, s: 36 * s * q * q),
    "lemma-2.6a": lambda p, r: [(half_fold(p, lambda h1, h2: h2), sum64_h2(p))],
    "lemma-2.6b": lambda p, r: [(sum64_h2(p), -euler_poly_gf(p - 3, Fraction(1, 4)))],
    "lemma-2.6-altsum": _altsum,
    "lemma-2.7": lambda p, r: [(sum((g_exact((p + 1) // 2, k) for k in range(1, (p + 1) // 2)),
                                    Fraction(0)),
                                _quarter_rhs(p, euler_poly_gf(p - 3, Fraction(1, 4))))],
    "binom-16k": lambda p, r: [(comb((p - 1) // 2, 2 * k), Fraction(comb(4 * k, 2 * k), 16**k))
                               for k in range((p - 1) // 4 + 1)],
    "poch-expansion": _poch,
    "two-power-half": lambda p, r: [(2 ** ((p - 1) // 2), legendre_by_squares(2, p) * (
        1 + Fraction(p, 2) * _fermat2(p) - Fraction(p * p, 8) * _fermat2(p) ** 2))],
    "lemma-3.2": lambda p, r: [(g_exact(p**r, (p**r + 1) // 2), _sign((p**r - 1) // 2) * p**r)],
    "lemma-3.3": lambda p, r: [(sum((g_exact(p**r, k) for k in range(1, (p**r + 1) // 2)),
                                    Fraction(0)), 0)],
    "central-2pr": _central_2pr,
    "ps-1": _ps(lambda n, l, k: (l * comb(2 * l, l) * comb(2 * k, k), -2 * n)),
    "ps-2": _ps(lambda n, l, k: (Fraction(-2 * n, l * comb(2 * l, l)), comb(2 * k, k))),
    "ps-3": _ps(lambda n, l, k: (comb(2 * k, k), 0)),
    "neg-binom-unit": _neg_binom_unit,
}
