"""Registry of congruences at prime-power moduli, each bound to its
left/right evaluator; the one suite runner for every check family; and
Verdict, the one record type of a report.

Three families of checks exist, each with its own table keyed by id:
congruences (REGISTRY here, checked per (p, r)), identities
(identities.REGISTRY, checked for every n up to a depth) and the WZ grid
certificates (wz.REGISTRY, checked up to a grid depth).  all_ids() lists
the ids of all three, and run_suite() runs any selection of them.

Row contract: each row is one _row declaration on its evaluator
pairs(p, r, e), giving the row's id, its statement and its modulus
exponent e, an int or a function of r; rows enter REGISTRY, and so
all_ids(), in the order they are declared.  A row that is another row's
r = 1 case shares that row's evaluator (vanhamme with guo-half-64).
check_congruence computes e once and calls pairs(p, r, e).  Each side of
each pair is an int, taken mod p^e; check_congruence compares each pair as
two ints in [0, p^e), and that is the only comparison.  A side of any other
type makes a failed row with a diagnostic.  Sides known only mod p (the
Euler and Bernoulli values of lemma-2.6b and lemma-2.6-altsum) are ints
mod p, so those rows fix e = 1.

Windowed rows: wolstenholme-h1, wolstenholme-h2, central-2p1p and morley
are declared on window(primes, e), which gives the pairs of every prime of
a window from one accumulating remainder tree (_remainder_tree).  Their
pairs(p, r, e), and so check_congruence, is the window of p alone, where
the tree is one run of steps mod p^e; run_suite checks each of them over
all its primes in one task.  H_{p-1} and H_{p-1}^(2) are S / D for the
steps [S, D] -> [S u_k + D, D u_k], u_k = k or k^2, up to p - 1; central-2p1p
is (2p-1)! / (p (p-1)!^2), (2p-1)! taken mod p^(e+1); morley is
(p-1)! / ((p-1)/2)!^2.  The tree replaced the column of 1/k mod p^2 (h1,
h2), the block products (central-2p1p) and math.comb (morley) at every
window size, one prime included, by measurement (2 vCPUs, Python 3.11.7,
each row alone in a fresh process; the replaced route in brackets):
h1 29 ms (61 ms), h2 51 ms (73 ms), central-2p1p 17 ms (27 ms), morley 7 ms
(210 ms) at p = 100003; h1 0.66 s (2.04 s), h2 1.11 s (2.09 s),
central-2p1p 0.44 s (0.57 s), morley 0.18 s (49 s) at p = 2124679.

Every sum or product over an index runs in Z/p^e, and no row inverts inside
its own loop: a product whose steps divide is one _stepped run, which keeps
the power of p apart from a unit mod p^e, inverts once per run and raises
EvaluatorError if p is left in a denominator; every reciprocal 1/k in a sum
comes from the column exactnum.inverse_column, and a remainder tree's S / D
inverts its unit D once per prime (_quotient; the windowed rows, and
central-2pr's H_{p-1} mod p).  The exact Fraction form of every row is the
test oracle (PAIRS_EXACT in tests/oracles.py).

Independence rule: a row whose statement is a Bernoulli or Euler value
never computes that value through its own left-hand sum.  Every such value
on a right side comes from special.py's power sums (bernoulli_diff_mod_p);
lemma-2.6b and lemma-2.6-altsum assert E_{p-3}(1/4) and a Bernoulli
difference equal to a 64-weighted and an alternating sum, and neither sum
is used to compute them.

The runner (run_suite) runs the checks in this process, or, with more
than one worker and where os.fork exists, in forked children: they inherit
the tasks, take task indices from one shared pipe, and each sends back one
pickled payload, its verdicts or the exception it caught.  The first error
is raised in the parent, which kills the other workers at once.

A Verdict is a named tuple of ints and strings, cheap to build and to
pickle, and stores the residues, never a pass flag: a row passes exactly
when lhs == rhs.  Per-index families (one congruence for every k or l in a
stated range) are checked index by index; their Verdict reports the summed
residues when all indices pass (equal then) and the first failing pair
otherwise (unequal).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import perm
from typing import Callable, NamedTuple

from . import identities, wz
from .combinat import binomial, frac_part
from .exactnum import NotPIntegralError, UnknownIdError, inverse_column, is_prime
from .identities import W_H, W_H2, W_HH, W_ONE
from .special import (
    bernoulli_diff_mod_p,
    euler_number_mod_p,
    euler_poly_mod_p,
    fermat_quotient2,
    legendre_symbol,
)


class InapplicableError(ValueError):
    """The congruence is not stated for this (p, r)."""


class EvaluatorError(ArithmeticError):
    """An evaluator detected an internal inconsistency; surfaces as a failed
    Verdict with a diagnostic rather than an exception."""


class Verdict(NamedTuple):
    """One check outcome, and one row of a report.

    A congruence row carries both residues at its modulus p^e.  An exact
    (modulus-free) row, from an identity or a grid certificate, has
    p = r = 0, e None, lhs = the number of failing points and rhs = 0.
    lhs/rhs are None only if evaluation itself failed, in which case
    diagnostic says why.  A row passes exactly when lhs == rhs.  record()
    is the row as a dict: the cells of the csv and table reports, and the
    oracle of the jsonl line cli formats from the fields directly.
    """

    id: str
    p: int
    r: int
    lhs: int | None
    rhs: int | None
    e: int | None
    micros: int
    diagnostic: str | None = None

    @property
    def passed(self) -> bool:
        return self.lhs is not None and self.lhs == self.rhs

    @property
    def modulus(self) -> int | None:
        return None if self.e is None else self.p**self.e

    def record(self, no_timing: bool = False) -> dict:
        rec = {
            "id": self.id,
            "p": self.p,
            "r": self.r,
            "modulus": "exact" if self.e is None else f"{self.p}^{self.e}",
            "lhs": None if self.lhs is None else str(self.lhs),
            "rhs": None if self.rhs is None else str(self.rhs),
            "pass": self.passed,
            "micros": 0 if no_timing else self.micros,
        }
        if self.diagnostic is not None:
            rec["diagnostic"] = self.diagnostic
        return rec


@dataclass(frozen=True)
class CongruenceSpec:
    """Registry row: the statement, its modulus exponent e as a function of
    r, applicability, and an evaluator pairs(p, r, e) producing one or more
    (lhs, rhs) pairs to compare mod p^e.  The rows of REGISTRY are built by
    the _row decorator on their evaluators."""

    id: str
    description: str
    modulus_exponent: Callable[[int], int]
    pairs: Callable[[int, int, int], list[tuple[int, int]]]
    min_prime: int = 5
    r_indexed: bool = False
    # window(primes, e): the pairs of each prime of a window, for a row
    # stated at r = 1 and a fixed e whose pairs come from one remainder tree
    window: Callable[[tuple[int, ...], int], list[list[tuple[int, int]]]] | None = None

    def applicable(self, p: int, r: int) -> bool:
        """Whether the row is stated for (p, r), p being prime: the callers
        test primality, _tasks once per prime of a sweep."""
        if p < self.min_prime or r < 1:
            return False
        return self.r_indexed or r == 1


# -- stepping in Z/p^e ---------------------------------------------------------


def _stepped(p: int, e: int, factors) -> list[int]:
    """Every partial product 1, f_1, f_1 f_2, ... of a run of nonzero
    rationals f_i = num/den, mod p^e.

    The running product is held as p^v u, v its exact p-adic valuation and
    u a unit mod p^e, p being split out of each factor.  A zero factor is
    refused (p never splits out of 0), and so is a product left with p in
    its denominator (v < 0).  The unit denominators are inverted once for
    the whole run.
    """
    m = p**e
    v, num_u, den_u = 0, 1, 1
    vs, nums, dens = [0], [1], [1]
    for num, den in factors:
        if num == 0 or den == 0:
            raise EvaluatorError(f"zero factor {num}/{den} in a product stepped mod {p}^{e}")
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        if v < 0:
            raise EvaluatorError(f"a stepped product has {p} in its denominator (mod {p}^{e})")
        num_u, den_u = num_u * num % m, den_u * den % m
        vs.append(v)
        nums.append(num_u)
        dens.append(den % m)
    inv = pow(den_u, -1, m)  # 1 / (den_1 ... den_i), from the last i down
    out = [0] * len(vs)
    for i in range(len(vs) - 1, -1, -1):
        if vs[i] < e:
            out[i] = nums[i] * inv * p ** vs[i] % m
        inv = inv * dens[i] % m
    return out


# -- one row over a window of primes -----------------------------------------

# Steps per exact product in a remainder tree: one reduction per run of steps
# rather than per step
_RUN = 32


def _advance_product(state, lo: int, hi: int, m: int) -> tuple[int]:
    """(D,) times k for lo < k <= hi, mod m: each run of _RUN factors is one
    math.perm, and the last run is shorter."""
    (d,) = state
    top = hi - (hi - lo) % _RUN  # the last step of the last full run
    for k in range(lo + _RUN, top + 1, _RUN):
        d = d * perm(k, _RUN) % m
    return (d * perm(hi, hi - top) % m,)


def _advance_sum(power: int):
    """The advance of the state (S, D) by the steps u_k = k^power:
    [S, D] [[u, 0], [1, u]] = [S u + D, D u], so D = prod u_k and
    S / D = sum 1 / u_k.  A run of _RUN steps is one exact matrix
    [[A, 0], [B, A]]."""
    def advance(state, lo: int, hi: int, m: int) -> tuple[int, int]:
        s, d = state
        for start in range(lo + 1, hi + 1, _RUN):
            run = range(start, min(start + _RUN, hi + 1))
            a, b = 1, 0
            for u in run if power == 1 else [k**power for k in run]:
                a, b = a * u, b * u + a
            s, d = (s * a + d * b) % m, d * a % m
        return s % m, d % m

    return advance


def _remainder_tree(queries, advance, start) -> dict[tuple[int, int], tuple[int, ...]]:
    """{(n, m): the state after the steps k <= n, mod m} for each query.

    An accumulating remainder tree (Costa, Gerbicz and Harvey, "A search for
    Wilson primes", Math. Comp. 83, 2014).  advance(state, lo, hi, m) is the
    state after the further steps lo < k <= hi, mod m, and start is the state
    before step 1.  The queries, sorted by n, are split in half; the incoming
    state, at the first n of its half and mod the product of that half's
    moduli, is reduced mod each half's product, advanced over the left
    half's steps for the right half, and handed down.  Each step is taken
    once per level, at a modulus that halves with the level, instead of once
    per query; a single query is one advance mod its own m.
    """
    queries = sorted(set(queries))

    def moduli(lo: int, hi: int) -> tuple:  # the product tree of queries[lo:hi]'s m
        if hi - lo == 1:
            return (queries[lo][1],)
        mid = (lo + hi) // 2
        left, right = moduli(lo, mid), moduli(mid, hi)
        return (left[0] * right[0], left, right)

    states = {}

    def descend(state, node: tuple, lo: int, hi: int) -> None:
        if hi - lo == 1:
            states[queries[lo]] = state
            return
        mid = (lo + hi) // 2
        _, left, right = node
        descend(tuple(x % left[0] for x in state), left, lo, mid)
        descend(advance(state, queries[lo][0], queries[mid][0], right[0]), right, mid, hi)

    root = moduli(0, len(queries))
    descend(advance(start, 0, queries[0][0], root[0]), root, 0, len(queries))
    return states


def _quotient(s: int, d: int, m: int) -> int:
    """s / d mod m for a unit d: a window's one inversion per prime."""
    return s * pow(d, -1, m) % m


def _harmonic(primes, e: int, power: int) -> list[int]:
    """H_{p-1}^(power) = sum_{k<p} 1/k^power mod p^e for each p: S / D of
    one tree, D = (p-1)!^power a unit."""
    tree = _remainder_tree([(p - 1, p**e) for p in primes], _advance_sum(power), (0, 1))
    return [_quotient(*tree[p - 1, p**e], p**e) for p in primes]


# -- series ------------------------------------------------------------------


@dataclass(frozen=True)
class _Series:
    """sum_{n=0}^{bound(p^r)} (a n + b) t_n^3 / (-base)^n, where t_0 = 1
    and t_n / t_{n-1} = (c n + d) / (g n) with (c, d, g) = ratio."""

    weight: tuple[int, int]
    base: int
    ratio: tuple[int, int, int]
    bound: Callable[[int], int]


_CENTRAL = (4, -2, 1)  # t_n = C(2n, n)
_NEG_HALF = (2, -3, 2)  # t_n = (-1/2)_n / n!
_HALF = lambda q: (q - 1) // 2
_FULL = lambda q: q - 1

_SERIES: dict[str, _Series] = {
    "S8-half": _Series((3, 1), 8, _CENTRAL, _HALF),
    "S8-full": _Series((3, 1), 8, _CENTRAL, _FULL),
    # sum (4k+1)(-1)^k ((1/2)_k / k!)^3, and (1/2)_k / k! = C(2k, k) / 4^k
    "S64-half": _Series((4, 1), 64, _CENTRAL, _HALF),
    "S64-full": _Series((4, 1), 64, _CENTRAL, _FULL),
    "S512-half": _Series((6, 1), 512, _CENTRAL, _HALF),
    "S512-full": _Series((6, 1), 512, _CENTRAL, _FULL),
    # sum (-1)^k (4k-1) ((-1/2)_k / k!)^3
    "Sgl": _Series((4, -1), 1, _NEG_HALF, lambda q: (q + 1) // 2),
}


def eval_series(series_id: str, p: int, r: int, e: int) -> int:
    """Partial sum of the named series at its upper bound for p^r, mod p^e,
    as an int in [0, p^e).

    The term t_n^3 / (-base)^n is stepped in Z/p^e by its ratio, p split
    out of every factor.  Equal to the exact rational sum reduced mod p^e.
    Raises EvaluatorError if some t_n has p in its denominator.
    """
    series = _SERIES.get(series_id)
    if series is None:
        raise UnknownIdError(f"unknown series id: {series_id}")
    if not is_prime(p) or p < 3:
        raise ValueError(f"odd prime required, got {p}")
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    if e < 1:
        raise ValueError(f"exponent must be positive, got {e}")
    a, b = series.weight
    c, d, g = series.ratio
    terms = _stepped(p, e, (((c * n + d) ** 3, -series.base * (g * n) ** 3)
                            for n in range(1, series.bound(p**r) + 1)))
    return sum((a * n + b) * t for n, t in enumerate(terms)) % p**e


# -- shared pieces -------------------------------------------------------------


def _sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


@lru_cache(maxsize=1)  # the rows of one prime run in one task
def _euler_quarter(p: int) -> int:
    # E_{p-3}(1/4) mod p, lifted to [0, p); any lift works inside the p^3-scaled
    # terms below because shifting by p only moves the product by p^4/4.
    return euler_poly_mod_p(p - 3, Fraction(1, 4), p)


@lru_cache(maxsize=1)
def _euler_number(p: int) -> int:
    return euler_number_mod_p(p - 3, p)


def _rhs_central_quarter(p: int, e: int) -> int:
    # p (-1|p) + (p^3/4) (2|p) E_{p-3}(1/4)
    return p * legendre_symbol(-1, p) + p**3 * pow(4, -1, p**e) * legendre_symbol(2, p) * _euler_quarter(p)


def _half_fold(p: int, e: int, weight) -> int:
    """sum_{k<=(p-1)/4} C(h,k) C(h-k,k) w(H_k, H_k^(2)) / 4^k mod p^e, h = (p-1)/2,
    from weight at u = 1 (oracle: half_fold in tests/oracles.py): every
    C(h,k) C(h-k,k) / 4^k and H_k with k < p is a unit or p-integral."""
    m, h, f = p**e, (p - 1) // 2, (p - 1) // 4
    cs = _stepped(p, e, (((h - 2 * k + 2) * (h - 2 * k + 1), 4 * k * k) for k in range(1, f + 1)))
    total, h1, h2 = 0, 0, 0
    for c, inv in zip(cs, inverse_column(f, p, e)):
        h1, h2 = (h1 + inv) % m, (h2 + inv * inv) % m
        # u = 1: a weight homogeneous of degree 2 is then w(H_k, H_k^(2)) itself
        total += c * weight(1, h1, h2)
    return total % m


def _sum64_h2(p: int) -> int:
    # sum_{k=1}^{floor((p-1)/4)} C(4k,2k) C(2k,k) H_k^(2) / 64^k mod p
    f = (p - 1) // 4
    ds = _stepped(p, 1, (((4 * k - 1) * (4 * k - 3), 16 * k * k) for k in range(1, f + 1)))
    h2s = accumulate(inv * inv for inv in inverse_column(f, p, 1))
    return sum(d * h2 for d, h2 in zip(ds, h2s)) % p


def _alt_quarter_sum(p: int) -> int:
    # sum_{k=1}^{floor((p-1)/4)} (-1)^k / k^2 mod p: the even k less the odd k
    inverses = inverse_column((p - 1) // 4, p, 1)
    return (sum(inv * inv for inv in inverses[2::2]) - sum(inv * inv for inv in inverses[1::2])) % p


def _g_column(n: int, p: int, e: int) -> list[int]:
    """G(n, k) mod p^e for k = 1 .. floor((n+1)/2), the last k with
    G(n, k) != 0: G(n, 1) = (-1)^(n+1) (2n-1) prod_{j<n} ((2j-1)/j)^3, and
    G(n, k+1) / G(n, k) = (n-2k+1)(n-2k) / (2n-2k-1)^2."""
    top = (n + 1) // 2
    factors = [(_sign(n + 1) * (2 * n - 1), 1)] + [((2 * j - 1) ** 3, j**3) for j in range(1, n)]
    factors += [((n - 2 * k + 1) * (n - 2 * k), (2 * n - 2 * k - 1) ** 2) for k in range(1, top)]
    return _stepped(p, e, factors)[-top:]


def _central_column(n: int, p: int, e: int) -> list[int]:
    """C(2k, k) mod p^e for k = 0 .. n."""
    return _stepped(p, e, ((2 * (2 * k - 1), k) for k in range(1, n + 1)))


# -- per-row pair evaluators ---------------------------------------------------

REGISTRY: dict[str, CongruenceSpec] = {}


def _row(cid: str, statement: str, e: int | Callable[[int], int], *,
         min_prime: int = 5, r_indexed: bool = False, windowed: bool = False):
    """Decorator: enter the evaluator below it into REGISTRY as the row cid,
    stated at modulus p^e; e is an int, or a function of r for a row whose
    modulus grows with r.  A windowed row's evaluator is window(primes, e),
    and the name it is bound to becomes pairs(p, r, e), its one-prime
    window."""
    exponent = e if callable(e) else lambda r: e

    def register(evaluator):
        pairs, window = evaluator, None
        if windowed:
            window = evaluator

            def pairs(p, r, e):
                return window((p,), e)[0]

        REGISTRY[cid] = CongruenceSpec(cid, statement, exponent, pairs, min_prime, r_indexed, window)
        return pairs

    return register


@_row("thm-main",
      "sum_{n<=(p-1)/2} (3n+1)(-8)^-n C(2n,n)^3 == p(-1|p) + (p^3/4)(2|p) E_{p-3}(1/4) (mod p^4)", 4)
def _pairs_thm_main(p, r, e):
    return [(eval_series("S8-half", p, r, e), _rhs_central_quarter(p, e))]


@_row("thm-prime-power",
      "sum_{n<p^r} (3n+1)(-8)^-n C(2n,n)^3 == (-1)^((p^r-1)/2) p^r (mod p^(r+2))",
      lambda r: r + 2, r_indexed=True)
def _pairs_thm_prime_power(p, r, e):
    return [(eval_series("S8-full", p, r, e), _sign((p**r - 1) // 2) * p**r)]


# vanhamme is the r = 1 case of guo-half-64, which is declared further down
@_row("vanhamme",
      "sum_{k<=(p-1)/2} (4k+1)(-1)^k ((1/2)_k/k!)^3 == (-1)^((p-1)/2) p (mod p^3)", 3, min_prime=3)
def _pairs_guo_half_64(p, r, e):
    return [(eval_series("S64-half", p, r, e), _sign((p - 1) // 2 * r) * p**r)]


@_row("wolstenholme-h1", "H_{p-1} == 0 (mod p^2)", 2, windowed=True)
def _pairs_wolstenholme_h1(primes, e):
    return [[(h, 0)] for h in _harmonic(primes, e, 1)]


@_row("wolstenholme-h2", "H_{p-1}^(2) == 0 (mod p)", 1, windowed=True)
def _pairs_wolstenholme_h2(primes, e):
    return [[(h, 0)] for h in _harmonic(primes, e, 2)]


@_row("central-2p1p", "C(2p-1, p-1) == 1 (mod p^3)", 3, windowed=True)
def _pairs_central_2p1p(primes, e):
    # C(2p-1, p-1) = (2p-1)! / (p (p-1)!^2), and (2p-1)! mod p^(e+1) holds
    # its one factor p
    tree = _remainder_tree([q for p in primes for q in ((p - 1, p**e), (2 * p - 1, p ** (e + 1)))],
                           _advance_product, (1,))
    return [[(_quotient(tree[2 * p - 1, p ** (e + 1)][0] // p, tree[p - 1, p**e][0] ** 2, p**e), 1)]
            for p in primes]


def _rhs_sign_euler(p: int) -> int:
    # (-1)^((p-1)/2) p + p^3 E_{p-3}, the right side of sun-64 and cxh-8-full
    return _sign((p - 1) // 2) * p + p**3 * _euler_number(p)


@_row("sun-64",
      "sum_{k<p} (4k+1)(-64)^-k C(2k,k)^3 == (-1)^((p-1)/2) p + p^3 E_{p-3} (mod p^4)", 4)
def _pairs_sun_64(p, r, e):
    return [(eval_series("S64-full", p, r, e), _rhs_sign_euler(p))]


@_row("guo-liu",
      "sum_{k<=(p+1)/2} (-1)^k (4k-1)(-1/2)_k^3/k!^3 == p(-1)^((p+1)/2) + p^3(2 - E_{p-3}) (mod p^4)", 4)
def _pairs_guo_liu(p, r, e):
    rhs = p * _sign((p + 1) // 2) + p**3 * (2 - _euler_number(p))
    return [(eval_series("Sgl", p, r, e), rhs)]


# mao-512 sharpens this row to p^4, but its E_{p-3} mod p needs p >= 5, and
# this row is stated at p = 3 too
@_row("long-cxh-512", "sum_{n<=(p-1)/2} (6n+1)(-512)^-n C(2n,n)^3 == p(-2|p) (mod p^2)", 2, min_prime=3)
def _pairs_long_cxh_512(p, r, e):
    return [(eval_series("S512-half", p, r, e), p * legendre_symbol(-2, p))]


@_row("mao-512",
      "sum_{n<=(p-1)/2} (6n+1)(-512)^-n C(2n,n)^3 == p(-2|p) + (p^3/4)(2|p) E_{p-3} (mod p^4)", 4)
def _pairs_mao_512(p, r, e):
    rhs = p * legendre_symbol(-2, p) + p**3 * pow(4, -1, p**e) * legendre_symbol(2, p) * _euler_number(p)
    return [(eval_series("S512-half", p, r, e), rhs)]


@_row("cxh-8-full", "sum_{k<p} (3k+1)(-8)^-k C(2k,k)^3 == p(-1)^((p-1)/2) + p^3 E_{p-3} (mod p^4)", 4)
def _pairs_cxh_8_full(p, r, e):
    return [(eval_series("S8-full", p, r, e), _rhs_sign_euler(p))]


@_row("remark-sun-c51", "half 8-sum == 4(2|p) * full 512-sum - 3p(-1|p) (mod p^4)", 4)
def _pairs_remark_sun_c51(p, r, e):
    rhs = 4 * legendre_symbol(2, p) * eval_series("S512-full", p, r, e) - 3 * p * legendre_symbol(-1, p)
    return [(eval_series("S8-half", p, r, e), rhs)]


_row("guo-half-64",
     "sum_{k<=(p^r-1)/2} (4k+1)(-64)^-k C(2k,k)^3 == (-1)^((p-1)r/2) p^r (mod p^(r+2))",
     lambda r: r + 2, r_indexed=True)(_pairs_guo_half_64)


@_row("guo-conj-full-64",
      "sum_{k<p^r} (4k+1)(-64)^-k C(2k,k)^3 == (-1)^((p-1)r/2) p^r (mod p^(r+2))",
      lambda r: r + 2, r_indexed=True)
def _pairs_guo_conj_full_64(p, r, e):
    return [(eval_series("S64-full", p, r, e), _sign((p - 1) // 2 * r) * p**r)]


@_row("morley", "C(p-1,(p-1)/2) == (-1)^((p-1)/2) 4^(p-1) (mod p^3)", 3, windowed=True)
def _pairs_morley(primes, e):
    # C(p-1, (p-1)/2) = (p-1)! / ((p-1)/2)!^2, both factorials units
    tree = _remainder_tree([(n, p**e) for p in primes for n in ((p - 1) // 2, p - 1)],
                           _advance_product, (1,))
    return [[(_quotient(tree[p - 1, p**e][0], tree[(p - 1) // 2, p**e][0] ** 2, p**e),
              _sign((p - 1) // 2) * pow(4, p - 1, p**e))] for p in primes]


@_row("morley-power", "C(p^r-1,(p^r-1)/2) == (-1)^((p^r-1)/2) 4^(p^r-1) (mod p^3)", 3, r_indexed=True)
def _pairs_morley_power(p, r, e):
    # C(n-1, h) stepped by (n-j)/j for j = 1 .. h
    n = p**r
    h = (n - 1) // 2
    return [(_stepped(p, e, ((n - j, j) for j in range(1, h + 1)))[-1], _sign(h) * pow(4, n - 1, p**e))]


@_row("lemma-2.2",
      "2^((9p-9)/2) sum C((p-1)/2,2k)C(2k,k)/4^k == (-1)^((p-1)/2)(1 + 6pq + 15p^2q^2) (mod p^3), q = q_p(2)",
      3)
def _pairs_lemma_2_2(p, r, e):
    q = fermat_quotient2(p)
    lhs = pow(2, (9 * p - 9) // 2, p**e) * _half_fold(p, e, W_ONE)
    rhs = _sign((p - 1) // 2) * (1 + 6 * p * q + 15 * p * p * q * q)
    return [(lhs, rhs)]


@_row("lemma-2.3",
      "2^((9p-9)/2) sum C((p-1)/2,2k)C(2k,k)H_k/4^k == -3(-1)^((p-1)/2)(2q + 11pq^2) (mod p^2)", 2)
def _pairs_lemma_2_3(p, r, e):
    q = fermat_quotient2(p)
    lhs = pow(2, (9 * p - 9) // 2, p**e) * _half_fold(p, e, W_H)
    rhs = -3 * _sign((p - 1) // 2) * (2 * q + 11 * p * q * q)
    return [(lhs, rhs)]


@_row("lemma-2.4",
      "2^((9p-9)/2) sum C((p-1)/2,2k)C(2k,k)(H_k^2+H_k^(2))/4^k == 36(-1)^((p-1)/2) q^2 (mod p)", 1)
def _pairs_lemma_2_4(p, r, e):
    q = fermat_quotient2(p)
    lhs = pow(2, (9 * p - 9) // 2, p**e) * _half_fold(p, e, W_HH)
    rhs = 36 * _sign((p - 1) // 2) * q * q
    return [(lhs, rhs)]


@_row("lemma-2.6a",
      "sum C((p-1)/2,2k)C(2k,k)H_k^(2)/4^k == sum_{k<=floor((p-1)/4)} C(4k,2k)C(2k,k)H_k^(2)/64^k (mod p)",
      1)
def _pairs_lemma_2_6a(p, r, e):
    return [(_half_fold(p, e, W_H2), _sum64_h2(p))]


@_row("lemma-2.6b", "sum_{k<=floor((p-1)/4)} C(4k,2k)C(2k,k)H_k^(2)/64^k == -E_{p-3}(1/4) (mod p)", 1)
def _pairs_lemma_2_6b(p, r, e):
    return [(_sum64_h2(p), -_euler_quarter(p))]


@_row("lemma-2.6-altsum",
      "-2(-1)^floor((p-1)/4) sum (-1)^k/k^2 == -(1/4)(-1)^floor((p-1)/4) "
      "(B_{p-2}({(4-p)/8}) - B_{p-2}({-p/8})) (mod p)", 1)
def _pairs_lemma_2_6_altsum(p, r, e):
    f = (p - 1) // 4
    lhs = -2 * _sign(f) * _alt_quarter_sum(p)
    diff = bernoulli_diff_mod_p(p - 2, frac_part(Fraction(4 - p, 8)), frac_part(Fraction(-p, 8)), p)
    return [(lhs, -_sign(f) * pow(4, -1, p) * diff)]


@_row("lemma-2.7",
      "sum_{k<=(p-1)/2} G((p+1)/2,k) == p(-1|p) + (p^3/4)(2|p) E_{p-3}(1/4) (mod p^4)", 4)
def _pairs_lemma_2_7(p, r, e):
    # G((p+1)/2, k) = 0 for every k past the column, up to (p-1)/2
    return [(sum(_g_column((p + 1) // 2, p, e)), _rhs_central_quarter(p, e))]


@_row("binom-16k", "C((p-1)/2, 2k) == C(4k,2k)/16^k (mod p) for every 0 <= k <= floor((p-1)/4)", 1)
def _pairs_binom_16k(p, r, e):
    # C((p-1)/2, 2k) and C(4k, 2k) / 16^k, stepped in k
    h, ks = (p - 1) // 2, range(1, (p - 1) // 4 + 1)
    a = _stepped(p, e, (((h - 2 * k + 2) * (h - 2 * k + 1), 2 * k * (2 * k - 1)) for k in ks))
    b = _stepped(p, e, (((4 * k - 1) * (4 * k - 3), 8 * k * (2 * k - 1)) for k in ks))
    return list(zip(a, b))


@_row("poch-expansion",
      "(p/2+1-k)_{k-1}^2 == (k-1)!^2 (1 - pH_{k-1} + (p^2/4)(2H_{k-1}^2 - H_{k-1}^(2))) "
      "(mod p^3) for every 1 <= k <= (p-1)/2", 3)
def _pairs_poch_expansion(p, r, e):
    # (p/2 + 1 - k)_{k-1}^2 vs (k-1)!^2 (1 - p H_{k-1} + (p^2/4)(2 H_{k-1}^2 - H_{k-1}^(2)))
    m = p**e
    half, quarter = pow(2, -1, m), pow(4, -1, m)
    poch, fact, h1, h2, out = 1, 1, 0, 0, []
    for j, inv in enumerate(inverse_column((p - 3) // 2, p, e)):  # j = k - 1
        if j:
            poch = poch * (p - 2 * j) * half % m
            fact = fact * j % m
        h1, h2 = (h1 + inv) % m, (h2 + inv * inv) % m
        rhs = fact * fact * (1 - p * h1 + p * p * quarter * (2 * h1 * h1 - h2))
        out.append((poch * poch, rhs))
    return out


@_row("two-power-half", "2^((p-1)/2) == (2|p)(1 + (p/2)q - (p^2/8)q^2) (mod p^3), q = q_p(2)", 3)
def _pairs_two_power_half(p, r, e):
    q, m = fermat_quotient2(p), p**e
    rhs = legendre_symbol(2, p) * (1 + p * pow(2, -1, m) * q - p * p * pow(8, -1, m) * q * q)
    return [(pow(2, (p - 1) // 2, m), rhs)]


@_row("lemma-3.2", "G(p^r, (p^r+1)/2) == (-1)^((p^r-1)/2) p^r (mod p^(r+2))", lambda r: r + 2, r_indexed=True)
def _pairs_lemma_3_2(p, r, e):
    return [(_g_column(p**r, p, e)[-1], _sign((p**r - 1) // 2) * p**r)]


@_row("lemma-3.3", "sum_{k<=(p^r-1)/2} G(p^r,k) == 0 (mod p^(r+2))", lambda r: r + 2, r_indexed=True)
def _pairs_lemma_3_3(p, r, e):
    # k <= (p^r-1)/2: every k of the column but its last, (p^r+1)/2
    return [(sum(_g_column(p**r, p, e)[:-1]), 0)]


@_row("central-2pr", "C(2p^r,p^r) == 2 - 4p^r H_{p^r-1} == 2 - 4p H_{p-1} == 2 (mod p^2), chained", 2,
      r_indexed=True)
def _pairs_central_2pr(p, r, e):
    n = p**r
    a = _central_column(n, p, e)[-1]
    # n/j for j = 1 .. n-1, stepped by j/(j+1)
    b = 2 - 4 * sum(_stepped(p, e, [(n, 1)] + [(j, j + 1) for j in range(1, n - 1)])[1:])
    c = 2 - 4 * p * _harmonic((p,), 1, 1)[0]  # p H_{p-1} needs H_{p-1} mod p^(e-1), e = 2
    return [(a, b), (b, c), (c, 2)]


@_row("ps-1", "l C(2l,l) C(2k,k) == -2p^r (mod p^(r+1)) for all k+l = p^r, 0 < l < p^r/2",
      lambda r: r + 1, r_indexed=True)
def _pairs_ps_1(p, r, e):
    n = p**r
    c = _central_column(n - 1, p, e)
    return [(l * c[l] * c[n - l], -2 * n) for l in range(1, (n + 1) // 2)]


@_row("ps-2", "-2p^r/(l C(2l,l)) == C(2k,k) (mod p^2) for all k+l = p^r, 0 < l < p^r/2", 2, r_indexed=True)
def _pairs_ps_2(p, r, e):
    # -2p^r / (l C(2l, l)) is -p^r at l = 1, times (l-1) / (2(2l-1)) per step
    n = p**r
    c = _central_column(n - 1, p, e)
    lhs = _stepped(p, e, [(-n, 1)] + [(l - 1, 2 * (2 * l - 1)) for l in range(2, (n + 1) // 2)])
    return [(lhs[l], c[n - l]) for l in range(1, (n + 1) // 2)]


@_row("ps-3", "C(2p^r-2l, p^r-l) == 0 (mod p) for all 0 < l < p^r/2", 1, r_indexed=True)
def _pairs_ps_3(p, r, e):
    n = p**r
    c = _central_column(n - 1, p, e)
    return [(c[n - l], 0) for l in range(1, (n + 1) // 2)]


@_row("neg-binom-unit",
      "-C(-p^r-1, p^r-2k) = prod_{j<=p^r-2k}(1 + p^r/j) == 1 (mod p) for every 1 <= k <= (p^r-1)/2", 1,
      r_indexed=True)
def _pairs_neg_binom_unit(p, r, e):
    # -C(-n-1, s) = prod_{j<=s} (1 + n/j) = C(n+s, s) for n = p^r and every
    # odd s = n-2k, by induction: both sides are n+1 at s = 1, checked here,
    # and from s to s+2 the binomial steps by (-n-1-s)(-n-2-s) / ((s+1)(s+2))
    # and the product by (n+s+1)(n+s+2) / ((s+1)(s+2)), equal for every
    # integer n and s.  The product is == 1 mod p.
    n = p**r
    if -binomial(-n - 1, 1) != n + 1:
        raise EvaluatorError(
            f"product form of C({-n - 1}, 1) failed at p={p}, r={r}, k={(n - 1) // 2}")
    prods = _stepped(p, e, ((n + j, j) for j in range(1, n - 1)))
    return [(prods[n - 2 * k], 1) for k in range(1, (n - 1) // 2 + 1)]


def all_ids() -> tuple[str, ...]:
    """Every check id: congruences, then identities, then WZ certificates."""
    return (*REGISTRY, *identities.REGISTRY, *wz.REGISTRY)


def _require(cid: str) -> CongruenceSpec:
    row = REGISTRY.get(cid)
    if row is None:
        raise UnknownIdError(f"unknown congruence id: {cid}")
    return row


def _reduce_side(value: int, p: int, e: int) -> int:
    """A side as an int in [0, p^e); a side of any other type is an
    EvaluatorError."""
    if isinstance(value, int):
        return value % p**e
    raise EvaluatorError(f"evaluator returned a side of type {type(value).__name__}, not an int mod {p}^{e}")


def _compared(pairs, p: int, e: int) -> tuple[int, int]:
    """A row's two residues: its first unequal pair, or the sums of its
    pairs, mod p^e, when every pair is equal."""
    reduced = [(_reduce_side(lhs, p, e), _reduce_side(rhs, p, e)) for lhs, rhs in pairs]
    for lhs, rhs in reduced:
        if lhs != rhs:
            return lhs, rhs
    total = sum(lhs for lhs, _ in reduced) % p**e
    return total, total


def _judged(cid: str, primes, r: int, e: int, evaluate) -> list[Verdict]:
    """One Verdict per prime, from evaluate(), the pairs of each prime in
    turn; each micros is the time of the whole call divided evenly over the
    primes.  An evaluation error (a p-divisible denominator where none
    should occur, a side that is not an int) fails every row with its
    diagnostic instead of raising."""
    start = time.perf_counter_ns()
    try:
        sides = [_compared(pairs, p, e) for p, pairs in zip(primes, evaluate(), strict=True)]
        diagnostic = None
    except (NotPIntegralError, EvaluatorError) as exc:
        sides, diagnostic = [(None, None)] * len(primes), str(exc)
    micros = (time.perf_counter_ns() - start) // 1000 // len(primes)
    return [Verdict(cid, p, r, lhs, rhs, e, micros, diagnostic) for p, (lhs, rhs) in zip(primes, sides)]


def check_congruence(cid: str, p: int, r: int = 1) -> Verdict:
    """Evaluate both sides at the row's modulus p^e and compare each pair
    as two ints in [0, p^e).

    e comes from the registry alone and is passed to the row's evaluator
    (for a windowed row, the window of p alone).  Evaluation errors yield a
    failed Verdict carrying a diagnostic instead of raising (_judged).
    """
    row = _require(cid)
    if not (is_prime(p) and row.applicable(p, r)):
        raise InapplicableError(f"{cid} is not stated for p = {p}, r = {r}")
    e = row.modulus_exponent(r)
    return _judged(cid, (p,), r, e, lambda: [row.pairs(p, r, e)])[0]


def _check_window(cid: str, primes: tuple[int, ...]) -> list[Verdict]:
    row = REGISTRY[cid]
    e = row.modulus_exponent(1)
    return _judged(cid, primes, 1, e, lambda: row.window(primes, e))


# A task is (p, [(id, r), ...]) for the per-prime congruence rows at one
# prime, (0, [(id, depth)]) for one exact check, or (0, [(id, primes)]) for
# one windowed row over every prime of the window it is stated for.
_Task = tuple[int, list[tuple[str, int | tuple[int, ...]]]]


def _tasks(ids, primes, r_max: int, identities_n_max: int, wz_grid: int) -> list[_Task]:
    known = set(all_ids())
    for cid in ids:
        if cid not in known:
            raise UnknownIdError(f"unknown check id: {cid}")
    ids = sorted(set(ids))
    primes = [p for p in sorted(set(primes)) if is_prime(p)]
    tasks: list[_Task] = []
    for cid in ids:
        if cid in identities.REGISTRY:
            tasks.append((0, [(cid, max(identities_n_max, identities.REGISTRY[cid].n_min))]))
        elif cid in wz.REGISTRY:
            tasks.append((0, [(cid, wz_grid)]))
        elif REGISTRY[cid].window is not None:
            window = tuple(p for p in primes if REGISTRY[cid].applicable(p, 1))
            if window:
                tasks.append((0, [(cid, window)]))
    per_prime = [cid for cid in ids if cid in REGISTRY and REGISTRY[cid].window is None]
    for p in reversed(primes):
        id_rs = [(cid, r) for cid in per_prime
                 for r in range(1, r_max + 1) if REGISTRY[cid].applicable(p, r)]
        if id_rs:
            tasks.append((p, id_rs))
    return tasks


def _check_exact(cid: str, depth: int) -> Verdict:
    start = time.perf_counter_ns()
    if cid in identities.REGISTRY:
        failures = len(identities.check_identity_range(cid, depth))
    else:
        failures = wz.REGISTRY[cid](depth)
    micros = (time.perf_counter_ns() - start) // 1000
    return Verdict(cid, 0, 0, failures, 0, None, micros)


def _run_task(task: _Task) -> list[Verdict]:
    p, checks = task
    if p:
        return [check_congruence(cid, p, r) for cid, r in checks]
    (cid, arg), = checks
    return _check_window(cid, arg) if cid in REGISTRY else [_check_exact(cid, arg)]


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _work(tasks: list[_Task], todo_r: int, todo_w: int, result_w: int) -> None:
    """The body of a forked worker; it never returns.  It runs _run_task on
    each task index it reads from the pipe todo_r, 4 bytes at a time, until
    EOF, then writes one pickled payload to the pipe result_w:
    [(index, verdicts), ...], or the exception it caught.  SIGINT is left to
    the parent, which kills its workers, and os._exit skips the atexit
    handlers and the stdout buffer this process inherited."""
    import pickle
    import signal

    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        os.close(todo_w)  # the parent's write end: while open here, no EOF
        try:
            payload = []
            while chunk := os.read(todo_r, 4):
                index = int.from_bytes(chunk, "little")
                payload.append((index, _run_task(tasks[index])))
        except Exception as exc:
            payload = exc
        with open(result_w, "wb") as out:
            pickle.dump(payload, out)
        status = 0
    finally:
        os._exit(status)  # never unwind into the caller's frames


def _forked(tasks: list[_Task], workers: int) -> list[list[Verdict]]:
    """_run_task of each task, in order, computed by `workers` forked child
    processes.

    The children inherit the tasks by fork, so no task is pickled.  After
    forking, the parent writes the task indices into one pipe that all
    children read, 4 bytes each; reads and writes of 4 bytes are atomic, so
    each child takes the next index in order, and the indices are written
    as the pipe drains, so no list is too long for it.  Each child sends
    back one pickled payload on its own pipe (_work).  The first exception
    a child sends is raised here unchanged; a child that dies or exits
    without a payload raises RuntimeError naming its signal or status.
    However this call ends, every child still running is killed and every
    child is reaped, so none outlives it.  A fork copies only the calling
    thread, so the caller must run no other thread (verify runs none).
    """
    import pickle
    import select
    import signal

    todo = b"".join(i.to_bytes(4, "little") for i in range(len(tasks)))
    done: dict[int, list[Verdict]] = {}
    fds: set[int] = set()  # pipe ends open in this process
    children: dict[int, tuple[int, bytearray]] = {}  # result pipe -> (pid, bytes read)
    try:
        todo_r, todo_w = os.pipe()
        fds.update((todo_r, todo_w))
        for _ in range(workers):
            result_r, result_w = os.pipe()
            fds.update((result_r, result_w))
            pid = os.fork()
            if pid == 0:
                _work(tasks, todo_r, todo_w, result_w)
            os.close(result_w)
            fds.discard(result_w)
            children[result_r] = (pid, bytearray())
        os.close(todo_r)
        fds.discard(todo_r)
        while children:
            readable, writable, _ = select.select(
                list(children), [todo_w] if todo_w in fds else [], [])
            for fd in readable:
                pid, payload = children[fd]
                chunk = os.read(fd, 1 << 16)
                if chunk:
                    payload += chunk
                    continue
                os.close(fd)
                fds.discard(fd)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del children[fd]
                if code < 0:
                    raise RuntimeError(f"a worker process was killed by signal {-code} "
                                       f"({signal.Signals(-code).name})")
                if code or not payload:
                    raise RuntimeError(f"a worker process exited with status {code} "
                                       "and no result")
                payload = pickle.loads(payload)
                if isinstance(payload, BaseException):
                    raise payload
                done.update(payload)
            if writable:  # after the reads: a child that ended early says why first
                todo = todo[os.write(todo_w, todo[:select.PIPE_BUF]):]
                if not todo:
                    os.close(todo_w)
                    fds.discard(todo_w)
    finally:
        for fd in fds:
            os.close(fd)
        for pid, _ in children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [done[i] for i in range(len(tasks))]


def run_suite(ids, primes, *, r_max: int, jobs: int, identities_n_max: int,
              wz_grid: int) -> list[Verdict]:
    """One Verdict per selected exact check and per applicable (id, p, r)
    congruence triple, in (id, p, r) order; an id named twice is checked
    once.

    Identities are checked for n up to identities_n_max and WZ certificates
    to depth wz_grid; congruence rows for every r <= r_max they are stated
    for.  The work is one task per exact check, one per windowed row (that
    row at every prime it is stated for, from one remainder tree; each of
    its Verdicts gets the window's time divided evenly over its primes) and
    one per prime for the other rows; the exact checks and the windows come
    first, then the primes from the largest down, so the longest tasks start
    early.  The tasks run in min(jobs, tasks, usable_cpus()) forked worker
    processes (_forked) when that is more than one, each worker taking the
    next task as it finishes one, otherwise in this process, as they do
    wherever os.fork is missing.  The first error in a worker is raised
    here, and the other workers are killed at once.  Neither the order of
    ids nor the scheduling changes the result.  Raises UnknownIdError for an
    id from no family.
    """
    tasks = _tasks(ids, primes, r_max, identities_n_max, wz_grid)
    workers = min(jobs, len(tasks), usable_cpus()) if hasattr(os, "fork") else 1
    if workers > 1:
        chunks = _forked(tasks, workers)
    else:
        chunks = [_run_task(task) for task in tasks]
    verdicts = [v for chunk in chunks for v in chunk]
    verdicts.sort(key=lambda v: (v.id, v.p, v.r))
    return verdicts
