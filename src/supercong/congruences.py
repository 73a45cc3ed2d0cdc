"""Registry of congruences at prime-power moduli, each bound to its
left/right evaluator; the one suite runner for every check family; and
Verdict, the one record type of a report.

Three families of checks exist, each with its own table keyed by id:
congruences (REGISTRY here, checked per (p, r)), identities
(identities.REGISTRY, checked for every n up to a depth) and the WZ grid
certificates (wz.REGISTRY, checked up to a grid depth).  all_ids() lists
the ids of all three, and run_suite() runs any selection of them.  The
modules of the two exact families are imported on first use, by all_ids()
or by a sweep that selects an exact check, so a launch that checks only
congruences never compiles them.

Row contract: each row is one _row declaration on its evaluator, giving
the row's id, its statement, its modulus exponent e (an int or a function
of r) and what the row reads from its prime: the series it sums (series),
its reads of the G column, of the column of C(2k, k) or of the column of
1/k (reads), and its values of p (values: E_{p-3}(1/4), E_{p-3} and the
lemma sums).  The declaration is the only place a row names them: the
evaluator takes them as arguments after (p, r, e), and the row's
pairs(p, r, e, table=None) makes the reads and calls it.  Rows enter
REGISTRY, and so all_ids(), in the order they are declared.  A row that is
another row's r = 1 case shares that row's evaluator (vanhamme with
guo-half-64).  check_congruence computes e once and calls pairs(p, r, e),
passing on the table of the task that runs it.  Each side of each pair is
an int, taken mod p^e; _compared compares each pair as two ints in
[0, p^e), and that is the only comparison.  A side of any other type makes
a failed row with a diagnostic.  Sides known only mod p (the Euler and
Bernoulli values of lemma-2.6b and lemma-2.6-altsum) are ints mod p, so
those rows fix e = 1.  Those values depend only on the residues of their
arguments, so 1/4, {(4-p)/8} and {-p/8} enter as residues mod p, and no row
builds a Fraction (nor does special.py on their way: fractions is never
imported).

Windowed rows: wolstenholme-h1, wolstenholme-h2, central-2p1p and morley
are declared on window(primes, e), which gives the pairs of every prime of
a window from one accumulating remainder tree (_remainder_tree).  Their
pairs(p, r, e), and so check_congruence, is the window of p alone, where
the tree is one run of steps mod p^e; run_suite checks each of them over
all its primes in one task.  H_{p-1} and H_{p-1}^(2) are S / D for the
steps [S, D] -> [S u_k + D, D u_k], u_k = k or k^2, up to p - 1
(_advance_sum); central-2p1p is (2p-1)! / (p (p-1)!^2), (2p-1)! taken mod
p^(e+1), and morley is (p-1)! / ((p-1)/2)!^2, both from the tree of the
description of k! (_advance).  The tree replaced the column of 1/k mod p^2
(h1, h2), the block products (central-2p1p) and math.comb (morley) at every
window size, one prime included, by measurement (2 vCPUs, Python 3.11.7,
each row alone in a fresh process; the replaced route in brackets):
h1 29 ms (61 ms), h2 51 ms (73 ms), central-2p1p 17 ms (27 ms), morley 7 ms
(210 ms) at p = 100003; h1 0.66 s (2.04 s), h2 1.11 s (2.09 s),
central-2p1p 0.44 s (0.57 s), morley 0.18 s (49 s) at p = 2124679.  On the
description advance, whose calls and runs cost more than the perm runs of
the advance it replaced, central-2p1p takes 32 ms and 0.68 s and morley
10 ms and 0.21-0.33 s at those primes, so at one large prime central-2p1p
is now slower than the block products were.

Term sequences are data.  Every sequence that a row sums or steps is one
description (_Terms): t_0 = 1 and a few segments, each giving t_i / t_{i-1}
as a constant times integer-linear factors (a i + b)^k over others, and the
weight of t_i as a i + b; the tests check each against the exact ratio of
its oracle term.  One step builder (_steps) turns a description into its
numerators, denominators and weights from any index, in O(1), for the
fold, the column and the remainder tree's advance.  Three loops stay code:
wz._f8 and wz._g8, the evidence for the G ratio that the G column steps by;
poch-expansion's, which carries four running quantities; and the sums of
1/k^m of h1 and h2 (_advance_sum, whose docstring says why).

Every sum or product over an index runs in Z/p^e, and no row inverts inside
its own loop.  A fold (_fold) runs over the state (v, N, D, S): the
product so far is p^v N / D, with v exact and N, D units mod p^e, and the
weighted sum so far is S / D.  A step does S <- S den + w p^v N, the fold
inverts D once per run, raises EvaluatorError if p is left in a
denominator, and holds no list: it keeps S / D and p^v N / D only at the
indices read (its stops).  Only a per-index row keeps every index, as a
column (_column; ps-1/2/3, ps-2's left side, neg-binom-unit, binom-16k),
and hands its pairs to the check one at a time (_Pairs); the quarter sums
weigh one column four ways (_quarter_sums).  A remainder tree (_tree_sums)
advances the state (N, S, D) of the same steps, N and D the products of
the numerators and denominators, and inverts its unit D once per prime
(_quotient).

The read rule: a sequence that a task reads only as sums below p comes
from a remainder tree, every other from one fold or one column.  Every
r = 1 series read is such a read, and so is lemma-2.7's sum of its G
column.  A row reads every shared input of its prime from one table
(_TaskFolds), which check_congruence passes to it: in a per-prime task, the
task's table, planned with every read that the task's rows declare;
outside a task, a table planned with the row's own reads.  The table
computes each sequence once, at the largest e its reads name, by the rule
(a tree of p alone beat the fold: 0.61 ms against 0.78 ms for S8-half mod
p^4 at p = 2011, 37 ms against 44 ms at p = 100003), and each value of p
once, on its first read.  A sweep applies the rule to all its primes
before any task runs, and so before any fork (_sweep_trees): a sequence
that two or more tasks read by tree is summed for all of them by one
accumulating remainder tree, and each task's table starts with those sums
(the trees took the 11 series rows on 99000:99400 from 15.0 s to 4.7 s,
the Euler values then still raised as powers; 2 vCPUs, Python 3.11.7).  A
prime whose tree D is not a unit (a factor 0, or p in a denominator) is
folded, and the fold raises the EvaluatorError of its row.  A read
outside the plan (an unknown sequence, an unplanned index, an e above the
planned e) raises EvaluatorError naming the read, and so fails its row
with a diagnostic; it never computes a sequence a second time.  The S8,
S64 and S512 terms serve their half and full series at every r, the G
column of p^r serves lemma-3.2 and lemma-3.3, and the column of C(2k, k)
serves central-2pr and ps-1/2/3.  E_{p-3}(1/4) serves thm-main, lemma-2.6b
and lemma-2.7; E_{p-3} serves sun-64, guo-liu, mao-512 and cxh-8-full; the
quarter sums serve lemma-2.2, 2.3, 2.4 and 2.6a; the 64-sum serves
lemma-2.6a and 2.6b; and one column of 1/k, to the furthest index and at
the largest e that the task's rows read, serves poch-expansion, the
quarter sums, the 64-sum and lemma-2.6-altsum.  Nothing is kept from one
task to the next.  Every reciprocal 1/k in a sum comes from the column
exactnum.inverse_column or from a tree's one inversion.  The exact
Fraction form of every row is the test oracle (PAIRS_EXACT in
tests/oracles.py), and the fold is the tree's oracle.

Independence rule: a row whose statement is a Bernoulli or Euler value
never computes that value through its own left-hand sum.  Every such value
on a right side comes from special.py's power sums (bernoulli_diff_mod_p);
lemma-2.6b and lemma-2.6-altsum assert E_{p-3}(1/4) and a Bernoulli
difference equal to a 64-weighted and an alternating sum, and neither sum
is used to compute them.

The runner (run_suite) runs the checks in forked children only when the
sweep pays for them: with more than one worker allowed, where os.fork
exists, and when the sweep's estimated cost exceeds the break-even
_BREAK_EVEN; otherwise, --jobs notwithstanding, in this process.  The cost
(_cost) is in fold steps: p^r for each per-prime row at (p, r) (50 for
two-power-half, a few modular powers), 9 per step of a window's remainder
tree (one per integer up to its largest prime), and d^3 / 100 for an exact
check at depth d (an identity's --identities-n-max, twice a grid's
--wz-grid).  The break-even, 500,000, is where the medians of --jobs 1 and
--jobs 2 cross for the 11 r-indexed rows (2 vCPUs, Python 3.11.7, two
rounds of 16 alternating launches per sweep, the pool forced on and off):
forking was 8-11 % slower at 5:79 r <= 2 (466,000 steps) and 10-30 % faster
at 5:29 r <= 3 (603,000).  The four windowed rows cross near 5:15000, about
60,000 tree steps, and an exact check grows about as the cube of its depth:
2.7 ms for an identity at depth 80 or a grid at 40 (0.45 us a step), 85 ms
for an identity at 300 and 265 ms for a grid at 150.  The pool is its own
module (pool.py), imported only by a sweep that forks.  The forked children
inherit the tasks, take task indices from one shared pipe, and each sends
back one pickled payload, its verdicts or the exception it caught.  The
first error is raised in the parent, which kills the other workers at once.

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
from functools import partial, wraps
from itertools import accumulate, chain, islice, repeat
from math import perm, prod
from operator import mul
from typing import Callable, Iterable, Iterator, NamedTuple

from .combinat import binomial
from .exactnum import NotPIntegralError, UnknownIdError, inverse_column, is_prime
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


def _reads_nothing(p: int, r: int, e: int) -> list[_Read]:
    return []


def _p_to_the_r(p: int, r: int) -> int:
    # the cost of a row that folds or sums a run of about p^r terms
    return p**r


@dataclass(frozen=True)
class CongruenceSpec:
    """Registry row: the statement, its modulus exponent e as a function of
    r, applicability, and an evaluator pairs(p, r, e, table=None) producing
    one or more (lhs, rhs) pairs to compare mod p^e.  The rows of REGISTRY
    are built by the _row decorator on their evaluators."""

    id: str
    description: str
    modulus_exponent: Callable[[int], int]
    # pairs(p, r, e, table=None), table the running task's table of p
    pairs: Callable[..., Iterable[tuple[int, int]]]
    min_prime: int = 5
    r_indexed: bool = False
    # window(primes, e): the pairs of each prime of a window, for a row
    # stated at r = 1 and a fixed e whose pairs come from one remainder tree
    window: Callable[[tuple[int, ...], int], list[list[tuple[int, int]]]] | None = None
    # reads(p, r, e): the reads of shared term sequences that pairs(p, r, e)
    # makes (those of the series, reads and values its _row declares), so
    # that one per-prime task computes each sequence once (_TaskFolds)
    reads: Callable[[int, int, int], list[_Read]] = _reads_nothing
    # cost(p, r): the work of pairs(p, r, e) in fold steps, for the runner
    cost: Callable[[int, int], int] = _p_to_the_r

    def applicable(self, p: int, r: int) -> bool:
        """Whether the row is stated for (p, r), p being prime: the callers
        test primality, _tasks once per prime of a sweep."""
        if p < self.min_prime or r < 1:
            return False
        return self.r_indexed or r == 1


# -- term sequences as data, and folding in Z/p^e ------------------------------


class _Segment(NamedTuple):
    """The terms t_i of a sequence at the indices i from start up to the next
    segment's start: t_i / t_{i-1} = c prod (a i + b)^k / (c' prod (a' i + b')^k')
    over the factors (a, b, k) of num and (a', b', k') of den, (c, c') = scale,
    and the weight of t_i is a_w i + b_w, (a_w, b_w) = weight.  A weight that
    switches from 0 to 1 is two segments, the second starting at the switch."""

    start: int
    num: tuple[tuple[int, int, int], ...] = ()
    den: tuple[tuple[int, int, int], ...] = ()
    scale: tuple[int, int] = (1, 1)
    weight: tuple[int, int] = (0, 0)


class _Terms(NamedTuple):
    """A term sequence as data: t_0 = 1, then each t_i and the weight of every
    t_i as the segment that holds i gives them; the first segment starts at
    0.  It is frozen and hashable, so a task's table keys its reads by it,
    and its name says which sequence it is in a diagnostic."""

    name: str
    segments: tuple[_Segment, ...]


def _linear(factors, c: int, lo: int, hi: int):
    """c prod (a i + b)^k over the factors (a, b, k), for lo <= i < hi, as an
    iterator built at C level from ranges."""
    out = None if c == 1 and factors else repeat(c, hi - lo)
    for a, b, k in factors:
        run = range(a * lo + b, a * hi + b, a) if a else repeat(b, hi - lo)
        run = map(pow, run, repeat(k)) if k > 1 else run
        out = run if out is None else map(mul, out, run)
    return out


def _parts(terms: _Terms, lo: int, hi: int) -> list[tuple[_Segment, int, int]]:
    """(segment, first, stop) for each segment that holds steps of lo < i <= hi:
    those with first <= i < stop."""
    parts, end = [], hi + 1
    for segment in reversed(terms.segments):
        first, stop = max(segment.start, lo + 1), min(end, hi + 1)
        if first < stop:
            parts.append((segment, first, stop))
        end = segment.start
    return parts[::-1]


def _steps(terms: _Terms, lo: int, hi: int):
    """The weight w_lo, then the numerators, the denominators and the weights
    of the steps t_i / t_{i-1} and w_i for lo < i <= hi, as three iterators:
    the one step builder of every fold, column and remainder tree.  It starts
    at any lo in O(1), since every factor and weight is linear in i."""
    parts = _parts(terms, lo, hi)
    a, b = next(segment.weight for segment in reversed(terms.segments) if segment.start <= lo)
    return (a * lo + b, chain(*[_linear(s.num, s.scale[0], first, stop) for s, first, stop in parts]),
            chain(*[_linear(s.den, s.scale[1], first, stop) for s, first, stop in parts]),
            chain(*[_linear((s.weight + (1,),), 1, first, stop) for s, first, stop in parts]))


def _product(factors, c: int, lo: int, hi: int) -> int:
    """c^(hi-lo) prod (a i + b)^k over the factors (a, b, k), for lo <= i < hi,
    as C-level products: a falling factorial (math.perm, which multiplies
    in halves) where a = 1 and the factor is positive."""
    out = c ** (hi - lo)
    for a, b, k in factors:
        x = a * lo + b
        out *= (perm(x + hi - lo - 1, hi - lo) if a == 1 and x > 0 else prod(_linear(((a, b, 1),), 1, lo, hi))) ** k
    return out


def _split(p: int, e: int, num: int, den: int, v: int) -> tuple[int, int, int, int]:
    """A factor num/den of a fold with p split out: (num, den, v, p^v mod
    p^e), v the valuation of the product so far moved by the factor's.  A
    zero factor is refused (p never splits out of 0), and so is a product
    left with p in its denominator (v < 0)."""
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
    return num, den, v, p**v if v < e else 0


def _fold(p: int, e: int, terms: _Terms, stops, weights=None) -> tuple[list[int], list[int]]:
    """The weighted sums S_i = w_0 t_0 + ... + w_i t_i and the terms t_i of
    terms, mod p^e, at each index i of stops (ascending): (sums, products)
    in the order of stops.  The weights are the sequence's own, or w_0, w_1,
    ... from the iterator weights.

    The state is (v, N, D, S): t_i = p^v N / D, v its exact p-adic valuation
    and N, D units mod p^e, and S_i = S / D.  Each step splits p out of num
    and den (_split), then does N <- N num, D <- D den and
    S <- S den + w p^v N.  D is inverted once per run: each stop keeps the
    part of D since the previous stop, and the end walks those parts back
    from the inverse of the whole.  The run ends at the last stop.
    """
    m = p**e
    s, nums, dens, own = _steps(terms, 0, stops[-1])
    if weights is not None:
        s, own = next(weights), weights
    v, pv, num_u, den_u = 0, 1, 1, 1
    steps = zip(nums, dens, own)
    captured = []  # (S, p^v N, the part of D since the previous stop) at each stop
    done = 0
    for stop in stops:
        for num, den, w in islice(steps, stop - done):
            if not (num % p and den % p):
                num, den, v, pv = _split(p, e, num, den, v)
            num_u, den_u = num_u * num % m, den_u * den % m
            if w or s:  # a product (every w 0) never touches S
                s = (s * den + w * pv * num_u) % m
        captured.append((s, pv * num_u, den_u))
        den_u, done = 1, stop
    inv = 1
    for _, _, d in captured:
        inv = inv * d % m
    inv = pow(inv, -1, m)  # 1 / D at the last stop
    sums, products = [0] * len(captured), [0] * len(captured)
    for j in range(len(captured) - 1, -1, -1):
        s, t, d = captured[j]
        sums[j], products[j] = s * inv % m, t * inv % m
        inv = inv * d % m
    return sums, products


def _column(p: int, e: int, terms: _Terms, n: int) -> list[int]:
    """t_0, ..., t_n mod p^e: the terms of the fold of terms at every index,
    for a per-index row.  Each index keeps p^v N and the unit part of its
    factor's den, and the end walks them back from the one inverse of D."""
    m = p**e
    v, pv, num_u, den_u = 0, 1, 1, 1
    products, dens = [1], [1]
    _, nums, step_dens, _ = _steps(terms, 0, n)
    for num, den in zip(nums, step_dens):
        if not (num % p and den % p):
            num, den, v, pv = _split(p, e, num, den, v)
        num_u, den_u = num_u * num % m, den_u * den % m
        products.append(pv * num_u)
        dens.append(den)
    inv = pow(den_u, -1, m)  # 1 / D at index n
    for i in range(n, -1, -1):
        products[i] = products[i] * inv % m
        inv = inv * dens[i] % m
    return products


# A read of a term sequence is (sequence, index, e, take): take is what the
# read takes, mod p^e: the sum S_index, the term t_index, or the column
# t_0 .. t_index.  A sequence is a _Terms, or _INVERSES, the column
# 0, 1/1, .., 1/index of exactnum.inverse_column, which only a column reads.
_Read = tuple[_Terms, int, int, int]
_SUM, _PRODUCT, _COLUMN = 0, 1, 2
_INVERSES = _Terms("the column of 1/k", ())


def _by_tree(p: int, held) -> bool:
    """The read rule: a sequence read only as sums below p comes from a
    remainder tree; every other from one fold or one column."""
    return all(take == _SUM and index < p for index, take in held)


def _computed(p: int, e: int, seq: _Terms, held) -> dict[tuple[int, int], object]:
    """{(index, take): what the read takes mod p^e} for the reads held of
    seq, by the read rule (_by_tree): the sums of a remainder tree of p
    alone, or else one column to the furthest index read, when some read
    takes a column (a column holds no sums), or one fold with a stop at
    each index read.  Where the tree's D is not a unit (a zero factor, or p
    in a denominator) the sequence is folded, so that the fold raises the
    EvaluatorError of its row, or cancels the p of a denominator."""
    indices = sorted({index for index, _ in held})
    if _by_tree(p, held):
        sums = _tree_sums(seq, [(p, e, indices)]).get(p)
        if sums is not None:
            return sums
    if any(take == _COLUMN for _, take in held):
        column = inverse_column(indices[-1], p, e) if seq is _INVERSES else _column(p, e, seq, indices[-1])
        return {(i, t): column if t == _COLUMN else column[i] for i, t in held if t != _SUM}
    sums, products = _fold(p, e, seq, indices)
    return {(i, t): (sums, products)[t][indices.index(i)] for i, t in held}


class _TaskFolds:
    """The table of one prime's shared inputs: the reads it was planned
    with, each sequence computed once, and the values of p, each computed
    once.

    A sequence is planned once, at the largest e of its reads, and computed
    on its first read by the read rule (_computed); its sums, terms and
    columns are kept by (index, take).  A read the plan does not hold (an
    unknown sequence, an unplanned index or take, an e above the planned
    e) raises EvaluatorError naming the read, so it never computes a
    sequence a second time or gives a residue at a lower e.  The sums of a
    sweep's remainder trees (sums, from _sweep_trees) are kept as given."""

    def __init__(self, p: int, reads, sums=None) -> None:
        self.p = p
        self.plans: dict[_Terms, tuple[int, set]] = {}  # sequence -> (e, {(index, take) read})
        self.folds: dict[_Terms, dict] = dict(sums or {})  # sequence -> {(index, take): what the read takes}
        self.values: dict[Callable, object] = {}  # value -> value(table)
        for seq, index, e, take in reads:
            top_e, held = self.plans.get(seq, (e, set()))
            held.add((index, take))
            self.plans[seq] = max(top_e, e), held

    def read(self, seq: _Terms, index: int, e: int, take: int):
        """What the planned read (seq, index, e, take) takes, mod p^E for
        the planned E >= e: S_index, t_index, or the column t_0 .. t_top."""
        top_e, held = self.plans.get(seq, (0, ()))
        if e <= top_e:
            if seq not in self.folds:
                self.folds[seq] = _computed(self.p, top_e, seq, held)
            if (index, take) in self.folds[seq]:
                return self.folds[seq][index, take]
        raise EvaluatorError(f"the {('sum', 'product', 'column')[take]} at index {index} of "
                             f"{seq.name} mod {self.p}^{e} is outside this task's plan")

    def value(self, value: Callable[[_TaskFolds], object]):
        """value(table), a value of p, computed on its first read."""
        if value not in self.values:
            self.values[value] = value(self)
        return self.values[value]


# -- remainder trees -----------------------------------------------------------

# Steps per exact product in a remainder tree: one reduction per run of steps
# rather than per step
_RUN = 32


def _advance(terms: _Terms):
    """The advance of the state (N, S, D) over the steps of terms: N = prod
    num, D = prod den and S / D the weighted sum, so that a step is
    [N, S, D] -> [N num, S den + w N num, D den].  A run of _RUN steps is one
    exact (A, B, C), and the state takes it as [N A, S C + B N, D C].  Where
    every weight is 0 (a product), B is 0, and a run is as long as makes A
    about the size of m, each of A and C one C-level product (_product).
    A zero factor sets D to 0: D is a unit exactly where no factor is 0 and
    no denominator holds p."""
    product = all(segment.weight == (0, 0) for segment in terms.segments)

    def advance(state, lo: int, hi: int, m: int) -> tuple[int, int, int]:
        n, s, d = state
        if product:
            length = max(_RUN, m.bit_length() // (hi.bit_length() or 1))
            for (_, num, den, (c, c_den), _), first, stop in _parts(terms, lo, hi):
                for run in range(first, stop, length):
                    end = min(run + length, stop)
                    a, c_run = _product(num, c, run, end), _product(den, c_den, run, end)
                    n, s, d = n * a % m, s * c_run % m, d * c_run % m if a else 0
            return n, s, d
        _, nums, dens, weights = _steps(terms, lo, hi)
        steps = zip(nums, dens, weights)
        for _ in range(lo, hi, _RUN):
            a, b, c = 1, 0, 1
            for num, den, w in islice(steps, _RUN):
                a, c = a * num, c * den
                b = b * den + w * a
            n, s, d = n * a % m, (s * c + b * n) % m, d * c % m if a else 0
        return n, s, d

    return advance


def _advance_sum(power: int):
    """The advance of the state (S, D) by the steps u_k = k^power:
    [S, D] [[u, 0], [1, u]] = [S u + D, D u], so D = prod u_k and
    S / D = sum 1 / u_k.  A run of _RUN steps is one exact matrix
    [[A, 0], [B, A]].

    It stays beside the description advance (_advance) because it is
    faster: written as a description, the term 1/k^m = ((k-1)/k)^m 1/(k-1)^m
    carries a numerator (k-1)!^m that this advance does without.  On the
    windows of 400 primes below 2820 that wolstenholme-sweep's seeds 1-4
    pick, H_{p-1} mod p^2 took 6.8-7.0 ms against 15.5-16.0 ms by _advance,
    and H_{p-1}^(2) mod p 8.1-8.3 ms against 18.4-18.6 ms (medians of 15
    interleaved runs, process time, 2 vCPUs, Python 3.11.7)."""
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
        descend(tuple([x % left[0] for x in state]), left, lo, mid)
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


def _tree_sums(terms: _Terms, reads) -> dict[int, dict[tuple[int, int], int]]:
    """{p: {(index, _SUM): S_index mod p^E}} for each read (p, E, indices)
    of terms, from one remainder tree over all of them, queried at (index,
    p^E) and ended by _quotient.  A prime whose D is not a unit gets no
    sums."""
    start = (1, _steps(terms, 0, 0)[0], 1)
    tree = _remainder_tree([(i, p**e) for p, e, held in reads for i in held], _advance(terms), start)
    sums = {}
    for p, e, held in reads:
        states = [tree[i, p**e] for i in held]
        if all(d % p for _, _, d in states):
            sums[p] = {(i, _SUM): _quotient(s, d, p**e) for i, (_, s, d) in zip(held, states)}
    return sums


# (p-1)! and (2p-1)!, the products of the windowed central-2p1p and morley
_FACTORIALS = _Terms("k!", (_Segment(0, ((1, 0, 1),)),))


# -- series ------------------------------------------------------------------


def _cubes(name: str, weight: tuple[int, int], root: int, ratio: tuple[int, int, int]) -> _Terms:
    """The terms t_n^3 / (-root^3)^n, weighted a n + b with (a, b) = weight,
    where t_0 = 1 and t_n / t_{n-1} = (c n + d) / (g n), (c, d, g) = ratio:
    each step is (c n + d)^3 / (-root g n)^3."""
    c, d, g = ratio
    return _Terms(f"the {name} terms", (_Segment(0, ((c, d, 3),), ((-root * g, 0, 3),), weight=weight),))


class _Series(NamedTuple):
    """The weighted sum of terms to the index bound(p^r)."""

    terms: _Terms
    bound: Callable[[int], int]

    def read(self, p: int, r: int, e: int) -> _Read:
        """The read of this sum at p^r, mod p^e: a half and a full series
        are two reads of one sequence."""
        return self.terms, self.bound(p**r), e, _SUM


_CENTRAL = (4, -2, 1)  # t_n = C(2n, n)
_HALF = lambda q: (q - 1) // 2
_FULL = lambda q: q - 1
_S8 = _cubes("S8", (3, 1), 2, _CENTRAL)
# (4k+1)(-1)^k ((1/2)_k / k!)^3, and (1/2)_k / k! = C(2k, k) / 4^k
_S64 = _cubes("S64", (4, 1), 4, _CENTRAL)
_S512 = _cubes("S512", (6, 1), 8, _CENTRAL)

_SERIES: dict[str, _Series] = {
    "S8-half": _Series(_S8, _HALF),
    "S8-full": _Series(_S8, _FULL),
    "S64-half": _Series(_S64, _HALF),
    "S64-full": _Series(_S64, _FULL),
    "S512-half": _Series(_S512, _HALF),
    "S512-full": _Series(_S512, _FULL),
    # sum (-1)^k (4k-1) ((-1/2)_k / k!)^3
    "Sgl": _Series(_cubes("Sgl", (4, -1), 1, (2, -3, 2)), lambda q: (q + 1) // 2),
}


def eval_series(series_id: str, p: int, r: int, e: int, *, table: _TaskFolds | None = None) -> int:
    """Partial sum of the named series at its upper bound for p^r, mod p^e,
    as an int in [0, p^e).

    The sum is read from table, the running task's table of p, or else from
    a table of this read alone, by the read rule: at r = 1 from a remainder
    tree (in a sweep, the sweep's tree over all its primes), and at r >= 2
    from the fold of the series' terms in Z/p^e, p split out of every
    factor.  Equal to the exact rational sum reduced mod p^e.  Raises
    EvaluatorError if some term has p in its denominator.
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
    read = series.read(p, r, e)
    return (_TaskFolds(p, [read]) if table is None else table).read(*read) % p**e


# -- shared pieces -------------------------------------------------------------


def _sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


def _euler_quarter(table: _TaskFolds) -> int:
    # E_{p-3}(1/4) mod p, lifted to [0, p), from the residue of 1/4 mod p, on
    # which alone it depends; any lift works inside the p^3-scaled terms below
    # because shifting by p only moves the product by p^4/4.
    p = table.p
    return euler_poly_mod_p(p - 3, pow(4, -1, p), p)


def _euler_number(table: _TaskFolds) -> int:
    return euler_number_mod_p(table.p - 3, table.p)


def _rhs_central_quarter(p: int, e: int, euler_quarter: int) -> int:
    # p (-1|p) + (p^3/4) (2|p) E_{p-3}(1/4)
    return p * legendre_symbol(-1, p) + p**3 * pow(4, -1, p**e) * legendre_symbol(2, p) * euler_quarter


def _quarter_column(p: int, e: int) -> _Read:
    """The read of 1/k mod p^e for k <= (p-1)/4: at e = 3 by the quarter
    sums, at e = 1 by the 64-sum and the alternating sum."""
    return _INVERSES, (p - 1) // 4, e, _COLUMN


def _quarter_terms(p: int) -> _Terms:
    """C(h, 2k) C(2k, k) / 4^k, h = (p-1)/2, stepped by (h-2k+2)(h-2k+1) / (2k)^2."""
    h = (p - 1) // 2
    return _Terms(f"the quarter terms of {p}", (_Segment(0, ((-2, h + 2, 1), (-2, h + 1, 1)), ((2, 0, 2),)),))


def _quarter_sums(table: _TaskFolds, e: int = 3) -> tuple[int, int, int, int]:
    """sum_{k<=(p-1)/4} C(h,2k) C(2k,k) w_k / 4^k mod p^e, h = (p-1)/2, for the
    weights w_k = 1, H_k, H_k^2 + H_k^(2) and H_k^(2), in that order, over one
    column of terms (oracle: half_fold in tests/oracles.py): every term and
    every H_k with k < p is a unit or p-integral.  The column of 1/k is the
    table's, whose plan reads it at e."""
    p = table.p
    f = (p - 1) // 4
    terms = _column(p, e, _quarter_terms(p), f)
    inverses = table.read(*_quarter_column(p, e))[:f + 1]
    h1, h2 = list(accumulate(inverses)), list(accumulate(inv * inv for inv in inverses))
    weights = repeat(1), h1, [x * x + y for x, y in zip(h1, h2)], h2
    return tuple(sum(map(mul, terms, w)) % p**e for w in weights)


# C(4k, 2k) C(2k, k) / 64^k, stepped by (4k-1)(4k-3) / (16k^2)
_TERMS_64 = _Terms("the 64-sum terms", (_Segment(0, ((4, -1, 1), (4, -3, 1)), ((4, 0, 2),)),))


def _sum64_h2(table: _TaskFolds) -> int:
    # sum_{k=1}^{floor((p-1)/4)} C(4k,2k) C(2k,k) H_k^(2) / 64^k mod p: the
    # weights H_k^(2) are running sums of the column of 1/k, not a description's
    p = table.p
    inverses = table.read(*_quarter_column(p, 1))
    return _fold(p, 1, _TERMS_64, ((p - 1) // 4,), accumulate(inv * inv for inv in inverses))[0][0]


def _alt_quarter_sum(table: _TaskFolds) -> int:
    # sum_{k=1}^{floor((p-1)/4)} (-1)^k / k^2 mod p: the even k less the odd k
    p = table.p
    inverses = table.read(*_quarter_column(p, 1))[:(p - 1) // 4 + 1]
    return (sum(inv * inv for inv in inverses[2::2]) - sum(inv * inv for inv in inverses[1::2])) % p


# The read of the task's table that each value makes, planned with the reads
# of every row that names the value
_VALUE_READS: dict[Callable, Callable[[int], _Read]] = {
    _quarter_sums: lambda p: _quarter_column(p, 3),
    _sum64_h2: lambda p: _quarter_column(p, 1),
    _alt_quarter_sum: lambda p: _quarter_column(p, 1),
}


def _g_terms(n: int) -> _Terms:
    """The G column of n >= 2 and its weights: t_n = G(n, 1) =
    (-1)^(n+1) (2n-1) prod_{j<n} ((2j-1)/j)^3, stepped from t_1 =
    (-1)^(n+1) (2n-1) by (2j-1)^3 / j^3 at i = j + 1, then t_{n+k-1} =
    G(n, k), stepped by G(n, k+1) / G(n, k) = (n-2k+1)(n-2k) / (2n-2k-1)^2 at
    i = n + k, to k = (n+1)/2, the last k with G(n, k) != 0.  The weights are
    0 before t_n and 1 from it, so S sums G(n, k) from k = 1."""
    cubes = ((2, -3, 3),), ((1, -1, 3),)
    return _Terms(f"the G column of {n}", (
        _Segment(0, scale=(_sign(n + 1) * (2 * n - 1), 1)), _Segment(2, *cubes), _Segment(n, *cubes, weight=(0, 1)),
        _Segment(n + 1, ((-2, 3 * n + 1, 1), (-2, 3 * n, 1)), ((-2, 4 * n - 1, 2),), weight=(0, 1))))


def _g_read(n: int, e: int, k: int, take: int) -> _Read:
    """The read of sum_{j<=k} G(n, j) (_SUM) or of G(n, k) (_PRODUCT) from
    the G column of n."""
    return _g_terms(n), n + k - 1, e, take


# C(2k, k), stepped by C(2k, k) / C(2k-2, k-1) = (4k-2)/k
_CENTRAL_TERMS = _Terms("the column of C(2k, k)", (_Segment(0, ((4, -2, 1),), ((1, 0, 1),)),))


def _central_read(n: int, e: int, take: int) -> _Read:
    """The read of C(2n, n) (_PRODUCT), or of C(2k, k) for k = 0 .. n (_COLUMN)."""
    return _CENTRAL_TERMS, n, e, take


def _central_below(p: int, r: int, e: int) -> _Read:
    # the column C(2k, k), k < p^r, of the ps rows
    return _central_read(p**r - 1, e, _COLUMN)


# -- the terms that one row steps for itself -----------------------------------


def _binom_16k_terms(p: int) -> tuple[_Terms, _Terms]:
    """C(h, 2k), h = (p-1)/2, and C(4k, 2k) / 16^k, stepped in k."""
    h = (p - 1) // 2
    return (_Terms(f"C({h}, 2k)", (_Segment(0, ((-2, h + 2, 1), (-2, h + 1, 1)), ((2, 0, 1), (2, -1, 1))),)),
            _Terms("C(4k, 2k) / 16^k", (_Segment(0, ((4, -1, 1), (4, -3, 1)), ((8, 0, 1), (2, -1, 1))),)))


def _morley_terms(n: int) -> _Terms:
    """C(n-1, j), stepped by (n-j)/j."""
    return _Terms(f"C({n - 1}, j)", (_Segment(0, ((-1, n, 1),), ((1, 0, 1),)),))


def _n_over_j_terms(n: int) -> _Terms:
    """n/j for j >= 1, stepped by (j-1)/j from n/1, each weighted 1."""
    return _Terms(f"{n}/j", (_Segment(0), _Segment(1, scale=(n, 1), weight=(0, 1)),
                             _Segment(2, ((1, -1, 1),), ((1, 0, 1),), weight=(0, 1))))


def _ps_2_terms(n: int) -> _Terms:
    """-2n / (l C(2l, l)) for l >= 1: -n at l = 1, then times (l-1) / (4l-2)."""
    return _Terms(f"-2 {n} / (l C(2l, l))", (_Segment(0, scale=(-n, 1)), _Segment(2, ((1, -1, 1),), ((4, -2, 1),))))


def _neg_binom_terms(n: int) -> _Terms:
    """C(n+s, s) at s = 2i-1: n+1 at i = 1, then from s to s+2 times
    (n+s+1)(n+s+2) / ((s+1)(s+2)), that is (n+2i-2)(n+2i-1) / ((2i-2)(2i-1))."""
    return _Terms(f"C({n} + s, s), s odd", (_Segment(0, scale=(n + 1, 1)),
                                            _Segment(2, ((2, n - 2, 1), (2, n - 1, 1)), ((2, -2, 1), (2, -1, 1)))))


# -- per-row pair evaluators ---------------------------------------------------

REGISTRY: dict[str, CongruenceSpec] = {}


class _Pairs:
    """The pairs of a per-index row, made by gen() on each pass over them
    instead of held in a list, so that a check stops at the first unequal
    pair; a caller may pass over them more than once."""

    def __init__(self, gen: Callable[[], Iterator[tuple[int, int]]]) -> None:
        self.gen = gen

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return self.gen()


def _row(cid: str, statement: str, e: int | Callable[[int], int], *,
         min_prime: int = 5, r_indexed: bool = False, windowed: bool = False,
         series: tuple[str, ...] = (), reads: tuple[Callable[[int, int, int], _Read], ...] = (),
         values: tuple[Callable[[_TaskFolds], object], ...] = (),
         cost: Callable[[int, int], int] = _p_to_the_r):
    """Decorator: enter the evaluator below it into REGISTRY as the row cid,
    stated at modulus p^e; e is an int, or a function of r for a row whose
    modulus grows with r.  cost(p, r) is the row's work in fold steps.

    This is the one place a row names what it reads from its prime.  The
    evaluator takes its inputs after (p, r, e), in this order: each series
    of series, as eval_series gives it at p^r; each read(p, r, e) of reads,
    a read of the G column, of the column of C(2k, k) or of the column of
    1/k; and each value(table) of values, a value of p.  The row's
    pairs(p, r, e, table=table) passes them in one call, from table, the
    running task's table of p, planned with every read the task's rows
    declare (the row's reads field, which holds the reads of its values
    too), so that each sequence is computed once and each value once;
    without a table, from a table planned with the row's own reads.  The
    name the evaluator is bound to stays the evaluator, so that another row
    can share it.  A windowed row's evaluator is window(primes, e), and the
    name it is bound to becomes pairs(p, r, e), its one-prime window."""
    exponent = e if callable(e) else lambda r: e

    def planned(p, r, e):  # _SERIES is looked up here, so that a replaced series takes effect
        return ([_SERIES[s].read(p, r, e) for s in series] + [read(p, r, e) for read in reads]
                + [_VALUE_READS[value](p) for value in values if value in _VALUE_READS])

    def register(evaluator):
        window = evaluator if windowed else None
        if windowed:
            def pairs(p, r, e, *, table=None):
                return window((p,), e)[0]
        else:
            # eval_series is looked up when it is called, so that the
            # benchmark's tracer, which wraps it, counts every series read
            @wraps(evaluator)
            def pairs(p, r, e, *, table=None):
                if table is None:
                    table = _TaskFolds(p, planned(p, r, e))
                return evaluator(p, r, e, *[eval_series(s, p, r, e, table=table) for s in series],
                                 *[table.read(*read(p, r, e)) for read in reads], *map(table.value, values))

        REGISTRY[cid] = CongruenceSpec(cid, statement, exponent, pairs, min_prime, r_indexed, window, planned, cost)
        return pairs if windowed else evaluator

    return register


@_row("thm-main",
      "sum_{n<=(p-1)/2} (3n+1)(-8)^-n C(2n,n)^3 == p(-1|p) + (p^3/4)(2|p) E_{p-3}(1/4) (mod p^4)", 4,
      series=("S8-half",), values=(_euler_quarter,))
def _pairs_thm_main(p, r, e, s8_half, euler_quarter):
    return [(s8_half, _rhs_central_quarter(p, e, euler_quarter))]


@_row("thm-prime-power",
      "sum_{n<p^r} (3n+1)(-8)^-n C(2n,n)^3 == (-1)^((p^r-1)/2) p^r (mod p^(r+2))",
      lambda r: r + 2, r_indexed=True, series=("S8-full",))
def _pairs_thm_prime_power(p, r, e, s8_full):
    return [(s8_full, _sign((p**r - 1) // 2) * p**r)]


# vanhamme is the r = 1 case of guo-half-64, which is declared further down
@_row("vanhamme",
      "sum_{k<=(p-1)/2} (4k+1)(-1)^k ((1/2)_k/k!)^3 == (-1)^((p-1)/2) p (mod p^3)", 3, min_prime=3,
      series=("S64-half",))
def _pairs_guo_half_64(p, r, e, s64_half):
    return [(s64_half, _sign((p - 1) // 2 * r) * p**r)]


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
                           _advance(_FACTORIALS), (1, 0, 1))
    return [[(_quotient(tree[2 * p - 1, p ** (e + 1)][0] // p, tree[p - 1, p**e][0] ** 2, p**e), 1)]
            for p in primes]


def _rhs_sign_euler(p: int, euler: int) -> int:
    # (-1)^((p-1)/2) p + p^3 E_{p-3}, the right side of sun-64 and cxh-8-full
    return _sign((p - 1) // 2) * p + p**3 * euler


@_row("sun-64",
      "sum_{k<p} (4k+1)(-64)^-k C(2k,k)^3 == (-1)^((p-1)/2) p + p^3 E_{p-3} (mod p^4)", 4,
      series=("S64-full",), values=(_euler_number,))
def _pairs_sun_64(p, r, e, s64_full, euler):
    return [(s64_full, _rhs_sign_euler(p, euler))]


@_row("guo-liu",
      "sum_{k<=(p+1)/2} (-1)^k (4k-1)(-1/2)_k^3/k!^3 == p(-1)^((p+1)/2) + p^3(2 - E_{p-3}) (mod p^4)", 4,
      series=("Sgl",), values=(_euler_number,))
def _pairs_guo_liu(p, r, e, sgl, euler):
    return [(sgl, p * _sign((p + 1) // 2) + p**3 * (2 - euler))]


# mao-512 sharpens this row to p^4, but its E_{p-3} mod p needs p >= 5, and
# this row is stated at p = 3 too
@_row("long-cxh-512", "sum_{n<=(p-1)/2} (6n+1)(-512)^-n C(2n,n)^3 == p(-2|p) (mod p^2)", 2, min_prime=3,
      series=("S512-half",))
def _pairs_long_cxh_512(p, r, e, s512_half):
    return [(s512_half, p * legendre_symbol(-2, p))]


@_row("mao-512",
      "sum_{n<=(p-1)/2} (6n+1)(-512)^-n C(2n,n)^3 == p(-2|p) + (p^3/4)(2|p) E_{p-3} (mod p^4)", 4,
      series=("S512-half",), values=(_euler_number,))
def _pairs_mao_512(p, r, e, s512_half, euler):
    rhs = p * legendre_symbol(-2, p) + p**3 * pow(4, -1, p**e) * legendre_symbol(2, p) * euler
    return [(s512_half, rhs)]


@_row("cxh-8-full", "sum_{k<p} (3k+1)(-8)^-k C(2k,k)^3 == p(-1)^((p-1)/2) + p^3 E_{p-3} (mod p^4)", 4,
      series=("S8-full",), values=(_euler_number,))
def _pairs_cxh_8_full(p, r, e, s8_full, euler):
    return [(s8_full, _rhs_sign_euler(p, euler))]


@_row("remark-sun-c51", "half 8-sum == 4(2|p) * full 512-sum - 3p(-1|p) (mod p^4)", 4,
      series=("S8-half", "S512-full"))
def _pairs_remark_sun_c51(p, r, e, s8_half, s512_full):
    return [(s8_half, 4 * legendre_symbol(2, p) * s512_full - 3 * p * legendre_symbol(-1, p))]


_row("guo-half-64",
     "sum_{k<=(p^r-1)/2} (4k+1)(-64)^-k C(2k,k)^3 == (-1)^((p-1)r/2) p^r (mod p^(r+2))",
     lambda r: r + 2, r_indexed=True, series=("S64-half",))(_pairs_guo_half_64)


@_row("guo-conj-full-64",
      "sum_{k<p^r} (4k+1)(-64)^-k C(2k,k)^3 == (-1)^((p-1)r/2) p^r (mod p^(r+2))",
      lambda r: r + 2, r_indexed=True, series=("S64-full",))
def _pairs_guo_conj_full_64(p, r, e, s64_full):
    return [(s64_full, _sign((p - 1) // 2 * r) * p**r)]


@_row("morley", "C(p-1,(p-1)/2) == (-1)^((p-1)/2) 4^(p-1) (mod p^3)", 3, windowed=True)
def _pairs_morley(primes, e):
    # C(p-1, (p-1)/2) = (p-1)! / ((p-1)/2)!^2, both factorials units
    tree = _remainder_tree([(n, p**e) for p in primes for n in ((p - 1) // 2, p - 1)],
                           _advance(_FACTORIALS), (1, 0, 1))
    return [[(_quotient(tree[p - 1, p**e][0], tree[(p - 1) // 2, p**e][0] ** 2, p**e),
              _sign((p - 1) // 2) * pow(4, p - 1, p**e))] for p in primes]


@_row("morley-power", "C(p^r-1,(p^r-1)/2) == (-1)^((p^r-1)/2) 4^(p^r-1) (mod p^3)", 3, r_indexed=True)
def _pairs_morley_power(p, r, e):
    n = p**r
    h = (n - 1) // 2
    _, (binom,) = _fold(p, e, _morley_terms(n), (h,))
    return [(binom, _sign(h) * pow(4, n - 1, p**e))]


@_row("lemma-2.2",
      "2^((9p-9)/2) sum C((p-1)/2,2k)C(2k,k)/4^k == (-1)^((p-1)/2)(1 + 6pq + 15p^2q^2) (mod p^3), q = q_p(2)",
      3, values=(_quarter_sums,))
def _pairs_lemma_2_2(p, r, e, quarter_sums):
    q = fermat_quotient2(p)
    rhs = _sign((p - 1) // 2) * (1 + 6 * p * q + 15 * p * p * q * q)
    return [(pow(2, (9 * p - 9) // 2, p**e) * quarter_sums[0], rhs)]


@_row("lemma-2.3",
      "2^((9p-9)/2) sum C((p-1)/2,2k)C(2k,k)H_k/4^k == -3(-1)^((p-1)/2)(2q + 11pq^2) (mod p^2)", 2,
      values=(_quarter_sums,))
def _pairs_lemma_2_3(p, r, e, quarter_sums):
    q = fermat_quotient2(p)
    rhs = -3 * _sign((p - 1) // 2) * (2 * q + 11 * p * q * q)
    return [(pow(2, (9 * p - 9) // 2, p**e) * quarter_sums[1], rhs)]


@_row("lemma-2.4",
      "2^((9p-9)/2) sum C((p-1)/2,2k)C(2k,k)(H_k^2+H_k^(2))/4^k == 36(-1)^((p-1)/2) q^2 (mod p)", 1,
      values=(_quarter_sums,))
def _pairs_lemma_2_4(p, r, e, quarter_sums):
    q = fermat_quotient2(p)
    rhs = 36 * _sign((p - 1) // 2) * q * q
    return [(pow(2, (9 * p - 9) // 2, p**e) * quarter_sums[2], rhs)]


@_row("lemma-2.6a",
      "sum C((p-1)/2,2k)C(2k,k)H_k^(2)/4^k == sum_{k<=floor((p-1)/4)} C(4k,2k)C(2k,k)H_k^(2)/64^k (mod p)",
      1, values=(_quarter_sums, _sum64_h2))
def _pairs_lemma_2_6a(p, r, e, quarter_sums, sum64):
    return [(quarter_sums[3], sum64)]


@_row("lemma-2.6b", "sum_{k<=floor((p-1)/4)} C(4k,2k)C(2k,k)H_k^(2)/64^k == -E_{p-3}(1/4) (mod p)", 1,
      values=(_sum64_h2, _euler_quarter))
def _pairs_lemma_2_6b(p, r, e, sum64, euler_quarter):
    return [(sum64, -euler_quarter)]


@_row("lemma-2.6-altsum",
      "-2(-1)^floor((p-1)/4) sum (-1)^k/k^2 == -(1/4)(-1)^floor((p-1)/4) "
      "(B_{p-2}({(4-p)/8}) - B_{p-2}({-p/8})) (mod p)", 1, values=(_alt_quarter_sum,))
def _pairs_lemma_2_6_altsum(p, r, e, alt_sum):
    f = (p - 1) // 4
    lhs = -2 * _sign(f) * alt_sum
    # {(4-p)/8} = ((4-p) mod 8) / 8 and {-p/8} = (-p mod 8) / 8, passed as
    # their residues mod p, on which alone the difference depends
    eighth = pow(8, -1, p)
    diff = bernoulli_diff_mod_p(p - 2, (4 - p) % 8 * eighth % p, -p % 8 * eighth % p, p)
    return [(lhs, -_sign(f) * pow(4, -1, p) * diff)]


# sum_{k<=(n+1)/2} G(n, k), n = (p+1)/2: G(n, k) = 0 for every k past the
# column, up to (p-1)/2
@_row("lemma-2.7",
      "sum_{k<=(p-1)/2} G((p+1)/2,k) == p(-1|p) + (p^3/4)(2|p) E_{p-3}(1/4) (mod p^4)", 4,
      reads=(lambda p, r, e: _g_read((p + 1) // 2, e, (p + 3) // 4, _SUM),), values=(_euler_quarter,))
def _pairs_lemma_2_7(p, r, e, g_sum, euler_quarter):
    return [(g_sum, _rhs_central_quarter(p, e, euler_quarter))]


@_row("binom-16k", "C((p-1)/2, 2k) == C(4k,2k)/16^k (mod p) for every 0 <= k <= floor((p-1)/4)", 1)
def _pairs_binom_16k(p, r, e):
    a, b = (_column(p, e, terms, (p - 1) // 4) for terms in _binom_16k_terms(p))
    return _Pairs(lambda: zip(a, b))


@_row("poch-expansion",
      "(p/2+1-k)_{k-1}^2 == (k-1)!^2 (1 - pH_{k-1} + (p^2/4)(2H_{k-1}^2 - H_{k-1}^(2))) "
      "(mod p^3) for every 1 <= k <= (p-1)/2", 3,
      reads=(lambda p, r, e: (_INVERSES, (p - 3) // 2, e, _COLUMN),))
def _pairs_poch_expansion(p, r, e, inverses):
    # (p/2 + 1 - k)_{k-1}^2 vs (k-1)!^2 (1 - p H_{k-1} + (p^2/4)(2 H_{k-1}^2 - H_{k-1}^(2))),
    # from the task's column of 1/k, which the quarter sums share.  The loop
    # carries four running quantities, two of them sums of the column, so
    # it is not one description's fold.
    m = p**e
    half, quarter = pow(2, -1, m), pow(4, -1, m)
    inverses = inverses[:(p - 1) // 2]

    def pairs():
        poch, fact, h1, h2 = 1, 1, 0, 0
        for j, inv in enumerate(inverses):  # j = k - 1
            if j:
                poch = poch * (p - 2 * j) * half % m
                fact = fact * j % m
            h1, h2 = (h1 + inv) % m, (h2 + inv * inv) % m
            yield poch * poch, fact * fact * (1 - p * h1 + p * p * quarter * (2 * h1 * h1 - h2))

    return _Pairs(pairs)


# a few powers of 2, and no run of terms: 21 us a row near p = 2800, about 50
# fold steps
@_row("two-power-half", "2^((p-1)/2) == (2|p)(1 + (p/2)q - (p^2/8)q^2) (mod p^3), q = q_p(2)", 3,
      cost=lambda p, r: 50)
def _pairs_two_power_half(p, r, e):
    q, m = fermat_quotient2(p), p**e
    rhs = legendre_symbol(2, p) * (1 + p * pow(2, -1, m) * q - p * p * pow(8, -1, m) * q * q)
    return [(pow(2, (p - 1) // 2, m), rhs)]


@_row("lemma-3.2", "G(p^r, (p^r+1)/2) == (-1)^((p^r-1)/2) p^r (mod p^(r+2))", lambda r: r + 2, r_indexed=True,
      reads=(lambda p, r, e: _g_read(p**r, e, (p**r + 1) // 2, _PRODUCT),))
def _pairs_lemma_3_2(p, r, e, g_last):
    # G(n, (n+1)/2), n = p^r, the last entry of the G column
    return [(g_last, _sign((p**r - 1) // 2) * p**r)]


@_row("lemma-3.3", "sum_{k<=(p^r-1)/2} G(p^r,k) == 0 (mod p^(r+2))", lambda r: r + 2, r_indexed=True,
      reads=(lambda p, r, e: _g_read(p**r, e, (p**r - 1) // 2, _SUM),))
def _pairs_lemma_3_3(p, r, e, g_but_last):
    # sum_{k<=(n-1)/2} G(n, k), n = p^r: every k of the G column but its last
    return [(g_but_last, 0)]


@_row("central-2pr", "C(2p^r,p^r) == 2 - 4p^r H_{p^r-1} == 2 - 4p H_{p-1} == 2 (mod p^2), chained", 2,
      r_indexed=True, reads=(lambda p, r, e: _central_read(p**r, e, _PRODUCT),))
def _pairs_central_2pr(p, r, e, a):
    n = p**r
    # the sum of n/j for j = 1 .. n-1
    (s,), _ = _fold(p, e, _n_over_j_terms(n), (n - 1,))
    b = 2 - 4 * s
    c = 2 - 4 * p * _harmonic((p,), 1, 1)[0]  # p H_{p-1} needs H_{p-1} mod p^(e-1), e = 2
    return [(a, b), (b, c), (c, 2)]


@_row("ps-1", "l C(2l,l) C(2k,k) == -2p^r (mod p^(r+1)) for all k+l = p^r, 0 < l < p^r/2",
      lambda r: r + 1, r_indexed=True, reads=(_central_below,))
def _pairs_ps_1(p, r, e, c):
    n = p**r
    return _Pairs(lambda: ((l * c[l] * c[n - l], -2 * n) for l in range(1, (n + 1) // 2)))


@_row("ps-2", "-2p^r/(l C(2l,l)) == C(2k,k) (mod p^2) for all k+l = p^r, 0 < l < p^r/2", 2, r_indexed=True,
      reads=(_central_below,))
def _pairs_ps_2(p, r, e, c):
    n = p**r
    lhs = _column(p, e, _ps_2_terms(n), (n - 1) // 2)
    return _Pairs(lambda: ((lhs[l], c[n - l]) for l in range(1, (n + 1) // 2)))


@_row("ps-3", "C(2p^r-2l, p^r-l) == 0 (mod p) for all 0 < l < p^r/2", 1, r_indexed=True,
      reads=(_central_below,))
def _pairs_ps_3(p, r, e, c):
    n = p**r
    return _Pairs(lambda: ((c[n - l], 0) for l in range(1, (n + 1) // 2)))


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
    # The product at the odd s = 2i-1 is entry i of a column that steps
    # from s to s+2 at once.
    prods = _column(p, e, _neg_binom_terms(n), (n - 1) // 2)
    return _Pairs(lambda: ((prods[(n + 1) // 2 - k], 1) for k in range(1, (n - 1) // 2 + 1)))


def all_ids() -> tuple[str, ...]:
    """Every check id: congruences, then identities, then WZ certificates."""
    from . import identities, wz  # the exact families load on first use

    return (*REGISTRY, *identities.REGISTRY, *wz.REGISTRY)


def _require(cid: str) -> CongruenceSpec:
    row = REGISTRY.get(cid)
    if row is None:
        raise UnknownIdError(f"unknown congruence id: {cid}")
    return row


def _compared(pairs, p: int, e: int) -> tuple[int, int]:
    """A row's two residues: its first unequal pair, or the sums of its
    pairs, mod p^e, when every pair is equal.  The pairs are taken one at a
    time, and none past the first unequal one.  A side that is not an int
    is an EvaluatorError."""
    m, total = p**e, 0
    for lhs, rhs in pairs:
        if not (isinstance(lhs, int) and isinstance(rhs, int)):
            bad = rhs if isinstance(lhs, int) else lhs
            raise EvaluatorError(f"evaluator returned a side of type {type(bad).__name__}, not an int mod {p}^{e}")
        lhs, rhs = lhs % m, rhs % m
        if lhs != rhs:
            return lhs, rhs
        total += lhs
    return total % m, total % m


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


def check_congruence(cid: str, p: int, r: int = 1, *, table: _TaskFolds | None = None) -> Verdict:
    """Evaluate both sides at the row's modulus p^e and compare each pair
    as two ints in [0, p^e).

    e comes from the registry alone and is passed to the row's evaluator
    (for a windowed row, the window of p alone), with table, the running
    task's table of p, when there is one.  Evaluation errors yield a
    failed Verdict carrying a diagnostic instead of raising (_judged).
    """
    row = _require(cid)
    if not (is_prime(p) and row.applicable(p, r)):
        raise InapplicableError(f"{cid} is not stated for p = {p}, r = {r}")
    e = row.modulus_exponent(r)
    return _judged(cid, (p,), r, e, lambda: [row.pairs(p, r, e, table=table)])[0]


def _check_window(cid: str, primes: tuple[int, ...]) -> list[Verdict]:
    row = REGISTRY[cid]
    e = row.modulus_exponent(1)
    return _judged(cid, primes, 1, e, lambda: row.window(primes, e))


# A task is (p, [(id, r), ...]) for the per-prime congruence rows at one
# prime, (0, [(id, depth)]) for one exact check, or (0, [(id, primes)]) for
# one windowed row over every prime of the window it is stated for.
_Task = tuple[int, list[tuple[str, int | tuple[int, ...]]]]


def _tasks(ids, primes, r_max: int, identities_n_max: int, wz_grid: int) -> list[_Task]:
    exact = [cid for cid in ids if cid not in REGISTRY]
    if exact:  # only then are the exact families imported
        from . import identities, wz

        for cid in exact:
            if cid not in identities.REGISTRY and cid not in wz.REGISTRY:
                raise UnknownIdError(f"unknown check id: {cid}")
    ids = sorted(set(ids))
    primes = [p for p in sorted(set(primes)) if is_prime(p)]
    tasks: list[_Task] = []
    for cid in ids:
        if cid not in REGISTRY:
            depth = max(identities_n_max, identities.REGISTRY[cid].n_min) if cid in identities.REGISTRY else wz_grid
            tasks.append((0, [(cid, depth)]))
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
    from . import identities, wz

    start = time.perf_counter_ns()
    if cid in identities.REGISTRY:
        failures = len(identities.check_identity_range(cid, depth))
    else:
        failures = wz.REGISTRY[cid](depth)
    micros = (time.perf_counter_ns() - start) // 1000
    return Verdict(cid, 0, 0, failures, 0, None, micros)


def _task_reads(p: int, checks) -> list[_Read]:
    """Every read that the rows of the per-prime task (p, checks) declare."""
    return [read for cid, r in checks for read in REGISTRY[cid].reads(p, r, REGISTRY[cid].modulus_exponent(r))]


def _sweep_trees(tasks) -> dict[int, dict[_Terms, dict]]:
    """{p: {sequence: {(index, _SUM): S_index mod p^E}}}: the read rule
    (_by_tree) over a sweep's primes.  A sequence that two or more per-prime
    tasks read only as sums below p, at the E of each task's plan, is
    summed for all of them by one remainder tree (_tree_sums); one that a
    single task reads so is left to that task's table, so that a forked
    worker computes it.  A prime whose D is not a unit gets no sums."""
    wanted: dict[_Terms, list] = {}  # sequence -> [(p, E, indices read)]
    for p, checks in tasks:
        if p:
            for seq, (e, held) in _TaskFolds(p, _task_reads(p, checks)).plans.items():
                if _by_tree(p, held):
                    wanted.setdefault(seq, []).append((p, e, sorted({i for i, _ in held})))
    sums: dict[int, dict[_Terms, dict]] = {}
    for seq, reads in wanted.items():
        if len(reads) > 1:
            for p, held_sums in _tree_sums(seq, reads).items():
                sums.setdefault(p, {})[seq] = held_sums
    return sums


def _run_task(task: _Task, sums: dict[int, dict] | None = None) -> list[Verdict]:
    """The Verdicts of one task.  The rows of a per-prime task share one
    table (_TaskFolds), passed to each of its checks, which starts with the
    sweep's tree sums at p (sums, from _sweep_trees) and is dropped when
    the task ends."""
    p, checks = task
    if p:
        table = _TaskFolds(p, _task_reads(p, checks), (sums or {}).get(p))
        return [check_congruence(cid, p, r, table=table) for cid, r in checks]
    (cid, arg), = checks
    return _check_window(cid, arg) if cid in REGISTRY else [_check_exact(cid, arg)]


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _forked(tasks: list[_Task], workers: int, run: Callable[[_Task], list[Verdict]]) -> list[list[Verdict]]:
    """run(task) of each task, in order, computed by `workers` forked child
    processes (pool.forked); the pool's module is imported here, so only a
    sweep that forks compiles it."""
    from .pool import forked

    return forked(tasks, workers, run)


# The runner's cost model, in fold steps, and the break-even past which
# forking pays; the module docstring says how each was measured
_TREE_STEP = 9
_EXACT_SCALE = 100
_BREAK_EVEN = 500_000


def _cost(tasks: list[_Task]) -> int:
    """The estimated cost of running tasks, in fold steps: the cost(p, r)
    of each per-prime row, p^r for most rows; _TREE_STEP per step of each
    window's remainder tree, one per integer up to its largest prime; and
    d^3 / _EXACT_SCALE per exact check, d its depth, doubled for a grid."""
    total = 0
    for p, checks in tasks:
        if p:
            total += sum(REGISTRY[cid].cost(p, r) for cid, r in checks)
        else:
            (cid, arg), = checks
            if cid in REGISTRY:
                total += _TREE_STEP * arg[-1]
            else:
                from . import identities

                total += (arg if cid in identities.REGISTRY else 2 * arg) ** 3 // _EXACT_SCALE
    return total


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
    processes (_forked) when that is more than one and the sweep's
    estimated cost (_cost) exceeds _BREAK_EVEN, each worker taking the next
    task as it finishes one; otherwise they run in this process, as they do
    wherever os.fork is missing, so jobs is a cap, not a demand.  The first
    error in a worker is raised here, and the other workers are killed at
    once.  Neither the order of ids nor the scheduling changes the result.
    Raises UnknownIdError for an id from no family.
    """
    tasks = _tasks(ids, primes, r_max, identities_n_max, wz_grid)
    workers = min(jobs, len(tasks), usable_cpus()) if hasattr(os, "fork") else 1
    # the sweep's trees, before any fork, so that the workers inherit them
    run = partial(_run_task, sums=_sweep_trees(tasks))
    if workers > 1 and _cost(tasks) > _BREAK_EVEN:
        chunks = _forked(tasks, workers, run)
    else:
        chunks = [run(task) for task in tasks]
    verdicts = [v for chunk in chunks for v in chunk]
    verdicts.sort(key=lambda v: (v.id, v.p, v.r))
    return verdicts
