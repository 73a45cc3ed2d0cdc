"""The certificate pair F(n,k), G(n,k): exact evaluation, the pair identity,
both telescoping collapses, the factored closed form for G((p+1)/2, k), and
REGISTRY, the grid certificates the suite runner checks by id.

F(n,0) reduces to (3n+1)(-8)^(-n) C(2n,n)^3, so the telescoped F-column is
exactly the half/full central-binomial sum checked by the congruence registry.

Both terms have the denominator 2^(3n-2k), so _f8 = 8^n F and _g8 = 8^n G
are integers.  Every grid check compares integers: each side times a power
of 8 fixed before its loop, the closed form as one numerator over one
denominator per k (_closed_form).  eval_f, eval_g, the telescoped sums and
closed_form_g, which no check reads, are their Fraction views.

A grid check evaluates each F and G it reads once, on its closed form (the
grids are the evidence for the G ratio that congruences._g_column steps by);
_telescoped sums the F column once for all M, telescope_full_sum(M) is M..M.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Callable

from .combinat import binomial


def _f8(n: int, k: int) -> int:
    """8^n F(n,k) = (-1)^n (3n-2k+1) C(2n,n) C(2n-2k,n-k) C(2n-2k,n) 4^k."""
    c = binomial(2 * n - 2 * k, n - k) * binomial(2 * n - 2 * k, n)  # 0 on most of a grid
    return c and (-1) ** n * (3 * n - 2 * k + 1) * binomial(2 * n, n) * c << 2 * k


def _g8(n: int, k: int) -> int:
    """8^n G(n,k) = (-1)^(n+1) n C(2n,n) C(2n-2k,n-k) C(2n-2k,n-1) 4^k."""
    c = binomial(2 * n - 2 * k, n - k) * binomial(2 * n - 2 * k, n - 1)
    return c and (-1) ** (n + 1) * n * binomial(2 * n, n) * c << 2 * k


def eval_f(n: int, k: int) -> Fraction:
    """F(n,k) = (-1)^n (3n-2k+1) C(2n,n) C(2n-2k,n-k) C(2n-2k,n) / 2^(3n-2k).

    Zero whenever n < k, and F(n,n) = 0 for n >= 1.
    """
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    return Fraction(_f8(n, k), 8**n)


def eval_g(n: int, k: int) -> Fraction:
    """G(n,k) = (-1)^(n+1) n C(2n,n) C(2n-2k,n-k) C(2n-2k,n-1) / 2^(3n-2k).

    Zero whenever n < k, and zero when the last binomial is out of range.
    """
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    return Fraction(_g8(n, k), 8**n)


def check_pair_identity(n_max: int, k_max: int) -> tuple[tuple[int, int], ...]:
    """The points (n, k) of 0 <= n <= n_max, 1 <= k <= k_max at which
    F(n,k-1) - F(n,k) = G(n+1,k) - G(n,k) fails exactly; () means it holds
    on the whole grid.  Both sides are compared times 8^(n+1), as integers,
    from each F(n,k) and G(n,k) with k <= k_max, each evaluated once."""
    if n_max < 1 or k_max < 1:
        raise ValueError("grid bounds must be at least 1")
    ks, failing = range(k_max + 1), []
    g = [_g8(0, k) for k in ks]
    for n in range(n_max + 1):
        f, g_next = [_f8(n, k) for k in ks], [_g8(n + 1, k) for k in ks]
        failing += [(n, k) for k in ks[1:] if 8 * (f[k - 1] - f[k]) != g_next[k] - 8 * g[k]]
        g = g_next
    return tuple(failing)


def telescope_half_sum(m: int) -> tuple[Fraction, Fraction]:
    """(sum_{n=0}^{m} F(n,0), sum_{k=1}^{m} G(m+1,k)); the pair identity
    forces the two components to be equal.  m plays the role of (p-1)/2 but
    needs no primality.  This is telescope_full_sum(m + 1)."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    return telescope_full_sum(m + 1)


def telescope_full_sum(big_m: int) -> tuple[Fraction, Fraction]:
    """(sum_{n=0}^{M-1} F(n,0), sum_{k=1}^{M-1} G(M,k)) for M >= 2.

    For odd M the G-column also vanishes for every k > (M+1)/2, so the
    full sum collapses onto k <= (M+1)/2; see upper_tail_vanishes.
    """
    if big_m < 2:
        raise ValueError(f"M must be at least 2, got {big_m}")
    (_, f_side, g_side), = _telescoped(big_m, big_m)
    return Fraction(f_side, 8**big_m), Fraction(g_side, 8**big_m)


def _telescoped(lo: int, hi: int):
    """(M, 8^M sum_{n<M} F(n,0), 8^M sum_{k=1}^{M-1} G(M,k)) for M = lo .. hi,
    as integers: the F column is summed once, for every M of the range."""
    f_side = 0
    for big_m in range(1, hi + 1):
        f_side = 8 * (f_side + _f8(big_m - 1, 0))
        if big_m >= lo:
            yield big_m, f_side, sum(_g8(big_m, k) for k in range(1, big_m))


def upper_tail_vanishes(big_m: int) -> bool:
    """For odd M: G(M,k) = 0 for all (M+1)/2 < k <= M-1."""
    if big_m < 3 or big_m % 2 == 0:
        raise ValueError(f"odd M >= 3 required, got {big_m}")
    return not any(_g8(big_m, k) for k in range((big_m + 1) // 2 + 1, big_m))


def _closed_form(p_odd: int) -> list[tuple[int, int]]:
    """closed_form_g(p_odd, k) times 8^n, n = (p+1)/2, as (numerator, denominator)
    for k = 1 .. n: 8 p (-1)^h C(p-1, h)^3 h! over (h + 2 - 2k)! P_k^2, h = (p-1)/2,
    as (p/2 + 1 - k)_{k-1} = P_k / 2^(k-1) with P_k the product of the odd
    numbers p + 2 - 2k, ..., p - 2, never zero; (0, 1) where h + 2 - 2k < 0."""
    h = (p_odd - 1) // 2
    fact = list(accumulate(range(1, h + 1), mul, initial=1))  # 0! .. h!
    num = (-1) ** h * 8 * p_odd * binomial(p_odd - 1, h) ** 3 * fact[h]
    top = h // 2 + 1  # the last k with h + 2 - 2k >= 0
    odd = accumulate(range(p_odd - 2, p_odd - 2 * top, -2), mul, initial=1)  # P_1 .. P_top
    pairs = [(num, fact[h + 2 - 2 * k] * o * o) for k, o in zip(range(1, top + 1), odd)]
    return pairs + [(0, 1)] * (h + 1 - top)


def closed_form_g(p_odd: int, k: int) -> Fraction:
    """Factored closed form for G((p+1)/2, k) on 1 <= k <= (p+1)/2:

        32 p (-1)^((p-1)/2) C(p-1,(p-1)/2)^3 / 2^((3p+3)/2)
          * ((p-1)/2)! / ( ((p+3)/2 - 2k)! * (p/2 + 1 - k)_{k-1}^2 * 4^k )

    with 1/(negative)! = 0, which makes the form total on its k-range.
    p_odd only needs to be odd: the identity is rational-function algebra,
    not a primality fact, so composite odd values exercise it too.  This is
    the Fraction view of _closed_form(p_odd)[k - 1], over 8^((p+1)/2).
    """
    if p_odd < 5 or p_odd % 2 == 0:
        raise ValueError(f"odd integer >= 5 required, got {p_odd}")
    if not 1 <= k <= (p_odd + 1) // 2:
        raise ValueError(f"k = {k} outside [1, {(p_odd + 1) // 2}]")
    num, den = _closed_form(p_odd)[k - 1]
    return Fraction(num, den << (3 * p_odd + 3) // 2)


# -- grid certificates: id -> (grid depth -> number of failing points) -------
# The functions look up the names above at call time, so a tracer that
# rebinds the public ones sees these calls too.


def _pair_failures(grid: int) -> int:
    return len(check_pair_identity(grid, grid))


def _half_sum_failures(grid: int) -> int:
    # telescope_half_sum(m) for m = 1 .. grid is telescope_full_sum(m + 1)
    return sum(1 for _, f_side, g_side in _telescoped(2, grid + 1) if f_side != g_side)


def _full_sum_failures(grid: int) -> int:
    return sum(1 for big_m, f_side, g_side in _telescoped(2, max(2, 2 * grid))
               if f_side != g_side or (big_m % 2 and not upper_tail_vanishes(big_m)))


def _closed_form_failures(grid: int) -> int:
    # p_odd = 5 is checked at every grid, the smallest included; 8^n G = num / den
    return sum(1 for p_odd in range(5, max(2 * grid, 6), 2)
               for k, (num, den) in enumerate(_closed_form(p_odd), 1)
               if _g8((p_odd + 1) // 2, k) * den != num)


REGISTRY: dict[str, Callable[[int], int]] = {
    "wz-pair": _pair_failures,
    "wz-half-sum": _half_sum_failures,
    "wz-full-sum": _full_sum_failures,
    "wz-closed-form": _closed_form_failures,
}
