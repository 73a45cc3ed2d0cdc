"""Exact-arithmetic verification of binomial-sum congruences at prime-power
moduli: every check works in exact rationals or exactly in Z/p^e at the
stated modulus, never floats, so a pass is a certificate for that prime."""

from .combinat import (
    binomial,
    binomial_rational,
    factorial,
    frac_part,
    harmonic,
    pochhammer,
    recip_factorial,
)
from .congruences import (
    CongruenceSpec,
    InapplicableError,
    Verdict,
    all_ids,
    check_congruence,
    eval_series,
    run_suite,
)
from .exactnum import (
    ModulusMismatchError,
    NotPIntegralError,
    Residue,
    UnknownIdError,
    is_prime,
    padic_valuation,
    reduce_mod,
)
from .identities import IdentitySpec, check_identity, check_identity_range
from .special import (
    bernoulli_diff_mod_p,
    bernoulli_exact,
    bernoulli_poly_exact,
    bernoulli_poly_mod_p,
    bernoulli_table_mod_p,
    euler_number_mod_p,
    euler_poly_mod_p,
    fermat_quotient2,
    legendre_symbol,
)
from .wz import (
    check_pair_identity,
    closed_form_g,
    eval_f,
    eval_g,
    telescope_full_sum,
    telescope_half_sum,
    upper_tail_vanishes,
)

__version__ = "0.1.0"

__all__ = [
    "CongruenceSpec",
    "IdentitySpec",
    "InapplicableError",
    "ModulusMismatchError",
    "NotPIntegralError",
    "Residue",
    "UnknownIdError",
    "Verdict",
    "all_ids",
    "bernoulli_diff_mod_p",
    "bernoulli_exact",
    "bernoulli_poly_exact",
    "bernoulli_poly_mod_p",
    "bernoulli_table_mod_p",
    "binomial",
    "binomial_rational",
    "check_congruence",
    "check_identity",
    "check_identity_range",
    "check_pair_identity",
    "closed_form_g",
    "eval_f",
    "eval_g",
    "eval_series",
    "euler_number_mod_p",
    "euler_poly_mod_p",
    "factorial",
    "fermat_quotient2",
    "frac_part",
    "harmonic",
    "is_prime",
    "legendre_symbol",
    "padic_valuation",
    "pochhammer",
    "recip_factorial",
    "reduce_mod",
    "run_suite",
    "telescope_full_sum",
    "telescope_half_sum",
    "upper_tail_vanishes",
]
