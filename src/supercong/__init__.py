"""Exact-arithmetic verification of binomial-sum congruences at prime-power
moduli: every check works in exact rationals or exactly in Z/p^e at the
stated modulus, never floats, so a pass is a certificate for that prime.

The package exports the entry points that run checks and the types of their
results; kernels and oracles are imported from their defining modules."""

from .congruences import InapplicableError, Verdict, all_ids, check_congruence, run_suite
from .exactnum import UnknownIdError
from .identities import check_identity, check_identity_range

__version__ = "0.1.0"

__all__ = [
    "InapplicableError",
    "UnknownIdError",
    "Verdict",
    "all_ids",
    "check_congruence",
    "check_identity",
    "check_identity_range",
    "run_suite",
]
