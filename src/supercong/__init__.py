"""Exact-arithmetic verification of binomial-sum congruences at prime-power
moduli: every check works in exact rationals or exactly in Z/p^e at the
stated modulus, never floats, so a pass is a certificate for that prime.

The package exports the entry points that run checks and the types of their
results; kernels and oracles are imported from their defining modules.  The
identity checks are exported lazily (PEP 562): their module loads on first
access, so a launch that checks only congruences never compiles it."""

from .congruences import InapplicableError, Verdict, all_ids, check_congruence, run_suite
from .exactnum import UnknownIdError

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

# export -> the module that defines it, imported on first access
_LAZY_EXPORTS = {"check_identity": "identities", "check_identity_range": "identities"}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        from importlib import import_module

        return getattr(import_module(f".{_LAZY_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
