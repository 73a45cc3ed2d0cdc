import ast
import os

import supercong

PACKAGE = os.path.dirname(supercong.__file__)
INIT = os.path.join(PACKAGE, "__init__.py")

ENTRY_POINTS = {"all_ids", "run_suite", "check_congruence", "check_identity", "check_identity_range",
                "Verdict", "UnknownIdError", "InapplicableError"}

# Test oracles that stay in src/ only because the benchmark's span tracer pins
# them by module attribute: each is named by its defining module alone.
PINNED_ORACLES = {
    "binomial_rational": "combinat",
    "frac_part": "combinat",
    "harmonic": "combinat",
    "pochhammer": "combinat",
    "recip_factorial": "combinat",
    "padic_valuation": "exactnum",
    "bernoulli_table_mod_p": "special",
    "bernoulli_poly_mod_p": "special",
    "bernoulli_poly_exact": "special",
    "eval_f": "wz",
    "eval_g": "wz",
    "closed_form_g": "wz",
    "telescope_half_sum": "wz",
    "telescope_full_sum": "wz",
}


def _parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read())


def _imported_public_names() -> set[str]:
    return {alias.asname or alias.name
            for node in _parse(INIT).body if isinstance(node, ast.ImportFrom)
            for alias in node.names if not (alias.asname or alias.name).startswith("_")}


def _names(tree: ast.Module) -> set[str]:
    """Every identifier the module uses: names, attributes and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name, node.asname)))
    return names


def test_exports_are_the_entry_points():
    assert set(supercong.__all__) == ENTRY_POINTS


def test_every_export_resolves():
    for name in supercong.__all__:
        assert hasattr(supercong, name), name


def test_no_duplicate_exports():
    assert len(supercong.__all__) == len(set(supercong.__all__))


def test_exports_equal_public_imports():
    assert set(supercong.__all__) == _imported_public_names()


def test_pinned_oracles_are_named_only_where_defined():
    for filename in sorted(os.listdir(PACKAGE)):
        if filename.endswith(".py"):
            module = filename[:-3]
            used = _names(_parse(os.path.join(PACKAGE, filename))) & PINNED_ORACLES.keys()
            assert {name for name in used if PINNED_ORACLES[name] != module} == set(), filename
