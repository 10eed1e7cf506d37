"""The public surface: every exported name, and every public method and
property of each exported class, is listed here, so adding or removing one
is a deliberate edit of this file."""

import importlib
import inspect

import coverideals

PUBLIC_NAMES = [
    "BACKTRACK_GENERATOR_LIMIT",
    "BRUTE_FORCE_LIMIT",
    "CoverIdealsError",
    "HITTING_SET_LIMIT",
    "InconclusiveError",
    "InvariantReport",
    "KPrimeSpec",
    "LoopGraph",
    "Monomial",
    "MonomialIdeal",
    "OracleDisagreementError",
    "PatrolSolution",
    "QuotientCertificate",
    "ResolutionShifts",
    "SizeGuardError",
    "ValidationError",
    "check_linear_quotients",
    "cover_ideal_by_intersection",
    "expand_kprime",
    "find_linear_order",
    "h_of",
    "invariants",
    "kprime_cover_ideal",
    "min_patrols",
    "minimal_covers_bruteforce",
    "resolution_shifts",
]

PUBLIC_MEMBERS = {
    "CoverIdealsError": [],
    "InconclusiveError": [],
    "InvariantReport": ["to_json_dict"],
    "KPrimeSpec": ["blocks", "m", "n", "sigma"],
    "LoopGraph": [],
    "Monomial": [
        "compact", "degree", "div_by_gcd", "divides", "exponents", "from_indices",
        "index_seq", "is_squarefree", "is_unit", "support", "text",
    ],
    "MonomialIdeal": [
        "colon", "compact", "is_principal", "is_squarefree", "is_zero", "max_degree",
        "text", "to_json_dict",
    ],
    "OracleDisagreementError": [],
    "PatrolSolution": ["to_json_dict"],
    "QuotientCertificate": ["to_json_dict"],
    "ResolutionShifts": ["betti", "length", "to_json_dict"],
    "SizeGuardError": [],
    "ValidationError": [],
}

SUBMODULES = ("cli", "covers", "errors", "graphs", "invariants", "monomials", "quotients")


def test_package_exports_exactly_the_listed_names():
    assert sorted(coverideals.__all__) == PUBLIC_NAMES
    assert all(hasattr(coverideals, name) for name in PUBLIC_NAMES)


def test_submodule_exports_are_package_exports():
    for name in SUBMODULES:
        module = importlib.import_module(f"coverideals.{name}")
        exported = getattr(module, "__all__", ())
        assert set(exported) <= set(PUBLIC_NAMES), name
        assert all(hasattr(module, attr) for attr in exported), name


def _public_members(cls):
    """Public methods, classmethods and properties defined on the class itself."""
    return sorted(
        attr for attr, value in vars(cls).items()
        if not attr.startswith("_")
        and (inspect.isfunction(value)
             or isinstance(value, (property, classmethod, staticmethod)))
    )


def test_exported_classes_have_exactly_the_listed_members():
    classes = {name: getattr(coverideals, name) for name in PUBLIC_NAMES}
    assert {
        name: _public_members(cls) for name, cls in classes.items() if inspect.isclass(cls)
    } == PUBLIC_MEMBERS
