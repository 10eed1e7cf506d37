"""The public surface: every exported name is listed here, so adding or
removing one is a deliberate edit of this file."""

import importlib

import coverideals

PUBLIC_NAMES = [
    "BACKTRACK_GENERATOR_LIMIT",
    "BRUTE_FORCE_LIMIT",
    "CmSaturationVerdict",
    "CoverIdealsError",
    "DimensionMismatchError",
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
    "canonical_order",
    "check_linear_quotients",
    "cm_by_loop_saturation",
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
