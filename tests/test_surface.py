"""The public surface: every exported name, and every public method and
property of each exported class, is listed here, so adding or removing one
is a deliberate edit of this file."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coverideals
from coverideals import (
    InvariantReport,
    PatrolSolution,
    QuotientCertificate,
    ResolutionShifts,
    find_linear_order,
    resolution_shifts,
)
from helpers import ideal_of

PUBLIC_NAMES = [
    "BACKTRACK_GENERATOR_LIMIT",
    "BRUTE_FORCE_LIMIT",
    "CoverIdealsError",
    "HITTING_SET_LIMIT",
    "InconclusiveError",
    "InvariantReport",
    "KPrimeSpec",
    "LoopGraph",
    "MonomialIdeal",
    "OracleDisagreementError",
    "PatrolSolution",
    "QuotientCertificate",
    "ResolutionShifts",
    "SizeGuardError",
    "ValidationError",
    "check_linear_quotients",
    "cover_ideal_by_intersection",
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
    "KPrimeSpec": ["m", "n", "sigma"],
    "LoopGraph": [],
    "MonomialIdeal": ["gens", "is_principal", "is_zero", "max_degree", "to_json_dict"],
    "OracleDisagreementError": [],
    "PatrolSolution": ["to_json_dict"],
    "QuotientCertificate": [],
    "ResolutionShifts": ["to_json_dict"],
    "SizeGuardError": [],
    "ValidationError": [],
}

SUBMODULES = ("cli", "covers", "errors", "graphs", "invariants", "monomials", "quotients")


def test_package_exports_exactly_the_listed_names():
    assert sorted(coverideals.__all__) == PUBLIC_NAMES
    assert all(hasattr(coverideals, name) for name in PUBLIC_NAMES)


def test_submodule_exports_are_package_exports():
    """The package's list is its modules' lists, re-exported by star imports,
    so a name listed twice would let a later import shadow an earlier one:
    each public name is listed by exactly one module, and the package
    exports that module's object."""
    owners = {}
    for name in SUBMODULES:
        module = importlib.import_module(f"coverideals.{name}")
        for attr in getattr(module, "__all__", ()):
            owners.setdefault(attr, []).append(module)
    assert sorted(owners) == PUBLIC_NAMES
    for attr, (module, *others) in owners.items():
        assert not others, attr
        assert getattr(coverideals, attr) is getattr(module, attr), attr


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


def test_import_loads_no_introspection_modules():
    """The result records are plain tuples and the CLI parses its own argv,
    so starting the CLI loads neither dataclasses nor the source-introspection
    chain behind it, nor argparse and the gettext it imports."""
    src = str(Path(coverideals.__file__).resolve().parents[1])
    code = ("import sys; before = set(sys.modules); import coverideals, coverideals.cli; "
            "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    added = set(proc.stdout.split())
    assert "coverideals.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize", "argparse",
                        "gettext"}


_IDEAL = ideal_of(3, (1, 2), (1, 3))  # canonical order linear, q = 1
_CERT = find_linear_order(_IDEAL)
_STEP = ideal_of(3, (2,))  # (X1X2) : (X1X3)

# (class, field values in order, their names, to_json_dict of the record or
# None for a record without one)
RECORDS = [
    (PatrolSolution, (2, ((1, 2), (1, 3))), ("covering_number", "optimal_covers"),
     {"covering_number": 2, "optimal_covers": [[1, 2], [1, 3]]}),
    (QuotientCertificate, (_IDEAL.gens, (_STEP,), 1, True), ("order", "steps", "q", "linear"),
     None),
    (ResolutionShifts, (((2, 2), (3,)),), ("levels",), {"shifts": [[2, 2], [3]]}),
    (InvariantReport, (3, 1, 2, "linear-quotients", 1, 2, 1, 1, (0, 2), False),
     ("n", "h", "dim", "route", "q", "pd", "depth", "reg", "reg_bounds", "cm"),
     {"n": 3, "h": 1, "dim": 2, "route": "linear-quotients", "q": 1, "pd": 2, "depth": 1,
      "reg": 1, "reg_bounds": [0, 2], "cm": False}),
]


@pytest.mark.parametrize("cls, values, names, as_json", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_result_records_are_immutable_values(cls, values, names, as_json):
    record = cls(*values)
    assert record == cls(**dict(zip(names, values)))
    assert [getattr(record, name) for name in names] == list(values)
    twin = cls(*values)
    assert twin is not record and twin == record and hash(twin) == hash(record)
    with pytest.raises(AttributeError):
        setattr(record, names[0], values[0])
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record) == f"{cls.__name__}({fields})"
    if as_json is not None:
        assert record.to_json_dict() == as_json


@pytest.mark.parametrize("cls, values, names, as_json", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_result_records_are_tuples_of_their_fields(cls, values, names, as_json):
    """A deliberate surface: the records inherit the tuple API (len, iteration,
    indexing, count, index, _make, _replace, _asdict) and compare equal to the
    plain tuple of their fields, whatever the record's class."""
    record = cls(*values)
    assert isinstance(record, tuple) and cls._fields == names and len(record) == len(names)
    assert record == values and hash(record) == hash(values) and tuple(record) == values
    assert cls._make(values) == record and record._asdict() == dict(zip(names, values))
    assert record._replace(**{names[0]: values[0]}) == record and record[0] == values[0]


def test_records_built_by_the_library_match_the_listed_ones():
    assert _CERT == RECORDS[1][0](*RECORDS[1][1])
    assert resolution_shifts(_CERT) == RECORDS[2][0](*RECORDS[2][1])


def test_invariant_report_defaults_its_six_trailing_fields_to_none():
    report = InvariantReport(5, 2, 3, "bounds-only")
    assert (report.q, report.pd, report.depth, report.reg, report.reg_bounds,
            report.cm) == (None,) * 6
    assert report == InvariantReport(n=5, h=2, dim=3, route="bounds-only", cm=None)
    assert report.to_json_dict() == {"n": 5, "h": 2, "dim": 3, "route": "bounds-only",
                                     "q": None, "pd": None, "depth": None, "reg": None,
                                     "reg_bounds": None, "cm": None}


_GRAPH, _SPEC = coverideals.LoopGraph(3, [(1, 2)]), coverideals.KPrimeSpec([2, 4])


@pytest.mark.parametrize("call, source, message", [
    (coverideals.invariants, _GRAPH, "^cannot compute invariants for LoopGraph$"),
    (coverideals.find_linear_order, _GRAPH, "^cannot find a linear order for LoopGraph$"),
    (coverideals.min_patrols, _GRAPH, "^cannot compute patrols for LoopGraph$"),
    (coverideals.h_of, _GRAPH, "^h_of takes a MonomialIdeal, not LoopGraph$"),
    (coverideals.h_of, _SPEC, "^h_of takes a MonomialIdeal, not KPrimeSpec$"),
    (coverideals.kprime_cover_ideal, _GRAPH, "^the closed form takes a KPrimeSpec, not LoopGraph$"),
    (coverideals.cover_ideal_by_intersection, _IDEAL,
     "^prime intersection takes a LoopGraph or a KPrimeSpec, not MonomialIdeal$"),
    (coverideals.minimal_covers_bruteforce, _IDEAL,
     "^brute force takes a LoopGraph or a KPrimeSpec, not MonomialIdeal$"),
    (lambda spec: coverideals.check_linear_quotients(spec, [(1,)]), _SPEC,
     "^an order belongs to a MonomialIdeal, not KPrimeSpec$"),
    (coverideals.resolution_shifts, _SPEC,
     "^resolution shifts take a QuotientCertificate, not KPrimeSpec$"),
], ids=["invariants", "find_linear_order", "min_patrols", "h_of-graph", "h_of-spec",
        "kprime_cover_ideal", "intersection", "bruteforce", "check_linear_quotients",
        "resolution_shifts-cert"])
def test_wrong_input_types_are_validation_errors(call, source, message):
    # a graph goes through a route first, and h of a spec is invariants(spec).h
    with pytest.raises(coverideals.ValidationError, match=message):
        call(source)
