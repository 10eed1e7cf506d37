"""Ideals of vertex covers for edge ideals of graphs with loops.

Core objects: exact monomial/ideal arithmetic, loop graphs and their
complete-core-plus-stars block specs, three independent routes to the ideal
of vertex covers, linear-quotient analysis with resolution shifts, graded
invariants with Cohen-Macaulay verdicts, and minimum-patrol cover selection.
"""

from .covers import (
    BRUTE_FORCE_LIMIT,
    PatrolSolution,
    cover_ideal_by_intersection,
    kprime_cover_ideal,
    min_patrols,
    minimal_covers_bruteforce,
)
from .errors import (
    CoverIdealsError,
    InconclusiveError,
    OracleDisagreementError,
    SizeGuardError,
    ValidationError,
)
from .graphs import KPrimeSpec, LoopGraph
from .invariants import (
    HITTING_SET_LIMIT,
    InvariantReport,
    h_of,
    invariants,
)
from .monomials import MonomialIdeal
from .quotients import (
    BACKTRACK_GENERATOR_LIMIT,
    QuotientCertificate,
    ResolutionShifts,
    check_linear_quotients,
    find_linear_order,
    resolution_shifts,
)

__version__ = "0.1.0"

__all__ = [
    "BACKTRACK_GENERATOR_LIMIT",
    "BRUTE_FORCE_LIMIT",
    "HITTING_SET_LIMIT",
    "CoverIdealsError",
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
