"""Ideals of vertex covers for edge ideals of graphs with loops.

Core objects: exact monomial/ideal arithmetic, loop graphs and their
complete-core-plus-stars block specs, three independent routes to the ideal
of vertex covers, linear-quotient analysis with resolution shifts, graded
invariants with Cohen-Macaulay verdicts, and minimum-patrol cover selection.
Each public name is listed once, in its own module's ``__all__``.
"""

from . import covers, errors, graphs, invariants, monomials, quotients

# read before the star imports: the one from .invariants rebinds `invariants`
# from the module to the function
__all__ = [name for module in (covers, errors, graphs, invariants, monomials, quotients)
           for name in module.__all__]

from .covers import *
from .errors import *
from .graphs import *
from .invariants import *
from .monomials import *
from .quotients import *

__version__ = "0.1.0"
